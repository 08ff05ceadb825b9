"""Command-line driver: validate, info, knit, compare, oracle."""

from __future__ import annotations

import argparse
import json
import sys

from .fields import ParameterError, Tower, TowerSpec, default_tower
from .forms import gram_matrix, quadratic
from .knitter import DEFAULT_MAX_SECTIONS, ComponentGraph, KnitError, knit
from .model import (Flavor, ModelError, build_model, injective_profiles,
                    is_hereditary, projective_cd, radical_info)
from .oracle import OracleError, run_verification
from .pairing import pair_components
from .poset import EquippedPoset, PosetError, load_poset, validate


# ---------------------------------------------------------------- emitters

def component_to_dict(G: ComponentGraph) -> dict:
    vertices = []
    for v in sorted(G.vertices, key=lambda v: v.id):
        entry = {
            "id": v.id,
            "section": v.section,
            "kind": v.kind,
            "label": v.label.value,
            "udimF": list(v.udimF.as_strings()),
            "udim": list(v.udim.as_strings()),
        }
        if v.cd is not None:
            entry["cd"] = list(v.cd.as_strings())
        vertices.append(entry)
    arrows = [{"src": a.src, "dst": a.dst, "a": a.a, "b": a.b}
              for a in sorted(G.arrows, key=lambda a: (a.src, a.dst))]
    return {
        "flavor": G.flavor,
        "status": G.status,
        "sections": [list(s) for s in G.sections],
        "vertices": vertices,
        "arrows": arrows,
    }


def emit_json(G: ComponentGraph) -> str:
    return json.dumps(component_to_dict(G), indent=2) + "\n"


def emit_dot(G: ComponentGraph) -> str:
    lines = ["digraph component {", "  rankdir=LR;", "  node [shape=box];"]
    for sec in G.sections:
        names = " ".join(f"v{i};" for i in sec)
        lines.append(f"  {{ rank=same; {names} }}")
    for v in sorted(G.vertices, key=lambda v: v.id):
        lines.append(f'  v{v.id} [label="{v.id}: {v.udimF} {v.label.letter}"];')
    for a in sorted(G.arrows, key=lambda a: (a.src, a.dst)):
        lines.append(f'  v{a.src} -> v{a.dst} [label="({a.a},{a.b})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- commands

def cmd_validate(args) -> int:
    report = validate(load_poset(args.path, check=False))
    print(report)
    return 0 if report.ok else 1


def _print_info(P: EquippedPoset, flavor: Flavor, forms: bool) -> None:
    M = build_model(P, flavor)
    print(f"p = {P.p}, flavor {flavor.value}")
    marks = {x: "strong" if P.is_strong(x) else "weak" for x in P.points}
    print("points: " + "  ".join(f"{x} ({marks[x]})" for x in P.points))
    print("t_socle =", M.t_socle)
    print("hom table (rows = first index):")
    for x in P.points:
        row = ", ".join(str(M.hom_dim(x, y)) for y in P.points)
        print(f"  {x}: ({row})")
    print("radicals:")
    for x in P.points:
        if x == P.max:
            print(f"  rad(e_{x}) = 0")
            continue
        info = radical_info(M, x)
        pj = info.is_projective if info.is_projective is not None else "-"
        print(f"  rad(e_{x}) = {info.multiplicity} x [udimF {info.udimF}, "
              f"label {info.label.value}, cd {info.cd}, projective: {pj}]")
    print("hereditary:")
    for x in P.points:
        print(f"  e_{x}: {'yes' if is_hereditary(M, x) else 'no'}")
    print("injective profiles:")
    for x, prof in injective_profiles(M).items():
        print(f"  inj({x}): label {prof.label.value}, udimF {prof.udimF}")
    if forms:
        print("gram matrix:")
        for row in gram_matrix(M):
            print("  (" + ", ".join(str(v) for v in row) + ")")
        print("q on projectives:")
        for x in P.points:
            if x == P.zero:
                continue
            cd = projective_cd(M, x)
            print(f"  q(cd P_{x}) = {quadratic(M, cd)}")


def cmd_info(args) -> int:
    P = load_poset(args.path)
    _print_info(P, Flavor(args.flavor), args.forms)
    return 0


def _max_sections(args) -> int:
    if args.max_sections < 1:
        raise ParameterError("--max-sections must be >= 1")
    return args.max_sections


def cmd_knit(args) -> int:
    max_sections = _max_sections(args)
    P = load_poset(args.path)
    M = build_model(P, Flavor(args.flavor))
    G = knit(M, max_sections=max_sections)
    if args.format == "json":
        sys.stdout.write(emit_json(G))
    else:
        sys.stdout.write(emit_dot(G))
    return 0


def cmd_compare(args) -> int:
    max_sections = _max_sections(args)
    P = load_poset(args.path)
    Mr = build_model(P, Flavor.R)
    Mc = build_model(P, Flavor.C)
    Gr = knit(Mr, max_sections=max_sections)
    Gc = knit(Mc, max_sections=max_sections)
    report = pair_components(Gr, Gc, Mr, Mc)
    print(report)
    return 0 if report.ok else 1


def cmd_oracle(args) -> int:
    P = load_poset(args.path)
    if args.q is None and args.c is None:
        tower = default_tower(P.p, args.mode)
    elif args.mode == "inseparable":
        raise ParameterError("--q and --c apply to cyclic towers only")
    elif args.q is None or args.c is None:
        raise ParameterError("cyclic towers need both --q and --c")
    else:
        tower = Tower(TowerSpec(P.p, "cyclic", args.q, args.c))
    flavors = [Flavor.R, Flavor.C] if args.flavor == "both" else [Flavor(args.flavor)]
    ok = True
    for fl in flavors:
        M = build_model(P, fl)
        rep = run_verification(M, tower)
        print(rep)
        ok = ok and rep.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eqposet",
                                 description="p-equipped posets, their algebras, "
                                             "and knitted translation-quiver components")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check the axioms of an equipped poset file")
    v.add_argument("path")
    v.set_defaults(func=cmd_validate)

    i = sub.add_parser("info", help="print hom table, radicals, heredity, profiles")
    i.add_argument("path")
    i.add_argument("--flavor", choices=["r", "c"], default="r")
    i.add_argument("--forms", action="store_true", help="also print the bilinear form data")
    i.set_defaults(func=cmd_info)

    k = sub.add_parser("knit", help="knit the component of the simple projective")
    k.add_argument("path")
    k.add_argument("--flavor", choices=["r", "c"], default="r")
    k.add_argument("--max-sections", type=int, default=DEFAULT_MAX_SECTIONS)
    k.add_argument("--format", choices=["json", "dot"], default="json")
    k.set_defaults(func=cmd_knit)

    c = sub.add_parser("compare", help="knit both flavors and verify the pairing")
    c.add_argument("path")
    c.add_argument("--max-sections", type=int, default=DEFAULT_MAX_SECTIONS)
    c.set_defaults(func=cmd_compare)

    o = sub.add_parser("oracle", help="verify the model against an exact realization")
    o.add_argument("path")
    o.add_argument("--flavor", choices=["r", "c", "both"], default="both")
    o.add_argument("--mode", choices=["cyclic", "inseparable"], default="cyclic")
    o.add_argument("--q", type=int, default=None)
    o.add_argument("--c", type=int, default=None)
    o.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, PosetError, ParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ModelError, KnitError, OracleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
