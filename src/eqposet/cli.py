"""Command-line driver: validate, info, knit, compare, oracle."""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _quote  # the C escaper of json.dumps

from .fields import Tower
from .forms import _text, _vec_text, gram_matrix, quadratic
from .knitter import DEFAULT_MAX_SECTIONS, ComponentGraph, KnitError, _kind, knit
from .model import (Flavor, Label, ModelError, build_model, injective_profiles,
                    is_hereditary, projective_cd, radical_info)
from .oracle import OracleError, run_verification
from .pairing import pair_components
from .poset import EquippedPoset, ParameterError, PosetError, load_poset, validate


# ---------------------------------------------------------------- emitters

def _json_list(items: list[str], pad: str) -> str:
    """A JSON array of encoded items laid out as json.dumps(indent=2) lays it
    out, its items indented by `pad`."""
    if not items:
        return "[]"
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[:-2] + "]"


class _Digits(dict):
    """The decimal text of each int looked up, made once per emit: entries
    repeat, and udim repeats udimF wherever the local dimension is 1."""
    def __missing__(self, n: int) -> str:
        s = self[n] = _text(n)
        return s


def _json_vec(v: tuple[int, ...], digits: _Digits) -> str:
    """An integer vector as a JSON array of strings, laid out as a vertex
    field of emit_json; never empty, as each has an entry per point."""
    return '[\n        "' + '",\n        "'.join(map(digits.__getitem__, v)) + '"\n      ]'


_JSON_VERTEX = ('{\n      "id": %s,\n      "section": %s,\n      "kind": %s,\n'
                '      "label": %s,\n      "udimF": %s,\n      "udim": %s%s\n    }')
_JSON_ARROW = '{\n      "src": %s,\n      "dst": %s,\n      "a": %s,\n      "b": %s\n    }'
_JSON_LABEL = {lab: _quote(lab.value) for lab in Label}
_JSON_REGULAR = _quote(_kind(None, None))


def emit_json(G: ComponentGraph) -> str:
    """The component as json.dumps(..., indent=2) writes its dict, byte for byte."""
    digits = _Digits()
    vertices = [_JSON_VERTEX % (i, s, _JSON_REGULAR if pp is None and ip is None else _quote(_kind(pp, ip)),
                                _JSON_LABEL[lab], _json_vec(f, digits), _json_vec(u, digits),
                                "" if c is None else f',\n      "cd": {_json_vec(c, digits)}')
                for i, (s, lab, f, u, c, pp, ip) in enumerate(zip(
                    G.section_of, G.labels, G.udimF, G.udim, G.cd, G.proj_point, G.inj_point))]
    arrows = [_JSON_ARROW % a for a in G.arrows]
    sections = [_json_list(list(map(str, s)), " " * 6) for s in G.sections]
    return (f'{{\n  "flavor": {_quote(G.flavor)},\n  "status": {_quote(G.status)},\n'
            f'  "sections": {_json_list(sections, "    ")},\n'
            f'  "vertices": {_json_list(vertices, "    ")},\n'
            f'  "arrows": {_json_list(arrows, "    ")}\n}}\n')


_DOT_LETTER = {lab: lab.letter for lab in Label}


def emit_dot(G: ComponentGraph) -> str:
    digits = _Digits()
    lines = ["digraph component {", "  rankdir=LR;", "  node [shape=box];"]
    lines += ["  { rank=same; " + " ".join([f"v{i};" for i in sec]) + " }" for sec in G.sections]
    lines += [f'  v{i} [label="{i}: (' + ", ".join(map(digits.__getitem__, f)) + f') {_DOT_LETTER[lab]}"];'
              for i, (f, lab) in enumerate(zip(G.udimF, G.labels))]
    lines += ['  v%s -> v%s [label="(%s,%s)"];' % a for a in G.arrows]
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
    marks = {x: "strong" if x in P.strong else "weak" for x in P.points}
    print("points: " + "  ".join(f"{x} ({marks[x]})" for x in P.points))
    print("t_socle =", M.t_socle)
    print("hom table (rows = first index):")
    for x, row in zip(P.points, M.hom):
        print(f"  {x}: {_vec_text(row)}")
    print("radicals:")
    for x in P.points:
        if x == P.max:
            print(f"  rad(e_{x}) = 0")
            continue
        info = radical_info(M, x)
        pj = info.is_projective if info.is_projective is not None else "-"
        print(f"  rad(e_{x}) = {info.multiplicity} x [udimF {_vec_text(info.udimF)}, "
              f"label {info.label.value}, cd {_vec_text(info.cd)}, projective: {pj}]")
    print("hereditary:")
    for x in P.points:
        print(f"  e_{x}: {'yes' if is_hereditary(M, x) else 'no'}")
    print("injective profiles:")
    for x, prof in injective_profiles(M).items():
        print(f"  inj({x}): label {prof.label.value}, udimF {_vec_text(prof.udimF)}")
    if forms:
        print("gram matrix:")
        for row in gram_matrix(M):
            print("  " + _vec_text(row))
        print("q on projectives:")
        for x in P.points:
            if x == P.zero:
                continue
            cd = projective_cd(M, x)
            print(f"  q(cd P_{x}) = {quadratic(M, cd)}")


def cmd_info(args) -> int:
    _print_info(load_poset(args.path), Flavor(args.flavor), args.forms)
    return 0


def cmd_knit(args) -> int:
    G = knit(build_model(load_poset(args.path), Flavor(args.flavor)), max_sections=args.max_sections)
    sys.stdout.write((emit_json if args.format == "json" else emit_dot)(G))
    return 0


def cmd_compare(args) -> int:
    P = load_poset(args.path)
    Mr, Mc = build_model(P, Flavor.R), build_model(P, Flavor.C)
    Gr, Gc = knit(Mr, max_sections=args.max_sections), knit(Mc, max_sections=args.max_sections)
    report = pair_components(Gr, Gc, Mr, Mc)
    print(report)
    return 0 if report.ok else 1


def cmd_oracle(args) -> int:
    P = load_poset(args.path)
    flavors = [Flavor.R, Flavor.C] if args.flavor == "both" else [Flavor(args.flavor)]
    models = [build_model(P, fl) for fl in flavors]  # a poset error comes before a tower error
    tower = Tower(P.p, args.mode, args.q, args.c)
    ok = True
    for M in models:
        rep = run_verification(M, tower)
        print(rep)
        ok = ok and rep.ok
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it unchanged."""
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, PosetError, ParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ModelError, KnitError, OracleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
