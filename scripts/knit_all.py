#!/usr/bin/env python3
"""Knit every shipped fixture in both flavors, check the pairing, and
optionally write DOT files.

Usage: python3 scripts/knit_all.py [--out DIR] [--max-sections N]
"""

import argparse
import pathlib
import sys
from importlib import resources

from eqposet import Flavor, build_model, knit, load_poset, pair_components
from eqposet.cli import emit_dot
from eqposet.knitter import DEFAULT_MAX_SECTIONS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="write one DOT file per run here")
    ap.add_argument("--max-sections", type=int, default=DEFAULT_MAX_SECTIONS)
    args = ap.parse_args()

    out = pathlib.Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    fixtures = sorted(f.name[:-4] for f in (resources.files("eqposet") / "fixtures").iterdir()
                      if f.name.endswith(".eqp"))
    print(f"{'fixture':<16} {'p':>1}  {'flavor':<6} {'status':<22} "
          f"{'sections':>8} {'vertices':>8} {'arrows':>6}")
    failures = 0
    for name in fixtures:
        P = load_poset(str(resources.files("eqposet") / "fixtures" / f"{name}.eqp"))
        graphs = {}
        models = {}
        for fl in (Flavor.R, Flavor.C):
            M = build_model(P, fl)
            G = knit(M, max_sections=args.max_sections)
            graphs[fl], models[fl] = G, M
            print(f"{name:<16} {P.p:>1}  {fl.value:<6} {G.status:<22} "
                  f"{len(G.sections):>8} {len(G.vertices):>8} {len(G.arrows):>6}")
            if out:
                (out / f"{name}_{fl.value}.dot").write_text(emit_dot(G))
        report = pair_components(graphs[Flavor.R], graphs[Flavor.C],
                                 models[Flavor.R], models[Flavor.C])
        verdict = "ok" if report.ok else "FAIL"
        print(f"{'':<16}    pairing: {verdict} ({len(report.pairs)} vertex pairs)")
        if not report.ok:
            failures += 1
            print(report)
    if out:
        print(f"DOT files written to {out}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
