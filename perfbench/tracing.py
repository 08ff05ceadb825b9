"""Per-layer spans and counters, recorded from outside the program.

`install` replaces public functions and methods of the `eqposet` modules by
timing wrappers.  A function bound by name into another module (such as
`eqposet.cli.knit` or `eqposet.knitter.radical_info`) is replaced there too,
so every call site is seen.  Spans nest: a span's self time is its duration
minus the time of the spans it encloses.  Everything stays in memory until
`metrics` reads it.  `linalg.rref_cells` is computed, not timed: the sum of
rows x cols over every matrix handed to rref.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute or Class.method, span name)
SPANS = [
    ("eqposet.linalg", "ModQ.rref", "linalg.rref"),
    ("eqposet.linalg", "GenericField.rref", "linalg.rref"),
    ("eqposet.linalg", "ModQ.nullspace", "linalg.nullspace"),
    ("eqposet.linalg", "GenericField.nullspace", "linalg.nullspace"),
    *[("eqposet.linalg", f"{cls}.{m}", "linalg.reduce")
      for cls in ("ModQ", "GenericField") for m in ("reduce", "in_span", "coords")],
    ("eqposet.oracle", "build_family", "oracle.build_family"),
    ("eqposet.oracle", "verify_dims", "oracle.verify_dims"),
    ("eqposet.oracle", "verify_admissible", "oracle.verify_admissible"),
    ("eqposet.oracle", "oracle_radical", "oracle.radical"),
    ("eqposet.oracle", "oracle_hom_dim", "oracle.hom_dim"),
    ("eqposet.fields", "Tower.__init__", "fields.tower"),
    ("eqposet.fields", "Tower.g_mul", "fields.g_mul"),
    ("eqposet.model", "build_model", "model.build"),
    ("eqposet.model", "radical_info", "model.radical_info"),
    ("eqposet.model", "injective_profiles", "model.injective_profiles"),
    ("eqposet.knitter", "knit", "knitter.knit"),
    ("eqposet.knitter", "ComponentGraph.out_arrows", "knitter.out_arrows"),
    *[("eqposet.forms", f"RatVec.{m}", "forms.ratvec")
      for m in ("__init__", "of", "from_seq", "zeros", "unit",
                "__add__", "__sub__", "__mul__", "__rmul__", "__neg__")],
    ("eqposet.pairing", "pair_components", "pairing.pair"),
    ("eqposet.cli", "emit_json", "cli.emit"),
    ("eqposet.cli", "emit_dot", "cli.emit"),
    ("eqposet.poset", "load_poset", "poset.load"),
    ("eqposet.poset", "validate", "poset.validate"),
]

# counted, not timed: their time stays with the enclosing span
COUNTED = [
    ("eqposet.oracle", "RFamily.compose", "oracle.compose"),
    ("eqposet.oracle", "run_verification", "oracle.report"),
]


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.rows_max = 0
        self._child_s: list[float] = []   # time of enclosed spans, per open span

    def span(self, name: str, fn):
        child_s = self._child_s

        def wrapper(*args, **kwargs):
            self.before(name, args)
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:  # re-raised; a timeout must close the span too
                self.raised(name, e)
                raise
            finally:
                dt = time.perf_counter() - t0
                self.self_s[name] += dt - child_s.pop()
                self.calls[name] += 1
                if child_s:
                    child_s[-1] += dt
            self.after(name, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name] += 1
            self.after(name, result)
            return result

        return wrapper

    # -- counters read at layer boundaries ---------------------------------

    def before(self, name, args):
        if name == "linalg.rref":
            A = args[1]
            rows, cols = A.shape if hasattr(A, "shape") else (len(A), len(A[0]) if A else 0)
            self.rows_max = max(self.rows_max, rows)
            self.counts["rref_cells"] += rows * cols
        elif name == "model.radical_info" and self.counts["knit_depth"]:
            self.counts["knit_radical_info"] += 1
        elif name == "knitter.knit":
            self.counts["knit_depth"] += 1

    def raised(self, name, e):
        if name == "knitter.knit":
            self.counts["knit_depth"] -= 1
            if type(e).__name__ == "KnitError":
                self.counts["knit_errors"] += 1

    def after(self, name, result):
        if name == "knitter.knit":
            self.counts["knit_depth"] -= 1
            self.counts["vertices"] += len(result.vertices)
            self.counts["arrows"] += len(result.arrows)
            # the root is placed before attachment starts
            self.counts["placed"] += sum(v.proj_point is not None for v in result.vertices) - 1
        elif name == "pairing.pair":
            self.counts["pairs"] += len(result.pairs)
        elif name == "oracle.report":
            self.counts["exhaustive"] += bool(result.adm.division_exhaustive)

    def metrics(self) -> dict[str, tuple[float, str]]:
        s, n, c = self.self_s, self.calls, self.counts
        frac = lambda a, b: a / b if b else 0.0
        return {
            "linalg.rref_s": (s["linalg.rref"], "s"),
            "linalg.rref_calls": (n["linalg.rref"], "count"),
            "linalg.nullspace_s": (s["linalg.nullspace"], "s"),
            "linalg.nullspace_calls": (n["linalg.nullspace"], "count"),
            "linalg.reduce_s": (s["linalg.reduce"], "s"),
            "linalg.rows_max": (self.rows_max, "rows"),
            "linalg.rref_cells": (c["rref_cells"], "cells"),
            "oracle.build_family_s": (s["oracle.build_family"], "s"),
            "oracle.verify_dims_s": (s["oracle.verify_dims"], "s"),
            "oracle.verify_admissible_s": (s["oracle.verify_admissible"], "s"),
            "oracle.radical_s": (s["oracle.radical"], "s"),
            "oracle.hom_dim_s": (s["oracle.hom_dim"], "s"),
            "oracle.compose_calls": (n["oracle.compose"], "count"),
            "oracle.division_exhaustive_frac":
                (frac(c["exhaustive"], n["oracle.report"]), "frac"),
            "fields.tower_s": (s["fields.tower"], "s"),
            "fields.g_mul_s": (s["fields.g_mul"], "s"),
            "fields.g_mul_calls": (n["fields.g_mul"], "count"),
            "model.build_s": (s["model.build"], "s"),
            "model.radical_info_s": (s["model.radical_info"], "s"),
            "model.radical_info_calls": (n["model.radical_info"], "count"),
            "model.injective_profiles_s": (s["model.injective_profiles"], "s"),
            "knitter.knit_s": (s["knitter.knit"], "s"),
            "knitter.out_arrows_s": (s["knitter.out_arrows"], "s"),
            "knitter.out_arrows_calls": (n["knitter.out_arrows"], "count"),
            "knitter.vertices": (c["vertices"], "count"),
            "knitter.arrows": (c["arrows"], "count"),
            "knitter.errors": (c["knit_errors"], "count"),
            "knitter.attach_hit_frac": (frac(c["placed"], c["knit_radical_info"]), "frac"),
            "forms.ratvec_s": (s["forms.ratvec"], "s"),
            "forms.ratvec_ops": (n["forms.ratvec"], "count"),
            "pairing.pair_s": (s["pairing.pair"], "s"),
            "pairing.pairs": (c["pairs"], "count"),
            "cli.emit_s": (s["cli.emit"], "s"),
            "poset.load_s": (s["poset.load"], "s"),
            "poset.validate_s": (s["poset.validate"], "s"),
            "poset.validate_calls": (n["poset.validate"], "count"),
        }


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every site in SPANS and COUNTED; returns what `uninstall` needs
    to put the originals back."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "eqposet" or name.startswith("eqposet.")]
    saved = []

    def replace(owner, key, value):
        saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    for table, make in ((SPANS, tracer.span), (COUNTED, tracer.counted)):
        for module, attr, name in table:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    replace(cls, meth, staticmethod(make(name, raw.__func__)))
                else:
                    replace(cls, meth, make(name, raw))
                continue
            original = getattr(owner, attr)
            wrapped = make(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        replace(m, key, wrapped)
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, key, value in reversed(saved):
        setattr(owner, key, value)
