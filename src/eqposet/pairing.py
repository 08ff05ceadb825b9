"""The bijection between the two flavor components, vertex id for vertex id.

At a pair of label L, each point k gives one integer equation:

    kdim_r(L) * udimF_c[k] = loc_c(k) * udimF_r[k]

with kdim_r(L) = 1 (Strong) or p (Weak) and loc the local dimension of k in
each flavor (`model._loc`): w^-1 at a strong vertex, s^-1 at a weak one, and
unsolvable where p does not divide.  It carries flavor r's projectives,
radical summands and injective profiles to flavor c's, and the valuations
swap; the knitter attaches projectives in point order and completes meshes
in id order, so both flavors are knitted alike and r#i pairs with c#i.  Each
graph's `local` must be its flavor's loc and divide each of its udimF
entries, which makes the udim law on udimF / local this same equation.  Both
models must be of one poset: equal point names are not enough.  The status and
tau^-1 are read off the sections, so with equal sections `kinds differ` covers both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import mod

from .forms import _text, _vec_text
from .knitter import _PER_VERTEX, ComponentGraph, _kind
from .model import AlgebraModel, Flavor, _loc


@dataclass
class PairingReport:
    """The ids compared, and the problems of each failing pair by its id."""
    pairs: range = range(0)
    failures: dict[int, list[str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and not self.failures

    def __str__(self) -> str:
        lines = [f"component mismatch: {msg}" for msg in self.problems]
        for i in self.pairs:
            fails = self.failures.get(i, ())
            lines.append(f"pair r#{i} <-> c#{i}: {'FAIL' if fails else 'ok'}")
            lines += [f"    {m}" for m in fails]
        lines.append("correspondence " + ("holds" if self.ok else "FAILS"))
        return "\n".join(lines)


def pair_components(Gr: ComponentGraph, Gc: ComponentGraph,
                    Mr: AlgebraModel, Mc: AlgebraModel) -> PairingReport:
    """Compare Gr, knitted from Mr, with Gc from Mc pair by pair; Mr and Mc model one poset.
    An arrow outside the ids or repeated, local dimensions other than the
    flavor's, or a udimF entry its local dimension does not divide, stop it
    before the pairs."""
    report = PairingReport()
    if (Mr.flavor, Mc.flavor) != (Flavor.R, Flavor.C):
        report.problems.append(f"models are flavors {Mr.flavor.value} and {Mc.flavor.value}, not r and c")
        return report
    P = Mr.poset
    if P != Mc.poset:
        report.problems.append("models live on different posets")
        return report

    if len(Gr.sections) != len(Gc.sections):
        report.problems.append(f"section counts differ: {len(Gr.sections)} vs {len(Gc.sections)}")
        return report
    if Gr.sections != Gc.sections:
        # each id lies in one section, so equal sections make r#i <-> c#i a bijection
        k = next(k for k, ids in enumerate(Gr.sections) if ids != Gc.sections[k])
        report.problems.append(f"section {k} ids differ: {Gr.sections[k]} vs {Gc.sections[k]}")
        return report
    n = sum(map(len, Gr.sections))  # the sections are equal: one count of ids for both
    if short := [f"{G.flavor} {k} ({len(getattr(G, k))})" for G in (Gr, Gc) for k in _PER_VERTEX
                 if len(getattr(G, k)) != n]:
        report.problems.append(f"per-vertex lists not of {n} entries, one per id: {', '.join(short)}")
        return report
    arrows_r, arrows_c = ({(s, d): (a, b) for s, d, a, b in G.arrows} for G in (Gr, Gc))
    loc_r, loc_c = (tuple([_loc(fl, s, P.p) for s in P.view.strong]) for fl in (Flavor.R, Flavor.C))
    # the first of the four checks that fails stops the comparison
    if bad := ([f"{G.flavor} arrow {s}->{d} ends outside the ids 0..{n - 1}" for G in (Gr, Gc)
                for s, d, _, _ in G.arrows if not (0 <= s < n and 0 <= d < n)]
               or [f"{G.flavor} arrow {s}->{d} occurs {k} times" for G, arcs in ((Gr, arrows_r), (Gc, arrows_c))
                   if len(arcs) < len(G.arrows) for (s, d), k in Counter([a[:2] for a in G.arrows]).items() if k > 1]
               or [f"{G.flavor} local dimensions {_vec_text(G.local)}, not the poset's {_vec_text(loc)}"
                   for G, loc in ((Gr, loc_r), (Gc, loc_c)) if tuple(G.local) != loc]
               or [f"{G.flavor}#{i} udimF {_vec_text(f)} is not divisible by the local dimensions {_vec_text(G.local)}"
                   for G in (Gr, Gc) for i, f in enumerate(G.udimF) if any(map(mod, f, G.local))]):
        report.problems += bad
        return report

    failures = report.failures
    report.pairs = range(n)
    for i, lr, lc, fr, fc, jr, jc, ir, ic in zip(
            report.pairs, Gr.labels, Gc.labels, Gr.udimF, Gc.udimF,
            Gr.proj_point, Gc.proj_point, Gr.inj_point, Gc.inj_point):
        fails = []
        if (jr != jc or ir != ic) and (kr := _kind(jr, ir)) != (kc := _kind(jc, ic)):
            fails.append(f"kinds differ: {kr} vs {kc}")
        if lr != lc:
            fails.append(f"labels differ: {lr.value} vs {lc.value}")
        elif not len(fr) == len(fc) == P.n:
            fails.append(f"udimF law fails: {_vec_text(fr)} vs {_vec_text(fc)}, not both of length {P.n}")
        else:
            kd = Mr.kdim(lr)
            fails += [f"udimF law fails at {x}: {kd}*{_text(c)} (c) != {lk}*{_text(r)} (r)"
                      for x, lk, r, c in zip(P.points, loc_c, fr, fc) if kd * c != lk * r]
        if fails:
            failures[i] = fails

    for (s, d), (a, b) in arrows_r.items():
        val = arrows_c.pop((s, d), None)
        if val is None:
            failures.setdefault(s, []).append(f"arrow {s}->{d} has no counterpart")
        elif val != (b, a):
            failures.setdefault(s, []).append(
                f"arrow valuations do not swap: ({a},{b}) vs ({val[0]},{val[1]})")
    for src, dst in arrows_c:
        failures.setdefault(src, []).append(f"extra flavor-c arrow {src}->{dst}")
    return report
