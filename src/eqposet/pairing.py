"""The bijection between the two flavor components, vertex id for vertex id.

At a pair of label L, each point k gives one integer equation per law:

    kdim_r(L) * udimF_c[k] = loc_c(k) * udimF_r[k]
    kdim_r(L) * udim_c[k]  = loc_r(k) * udim_r[k]

with kdim_r(L) = 1 (Strong) or p (Weak) and loc the local dimension of k in
each flavor (`model._loc`): w^-1 at a strong vertex, s^-1 at a weak one, and
unsolvable where p does not divide.  They carry flavor r's projectives,
radical summands and injective profiles to flavor c's, and the valuations
swap; the knitter attaches projectives in point order and completes meshes
in id order, so both flavors are knitted alike and r#i pairs with c#i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    report = PairingReport()
    if (Mr.flavor, Mc.flavor) != (Flavor.R, Flavor.C):
        report.problems.append(f"models are flavors {Mr.flavor.value} and {Mc.flavor.value}, not r and c")
        return report
    P = Mr.poset
    if P.points != Mc.poset.points:
        report.problems.append("models live on different posets")
        return report

    if Gr.status != Gc.status:
        report.problems.append(f"statuses differ: {Gr.status} vs {Gc.status}")
    if len(Gr.sections) != len(Gc.sections):
        report.problems.append(f"section counts differ: {len(Gr.sections)} vs {len(Gc.sections)}")
        return report
    if Gr.sections != Gc.sections:
        # each id lies in one section, so equal sections make r#i <-> c#i a bijection
        k = next(k for k, ids in enumerate(Gr.sections) if ids != Gc.sections[k])
        report.problems.append(f"section {k} ids differ: {Gr.sections[k]} vs {Gc.sections[k]}")
        return report
    if Gr.tau_inv != Gc.tau_inv:
        diff = [x for x in sorted(Gr.tau_inv.keys() | Gc.tau_inv.keys())
                if Gr.tau_inv.get(x) != Gc.tau_inv.get(x)]
        report.problems.append(f"tau^-1 differs at {diff}")
    n = sum(map(len, Gr.sections))  # the sections are equal: one count of ids for both
    if short := [f"{G.flavor} {k} ({len(getattr(G, k))})" for G in (Gr, Gc) for k in _PER_VERTEX
                 if len(getattr(G, k)) != n]:
        report.problems.append(f"per-vertex lists not of {n} entries, one per id: {', '.join(short)}")
        return report
    if stray := [f"{G.flavor} arrow {a.src}->{a.dst} ends outside the ids 0..{n - 1}" for G in (Gr, Gc)
                 for a in G.arrows if not (0 <= a.src < n and 0 <= a.dst < n)]:
        report.problems += stray
        return report

    loc_r, loc_c = ([_loc(fl, s, P.p) for s in P.view.strong] for fl in (Flavor.R, Flavor.C))
    failures = report.failures
    report.pairs = range(n)
    for i, lr, lc, fr, fc, ur, uc, jr, jc, ir, ic in zip(
            report.pairs, Gr.labels, Gc.labels, Gr.udimF, Gc.udimF, Gr.udim, Gc.udim,
            Gr.proj_point, Gc.proj_point, Gr.inj_point, Gc.inj_point):
        fails = []
        if (jr != jc or ir != ic) and (kr := _kind(jr, ir)) != (kc := _kind(jc, ic)):
            fails.append(f"kinds differ: {kr} vs {kc}")
        if lr != lc:
            fails.append(f"labels differ: {lr.value} vs {lc.value}")
        else:
            kd = Mr.kdim(lr)
            for law, loc, r, c in (("udimF", loc_c, fr, fc), ("udim", loc_r, ur, uc)):
                if not len(r) == len(c) == len(loc):
                    fails.append(f"{law} law fails: {_vec_text(r)} vs {_vec_text(c)}, "
                                 f"not both of length {len(loc)}")
                    continue
                fails += [f"{law} law fails at {x}: {kd}*{_text(b)} (c) != {lk}*{_text(a)} (r)"
                          for x, lk, a, b in zip(P.points, loc, r, c) if kd * b != lk * a]
        if fails:
            failures[i] = fails

    arrows_c = {(a.src, a.dst): a for a in Gc.arrows}
    for ar in Gr.arrows:
        br = arrows_c.pop((ar.src, ar.dst), None)
        if br is None:
            failures.setdefault(ar.src, []).append(f"arrow {ar.src}->{ar.dst} has no counterpart")
        elif (br.a, br.b) != (ar.b, ar.a):
            failures.setdefault(ar.src, []).append(
                f"arrow valuations do not swap: ({ar.a},{ar.b}) vs ({br.a},{br.b})")
    for src, dst in arrows_c:
        failures.setdefault(src, []).append(f"extra flavor-c arrow {src}->{dst}")
    return report
