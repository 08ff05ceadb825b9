"""The bijection between the two flavor components, vertex id for vertex id.

The knitter is a deterministic function of the model: it attaches
projectives in point order and completes meshes in id order.  The scaling
w^-1 at a strong vertex, s^-1 at a weak one (s multiplies weak coordinates
by p, w divides strong ones by p) carries flavor r's projectives, radical
summands and injective profiles to flavor c's, and the valuations swap; so
both flavors are knitted in the same order, and r#i pairs with c#i.
`pair_components` checks that pairing: statuses, sections, tau^-1, and per
id kinds, labels, both dimension-vector laws and swapped arrow valuations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import floordiv, mod, mul
from typing import Sequence

from .forms import RatVec
from .knitter import ComponentGraph
from .model import AlgebraModel, Label


def _scales(p: int, strengths: Sequence[bool], on_strong: bool) -> tuple[int, ...]:
    """p at the coordinates of one strength, 1 elsewhere."""
    return tuple(p if s == on_strong else 1 for s in strengths)


def _scale(p: int, scale: tuple[int, ...], v: RatVec, divide: bool = False) -> RatVec:
    """Multiply or divide each coordinate of v by its entry of `scale`; a
    division is exact and raises ValueError on a remainder."""
    if len(v) != len(scale):
        raise ValueError(f"{v} and the strengths differ in length")
    if not divide:
        return RatVec(tuple(map(mul, v.entries, scale)))
    if any(map(mod, v.entries, scale)):
        raise ValueError(f"p = {p} does not divide {v}")
    return RatVec(tuple(map(floordiv, v.entries, scale)))


@dataclass
class PairCheck:
    id: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class PairingReport:
    pairs: list[PairCheck] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and all(pc.ok for pc in self.pairs)

    def __str__(self) -> str:
        lines = []
        for msg in self.problems:
            lines.append(f"component mismatch: {msg}")
        for pc in self.pairs:
            verdict = "ok" if pc.ok else "FAIL"
            lines.append(f"pair r#{pc.id} <-> c#{pc.id}: {verdict}")
            lines += [f"    {m}" for m in pc.problems]
        lines.append("correspondence " + ("holds" if self.ok else "FAILS"))
        return "\n".join(lines)


def pair_components(Gr: ComponentGraph, Gc: ComponentGraph,
                    Mr: AlgebraModel, Mc: AlgebraModel) -> PairingReport:
    report = PairingReport()
    P = Mr.poset
    p = P.p
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

    # the scales of the two laws, by label: w^-1 on udimF and s on udim at a
    # strong vertex, which multiply; s^-1 and w at a weak one, which divide
    on_strong, on_weak = _scales(p, P.view.strong, True), _scales(p, P.view.strong, False)
    laws = {Label.STRONG: (on_strong, on_weak, False), Label.WEAK: (on_weak, on_strong, True)}
    for vx, vy in zip(Gr.vertices, Gc.vertices):
        pc = PairCheck(vx.id)
        report.pairs.append(pc)
        if vx.kind != vy.kind:
            pc.problems.append(f"kinds differ: {vx.kind} vs {vy.kind}")
        if vx.label != vy.label:
            pc.problems.append(f"labels differ: {vx.label.value} vs {vy.label.value}")
            continue
        udimF_scale, udim_scale, divide = laws[vx.label]
        for law, scale, v, got in (("udimF", udimF_scale, vx.udimF, vy.udimF),
                                   ("udim", udim_scale, vx.udim, vy.udim)):
            try:
                want = _scale(p, scale, v, divide)
            except ValueError as e:
                pc.problems.append(f"{law} law fails: {e}, got {got}")
                continue
            if got != want:
                pc.problems.append(f"{law} law fails: expected {want}, got {got}")

    pairs = report.pairs
    arrows_c = {(a.src, a.dst): a for a in Gc.arrows}
    for ar in Gr.arrows:
        br = arrows_c.pop((ar.src, ar.dst), None)
        if br is None:
            pairs[ar.src].problems.append(f"arrow {ar.src}->{ar.dst} has no counterpart")
        elif (br.a, br.b) != (ar.b, ar.a):
            pairs[ar.src].problems.append(
                f"arrow valuations do not swap: ({ar.a},{ar.b}) vs ({br.a},{br.b})")
    for src, dst in arrows_c:
        pairs[src].problems.append(f"extra flavor-c arrow {src}->{dst}")
    return report
