"""The coordinate bijection between the two flavor components.

The scaling maps act coordinatewise by strength: s multiplies weak
coordinates by p, w divides strong coordinates by p (so s = p * w).  A pair
of knitted components matches when projective anchors, tau-orbits, kinds,
labels, both dimension-vector laws and arrow valuations all correspond.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import floordiv, mod, mul
from typing import Sequence

from .forms import RatVec
from .knitter import ArArrow, ComponentGraph
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


def map_s(p: int, strengths: Sequence[bool], v: RatVec) -> RatVec:
    return _scale(p, _scales(p, strengths, False), v)


def map_s_inv(p: int, strengths: Sequence[bool], v: RatVec) -> RatVec:
    return _scale(p, _scales(p, strengths, False), v, divide=True)


def map_w(p: int, strengths: Sequence[bool], v: RatVec) -> RatVec:
    return _scale(p, _scales(p, strengths, True), v, divide=True)


def map_w_inv(p: int, strengths: Sequence[bool], v: RatVec) -> RatVec:
    return _scale(p, _scales(p, strengths, True), v)


@dataclass
class PairCheck:
    r_id: int
    c_id: int
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
            lines.append(f"pair r#{pc.r_id} <-> c#{pc.c_id}: {verdict}")
            lines += [f"    {m}" for m in pc.problems]
        lines.append("correspondence " + ("holds" if self.ok else "FAILS"))
        return "\n".join(lines)


def _out_map(G: ComponentGraph) -> dict[int, list[ArArrow]]:
    """The arrows out of each vertex, read from `G.arrows` in its order."""
    out: dict[int, list[ArArrow]] = {}
    for a in G.arrows:
        out.setdefault(a.src, []).append(a)
    return out


def pair_components(Gr: ComponentGraph, Gc: ComponentGraph,
                    Mr: AlgebraModel, Mc: AlgebraModel) -> PairingReport:
    report = PairingReport()
    P = Mr.poset
    p = P.p
    if Mr.poset.points != Mc.poset.points:
        report.problems.append("models live on different posets")
        return report

    if Gr.status != Gc.status:
        report.problems.append(f"statuses differ: {Gr.status} vs {Gc.status}")
    if len(Gr.sections) != len(Gc.sections):
        report.problems.append(f"section counts differ: {len(Gr.sections)} vs {len(Gc.sections)}")
        return report

    proj_c = {v.proj_point: v.id for v in Gc.vertices if v.proj_point is not None}
    matched: dict[int, int] = {}
    queue: list[tuple[int, int]] = []
    for v in Gr.vertices:
        if v.proj_point is None:
            continue
        cid = proj_c.pop(v.proj_point, None)
        if cid is None:
            report.problems.append(f"projective at {v.proj_point} has no counterpart")
            continue
        matched[v.id] = cid
        queue.append((v.id, cid))
    for pt in proj_c:
        report.problems.append(f"projective at {pt} appears only in flavor c")

    while queue:
        x, y = queue.pop()
        tx, ty = Gr.tau_inv.get(x), Gc.tau_inv.get(y)
        if (tx is None) != (ty is None):
            report.problems.append(f"tau-orbit of pair ({x}, {y}) breaks off on one side")
            continue
        if tx is None:
            continue
        if tx in matched:
            if matched[tx] != ty:
                report.problems.append(f"tau-orbits disagree at ({tx}, {ty})")
            continue
        matched[tx] = ty
        queue.append((tx, ty))

    if len(matched) != len(Gr.vertices) or len(set(matched.values())) != len(Gc.vertices):
        report.problems.append(
            f"pairing covers {len(matched)}/{len(Gr.vertices)} flavor-r vertices and "
            f"{len(set(matched.values()))}/{len(Gc.vertices)} flavor-c vertices")

    # the scales of the two laws, by label: w^-1 on udimF and s on udim at a
    # strong vertex, which multiply; s^-1 and w at a weak one, which divide
    on_strong, on_weak = _scales(p, P.view.strong, True), _scales(p, P.view.strong, False)
    laws = {Label.STRONG: (on_strong, on_weak, False), Label.WEAK: (on_weak, on_strong, True)}
    out_r, out_c = _out_map(Gr), _out_map(Gc)
    arrows_c = {(a.src, a.dst): a for a in Gc.arrows}
    for x in sorted(matched):
        y = matched[x]
        vx, vy = Gr.vertices[x], Gc.vertices[y]
        pc = PairCheck(x, y)
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
        if vx.section != vy.section:
            pc.problems.append(f"sections differ: {vx.section} vs {vy.section}")
        ours = out_r.get(x, ())
        for ar in ours:
            if ar.dst not in matched:
                continue
            br = arrows_c.get((y, matched[ar.dst]))
            if br is None:
                pc.problems.append(f"arrow {x}->{ar.dst} has no counterpart")
            elif (br.a, br.b) != (ar.b, ar.a):
                pc.problems.append(
                    f"arrow valuations do not swap: ({ar.a},{ar.b}) vs ({br.a},{br.b})")
        extra = {a.dst for a in out_c.get(y, ())} - {matched[a.dst] for a in ours if a.dst in matched}
        if extra:
            pc.problems.append(f"extra flavor-c arrows to {sorted(extra)}")
    return report
