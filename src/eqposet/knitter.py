"""Knitting the translation-quiver component over the simple projective.

Vertices are identified inside a component by the pair (udimF, label); a
collision when adding a vertex is a loud error, never a silent merge.  The
first section is the fixpoint of attaching projectives whose radical is a
power of an already-placed projective; later sections alternate mesh
completion (in id order) with attachment of projectives whose radical
summand just appeared.

The component is kept as lists indexed by vertex id: each vertex's
section, label, udimF and udim entries, coordinate vector, projective
point and injective point, the same lists the mesh reads while knitting.  The
mesh at X is -udimF(X) plus b * udimF(dst) over the arrows out of X, summed
entrywise; each vertex's out-list is in dst order, since every arrow ends at
a new vertex, so the arrows joined in source order come in (src, dst) order.
One dict maps each vertex identity to its id; before a vertex takes an
identity, the dict maps the identity of an injective profile to its point,
so one lookup both finds a collision and names an injective vertex.
The model table's vectors are tuples too, read as they are.
`ComponentGraph.vertices` builds `ArVertex` records, holding the same
tuples, from the lists on each read; the knitter, the emitters and the
pairing never build one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add, floordiv, mod, mul, neg
from typing import NamedTuple

from .forms import _vec_text
from .model import AlgebraModel, Label, injective_profiles, projective_cd, projective_udimF, radical_info
from .poset import ParameterError

DEFAULT_MAX_SECTIONS = 12

FINITE = "Finite"
TRUNCATED = "TruncatedAtMaxSections"
# the per-vertex lists of a `ComponentGraph`, in the order of `ArVertex`'s fields
_PER_VERTEX = ("section_of", "labels", "udimF", "udim", "cd", "proj_point", "inj_point")


class KnitError(RuntimeError):
    pass


def _kind(proj_point: str | None, inj_point: str | None) -> str:
    if proj_point is not None and inj_point is not None:
        return f"ProjectiveInjective({proj_point},{inj_point})"
    if proj_point is not None:
        return f"Projective({proj_point})"
    if inj_point is not None:
        return f"Injective({inj_point})"
    return "Regular"


@dataclass(slots=True)
class ArVertex:
    """Entry i of each list of a graph; its id is i, its place in `vertices`."""
    section: int
    label: Label
    udimF: tuple[int, ...]
    udim: tuple[int, ...]
    cd: tuple[int, ...] | None = None
    proj_point: str | None = None
    inj_point: str | None = None

    @property
    def kind(self) -> str:
        return _kind(self.proj_point, self.inj_point)


class ArArrow(NamedTuple):
    """An arrow src -> dst with valuation (a, b); immutable and hashable."""

    src: int
    dst: int
    a: int
    b: int


@dataclass
class ComponentGraph:
    """A knitted component.  The data of vertex i is entry i of each
    per-vertex list, ids in creation order; `arrows` come in (src, dst)
    order."""

    flavor: str
    status: str
    section_of: list[int] = field(default_factory=list)
    labels: list[Label] = field(default_factory=list)
    udimF: list[tuple[int, ...]] = field(default_factory=list)
    udim: list[tuple[int, ...]] = field(default_factory=list)
    cd: list[tuple[int, ...] | None] = field(default_factory=list)
    proj_point: list[str | None] = field(default_factory=list)
    inj_point: list[str | None] = field(default_factory=list)
    arrows: list[ArArrow] = field(default_factory=list)
    sections: list[list[int]] = field(default_factory=list)
    tau_inv: dict[int, int] = field(default_factory=dict)

    @property
    def vertices(self) -> list[ArVertex]:
        """The vertices as records, built anew on each read: a change to a
        record does not reach the graph."""
        return [ArVertex(*v) for v in zip(*(getattr(self, k) for k in _PER_VERTEX))]

    def out_arrows(self, vid: int) -> list[ArArrow]:
        """The arrows out of `vid`, in the order of `arrows`."""
        return [a for a in self.arrows if a.src == vid]


def _valuation(M: AlgebraModel, src: Label, dst: Label) -> tuple[int, int]:
    p = M.poset.p
    a = p if (M.kdim(dst) == p and M.kdim(src) == 1) else 1
    b = p if (M.kdim(src) == p and M.kdim(dst) == 1) else 1
    return a, b


def knit(M: AlgebraModel, max_sections: int = DEFAULT_MAX_SECTIONS) -> ComponentGraph:
    if max_sections < 1:
        raise ParameterError("max_sections must be >= 1")
    P = M.poset
    # identity (udimF entries, label) -> vertex id, or the point of an
    # injective profile while no vertex has that identity
    ident: dict[tuple[tuple[int, ...], Label], int | str] = {
        (pr.udimF, pr.label): x for x, pr in injective_profiles(M).items()}
    homdiag = tuple(M.hom[i][i] for i in range(P.n))
    max_idx = P.index[P.max]
    valuation = {s: {d: _valuation(M, s, d) for d in Label} for s in Label}
    new_arrow = tuple.__new__   # ArArrow's own __new__ is a Python call per arrow

    G = ComponentGraph(flavor=M.flavor.value, status=FINITE)
    sections, tau_inv = G.sections, G.tau_inv
    section_of, labs, ents, udims, cds, projs, injs = (
        G.section_of, G.labels, G.udimF, G.udim, G.cd, G.proj_point, G.inj_point)
    outs: list[list[ArArrow]] = []   # the arrows out of each vertex

    def add_vertex(section: int, lab: Label, ent: tuple[int, ...],
                   cd: tuple[int, ...] | None = None, proj_point: str | None = None) -> int:
        # local dimensions are positive, so a quotient is negative exactly
        # where its entry is
        if min(ent) < 0:
            raise KnitError(f"mesh produced a bad dimension vector {_vec_text(ent)}")
        if ent[max_idx] < 1:
            raise KnitError(f"dimension vector {_vec_text(ent)} misses the socle")
        # a mesh vector is an integer combination of placed vectors, so only
        # a projective's can fail this
        if proj_point is not None and any(map(mod, ent, homdiag)):
            raise KnitError(f"dimension vector {_vec_text(ent)} is not divisible by the local dimensions")
        vid = len(ents)
        key = (ent, lab)
        inj = ident.setdefault(key, vid)
        if inj != vid:
            if type(inj) is int:
                raise KnitError(f"vertex identity collision at {_vec_text(ent)} {lab.value}")
            ident[key] = vid
        else:
            inj = None
        sections[section].append(vid)
        section_of.append(section)
        labs.append(lab)
        ents.append(ent)
        udims.append(tuple(map(floordiv, ent, homdiag)))
        cds.append(cd)
        projs.append(proj_point)
        injs.append(inj)
        outs.append([])
        return vid

    placed: set[str] = {P.max}
    inner = [x for x in P.points if x not in (P.zero, P.max)]
    radicals = {j: radical_info(M, j) for j in inner}
    rad_keys = {j: (info.udimF, info.label) for j, info in radicals.items()}

    def attach_projectives(section: int) -> None:
        # fixpoint: place e_j A as soon as its radical summand shows up in
        # the section under construction
        changed = True
        while changed:
            changed = False
            for j in inner:
                if j in placed:
                    continue
                z = ident.get(rad_keys[j])
                if type(z) is not int or section_of[z] != section:   # no vertex there yet
                    continue
                info = radicals[j]
                if projs[z] is not None and info.is_projective != projs[z]:
                    raise KnitError(
                        f"radical of {j} matches projective {projs[z]} by dimensions "
                        f"but not by equipment")
                lab = Label.STRONG if j in P.strong else Label.WEAK
                pj = add_vertex(section, lab, projective_udimF(M, j), cd=projective_cd(M, j), proj_point=j)
                a, b = valuation[labs[z]][lab]
                outs[z].append(new_arrow(ArArrow, (z, pj, a, b)))
                if a != info.multiplicity:
                    raise KnitError(
                        f"arrow valuation {a} disagrees with radical multiplicity "
                        f"{info.multiplicity} at {j}")
                if cds[z] is None:
                    cds[z] = info.cd
                elif cds[z] != info.cd:
                    raise KnitError(f"coordinate vector mismatch at vertex {z}: "
                                    f"{_vec_text(cds[z])} vs {_vec_text(info.cd)}")
                placed.add(j)
                changed = True

    sections.append([])
    add_vertex(0, Label.STRONG, projective_udimF(M, P.max), cd=projective_cd(M, P.max), proj_point=P.max)
    attach_projectives(0)

    cur = 0
    while True:
        todo = [x for x in sections[cur] if injs[x] is None]
        if not todo:
            G.status = FINITE
            break
        if cur + 1 >= max_sections:
            G.status = TRUNCATED
            break
        sections.append([])
        for x in todo:
            out = outs[x]
            # mesh: each middle term counts with its arrow's second valuation
            acc = map(neg, ents[x])
            for _, d, _, b in out:
                e = ents[d]
                acc = map(add, acc, e if b == 1 else map(mul, e, repeat(b)))
            lab = labs[x]
            try:
                y = add_vertex(cur + 1, lab, tuple(acc))
            except KnitError as e:
                raise KnitError(f"mesh at vertex {x} failed: {e}") from None
            tau_inv[x] = y
            for _, d, _, _ in out:
                a, b = valuation[labs[d]][lab]
                outs[d].append(new_arrow(ArArrow, (d, y, a, b)))
        attach_projectives(cur + 1)
        cur += 1
    G.arrows.extend(chain.from_iterable(outs))
    return G
