"""Knitting the translation-quiver component over the simple projective.

Vertices are identified inside a component by the pair (udimF, label); a
collision when adding a vertex is a loud error, never a silent merge.  The
first section is the fixpoint of attaching projectives whose radical is a
power of an already-placed projective; later sections alternate mesh
completion (in id order) with attachment of projectives whose radical
summand just appeared.

While it knits, the knitter keeps what the mesh reads in lists indexed by
vertex id: each vertex's udimF entries, its label and the (dst, b) pair of
each arrow out of it.  The mesh at X is then -udimF(X) plus b * udimF(dst)
over those pairs, summed entrywise.  One dict maps each vertex identity to
its id; before a vertex takes an identity, the dict maps the identity of an
injective profile to its point, so one lookup both finds a collision and
names an injective vertex.  The returned `ComponentGraph` holds the
`ArVertex` and `ArArrow` records built along the way, and nothing else
indexes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, floordiv, mod, mul, neg
from typing import NamedTuple

from .forms import RatVec
from .model import AlgebraModel, Label, injective_profiles, projective_cd, projective_udimF, radical_info
from .poset import ParameterError

DEFAULT_MAX_SECTIONS = 12

FINITE = "Finite"
TRUNCATED = "TruncatedAtMaxSections"


class KnitError(RuntimeError):
    pass


@dataclass(slots=True)
class ArVertex:
    id: int
    section: int
    label: Label
    udimF: RatVec
    udim: RatVec
    cd: RatVec | None = None
    proj_point: str | None = None
    inj_point: str | None = None

    @property
    def kind(self) -> str:
        if self.proj_point is not None and self.inj_point is not None:
            return f"ProjectiveInjective({self.proj_point},{self.inj_point})"
        if self.proj_point is not None:
            return f"Projective({self.proj_point})"
        if self.inj_point is not None:
            return f"Injective({self.inj_point})"
        return "Regular"


class ArArrow(NamedTuple):
    """An arrow src -> dst with valuation (a, b); immutable and hashable."""

    src: int
    dst: int
    a: int
    b: int


@dataclass
class ComponentGraph:
    flavor: str
    status: str
    vertices: list[ArVertex] = field(default_factory=list)
    arrows: list[ArArrow] = field(default_factory=list)
    sections: list[list[int]] = field(default_factory=list)
    tau_inv: dict[int, int] = field(default_factory=dict)

    def out_arrows(self, vid: int) -> list[ArArrow]:
        """The arrows out of `vid`, in the order of `arrows`."""
        return [a for a in self.arrows if a.src == vid]


def _valuation(M: AlgebraModel, src: Label, dst: Label) -> tuple[int, int]:
    p = M.poset.p
    a = p if (M.kdim(dst) == p and M.kdim(src) == 1) else 1
    b = p if (M.kdim(src) == p and M.kdim(dst) == 1) else 1
    return a, b


# a vertex's label in the knitter's lists: its index here
_LABELS = (Label.STRONG, Label.WEAK)


def knit(M: AlgebraModel, max_sections: int = DEFAULT_MAX_SECTIONS) -> ComponentGraph:
    if max_sections < 1:
        raise ParameterError("max_sections must be >= 1")
    P = M.poset
    code = {lab: c for c, lab in enumerate(_LABELS)}
    # identity (udimF entries, label code) -> vertex id, or the point of an
    # injective profile while no vertex has that identity
    ident: dict[tuple[tuple[int, ...], int], int | str] = {
        (pr.udimF.entries, code[pr.label]): x for x, pr in injective_profiles(M).items()}
    homdiag = tuple(M.hom[i][i] for i in range(P.n))
    max_idx = P.index[P.max]
    valuation = [[_valuation(M, s, d) for d in _LABELS] for s in _LABELS]
    new_arrow = tuple.__new__   # ArArrow's own __new__ is a Python call per arrow

    G = ComponentGraph(flavor=M.flavor.value, status=FINITE)
    vertices, arrows, sections, tau_inv = G.vertices, G.arrows, G.sections, G.tau_inv
    ents: list[tuple[int, ...]] = []        # udimF entries, by vertex id
    labs: list[int] = []                    # label codes
    outs: list[list[tuple[int, int]]] = []  # (dst, b) of each arrow out
    injs: list[str | None] = []             # injective points

    def add_vertex(section: int, lab: int, ent: tuple[int, ...],
                   cd: RatVec | None = None, proj_point: str | None = None) -> int:
        # local dimensions are positive, so a quotient is negative exactly
        # where its entry is
        if min(ent) < 0:
            raise KnitError(f"mesh produced a bad dimension vector {RatVec(ent)}")
        if ent[max_idx] < 1:
            raise KnitError(f"dimension vector {RatVec(ent)} misses the socle")
        if any(map(mod, ent, homdiag)):
            raise KnitError(f"dimension vector {RatVec(ent)} is not divisible by the local dimensions")
        vid = len(vertices)
        key = (ent, lab)
        inj = ident.setdefault(key, vid)
        if inj != vid:
            if type(inj) is int:
                raise KnitError(f"vertex identity collision at {RatVec(ent)} {_LABELS[lab].value}")
            ident[key] = vid
        else:
            inj = None
        vertices.append(ArVertex(vid, section, _LABELS[lab], RatVec(ent),
                                 RatVec(tuple(map(floordiv, ent, homdiag))), cd, proj_point, inj))
        sections[section].append(vid)
        ents.append(ent)
        labs.append(lab)
        outs.append([])
        injs.append(inj)
        return vid

    placed: set[str] = {P.max}
    inner = [x for x in P.points if x not in (P.zero, P.max)]
    radicals = {j: radical_info(M, j) for j in inner}
    rad_keys = {j: (info.udimF.entries, code[info.label]) for j, info in radicals.items()}

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
                if type(z) is not int:   # no vertex, or only an injective profile
                    continue
                Z = vertices[z]
                if Z.section != section:
                    continue
                info = radicals[j]
                if Z.proj_point is not None and info.is_projective != Z.proj_point:
                    raise KnitError(
                        f"radical of {j} matches projective {Z.proj_point} by dimensions "
                        f"but not by equipment")
                lab = code[Label.STRONG if j in P.strong else Label.WEAK]
                pj = add_vertex(section, lab, projective_udimF(M, j).entries,
                                cd=projective_cd(M, j), proj_point=j)
                a, b = valuation[labs[z]][lab]
                arrows.append(new_arrow(ArArrow, (z, pj, a, b)))
                outs[z].append((pj, b))
                if a != info.multiplicity:
                    raise KnitError(
                        f"arrow valuation {a} disagrees with radical multiplicity "
                        f"{info.multiplicity} at {j}")
                if Z.cd is None:
                    Z.cd = info.cd
                elif Z.cd != info.cd:
                    raise KnitError(f"coordinate vector mismatch at vertex {Z.id}: "
                                    f"{Z.cd} vs {info.cd}")
                placed.add(j)
                changed = True

    sections.append([])
    add_vertex(0, 0, projective_udimF(M, P.max).entries,
               cd=projective_cd(M, P.max), proj_point=P.max)
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
            for d, b in out:
                e = ents[d]
                acc = map(add, acc, e if b == 1 else map(mul, e, repeat(b)))
            lab = labs[x]
            try:
                y = add_vertex(cur + 1, lab, tuple(acc))
            except KnitError as e:
                raise KnitError(f"mesh at vertex {x} failed: {e}") from None
            tau_inv[x] = y
            for d, _ in out:
                a, b = valuation[labs[d]][lab]
                arrows.append(new_arrow(ArArrow, (d, y, a, b)))
                outs[d].append((y, b))
        attach_projectives(cur + 1)
        cur += 1
    return G
