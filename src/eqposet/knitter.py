"""Knitting the translation-quiver component over the simple projective.

Vertices are identified inside a component by the pair (udimF, label); a
collision when adding a vertex is a loud error, never a silent merge.  The
first section is the fixpoint of attaching projectives whose radical is a
power of an already-placed projective; later sections alternate mesh
completion (in id order) with attachment of projectives whose radical
summand just appeared.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .forms import RatVec
from .model import AlgebraModel, Label, injective_profiles, projective_cd, projective_udimF, radical_info

DEFAULT_MAX_SECTIONS = 12

FINITE = "Finite"
TRUNCATED = "TruncatedAtMaxSections"


class KnitError(RuntimeError):
    pass


@dataclass
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


@dataclass(frozen=True)
class ArArrow:
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

    def __post_init__(self) -> None:
        # adjacency index over `arrows`, kept up to date by add_arrow
        self._out: defaultdict[int, list[ArArrow]] = defaultdict(list)
        arrows, self.arrows = self.arrows, []
        for a in arrows:
            self.add_arrow(a)

    def add_arrow(self, a: ArArrow) -> None:
        self.arrows.append(a)
        self._out[a.src].append(a)

    def vertex(self, vid: int) -> ArVertex:
        return self.vertices[vid]

    def out_arrows(self, vid: int) -> list[ArArrow]:
        return list(self._out.get(vid, ()))


def _valuation(M: AlgebraModel, src: Label, dst: Label) -> tuple[int, int]:
    p = M.p
    a = p if (M.kdim(dst) == p and M.kdim(src) == 1) else 1
    b = p if (M.kdim(src) == p and M.kdim(dst) == 1) else 1
    return a, b


def knit(M: AlgebraModel, max_sections: int = DEFAULT_MAX_SECTIONS) -> ComponentGraph:
    if max_sections < 1:
        raise KnitError("max_sections must be >= 1")
    P = M.poset
    profiles = injective_profiles(M)
    prof_key = {(pr.udimF, pr.label): x for x, pr in profiles.items()}
    homdiag = [M.hom[i][i] for i in range(P.n)]
    max_idx = P.index[P.max]
    valuation = {(s, d): _valuation(M, s, d) for s in Label for d in Label}

    G = ComponentGraph(flavor=M.flavor.value, status=FINITE)
    seen: dict[tuple[RatVec, Label], int] = {}

    def add_vertex(section: int, label: Label, udimF: RatVec,
                   cd: RatVec | None = None, proj_point: str | None = None) -> ArVertex:
        # one divmod pass; local dimensions are positive, so a quotient is
        # negative exactly where its entry is
        quot, rem = zip(*map(divmod, udimF.entries, homdiag))
        if min(quot) < 0:
            raise KnitError(f"mesh produced a bad dimension vector {udimF}")
        if udimF[max_idx] < 1:
            raise KnitError(f"dimension vector {udimF} misses the socle")
        if any(rem):
            raise KnitError(f"dimension vector {udimF} is not divisible by the local dimensions")
        key = (udimF, label)
        if key in seen:
            raise KnitError(f"vertex identity collision at {udimF} {label.value}")
        v = ArVertex(id=len(G.vertices), section=section, label=label, udimF=udimF,
                     udim=RatVec(quot), cd=cd, proj_point=proj_point, inj_point=prof_key.get(key))
        seen[key] = v.id
        G.vertices.append(v)
        G.sections[section].append(v.id)
        return v

    def add_arrow(src: ArVertex, dst: ArVertex) -> ArArrow:
        if src.id >= dst.id:
            raise KnitError("arrow against creation order")
        ar = ArArrow(src.id, dst.id, *valuation[src.label, dst.label])
        G.add_arrow(ar)
        return ar

    placed: set[str] = {P.max}
    inner = [x for x in P.points if x not in (P.zero, P.max)]
    radicals = {j: radical_info(M, j) for j in inner}

    def attach_projectives(section: int) -> None:
        # fixpoint: place e_j A as soon as its radical summand shows up in
        # the section under construction
        changed = True
        while changed:
            changed = False
            for j in inner:
                if j in placed:
                    continue
                info = radicals[j]
                target = seen.get((info.udimF, info.label))
                if target is None:
                    continue
                Z = G.vertices[target]
                if Z.section != section:
                    continue
                if Z.proj_point is not None and info.is_projective != Z.proj_point:
                    raise KnitError(
                        f"radical of {j} matches projective {Z.proj_point} by dimensions "
                        f"but not by equipment")
                label = Label.STRONG if P.is_strong(j) else Label.WEAK
                pj = add_vertex(section, label, projective_udimF(M, j),
                                cd=projective_cd(M, j), proj_point=j)
                ar = add_arrow(Z, pj)
                if ar.a != info.multiplicity:
                    raise KnitError(
                        f"arrow valuation {ar.a} disagrees with radical multiplicity "
                        f"{info.multiplicity} at {j}")
                if Z.cd is None:
                    Z.cd = info.cd
                elif Z.cd != info.cd:
                    raise KnitError(f"coordinate vector mismatch at vertex {Z.id}: "
                                    f"{Z.cd} vs {info.cd}")
                placed.add(j)
                changed = True

    G.sections.append([])
    add_vertex(0, Label.STRONG, projective_udimF(M, P.max),
               cd=projective_cd(M, P.max), proj_point=P.max)
    attach_projectives(0)

    cur = 0
    while True:
        section_vertices = [G.vertices[i] for i in G.sections[cur]]
        if all(v.inj_point is not None for v in section_vertices):
            G.status = FINITE
            break
        if cur + 1 >= max_sections:
            G.status = TRUNCATED
            break
        G.sections.append([])
        for X in sorted(section_vertices, key=lambda v: v.id):
            if X.inj_point is not None:
                continue
            out = G.out_arrows(X.id)
            # mesh: each middle term counts with its arrow's second valuation
            mesh = tuple(-e for e in X.udimF.entries)
            for a in out:
                b = a.b
                mesh = tuple(s + b * e for s, e in
                             zip(mesh, G.vertices[a.dst].udimF.entries, strict=True))
            try:
                Y = add_vertex(cur + 1, X.label, RatVec(mesh))
            except KnitError as e:
                raise KnitError(f"mesh at vertex {X.id} failed: {e}") from None
            G.tau_inv[X.id] = Y.id
            for a in out:
                add_arrow(G.vertices[a.dst], Y)
        attach_projectives(cur + 1)
        cur += 1
    return G

