"""Knitting the translation-quiver component over the simple projective.

Vertices are identified inside a component by the pair (udimF, label); a
collision when adding a vertex is a loud error, never a silent merge.  The
first section is the fixpoint of attaching projectives whose radical is a
power of an already-placed projective; later sections alternate mesh
completion (in id order) with attachment of projectives whose radical
summand just appeared.

The component is kept as lists indexed by vertex id: each vertex's label,
udimF entries, coordinate vector, projective point and injective point, the
same lists the mesh reads while knitting.  A vertex's section, the status
and tau^-1 are read off `sections`, and udim is udimF over `local`, each
point's hom(x, x); none of them is stored a second time.  The mesh at X is
-udimF(X) plus b * udimF(dst) over the arrows (X, dst, a, b) out of X, summed
entrywise; each vertex's out-list is in dst order, since every arrow ends at
a new vertex, so the arrows joined in source order come in (src, dst) order.
One dict maps each vertex identity to its id; before a vertex takes an
identity, the dict maps each injective profile, the identity of its vertex,
to its point, so one lookup both finds a collision and names an injective
vertex, and a radical names its summand by that identity.  The model table's
vectors are tuples too, read as they are.  `ComponentGraph.vertices` builds
`ArVertex` records, with the udim it derives, from the lists on each read;
the knitter, the emitters and the pairing never build one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add, floordiv, mod, mul, neg

from .forms import _vec_text
from .model import AlgebraModel, Label, injective_profiles, projective_cd, projective_udimF, radical_info
from .poset import ParameterError

DEFAULT_MAX_SECTIONS = 12

FINITE = "Finite"
TRUNCATED = "TruncatedAtMaxSections"
# the per-vertex lists of a `ComponentGraph`, in the order of `ArVertex`'s fields but section and udim
_PER_VERTEX = ("labels", "udimF", "cd", "proj_point", "inj_point")


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
    """Entry i of each list of a graph, and udimF // local; its id is i, its place in `vertices`."""
    section: int
    label: Label
    udimF: tuple[int, ...]
    udim: tuple[int, ...]
    cd: tuple[int, ...] | None = None
    proj_point: str | None = None
    inj_point: str | None = None


@dataclass
class ComponentGraph:
    """A knitted component.  Vertex i is entry i of each per-vertex list, ids
    in creation order, section by section; `sections` lists each section's
    ids; `local` is each point's hom(x, x); `arrows` are the tuples (src, dst,
    a, b) in (src, dst) order.  tau^-1 maps the non-injective vertices of each
    section but the last, in order, to the first vertices of the next one."""

    flavor: str
    local: tuple[int, ...]
    labels: list[Label] = field(default_factory=list)
    udimF: list[tuple[int, ...]] = field(default_factory=list)
    cd: list[tuple[int, ...] | None] = field(default_factory=list)
    proj_point: list[str | None] = field(default_factory=list)
    inj_point: list[str | None] = field(default_factory=list)
    arrows: list[tuple[int, int, int, int]] = field(default_factory=list)
    sections: list[list[int]] = field(default_factory=list)

    @property
    def status(self) -> str:
        """`FINITE` if the last section holds only injectives, where `knit` stops; else `TRUNCATED`."""
        return FINITE if all(self.inj_point[x] is not None for x in self.sections[-1]) else TRUNCATED

    @property
    def vertices(self) -> list[ArVertex]:
        """The vertices as records, built anew on each read: a change to a
        record does not reach the graph."""
        section = {i: s for s, ids in enumerate(self.sections) for i in ids}
        return [ArVertex(section[i], lab, f, tuple(map(floordiv, f, self.local)), *rest)
                for i, (lab, f, *rest) in enumerate(zip(*(getattr(self, k) for k in _PER_VERTEX)))]

    def out_arrows(self, vid: int) -> list[tuple[int, int, int, int]]:
        """The arrows out of `vid`, in the order of `arrows`."""
        return [a for a in self.arrows if a[0] == vid]


def _valuation(M: AlgebraModel, src: Label, dst: Label) -> tuple[int, int]:
    p = M.poset.p
    a = p if (M.kdim(dst) == p and M.kdim(src) == 1) else 1
    b = p if (M.kdim(src) == p and M.kdim(dst) == 1) else 1
    return a, b


def knit(M: AlgebraModel, max_sections: int = DEFAULT_MAX_SECTIONS) -> ComponentGraph:
    if not isinstance(max_sections, int):
        raise ParameterError(f"max_sections must be an int, not {type(max_sections).__name__}")
    if max_sections < 1:
        raise ParameterError("max_sections must be >= 1")
    P = M.poset
    # identity (udimF entries, label) -> vertex id, or the point of an
    # injective profile while no vertex has that identity
    ident: dict[tuple[tuple[int, ...], Label], int | str] = {
        key: x for x, key in injective_profiles(M).items()}
    homdiag = tuple(M.hom[i][i] for i in range(P.n))
    max_idx = P.index[P.max]
    valuation = {s: {d: _valuation(M, s, d) for d in Label} for s in Label}

    G = ComponentGraph(flavor=M.flavor.value, local=homdiag)
    labs, ents, cds, projs, injs = G.labels, G.udimF, G.cd, G.proj_point, G.inj_point
    outs: list[list[tuple[int, int, int, int]]] = []   # the arrows out of each vertex

    def add_vertex(lab: Label, ent: tuple[int, ...],
                   cd: tuple[int, ...] | None = None, proj_point: str | None = None) -> int:
        # into the last section, the one under construction.  Local dimensions
        # are positive, so a quotient is negative exactly where its entry is
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
        G.sections[-1].append(vid)
        labs.append(lab)
        ents.append(ent)
        cds.append(cd)
        projs.append(proj_point)
        injs.append(inj)
        outs.append([])
        return vid

    placed: set[str] = {P.max}
    inner = [x for x in P.points if x not in (P.zero, P.max)]
    radicals = {j: radical_info(M, j) for j in inner}

    def attach_projectives() -> None:
        # fixpoint: place e_j A as soon as its radical summand shows up in
        # the section under construction, the ids from its first on
        first = G.sections[-1][0]
        changed = True
        while changed:
            changed = False
            for j in inner:
                if j in placed:
                    continue
                mult, key, cd, proj = radicals[j]
                z = ident.get(key)
                if type(z) is not int or z < first:   # no vertex there yet
                    continue
                if projs[z] is not None and proj != projs[z]:
                    raise KnitError(
                        f"radical of {j} matches projective {projs[z]} by dimensions "
                        f"but not by equipment")
                lab = Label.STRONG if j in P.strong else Label.WEAK
                pj = add_vertex(lab, projective_udimF(M, j), cd=projective_cd(M, j), proj_point=j)
                a, b = valuation[labs[z]][lab]
                outs[z].append((z, pj, a, b))
                if a != mult:
                    raise KnitError(
                        f"arrow valuation {a} disagrees with radical multiplicity {mult} at {j}")
                if cds[z] is None:
                    cds[z] = cd
                elif cds[z] != cd:
                    raise KnitError(f"coordinate vector mismatch at vertex {z}: "
                                    f"{_vec_text(cds[z])} vs {_vec_text(cd)}")
                placed.add(j)
                changed = True

    G.sections.append([])
    add_vertex(Label.STRONG, projective_udimF(M, P.max), cd=projective_cd(M, P.max), proj_point=P.max)
    attach_projectives()

    # stop when the last section holds only injectives, or at the depth: `status`
    while (todo := [x for x in G.sections[-1] if injs[x] is None]) and len(G.sections) < max_sections:
        G.sections.append([])
        for x in todo:
            out = outs[x]
            # mesh: each middle term counts with its arrow's second valuation
            acc = map(neg, ents[x])
            for _, d, _, b in out:
                e = ents[d]
                acc = map(add, acc, e if b == 1 else map(mul, e, repeat(b)))
            lab = labs[x]
            try:
                y = add_vertex(lab, tuple(acc))
            except KnitError as e:
                raise KnitError(f"mesh at vertex {x} failed: {e}") from None
            for _, d, _, _ in out:
                a, b = valuation[labs[d]][lab]
                outs[d].append((d, y, a, b))
        attach_projectives()
    G.arrows.extend(chain.from_iterable(outs))
    return G
