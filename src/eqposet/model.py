"""Numerical models of the two peak algebras attached to an equipped poset.

A model fixes a flavor and tabulates hom_dim(i, j) = dim_F e_i A e_j over the
augmented poset.  Everything downstream (radical shapes, injective profiles,
coordinate vectors, knitting) is computed from this table and the equipment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .forms import RatVec
from .poset import EquippedPoset, validate


class ModelError(ValueError):
    pass


class Flavor(str, Enum):
    R = "r"
    C = "c"


class Label(str, Enum):
    STRONG = "Strong"
    WEAK = "Weak"

    @property
    def letter(self) -> str:
        return "S" if self is Label.STRONG else "W"


@dataclass(frozen=True)
class RadicalInfo:
    """Shape of rad(e_i A) as a right module: `multiplicity` copies of one
    summand with the recorded label, dimension vector and coordinate vector.
    `is_projective` names j when the summand is e_j A itself."""

    point: str
    multiplicity: int
    label: Label
    udimF: RatVec
    cd: RatVec
    is_projective: str | None


@dataclass(frozen=True)
class InjectiveProfile:
    point: str
    label: Label
    udimF: RatVec


@dataclass(frozen=True)
class AlgebraModel:
    poset: EquippedPoset
    flavor: Flavor
    hom: tuple[tuple[int, ...], ...]

    def hom_dim(self, x: str, y: str) -> int:
        idx = self.poset.index
        return self.hom[idx[x]][idx[y]]

    @property
    def p(self) -> int:
        return self.poset.p

    @cached_property
    def t_socle(self) -> int:
        P = self.poset
        return self.hom_dim(P.zero, P.max) // self.hom_dim(P.max, P.max)

    def kdim(self, label: Label) -> int:
        """Division-ring dimension attached to a vertex label (1 or p)."""
        return _loc(self.flavor, label is Label.STRONG, self.p)


def _loc(flavor: Flavor, strong: bool, p: int) -> int:
    """F-dimension of the local division ring at a point: F (1) or G (p)."""
    return p if strong == (flavor is Flavor.C) else 1


def _hom_piece(flavor: Flavor, P: EquippedPoset, x: str, y: str, e: int) -> int:
    """F-dimension of the part of e_x A e_y given by equipment e: e for
    flavor c, e * loc(x) * loc(y) / p for flavor r."""
    if flavor is Flavor.C:
        return e
    num = e * _loc(flavor, P.is_strong(x), P.p) * _loc(flavor, P.is_strong(y), P.p)
    if num % P.p:
        raise ModelError(f"non-integral hom dimension at ({x}, {y})")
    return num // P.p


def build_model(P: EquippedPoset, flavor: Flavor | str) -> AlgebraModel:
    flavor = Flavor(flavor)
    report = validate(P, require_bounds=True)
    if not report.ok:
        raise ModelError(f"cannot build a model on an invalid poset\n{report}")
    # the diagonal is no special case: ell(x, x) is p on strong points, 1 on weak
    hom = tuple(tuple(_hom_piece(flavor, P, x, y, P.ell(x, y)) if P.leq(x, y) else 0
                      for y in P.points) for x in P.points)
    return AlgebraModel(P, flavor, hom)


def projective_udimF(M: AlgebraModel, x: str) -> RatVec:
    """Dimension vector of e_x A: its row of the hom table."""
    return RatVec.from_seq(M.hom[M.poset.index[x]])


def _c_coeff(M: AlgebraModel, x: str) -> int:
    """hom(0, x)/hom(0, 0), which also equals hom(x, max)/hom(max, max)."""
    P = M.poset
    a, b = M.hom_dim(P.zero, x), M.hom_dim(P.zero, P.zero)
    if a % b:
        raise ModelError(f"socle coefficient at {x} is not integral")
    c = a // b
    a2, b2 = M.hom_dim(x, P.max), M.hom_dim(P.max, P.max)
    if a2 != c * b2:
        raise ModelError(f"socle coefficient mismatch at {x}: {a}/{b} vs {a2}/{b2}")
    return c


def projective_cd(M: AlgebraModel, x: str) -> RatVec:
    """Coordinate vector e_x + c_x e_0 of the vertex attached to e_x A."""
    P = M.poset
    if x == P.zero:
        raise ModelError("the minimal point carries no vertex projective")
    n = P.n
    return RatVec.unit(n, P.index[x]) + _c_coeff(M, x) * RatVec.unit(n, P.index[P.zero])


def radical_info(M: AlgebraModel, x: str) -> RadicalInfo:
    P = M.poset
    p = P.p
    if x == P.max:
        raise ModelError("the radical at the maximal point is zero")
    rel, idx, hom = P.rel, P.index, M.hom
    uppers = [y for y in P.points if (x, y) in rel and y != x]

    label = Label.STRONG if (x in P.strong or all(rel[x, y] == p for y in uppers)) else Label.WEAK
    # flavor r splits rad(e_x A) into p copies exactly when x is weak and
    # every relation above it has ell = p, the rule that gives the label
    tee = M.flavor is Flavor.R and label is Label.STRONG and x not in P.strong
    mult = p if tee else 1

    row = hom[idx[P.zero] if tee else idx[x]]
    udimF = [0] * P.n
    for y in uppers:
        udimF[idx[y]] = row[idx[y]]

    # cover multiplicities of the radical: the part of each column not
    # already reached through a longer chain from x
    cd = [0] * P.n
    for z in uppers:
        e_z = max((min(rel[x, y] + rel[y, z] - 1, p)
                   for y in uppers if y != z and (y, z) in rel), default=0)
        top = _hom_piece(M.flavor, P, x, z, rel[x, z]) - _hom_piece(M.flavor, P, x, z, e_z)
        k = idx[z]
        if top < 0 or top % hom[k][k]:
            raise ModelError(f"cover multiplicity at ({x}, {z}) is not integral")
        cd[k] = top // hom[k][k]
    cd[idx[P.zero]] = _c_coeff(M, x)
    if any(e % mult for e in cd):
        raise ModelError(f"radical summand coordinates at {x} are not integral")

    succ = P.hasse[x]
    proj = None
    if len(succ) == 1:
        j = succ[0]
        if all(rel[x, u] == rel[j, u] for u in P.points if (j, u) in rel):
            proj = j
    return RadicalInfo(x, mult, label, RatVec(tuple(udimF)),
                       RatVec(tuple(e // mult for e in cd)), proj)


def is_hereditary(M: AlgebraModel, x: str) -> bool:
    """Whether the radical chain above x consists of projectives all the way up."""
    P = M.poset
    while x != P.max:
        info = radical_info(M, x)
        if info.is_projective is None:
            return False
        x = info.is_projective
    return True


def injective_profiles(M: AlgebraModel) -> dict[str, InjectiveProfile]:
    """Dimension vectors of the injective vertices, one per point below max."""
    P = M.poset
    idx = P.index
    bottom = M.hom[idx[P.zero]]
    out: dict[str, InjectiveProfile] = {}
    seen: dict[tuple, str] = {}
    for x in P.points:
        if x == P.max:
            continue
        c = _c_coeff(M, x)
        vals = []
        for j, y in enumerate(P.points):
            v = c * bottom[j] - M.hom_dim(y, x)
            if v < 0:
                raise ModelError(f"negative injective profile entry at ({x}, {y})")
            vals.append(v)
        if vals[idx[P.max]] <= 0:
            raise ModelError(f"injective profile at {x} misses the socle")
        label = Label.STRONG if P.is_strong(x) else Label.WEAK
        prof = InjectiveProfile(x, label, RatVec.from_seq(vals))
        key = (prof.udimF, label)
        if key in seen:
            raise ModelError(f"injective profiles collide: {seen[key]} vs {x}")
        seen[key] = x
        out[x] = prof
    return out
