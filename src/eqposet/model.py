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

    def local_dim(self, x: str) -> int:
        return self.hom_dim(x, x)

    @property
    def p(self) -> int:
        return self.poset.p

    @cached_property
    def t_socle(self) -> int:
        P = self.poset
        return self.hom_dim(P.zero, P.max) // self.hom_dim(P.max, P.max)

    def kdim(self, label: Label) -> int:
        """Division-ring dimension attached to a vertex label (1 or p)."""
        if self.flavor is Flavor.R:
            return 1 if label is Label.STRONG else self.p
        return self.p if label is Label.STRONG else 1

    def label_of_end(self, end_kind: str) -> Label:
        """Vertex label corresponding to an endomorphism ring F or G."""
        if end_kind not in ("F", "G"):
            raise ValueError(f"unknown endomorphism kind {end_kind!r}")
        if self.flavor is Flavor.R:
            return Label.STRONG if end_kind == "F" else Label.WEAK
        return Label.WEAK if end_kind == "F" else Label.STRONG


def build_model(P: EquippedPoset, flavor: Flavor | str) -> AlgebraModel:
    flavor = Flavor(flavor)
    report = validate(P, require_bounds=True)
    if not report.ok:
        raise ModelError(f"cannot build a model on an invalid poset\n{report}")
    p = P.p
    pts = P.points
    n = len(pts)

    def loc(x: str) -> int:
        # F-dimension of the local division ring at x
        if flavor is Flavor.R:
            return 1 if P.is_strong(x) else p
        return p if P.is_strong(x) else 1

    hom = [[0] * n for _ in range(n)]
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if not P.leq(x, y):
                continue
            if i == j:
                hom[i][j] = loc(x)
            elif flavor is Flavor.R:
                num = P.ell(x, y) * loc(x) * loc(y)
                if num % p:
                    raise ModelError(f"non-integral hom dimension at ({x}, {y})")
                hom[i][j] = num // p
            else:
                hom[i][j] = P.ell(x, y)
    return AlgebraModel(P, flavor, tuple(tuple(r) for r in hom))


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
    return RatVec.unit(n, P.index[x]) + _c_coeff(M, x) * RatVec.unit(n, 0)


def radical_info(M: AlgebraModel, x: str) -> RadicalInfo:
    P = M.poset
    p = P.p
    if x == P.max:
        raise ModelError("the radical at the maximal point is zero")
    uppers = [y for y in P.points if P.leq(x, y) and y != x]

    all_above_strong = all(P.is_strong(y) for y in uppers)
    label = Label.STRONG if (P.is_strong(x) or all(P.ell(x, y) == p for y in uppers)) else Label.WEAK
    tee = M.flavor is Flavor.R and not P.is_strong(x) and all_above_strong
    mult = p if tee else 1

    idx = P.index
    udimF = [0] * P.n
    for y in uppers:
        udimF[idx[y]] = M.hom_dim(P.zero, y) if tee else M.hom_dim(x, y)

    def hdim(x_: str, z: str, e: int) -> int:
        if e == 0:
            return 0
        if M.flavor is Flavor.C:
            return e
        lx = 1 if P.is_strong(x_) else p
        lz = 1 if P.is_strong(z) else p
        num = e * lx * lz
        assert num % p == 0
        return num // p

    # cover multiplicities of the radical: the part of each column not
    # already reached through a longer chain from x
    cd = [0] * P.n
    for z in uppers:
        between = [y for y in uppers if y != z and P.leq(y, z)]
        e_z = max((min(P.ell(x, y) + P.ell(y, z) - 1, p) for y in between), default=0)
        top = hdim(x, z, P.ell(x, z)) - hdim(x, z, e_z)
        if top < 0 or top % M.hom_dim(z, z):
            raise ModelError(f"cover multiplicity at ({x}, {z}) is not integral")
        cd[idx[z]] = top // M.hom_dim(z, z)
    cd[0] = _c_coeff(M, x)
    if any(e % mult for e in cd):
        raise ModelError(f"radical summand coordinates at {x} are not integral")

    succ = P.hasse[x]
    proj = None
    if len(succ) == 1:
        j = succ[0]
        if all(P.ell(x, u) == P.ell(j, u) for u in P.points if P.leq(j, u)):
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
    out: dict[str, InjectiveProfile] = {}
    seen: dict[tuple, str] = {}
    for x in P.points:
        if x == P.max:
            continue
        c = _c_coeff(M, x)
        vals = []
        for j, y in enumerate(P.points):
            v = c * M.hom[0][j] - M.hom_dim(y, x)
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
