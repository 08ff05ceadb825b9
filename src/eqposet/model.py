"""Numerical models of the two peak algebras attached to an equipped poset.

A model fixes a flavor and tabulates hom_dim(i, j) = dim_F e_i A e_j over the
augmented poset, from the ell rows of `EquippedPoset.view`.  Everything
downstream is computed from this table and the equipment.  `AlgebraModel.table`
holds the per-point part, made in one pass over the points: each socle
coefficient, each radical shape with its Hasse covers, the injective profiles
and the projective vectors.  A table that fails raises its first ModelError
on every call that reads it: the socle coefficients are checked in point order,
then the radicals in point order, then the injective profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from operator import floordiv, mul
from typing import NamedTuple

from .forms import RatVec
from .poset import EquippedPoset, PosetError, validate


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

    multiplicity: int
    label: Label
    udimF: RatVec
    cd: RatVec
    is_projective: str | None


@dataclass(frozen=True)
class InjectiveProfile:
    label: Label
    udimF: RatVec


class ModelTable(NamedTuple):
    """A model's per-point data by point index; None at the maximal point's
    radical and at the minimal point's vertex projective."""

    radicals: tuple[RadicalInfo | None, ...]
    profiles: dict[str, InjectiveProfile]
    udimF: tuple[RatVec, ...]
    cd: tuple[RatVec | None, ...]


@dataclass(frozen=True)
class AlgebraModel:
    poset: EquippedPoset
    flavor: Flavor
    hom: tuple[tuple[int, ...], ...]

    def hom_dim(self, x: str, y: str) -> int:
        idx = self.poset.index
        return self.hom[idx[x]][idx[y]]

    @cached_property
    def t_socle(self) -> int:
        P = self.poset
        a, b = self.hom_dim(P.zero, P.max), self.hom_dim(P.max, P.max)
        if a % b:
            raise ModelError(f"t_socle = {a}/{b} is not integral")
        return a // b

    def kdim(self, label: Label) -> int:
        """Division-ring dimension attached to a vertex label (1 or p)."""
        return _loc(self.flavor, label is Label.STRONG, self.poset.p)

    table = cached_property(lambda self: _tabulate(self))


def _loc(flavor: Flavor, strong: bool, p: int) -> int:
    """F-dimension of the local division ring at a point: F (1) or G (p)."""
    return p if strong == (flavor is Flavor.C) else 1


def _weights(flavor: Flavor, P: EquippedPoset) -> tuple[list[int], int]:
    """(w, d): equipment e gives a part of e_x A e_y of F-dimension e * w[x] * w[y] / d."""
    return ([_loc(flavor, s, P.p) for s in P.view.strong], P.p) if flavor is Flavor.R else ([1] * P.n, 1)


def build_model(P: EquippedPoset, flavor: Flavor | str) -> AlgebraModel:
    """The hom table of P in the given flavor; PosetError, with the report's text,
    when P fails validate(P, require_bounds=True)."""
    flavor = Flavor(flavor)
    report = validate(P, require_bounds=True)
    if not report.ok:
        raise PosetError(str(report))
    if flavor is Flavor.C:
        return AlgebraModel(P, flavor, P.view.ell)
    # exact: ell = p on pairs touching a strong point, and ell(x, x) is p or 1
    w, d = _weights(flavor, P)
    return AlgebraModel(P, flavor, tuple([tuple(map(floordiv, map(mul, row, w), repeat(d // wx)))
                                          for row, wx in zip(P.view.ell, w)]))


def _tabulate(M: AlgebraModel) -> ModelTable:
    P, hom, n = M.poset, M.hom, M.poset.n
    pts, p = P.points, P.p
    ell, strong, up = P.view
    z0, top = P.index[P.zero], P.index[P.max]
    bottom, b, b2 = hom[z0], hom[z0][z0], hom[top][top]
    flavor_r, (w, d) = M.flavor is Flavor.R, _weights(M.flavor, P)

    # socle coefficients: hom(0, x)/hom(0, 0), which also equals hom(x, max)/hom(max, max)
    cs: list[int] = []
    for x, a, row in zip(pts, bottom, hom):
        if a % b:
            raise ModelError(f"socle coefficient at {x} is not integral")
        c = a // b
        if row[top] != c * b2:
            raise ModelError(f"socle coefficient mismatch at {x}: {a}/{b} vs {row[top]}/{b2}")
        cs.append(c)

    def radical(i: int) -> RadicalInfo:
        x, row_ell, wi, uppers = pts[i], ell[i], w[i], up[i]
        # ell <= p, so every relation above x has ell = p when they sum to that
        label = Label.STRONG if strong[i] or sum(row_ell) - row_ell[i] == p * len(uppers) else Label.WEAK
        # flavor r splits rad(e_x A) into p copies exactly when x is weak and
        # every relation above it has ell = p, the rule that gives the label
        tee = flavor_r and label is Label.STRONG and not strong[i]
        mult, row = (p, bottom) if tee else (1, hom[i])
        udimF = [v if row_ell[k] and k != i else 0 for k, v in enumerate(row)]
        # e[k]: ell(x, z_k) forced by chains x < y < z_k, uncapped; 0 at a cover
        e = [0] * n
        for j in uppers:
            lj, row_j = row_ell[j] - 1, ell[j]
            for k in up[j]:
                if (v := lj + row_j[k]) > e[k]:
                    e[k] = v
        # cover multiplicities of the radical: the part of each column not
        # already reached through a longer chain from x
        cd, covers = [0] * n, []
        for k in uppers:
            whole, reached = row_ell[k] * wi * w[k], min(e[k], p) * wi * w[k]
            if whole % d or reached % d:
                raise ModelError(f"non-integral hom dimension at ({x}, {pts[k]})")
            t, hk = (whole - reached) // d, hom[k][k]
            if t < 0 or t % hk:
                raise ModelError(f"cover multiplicity at ({x}, {pts[k]}) is not integral")
            cd[k] = t // hk
            if not e[k]:
                covers.append(k)
        cd[z0] = cs[i]
        if mult > 1 and any(v % mult for v in cd):
            raise ModelError(f"radical summand coordinates at {x} are not integral")
        j = covers[0] if len(covers) == 1 else None
        proj = pts[j] if j is not None and row_ell[j] == ell[j][j] and all(
            row_ell[u] == ell[j][u] for u in up[j]) else None
        return RadicalInfo(mult, label, RatVec(tuple(udimF)),
                           RatVec(tuple([v // mult for v in cd]) if mult > 1 else tuple(cd)), proj)

    radicals = tuple([radical(i) if i != top else None for i in range(n)])
    profiles: dict[str, InjectiveProfile] = {}
    seen: dict[tuple, str] = {}   # (udimF entries, strong) -> point
    for i, (x, col, c) in enumerate(zip(pts, zip(*hom), cs)):
        if i == top:
            continue
        vals = tuple([c * v - h for v, h in zip(bottom, col)])
        if min(vals) < 0:
            y = next(y for y, v in zip(pts, vals) if v < 0)
            raise ModelError(f"negative injective profile entry at ({x}, {y})")
        if vals[top] <= 0:
            raise ModelError(f"injective profile at {x} misses the socle")
        if (other := seen.setdefault((vals, strong[i]), x)) != x:
            raise ModelError(f"injective profiles collide: {other} vs {x}")
        profiles[x] = InjectiveProfile(Label.STRONG if strong[i] else Label.WEAK, RatVec(vals))
    return ModelTable(radicals, profiles, tuple([RatVec(tuple(row)) for row in hom]),
                      tuple([None if i == z0 else
                             RatVec(tuple([1 if k == i else c if k == z0 else 0 for k in range(n)]))
                             for i, c in enumerate(cs)]))


def projective_udimF(M: AlgebraModel, x: str) -> RatVec:
    """Dimension vector of e_x A: its row of the hom table."""
    return M.table.udimF[M.poset.index[x]]


def projective_cd(M: AlgebraModel, x: str) -> RatVec:
    """Coordinate vector e_x + c_x e_0 of the vertex attached to e_x A."""
    if x == M.poset.zero:
        raise ModelError("the minimal point carries no vertex projective")
    return M.table.cd[M.poset.index[x]]


def radical_info(M: AlgebraModel, x: str) -> RadicalInfo:
    """Shape of rad(e_x A); the radical at the maximal point is zero."""
    if x == M.poset.max:
        raise ModelError("the radical at the maximal point is zero")
    return M.table.radicals[M.poset.index[x]]


def is_hereditary(M: AlgebraModel, x: str) -> bool:
    """Whether the radical chain above x consists of projectives all the way up."""
    while x != M.poset.max:
        if (x := radical_info(M, x).is_projective) is None:
            return False
    return True


def injective_profiles(M: AlgebraModel) -> dict[str, InjectiveProfile]:
    """Dimension vectors of the injective vertices, one per point below max."""
    return dict(M.table.profiles)
