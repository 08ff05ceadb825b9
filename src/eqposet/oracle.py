"""Exact realization of a model's algebra over a field tower.

Each comparable pair (x, y) gets a concrete F-subspace R_{x,y} (operators on
G for flavor r, elements of G for flavor c) whose product is honest algebra
multiplication.  Everything a model claims — hom table entries, the three
axioms of an admissible family, radical shapes, hom dimensions between
projectives — is then re-derived here by linear algebra alone.  Hom
dimensions impose A-linearity on a generating set of the realized algebra
only: algebra generators of each R_{x,x} and, for l < l', a basis of R_{l,l'}
modulo what the members inside [l, l'] generate (rad/rad^2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fields import ParameterError, Tower
from .model import AlgebraModel, Flavor, radical_info
from .poset import EquippedPoset


class OracleError(RuntimeError):
    pass


@dataclass
class RFamily:
    tower: Tower
    poset: EquippedPoset
    flavor: Flavor
    basis: dict[tuple[str, str], list] = field(default_factory=dict)
    piv: dict[tuple[str, str], list[int]] = field(default_factory=dict)
    unit: dict[str, object] = field(default_factory=dict)
    # products are computed once, on first use; the bases must not change after
    _right: dict = field(default_factory=dict, repr=False)
    _products: dict = field(default_factory=dict, repr=False)
    _actions: dict = field(default_factory=dict, repr=False)
    _generators: dict = field(default_factory=dict, repr=False)

    def dim(self, x: str, y: str) -> int:
        b = self.basis.get((x, y))
        return 0 if b is None else len(b)

    def compose(self, u, v):
        """Product u * v for u in R_{x,y}, v in R_{y,z} (apply u, then v)."""
        t = self.tower
        if self.flavor is Flavor.R:
            return t.flatten(t.lin.matmul(t.unflatten(v), t.unflatten(u)))
        return t.g_mul(u, v)

    def right_mults(self, y: str, z: str) -> list:
        """For each basis element s of R_{y,z}, the matrix M with u * s = u M."""
        if (y, z) not in self._right:
            t = self.tower
            lin = t.lin
            if self.flavor is Flavor.R:
                # u * s flattens S U, and U -> S U is kron(S^T, 1) on row-major rows
                mats = [lin.kron(lin.transpose(t.unflatten(s)), lin.eye(t.p))
                        for s in lin.rows(self.basis[(y, z)])]
            else:
                mats = [lin.transpose(t.mu_mat(s)) for s in lin.rows(self.basis[(y, z)])]
            self._right[(y, z)] = mats
        return self._right[(y, z)]

    def products(self, x: str, y: str, z: str) -> list:
        """For each basis element s of R_{y,z}, the rows b * s over the basis b of R_{x,y}."""
        if (x, y, z) not in self._products:
            lin = self.tower.lin
            B = self.basis[(x, y)]
            self._products[(x, y, z)] = [lin.matmul(B, M) for M in self.right_mults(y, z)]
        return self._products[(x, y, z)]

    def action(self, x: str, y: str, z: str) -> list:
        """For each basis element s of R_{y,z}, the d_xy x d_xz matrix whose row
        b holds the coordinates of b * s in R_{x,z}, or None when some b * s
        leaves R_{x,z}."""
        if (x, y, z) not in self._actions:
            lin = self.tower.lin
            R, piv = self.basis[(x, z)], self.piv[(x, z)]
            self._actions[(x, y, z)] = [lin.coords_rows(R, piv, W)
                                        for W in self.products(x, y, z)]
        return self._actions[(x, y, z)]

    def generators(self, l: str, lp: str) -> list[int]:
        """Indices of basis elements of R_{l,l'} that, with the members R_{a,b}
        for l <= a <= b <= l' and (a, b) != (l, l'), generate R_{l,l'} under
        sums and products; every index when some product involved leaves the
        family."""
        if (l, lp) not in self._generators:
            lin, P, d = self.tower.lin, self.poset, self.dim(l, lp)
            left, right = self.action(l, l, lp), self.action(l, lp, lp)
            inner = [C for y in P.points if y not in (l, lp) and P.leq(l, y) and P.leq(y, lp)
                     for C in self.action(l, y, lp)]
            picks = list(range(d))
            if all(C is not None for C in left + right + inner):
                picks, (R, piv) = [], lin.rref(lin.vstack([lin.zeros(0, d)] + inner))
                for k in range(d):
                    unit = lin.mat([[int(i == k) for i in range(d)]])
                    if len(piv) == d or lin.in_span(R, piv, lin.rows(unit)[0]):
                        continue
                    picks.append(k)
                    if l == lp:  # close the span under products: v w = v (sum_s w_s C_s)
                        flat, size = lin.reshape(left, d, d * d), 0
                        R, piv = lin.rref(lin.vstack([R, unit]))
                        while len(piv) > size:
                            size = len(piv)
                            R, piv = lin.rref(lin.vstack(
                                [R] + [lin.matmul(R, lin.reshape(m, d, d))
                                       for m in lin.rows(lin.matmul(R, flat))]))
                    else:  # add the sub-bimodule R_{l,l} b_k R_{l',l'}
                        rows = [unit, left[k]]
                        R, piv = lin.rref(lin.vstack(
                            [R] + rows + [lin.matmul(X, C) for X in rows for C in right]))
            self._generators[(l, lp)] = picks
        return self._generators[(l, lp)]


def build_family(tower: Tower, P: EquippedPoset, flavor: Flavor | str) -> RFamily:
    flavor = Flavor(flavor)
    lin = tower.lin
    fam = RFamily(tower, P, flavor)
    for x in P.points:
        for y in P.points:
            if not P.leq(x, y):
                continue
            ell = P.ell(x, y)
            if flavor is Flavor.R:
                ex = tower.eps(P.is_strong(x))
                ey = tower.eps(P.is_strong(y))
                gens = [tower.flatten(lin.matmul(lin.matmul(ey, a), ex))
                        for a in tower.a_ell_basis(ell)]
            else:
                gens = [list(tower.xi_pow(j)) for j in range(ell)]
            B, piv = lin.rref(lin.mat(gens))
            fam.basis[(x, y)] = B
            fam.piv[(x, y)] = piv
    for x in P.points:
        if flavor is Flavor.R:
            fam.unit[x] = tower.flatten(tower.eps(P.is_strong(x)))
        else:
            fam.unit[x] = list(tower.xi_pow(0))
    return fam


def verify_dims(fam: RFamily, M: AlgebraModel) -> list[str]:
    bad = []
    P = fam.poset
    for x in P.points:
        for y in P.points:
            if P.leq(x, y) and fam.dim(x, y) != M.hom_dim(x, y):
                bad.append(f"dim R_({x},{y}) = {fam.dim(x, y)}, table says {M.hom_dim(x, y)}")
    return bad


MAX_DIVISION_ENUM = 5000


@dataclass
class AdmReport:
    a1_failures: list[str] = field(default_factory=list)
    a2_failures: list[str] = field(default_factory=list)
    a3_failures: list[str] = field(default_factory=list)
    division_exhaustive: bool = True

    @property
    def ok(self) -> bool:
        return not (self.a1_failures or self.a2_failures or self.a3_failures)


def verify_admissible(fam: RFamily) -> AdmReport:
    P = fam.poset
    lin = fam.tower.lin
    rep = AdmReport()

    comp = [(x, y) for x in P.points for y in P.points if P.leq(x, y)]

    # A.1 — products land in the right member, including the reflexive cases
    for (x, y) in comp:
        for z in P.points:
            if P.leq(y, z) and any(C is None for C in fam.action(x, y, z)):
                rep.a1_failures.append(f"R_({x},{y}) * R_({y},{z}) leaves R_({x},{z})")

    # A.2 — units act as identities and every nonzero local element divides
    for x in P.points:
        ux = fam.unit[x]
        if not lin.in_span(fam.basis[(x, x)], fam.piv[(x, x)], ux):
            rep.a2_failures.append(f"unit of R_{x} is not in the member")
            continue
        for y in P.points:
            if not P.leq(x, y):
                continue
            for u in lin.rows(fam.basis[(x, y)]):
                if not lin.eq(lin.mat([list(fam.compose(ux, u))]), lin.mat([list(u)])):
                    rep.a2_failures.append(f"unit of R_{x} does not fix R_({x},{y}) on the left")
                uy = fam.unit[y]
                if not lin.eq(lin.mat([list(fam.compose(u, uy))]), lin.mat([list(u)])):
                    rep.a2_failures.append(f"unit of R_{y} does not fix R_({x},{y}) on the right")
        d = fam.dim(x, x)
        if d == 0:
            rep.a2_failures.append(f"R_{x} is zero")
            continue
        if lin.size is not None and lin.size ** d <= MAX_DIVISION_ENUM:
            # one element per line through 0: its first nonzero coordinate is 1
            coeffs = [(0,) * i + (1,) + tail for i in range(d)
                      for tail in itertools.product(range(lin.size), repeat=d - 1 - i)]
        else:
            rep.division_exhaustive = False
            coeffs = [tuple(int(i == k) for i in range(d)) for k in range(d)]
        # e divides exactly when e * b_1, ..., e * b_d have rank d: then
        # e R_x = R_x (A.1 puts it inside), so ef = 1 for some f, likewise
        # fg = 1, and e = e(fg) = (ef)g = g makes f two-sided.  The rank is
        # the same for every nonzero multiple of e.  The products come from
        # the table of basis products: e * b_k = sum_a e_a (b_a * b_k).
        E = lin.mat(coeffs)
        e_b = [lin.rows(lin.matmul(E, W)) for W in fam.products(x, x, x)]
        for n in range(len(coeffs)):  # the n-th element e
            if lin.rank(lin.mat([list(e_b[k][n]) for k in range(d)])) < d:
                rep.a2_failures.append(f"element of R_{x} has no right inverse")
                break

    # A.3 — below the maximum, nothing multiplies everything above to zero
    for (x, y) in comp:
        if y == P.max:
            continue
        d = fam.dim(x, y)
        if d == 0:
            continue
        images = [W for l in P.points if P.leq(y, l) and l != y
                  for W in fam.products(x, y, l)]
        if not images:
            rep.a3_failures.append(f"R_({x},{y}) has nothing above to hit")
            continue
        if lin.rank(lin.hstack(images)) < d:
            rep.a3_failures.append(f"nonzero element of R_({x},{y}) kills everything above {y}")
    return rep


def _grade_preserving_hom_dim(fam: RFamily, i: str, j: str, blocks: list[str]) -> int:
    """dim of {phi : e_i A -> e_j A, A-linear and block-graded}, blocks given.

    The unknowns are the blocks phi_l (e_l x d_l, row-major).  Each generator
    s of R_{l,l'}, l <= l' (`RFamily.generators`), gives the equations
    phi_l' S_i = S_j phi_l, where S_i (d_l' x d_l) and S_j (e_l' x e_l) are the
    actions of s on the blocks of e_i A and e_j A.  A map that commutes with s
    and t commutes with s + t and s t, so the generators impose A-linearity.
    Every basis element is still checked to act inside the family.  The answer
    is N minus the rank of the system."""
    P = fam.poset
    lin = fam.tower.lin
    d = {l: fam.dim(i, l) for l in blocks}
    e = {l: fam.dim(j, l) for l in blocks}
    N = sum(e[l] * d[l] for l in blocks)
    if N == 0:
        return 0

    groups = []
    for l in blocks:
        if d[l] == 0:
            continue
        for lp in blocks:
            if not P.leq(l, lp):
                continue
            Ci = fam.action(i, l, lp)                    # S_i^T per s
            Cj = fam.action(j, l, lp) if e[l] else None  # S_j^T per s
            for k in range(len(Ci)):
                for base, C in ((i, Ci), (j, Cj)):
                    if C is not None and C[k] is None:
                        raise OracleError(f"product from R_({base},{l}) by R_({l},{lp}) "
                                          "leaves the family")
            if e[lp] == 0:
                continue
            gens = fam.generators(l, lp)
            if not gens:
                continue
            Ci = [Ci[k] for k in gens]
            Cj = [Cj[k] for k in gens] if e[l] else None
            # row (s, r, c) is entry (r, c) of phi_l' S_i(s) - S_j(s) phi_l
            n = len(Ci) * e[lp] * d[l]
            parts = {m: lin.zeros(n, e[m] * d[m]) for m in blocks}
            parts[lp] = lin.vstack([lin.kron(lin.eye(e[lp]), C) for C in Ci])
            if e[l]:
                eye = lin.eye(d[l])
                parts[l] = lin.sub(parts[l], lin.vstack([lin.kron(lin.transpose(C), eye)
                                                         for C in Cj]))
            groups.append(lin.hstack([parts[m] for m in blocks]))
    if not groups:
        return N
    return N - lin.rank(lin.vstack(groups))


def oracle_hom_dim(fam: RFamily, i: str, j: str) -> int:
    """dim Hom(e_i A, e_j A) recomputed from the realization alone."""
    P = fam.poset
    blocks = [l for l in P.points if P.leq(i, l)]
    return _grade_preserving_hom_dim(fam, i, j, blocks)


@dataclass(frozen=True)
class OracleRadical:
    point: str
    end_dim: int
    block_dims: dict[str, int]
    multiplicity: int | None
    end_kind: str | None  # "F" | "G" | None when the shape is not recognized


def oracle_radical(fam: RFamily, i: str) -> OracleRadical:
    P = fam.poset
    p = fam.tower.p
    if i == P.max:
        raise OracleError("the radical at the maximal point is zero")
    blocks = [l for l in P.points if P.leq(i, l) and l != i]
    end_dim = _grade_preserving_hom_dim(fam, i, i, blocks)
    dims = {l: fam.dim(i, l) for l in blocks}
    if end_dim == p * p:
        mult, kind = p, "F"
    elif end_dim == p:
        mult, kind = 1, "G"
    elif end_dim == 1:
        mult, kind = 1, "F"
    else:
        mult, kind = None, None
    return OracleRadical(i, end_dim, dims, mult, kind)


@dataclass
class OracleReport:
    flavor: str
    dim_mismatches: list[str] = field(default_factory=list)
    adm: AdmReport = field(default_factory=AdmReport)
    radical_mismatches: list[str] = field(default_factory=list)
    hom_mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.dim_mismatches or self.radical_mismatches
                    or self.hom_mismatches) and self.adm.ok

    def __str__(self) -> str:
        lines = [f"flavor {self.flavor}:"]
        lines.append(f"  member dimensions: {'ok' if not self.dim_mismatches else 'FAIL'}")
        lines += [f"    {m}" for m in self.dim_mismatches]
        lines.append(f"  admissibility: {'ok' if self.adm.ok else 'FAIL'}"
                     + ("" if self.adm.division_exhaustive else " (structural division check)"))
        for tag, fails in (("A.1", self.adm.a1_failures), ("A.2", self.adm.a2_failures),
                           ("A.3", self.adm.a3_failures)):
            lines += [f"    {tag}: {f}" for f in fails]
        lines.append(f"  radicals: {'ok' if not self.radical_mismatches else 'FAIL'}")
        lines += [f"    {m}" for m in self.radical_mismatches]
        lines.append(f"  hom dimensions: {'ok' if not self.hom_mismatches else 'FAIL'}")
        lines += [f"    {m}" for m in self.hom_mismatches]
        return "\n".join(lines)


def run_verification(M: AlgebraModel, tower: Tower) -> OracleReport:
    P = M.poset
    if tower.p != P.p:
        raise ParameterError(f"tower is for p = {tower.p}, poset has p = {P.p}")
    fam = build_family(tower, P, M.flavor)
    rep = OracleReport(flavor=M.flavor.value)
    rep.dim_mismatches = verify_dims(fam, M)
    rep.adm = verify_admissible(fam)

    for x in P.points:
        if x == P.max:
            continue
        orad = oracle_radical(fam, x)
        info = radical_info(M, x)
        for l, dim in orad.block_dims.items():
            want = info.multiplicity * info.udimF[P.index[l]]
            if dim != want:
                rep.radical_mismatches.append(
                    f"rad(e_{x} A) has dim {dim} at {l}, table says {want}")
        # m^2 * k with m, k in {1, p} determines (m, k): this one test also
        # covers the multiplicity and end kind that oracle_radical decides
        expected_end = info.multiplicity ** 2 * M.kdim(info.label)
        if orad.end_dim != expected_end:
            rep.radical_mismatches.append(
                f"End rad(e_{x} A) has dim {orad.end_dim}, table says {expected_end}")

    for i in P.points:
        for j in P.points:
            got = oracle_hom_dim(fam, i, j)
            want = M.hom_dim(j, i)
            if got != want:
                rep.hom_mismatches.append(
                    f"dim Hom(e_{i} A, e_{j} A) = {got}, table says {want}")
    return rep
