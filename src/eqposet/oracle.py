"""Exact realization of a model's algebra over a field tower.

Each comparable pair (x, y) gets a concrete F-subspace R_{x,y} (operators on
G for flavor r, elements of G for flavor c) whose product, `RFamily.compose`,
is honest algebra multiplication, used on basis elements by `RFamily.table`
alone, the one check that a product stays in the family (A.1).
The order and the strengths come from `EquippedPoset.view` alone:
`RFamily.above[x]` lists the points y >= x, x too, in declaration order, and
every loop over comparable pairs, blocks and intervals walks those lists.  A
member depends only on the strengths of x and y and on l(x, y) (flavor r),
or on l(x, y) alone (flavor c): that key names it in `RFamily.member`, and
each distinct member is built once per family.  Every cache is keyed by the
names of the members it reads, so action tables with their equation blocks,
generator picks and hom systems are computed once per family and shared by
every pair that has them.
Everything a model claims — hom table entries, the three axioms of an
admissible family, radical shapes, hom dimensions between projectives — is
then re-derived here by linear algebra alone.  On a cyclic tower, A.2 proves
or refutes that each R_{x,x} is a field by two ranks, of the q-th powers of
the powers of one element and of their differences with them (Berlekamp).
An inseparable tower computes over F_p at t = 1 (fields.py), where R_{x,x}
need not be a field: A.2 tests its basis elements and checks that every
member is graded, the premise under which t = 1 gives the F_p(t) numbers.
Hom dimensions impose A-linearity on a generating set of the realized algebra
only: algebra generators of each R_{x,x} and, for l < l', a basis of R_{l,l'}
modulo what the members inside [l, l'] generate (rad/rad^2).  Nearly every
row of such a system has one or two entries and merges classes of unknowns as
it is read; only the rows left with three or more reach the sparse rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fields import ParameterError, Tower
from .model import AlgebraModel, Flavor, radical_info
from .poset import EquippedPoset, _is_prime


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
    above: dict[str, list[str]] = field(default_factory=dict)  # y >= x, x too, declaration order
    member: dict[tuple[str, str], object] = field(default_factory=dict)  # the name of R_{x,y}
    # Each cache is keyed by the names of the members it reads, so equal members
    # share its entries.  Change a member through `replace` only.
    _actions: dict = field(default_factory=dict, repr=False)   # per (m_xy, m_yz, m_xz)
    _closures: dict = field(default_factory=dict, repr=False)  # per configuration
    _systems: dict = field(default_factory=dict, repr=False)   # per hom system
    # answers of `table` by (x, y, z) and of `generators` by (l, l'), so a repeat
    # call builds no key of member names; `replace` empties it
    _memo: dict = field(default_factory=dict, repr=False)

    def dim(self, x: str, y: str) -> int:
        return len(self.basis.get((x, y), ()))

    def replace(self, x: str, y: str, basis: list, piv: list[int]) -> None:
        """Make R_{x,y} the span of basis (rref, pivots piv) under a fresh name:
        no cached answer is reused for it; pairs that shared the old keep theirs."""
        self.basis[(x, y)], self.piv[(x, y)], self.member[(x, y)] = basis, piv, object()
        self._memo.clear()

    def compose(self, u, v):
        """Product u * v for u in R_{x,y}, v in R_{y,z} (apply u, then v).  For
        flavor r that is the matrix product v u on the flattened operators, with
        the loop order and zero skips of `lin.matmul`."""
        t = self.tower
        if self.flavor is not Flavor.R:
            return t.g_mul(u, v)
        p, q, out = t.p, t.lin.q, [0] * len(u)
        for i in range(0, len(u), p):  # row i // p of v u
            for k, x in enumerate(v[i:i + p]):
                if x:
                    for j, y in enumerate(u[k * p:k * p + p], i):
                        if y:
                            out[j] = (out[j] + x * y) % q
        return out

    def table(self, x: str, y: str, z: str) -> tuple:
        """C and the blocks read of it (`_block`), where C[k] is the d_xy x d_xz
        matrix of row b the `coords` of b * s in R_{x,z}, s the k-th basis element
        of R_{y,z}.  Raises OracleError at the first b * s that leaves R_{x,z}."""
        if (hit := self._memo.get((x, y, z))) is not None:
            return hit
        m = self.member
        key = (m[(x, y)], m[(y, z)], m[(x, z)])
        if (hit := self._actions.get(key)) is None:
            R, piv, coords = self.basis[(x, z)], self.piv[(x, z)], self.tower.lin.coords
            try:
                C = [[coords(R, piv, self.compose(b, s)) for b in self.basis[(x, y)]]
                     for s in self.basis[(y, z)]]
            except ValueError:
                raise OracleError(f"R_({x},{y}) * R_({y},{z}) leaves R_({x},{z})") from None
            hit = self._actions[key] = (C, {})
        self._memo[(x, y, z)] = hit
        return hit

    def generators(self, l: str, lp: str) -> list[int]:
        """Indices of basis elements of R_{l,l'} that, with the members R_{a,b}
        for l <= a <= b <= l' and (a, b) != (l, l'), generate R_{l,l'} under
        sums and products.  `_close` runs once per configuration: l == l' and
        the names of R_{l,l'}, R_{l,l}, R_{l',l'}, then R_{l,y}, R_{y,l'} for each
        y between."""
        if (hit := self._memo.get((l, lp))) is not None:
            return hit
        m, above, mid = self.member, self.above, []
        key = [l == lp, m[(l, lp)], m[(l, l)], m[(lp, lp)]]
        for y in above[l] if l != lp else ():  # the points strictly between
            if y not in (l, lp) and lp in above[y]:
                key += m[(l, y)], m[(y, lp)]
                mid.append(y)
        if (hit := self._closures.get(key := tuple(key))) is None:
            hit = self._closures[key] = _close(self.tower.lin, l == lp, self.table(l, l, lp)[0],
                                               self.table(l, lp, lp)[0],
                                               [self.table(l, y, lp)[0] for y in mid])
        self._memo[(l, lp)] = hit
        return hit


def _close(lin, local: bool, left: list, right: list, inner: list) -> list[int]:
    """`RFamily.generators` from the tables (l, l, l'), (l, l', l') and (l, y, l').
    Nothing is added once the span is the whole member, which is closed under
    products already: no further inner block, candidate or closure round."""
    d, ys = len(left), [C for T in inner for C in T]
    picks, R, piv = [], [], []
    for C in ys:  # the products through the points between, until they span R_{l,l'}
        R, piv = lin.rref(R + C) if len(piv) < d else (R, piv)
    flat = [[x for row in C for x in row] for C in left] if local else None
    for k in range(d):
        if len(piv) == d:
            break
        unit = [[int(i == k) for i in range(d)]]
        if lin.in_span(R, piv, unit[0]):
            continue
        picks.append(k)
        if local:  # close the span under products: v w = v (sum_s w_s C_s)
            size, (R, piv) = 0, lin.rref(lin.vstack([R, unit]))
            while size < len(piv) < d:  # the whole member is closed already
                size = len(piv)
                R, piv = lin.rref(lin.vstack(
                    [R] + [lin.matmul(R, [m[a * d:(a + 1) * d] for a in range(d)])
                           for m in lin.matmul(R, flat)]))
        else:  # add the sub-bimodule R_{l,l} b_k R_{l',l'}
            rows = [unit, left[k]]
            R, piv = lin.rref(lin.vstack(
                [R] + rows + [lin.matmul(X, C) for X in rows for C in right]))
    return picks


def build_family(tower: Tower, P: EquippedPoset, flavor: Flavor | str) -> RFamily:
    """One basis and pivot list per (x strong?, y strong?, l(x, y)), or per
    l(x, y); that key is the member's name in `RFamily.member`."""
    if tower.p != P.p:
        raise ParameterError(f"tower is for p = {tower.p}, poset has p = {P.p}")
    flavor = Flavor(flavor)
    lin, r = tower.lin, flavor is Flavor.R
    fam = RFamily(tower, P, flavor)
    ops = tower.a_ell_basis() if r else []  # those of A_ell are ops[:ell * p]
    units = {s: tower.cut(lin.eye(tower.p), s, s) if r else tower.xi_pow(0) for s in (False, True)}
    pts, (ells, strong, up), members = P.points, P.view, {}
    for i, x in enumerate(pts):
        js = sorted((i, *up[i]))
        fam.unit[x], fam.above[x] = units[r and strong[i]], [pts[j] for j in js]
        for j in js:
            ell = ells[i][j]
            key = (strong[i], strong[j], ell) if r else ell
            if key not in members:
                if r:
                    gens = [tower.cut(a, key[0], key[1]) for a in ops[:ell * tower.p]]
                else:
                    gens = [tower.xi_pow(k) for k in range(ell)]
                members[key] = (*lin.rref(gens), key)
            fam.basis[(x, pts[j])], fam.piv[(x, pts[j])], fam.member[(x, pts[j])] = members[key]
    return fam


def verify_dims(fam: RFamily, M: AlgebraModel) -> list[str]:
    return [f"dim R_({x},{y}) = {fam.dim(x, y)}, table says {M.hom_dim(x, y)}"
            for x, above in fam.above.items() for y in above if fam.dim(x, y) != M.hom_dim(x, y)]


@dataclass
class AdmReport:
    a2_failures: list[str] = field(default_factory=list)
    a3_failures: list[str] = field(default_factory=list)
    # False when each R_x was tested on its basis alone (inseparable towers)
    division_exhaustive: bool = True

    @property
    def ok(self) -> bool:
        return not (self.a2_failures or self.a3_failures)


def verify_admissible(fam: RFamily) -> AdmReport:
    P, lin, rep, above = fam.poset, fam.tower.lin, AdmReport(), fam.above
    comp = [(x, y) for x in P.points for y in above[x]]
    inseparable = fam.tower.mode == "inseparable"  # over F_p at t = 1 (fields.py)

    # A.1 — `table` raises at the first product, reflexive cases too, that leaves its member
    for (x, y) in comp:
        for z in above[y]:
            fam.table(x, y, z)

    # A.2 — units act as identities and every nonzero local element divides;
    # each verdict is reached once per (unit, member, unit) and (R_x, unit), by
    # member name and by the value of the units.  At t = 1 the basis test gives
    # the F_p(t) verdict when every member is graded (fields.py), so an
    # inseparable tower checks the grading too.
    fixes, divides = {}, {}
    if inseparable:
        rep.division_exhaustive = False
        pair_of = {fam.member[xy]: xy for xy in comp}  # one pair per member
        mixed = {m for m, xy in pair_of.items() if not all(_graded(fam, b) for b in fam.basis[xy])}
        rep.a2_failures += [f"member R_({x},{y}) is not graded" for (x, y) in comp
                            if fam.member[(x, y)] in mixed]
    for x in P.points:
        ux, d = fam.unit[x], fam.dim(x, x)
        if d == 0:
            rep.a2_failures.append(f"R_{x} is zero")
            continue
        if not lin.in_span(fam.basis[(x, x)], fam.piv[(x, x)], ux):
            rep.a2_failures.append(f"unit of R_{x} is not in the member")
            continue
        for y in above[x]:
            key = (tuple(ux), fam.member[(x, y)], tuple(uy := fam.unit[y]))
            if (fix := fixes.get(key)) is None:
                fix = fixes[key] = [(fam.compose(ux, u) == u, fam.compose(u, uy) == u)
                                    for u in fam.basis[(x, y)]]
            for left, right in fix:
                if not left:
                    rep.a2_failures.append(f"unit of R_{x} does not fix R_({x},{y}) on the left")
                if not right:
                    rep.a2_failures.append(f"unit of R_{y} does not fix R_({x},{y}) on the right")
            if y == x:
                unital = all(map(all, fix))
        if (key := (fam.member[(x, x)], tuple(ux))) not in divides:
            divides[key] = _basis_divides(fam, x) if inseparable else _certify_division(fam, x, unital)
        if (verdict := divides[key]) is None:
            rep.a2_failures.append(f"division in R_{x} not certified")
        elif not verdict:
            rep.a2_failures.append(f"element of R_{x} has no right inverse")

    # A.3 — below the maximum, nothing multiplies everything above to zero
    for (x, y) in comp:
        if y == P.max or not (d := fam.dim(x, y)):
            continue
        images = [C for l in above[y] if l != y for C in fam.table(x, y, l)[0]]
        if not images:
            rep.a3_failures.append(f"R_({x},{y}) has nothing above to hit")
        elif _kills(lin, d, images):
            rep.a3_failures.append(f"nonzero element of R_({x},{y}) kills everything above {y}")
    return rep


def _kills(lin, d: int, images: list) -> bool:
    """Whether image blocks C (row b: coordinates of b s, a block per s above)
    side by side have rank below d.  A first block of rank d settles it; else K,
    the b killed so far, becomes N K, N the left kernel of K C, until K is empty."""
    if lin.rank(dict(enumerate(r)) for r in images[0]) == d:
        return False
    K = lin.eye(d)
    for C in images:
        if K and any(map(any, C)):  # a zero block, also one of width 0, kills every b
            K = lin.matmul(lin.nullspace(lin.transpose(lin.matmul(K, C))), K)
    return bool(K)


def _graded(fam: RFamily, v) -> bool:
    """Whether v, a flattened operator (flavor r) or an element of G (flavor c),
    has its support in one degree: (row - col) mod p at row-major position k of
    an operator, k at the coefficient of xi^k."""
    p, r = fam.tower.p, fam.flavor is Flavor.R
    return len({(k // p - k % p) % p if r else k for k, x in enumerate(v) if x}) < 2


def _basis_divides(fam: RFamily, x: str) -> bool:
    """Whether each basis element b of R_x divides (structural only): exactly
    when b * b_1, ..., b * b_d, read in R_x's action table, have rank d, as then
    bR_x = R_x, so bc = 1 and cg = 1 for some c, g, and b = b(cg) = (bc)g = g."""
    lin, C = fam.tower.lin, fam.table(x, x, x)[0]  # C[k][n]: b_n * b_k in R_x
    return all(lin.rank(dict(enumerate(S[n])) for S in C) == len(C) for n in range(len(C)))


def _certify_division(fam: RFamily, x: str, unital: bool) -> bool | None:
    """Whether R_x, of dimension d over F_q and closed under products, is a
    field, or None when its unit u does not fix it or d is neither 1 nor prime.
    For d = 1, R_x is a field exactly when b_1 b_1 != 0.  Otherwise e is the first
    basis element outside F_q u, g = e^q, and C[k] and C[k]^q, right multiplication
    by e and g, give the rows E = (u, e, ..., e^(d-1)) and F = (u, g, ..., g^(d-1)).
    R_x is a field exactly when F and F - E have ranks d and d - 1.  A finite
    division ring is a field (Wedderburn), and its subfield F_q[e] has degree 1
    or d, not 1, so E is a basis, mapped to F by a -> a^q, an automorphism
    fixing F_q alone.  Conversely, F lies in F_q[e], the span of E, so rank F =
    d makes R_x = F_q[e] commutative, and a -> a^q, then F_q-linear, maps E to
    F and is injective: R_x has no nilpotents and is a product of fields, where
    a -> a^q fixes one F_q per factor; rank d - 1 of F - E leaves one (Berlekamp)."""
    lin, d, C = fam.tower.lin, fam.dim(x, x), fam.table(x, x, x)[0]
    if d == 1:
        return any(C[0][0])
    if not (unital and _is_prime(d)):
        return None
    u = [fam.unit[x][c] for c in fam.piv[(x, x)]]
    k = next(k for k in range(d) if any(a for i, a in enumerate(u) if i != k))
    Q, S, n = C[k], C[k], lin.q >> 1  # Q = C[k]^q, as q is odd: p | q - 1
    while n:
        S = lin.matmul(S, S)
        Q, n = lin.matmul(Q, S) if n & 1 else Q, n >> 1
    E, F = [u], [u]
    for _ in range(d - 1):
        E, F = E + lin.matmul(E[-1:], C[k]), F + lin.matmul(F[-1:], Q)
    D = lin.mat([[a - b for a, b in zip(f, e)] for f, e in zip(F, E)])
    return len(lin.rref(F)[1]) == d and len(lin.rref(D)[1]) == d - 1


def _block(done: dict, C: list, k: int) -> tuple:
    """Whether C[k] is the identity, the nonzeros of its rows and columns, and its
    rows with one (a, b, x), none (a) and more (a, row); done caches them per k."""
    if (hit := done.get(k)) is None:
        rows = [[(b, x) for b, x in enumerate(row) if x] for row in C[k]]
        cols = [[(a, x) for a, x in enumerate(col) if x] for col in zip(*C[k])]
        unit = len(rows) == len(cols) and all(r == [(a, 1)] for a, r in enumerate(rows))
        hit = done[k] = (unit, rows, cols, [(a, *r[0]) for a, r in enumerate(rows) if len(r) == 1],
                         [a for a, r in enumerate(rows) if not r],
                         [(a, r) for a, r in enumerate(rows) if len(r) > 1])
    return hit


def _grade_preserving_hom_dim(fam: RFamily, i: str, j: str, blocks: list[str]) -> int:
    """dim of {phi : e_i A -> e_j A, A-linear and block-graded}, blocks given.

    The unknowns are the blocks phi_l (e_l x d_l, row-major, from off[l]).
    Each generator s of R_{l,l'}, l <= l' (`RFamily.generators`), gives the
    equations phi_l' S_i = S_j phi_l, where S_i (d_l' x d_l) and S_j
    (e_l' x e_l) are the actions of s on the blocks of e_i A and e_j A.  A map
    that commutes with s and t commutes with s + t and s t, so on a family
    closed under products (A.1) the generators impose A-linearity.  The answer
    is N minus the rank of the system, found by `_solve_hom_system`; the rows of
    the unit of R_{l,l}, the identity on both sides, are not built.  The blocks
    are closed upward, so the names of R_{i,l}, R_{j,l} and R_{l,l'} for blocks
    l, l' (None where a pair is not comparable) fix the system: they key it;
    each is solved once."""
    m = fam.member.get
    key = (*[m((x, l)) for l in blocks for x in (i, j)],
           *[m((l, lp)) for l in blocks for lp in blocks])
    if (hit := fam._systems.get(key)) is None:
        hit = fam._systems[key] = _solve_hom_system(fam, i, j, blocks)
    return hit


def _solve_hom_system(fam: RFamily, i: str, j: str, blocks: list[str]) -> int:
    """Nearly every row has one or two nonzeros, read straight from the `_block`
    lists, so each is merged as it is read (LaMacchia-Odlyzko, CRYPTO '90).
    Unknown c is x_c = gain[c] x_root, and each root lists its class, so a
    merge relabels the smaller class.  a x = 0 zeroes the class of x.
    a x + b y = 0 zeroes the class of y if that of x is zero, and the other way
    round; else it merges two classes by x_rx = -(b g_y / a g_x) x_ry, or zeroes
    their one class unless a g_x + b g_y = 0 (so entries on one column, at
    l = l', r = u, a = b, add up).  Rows of three or more are rewritten in the
    live roots' coordinates until none becomes light.  Each step keeps the
    solutions over any field, and the light rows leave one free coordinate per
    live (not zero) root, so the dimension is the live roots minus the heavy
    rows' rank."""
    lin, q = fam.tower.lin, fam.tower.lin.q
    d, e, off, N = {}, {}, {}, 0
    for l in blocks:
        d[l], e[l], off[l] = fam.dim(i, l), fam.dim(j, l), N
        N += e[l] * d[l]
    if N == 0:
        return 0
    root, gain, cls, dead, heavy = list(range(N)), [1] * N, [[c] for c in range(N)], set(), []
    def merge(x, a, y, b):  # a x_rx + b x_ry = 0 after the gains
        rx, ry = root[x], root[y]
        if rx in dead:
            dead.add(ry)
        elif ry in dead:
            dead.add(rx)
        elif rx == ry:
            if (a * gain[x] + b * gain[y]) % q:
                dead.add(rx)
        else:
            a, b = a * gain[x], b * gain[y]
            if len(cls[rx]) > len(cls[ry]):
                rx, ry, a, b = ry, rx, b, a
            f = -b * pow(a, -1, q)
            for c in cls[rx]:
                root[c], gain[c] = ry, gain[c] * f % q
            cls[ry] += cls[rx]
            cls[rx] = None  # dead holds roots only: a zero class is never relabelled

    for l in blocks:
        ol, dl = off[l], d[l]
        for lp in fam.above[l] if dl else ():  # inside the blocks, which are closed upward
            if not (picks := fam.generators(l, lp) if e[lp] else ()):
                continue
            Ci, ti = fam.table(i, l, lp)                            # S_i^T per s
            Cj, tj = fam.table(j, l, lp) if e[l] else (None, None)  # S_j^T
            for k in picks:
                unit_i, C, _, one, none, rest = ti.get(k) or _block(ti, Ci, k)
                unit_j, _, Dt, *_ = tj.get(k) or _block(tj, Cj, k) if e[l] else (
                    False, None, [()] * e[lp])
                if l == lp and unit_i and unit_j:
                    continue  # phi_l 1 - 1 phi_l
                # row (r, a) is entry (r, a) of phi_l' S_i(s) - S_j(s) phi_l:
                # C[a][b] at phi_l'[r][b], minus D[u][r] at phi_l[u][a]
                for base, Dr in zip(range(off[lp], off[lp] + len(Dt) * d[lp], d[lp]), Dt):
                    if len(Dr) == 1:  # the common rows first, with no list built
                        (u, y), = Dr
                        c, y = ol + u * dl, -y
                        for a, b, x in one:
                            merge(base + b, x, c + a, y)
                        if none:
                            dead.update([root[c + a] for a in none])
                        if not rest:
                            continue
                        Dr = [(c, y)]
                    elif not Dr:
                        dead.update([root[base + b] for _, b, _ in one])
                    else:
                        Dr = [(ol + u * dl, -x) for u, x in Dr]
                    for a, Ca in rest if len(Dr) < 2 else enumerate(C):
                        row = [(base + b, x) for b, x in Ca] + [(c + a, x) for c, x in Dr]
                        if len(row) == 2:
                            merge(*row[0], *row[1])
                        else:
                            heavy.append(row)
    while True:
        rows = []
        for row in heavy:  # in the coordinates of the live roots, whose gain is 1
            sub = {}
            for c, x in row:
                if (rc := root[c]) not in dead:
                    sub[rc] = (sub.get(rc, 0) + x * gain[c]) % q
            sub = [(c, x) for c, x in sub.items() if x]
            if len(sub) == 2:
                merge(*sub[0], *sub[1])
            elif len(sub) == 1:
                dead.add(sub[0][0])
            elif sub:
                rows.append(sub)
        if len(rows) == len(heavy):
            return N - cls.count(None) - len(dead) - (lin.rank(map(dict, rows)) if rows else 0)
        heavy = rows


def oracle_hom_dim(fam: RFamily, i: str, j: str) -> int:
    """dim Hom(e_i A, e_j A) recomputed from the realization alone."""
    return _grade_preserving_hom_dim(fam, i, j, fam.above[i])


def oracle_radical(fam: RFamily, i: str) -> int:
    """dim End(rad e_i A) from the realization alone, over the blocks l > i."""
    if i == fam.poset.max:
        raise OracleError("the radical at the maximal point is zero")
    return _grade_preserving_hom_dim(fam, i, i, [l for l in fam.above[i] if l != i])


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
        lines = [f"flavor {self.flavor}:",
                 f"  member dimensions: {'ok' if not self.dim_mismatches else 'FAIL'}"]
        lines += [f"    {m}" for m in self.dim_mismatches]
        lines.append(f"  admissibility: {'ok' if self.adm.ok else 'FAIL'}"
                     + ("" if self.adm.division_exhaustive else " (structural division check)"))
        for tag, fails in (("A.2", self.adm.a2_failures), ("A.3", self.adm.a3_failures)):
            lines += [f"    {tag}: {f}" for f in fails]
        lines.append(f"  radicals: {'ok' if not self.radical_mismatches else 'FAIL'}")
        lines += [f"    {m}" for m in self.radical_mismatches]
        lines.append(f"  hom dimensions: {'ok' if not self.hom_mismatches else 'FAIL'}")
        lines += [f"    {m}" for m in self.hom_mismatches]
        return "\n".join(lines)


def run_verification(M: AlgebraModel, tower: Tower) -> OracleReport:
    """Re-derive M from its realization over tower; A.1 raises OracleError at a
    leaving product first.  rad(e_x A) has blocks fam.dim(x, l), l > x."""
    P = M.poset
    fam = build_family(tower, P, M.flavor)
    rep = OracleReport(M.flavor.value, verify_dims(fam, M), verify_admissible(fam))
    for x in P.points:
        if x == P.max:
            continue
        end_dim = oracle_radical(fam, x)
        mult, (ent, lab), _, _ = radical_info(M, x)
        for l in fam.above[x]:
            if l != x and (dim := fam.dim(x, l)) != (want := mult * ent[P.index[l]]):
                rep.radical_mismatches.append(
                    f"rad(e_{x} A) has dim {dim} at {l}, table says {want}")
        # m^2 * k with m, k in {1, p} determines (m, k): this one test checks
        # the table's multiplicity and label against the realization
        if end_dim != (expected_end := mult ** 2 * M.kdim(lab)):
            rep.radical_mismatches.append(
                f"End rad(e_{x} A) has dim {end_dim}, table says {expected_end}")

    for i in P.points:
        for j in P.points:
            if (got := oracle_hom_dim(fam, i, j)) != (want := M.hom_dim(j, i)):
                rep.hom_mismatches.append(
                    f"dim Hom(e_{i} A, e_{j} A) = {got}, table says {want}")
    return rep
