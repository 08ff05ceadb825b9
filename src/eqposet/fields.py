"""Degree-p extensions G = F[xi]/(xi^p - c) with a distinguished operator.

`Tower(p, mode, q, c)` builds G and checks its own parameters, raising
`ParameterError` (defined in poset.py) on any it refuses.  Cyclic mode: F =
F_q (q prime, p | q - 1), c a non-p-th power, both given or both taken from
`DEFAULT_TOWERS`, and the operator is the automorphism sigma(xi) = omega*xi
for the smallest primitive p-th root of unity omega.  Inseparable mode: the
paper's G = F_p(t)[xi]/(xi^p - t) with the derivation delta(xi^i) =
i*xi^(i-1), computed over F = F_p at t = 1, so c = 1 and the operator is
delta over F_p.  Both towers use the one driver `ModQ`.

G-elements are coefficient vectors of length p in the basis 1, xi, ...,
xi^(p-1), multiplied by convolution modulo xi^p - c (`Tower.g_mul`); operators
on G are p x p matrices over F acting on columns.

Why t = 1 loses nothing.  Grade G by deg xi = 1 and deg t = p.  mu_(xi^j)
is homogeneous of degree j and delta of degree -1, and the cut to a corner
keeps homogeneity, so every spanning operator is homogeneous and each of its
entries is some c t^k.  A position has one degree: (row - col) mod p for an
operator, k for the coefficient of xi^k in G.  So row reduction combines
vectors of one degree only, and every basis, action table, hom-system row
and kernel the oracle builds stays homogeneous with monomial entries.  The
ring map t -> 1 from F_p[t, 1/t] to F_p commutes with products, and on a
homogeneous matrix rref(M) = D1 rref(M(1)) D2 with D1, D2 diagonal in powers
of t^(1/p).  So t = 1 keeps every rank, pivot list and generator pick, and
every number the oracle derives over F_p(t) is the one it derives over
G1 = F_p[xi]/(xi^p - 1) with theta = delta.  G1 is no field, so A.2 tests
the basis and checks that every member is graded (`oracle.verify_admissible`).
"""

from __future__ import annotations

from .linalg import ModQ
from .poset import P_LIMIT, P_RANGE, ParameterError, _is_prime, shown

# Parameter policy, not arithmetic limits: the primality of q is checked by
# trial division, about sqrt(q) steps, and a tower's operators are p x p
# matrices, so the oracle's hom systems have up to p^4 unknowns per block.
MAX_Q = 3037000500
MAX_TOWER_P = 31


# (q, c) per prime p <= MAX_TOWER_P: from p = 7 on, the least prime q = 1 mod p
# and the least c with c^((q - 1)/p) != 1 mod q, so c is not a p-th power
DEFAULT_TOWERS = {2: (3, -1), 3: (7, 3), 5: (11, 2), 7: (29, 2), 11: (23, 2), 13: (53, 2),
                  17: (103, 2), 19: (191, 2), 23: (47, 2), 29: (59, 2), 31: (311, 2)}


class Tower:
    """F < G for a prime p <= MAX_TOWER_P.  A cyclic tower takes q and c, or neither
    and then p's entry in `DEFAULT_TOWERS`; an inseparable one takes neither."""

    def __init__(self, p: int, mode: str = "cyclic", q: int | None = None, c: int | None = None):
        if p >= P_LIMIT:
            raise ParameterError(f"p is {P_RANGE}")
        if not _is_prime(p):
            raise ParameterError(f"p = {shown(p)} is not prime")
        if p > MAX_TOWER_P:
            raise ParameterError(f"p = {p} is too large for a tower: its operators "
                                 f"are p x p matrices, so p <= {MAX_TOWER_P}")
        self.p, self.mode = p, mode
        if mode == "cyclic":
            if q is None and c is None:
                q, c = DEFAULT_TOWERS[p]
            elif q is None or c is None:
                raise ParameterError("cyclic towers need both q and c")
            if q > MAX_Q:
                raise ParameterError(f"q = {shown(q)} is too large: the primality of q is "
                                     f"checked by trial division, so q <= {MAX_Q}")
            if not _is_prime(q):
                raise ParameterError(f"q = {shown(q)} is not prime")
            if (q - 1) % p:
                raise ParameterError(f"p = {p} does not divide q - 1 = {q - 1}")
            if c % q == 0 or pow(c, (q - 1) // p, q) == 1:
                raise ParameterError(f"c = {shown(c)} is a p-th power in F_{q}")
            self.c = c % q
            self.lin = ModQ(q)
            self.omega = _smallest_root_of_unity(p, q)
            # sigma: xi^i -> omega^i xi^i
            self.theta = self.lin.mat([[pow(self.omega, i, q) if j == i else 0 for j in range(p)]
                                       for i in range(p)])
        elif mode == "inseparable":
            if q is not None or c is not None:
                raise ParameterError("q and c apply to cyclic towers only")
            self.c, self.lin = 1, ModQ(p)  # t = 1: see the module docstring
            self.omega = None
            # delta: xi^i -> i xi^(i-1)
            self.theta = self.lin.mat([[j if j == i + 1 else 0 for j in range(p)] for i in range(p)])
        else:
            raise ParameterError(f"unknown tower mode {mode!r}")

    # -- G arithmetic -------------------------------------------------------

    def xi_pow(self, j: int):
        if not 0 <= j < self.p:
            raise ValueError(f"xi_pow takes 0 <= j < p = {self.p}, not j = {j}")
        return [int(i == j) for i in range(self.p)]

    def g_mul(self, a, b):
        """Product of two G-elements (coefficient vectors): their convolution,
        with xi^(p+k) = c xi^k folded back in."""
        p, q = self.p, self.lin.q
        acc = [0] * (2 * p - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        acc[i + j] = (acc[i + j] + x * y) % q
        for k in range(p - 1):
            if acc[p + k]:
                acc[k] = (acc[k] + self.c * acc[p + k]) % q
        return acc[:p]

    def mu_mat(self, g):
        """Multiplication-by-g as a matrix: column j is g * xi^j."""
        return self.lin.transpose([self.g_mul(g, self.xi_pow(j)) for j in range(self.p)])

    # -- operator algebra ---------------------------------------------------

    def a_ell_basis(self) -> list:
        """Spanning operators mu_(xi^j) . theta^i for i, j < p, i major, as new
        lists; those of A_ell, i < ell, are the first ell * p.  Each mu_(xi^j) is
        built once, and theta^0 = 1 takes no product."""
        lin, mus = self.lin, [self.mu_mat(self.xi_pow(j)) for j in range(self.p)]
        out, theta_pow = list(mus), self.theta
        for _ in range(1, self.p):
            out += [lin.matmul(mu, theta_pow) for mu in mus]
            theta_pow = lin.matmul(self.theta, theta_pow)
        return out

    def cut(self, a, strong_x: bool, strong_y: bool) -> list:
        """eps_y . a . eps_x, flattened, where eps is the corner projection at a
        strong point and the identity at a weak one: row 0 alone at a strong y,
        column 0 alone at a strong x, zero everywhere else."""
        return [x if (i == 0 or not strong_y) and (j == 0 or not strong_x) else 0
                for i, row in enumerate(a) for j, x in enumerate(row)]


def _smallest_root_of_unity(p: int, q: int) -> int:
    """Smallest a >= 2 with a^p = 1 in F_q, for primes p | q - 1.

    The p-th roots of unity are the powers of any one of them other than 1,
    so this takes O(p) multiplications rather than a scan over F_q."""
    e = (q - 1) // p
    h = next(h for h in (pow(a, e, q) for a in range(2, q)) if h != 1)
    return min(pow(h, k, q) for k in range(1, p))


def default_tower(p: int, mode: str = "cyclic") -> Tower:
    return Tower(p, mode)
