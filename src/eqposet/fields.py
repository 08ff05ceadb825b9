"""Degree-p field extensions G = F[xi]/(xi^p - c) with a distinguished operator.

Cyclic mode: F = F_q (q prime, p | q - 1), c a non-p-th power, and the
operator is the automorphism sigma(xi) = omega*xi for the smallest primitive
p-th root of unity omega.  Inseparable mode: F = F_p(t) (`RatFunc`), c = t,
and the operator is the derivation delta(xi^i) = i*xi^(i-1).

G-elements are coefficient vectors of length p in the basis 1, xi, ...,
xi^(p-1); operators on G are p x p matrices over F acting on columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import MAX_Q, GenericField, ModQ
from .poset import P_LIMIT, P_RANGE, _is_prime, shown


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class TowerSpec:
    p: int
    mode: str = "cyclic"
    q: int | None = None
    c: int | None = None


DEFAULT_TOWERS = {2: (3, -1), 3: (7, 3), 5: (11, 2)}


# -- F_p(t): a polynomial over F_p is a tuple of residues, constant term first,
# without trailing zeros (() is 0)

def _pmul(a: tuple, b: tuple, p: int) -> tuple:
    """a*b for a, b != 0; F_p has no zero divisors, so the top stays nonzero."""
    if len(a) == 1:
        return tuple(a[0] * y % p for y in b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(v % p for v in out)


def _pdivmod(a: tuple, b: tuple, p: int) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by b != 0."""
    db, inv = len(b) - 1, pow(b[-1], -1, p)
    r, q = list(a), [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] * inv % p
        for j, y in enumerate(b):
            r[k + j] = (r[k + j] - c * y) % p
    while len(r) > db or (r and not r[-1]):  # the cancelled top, then zeros
        r.pop()
    return tuple(q), tuple(r)


def _frac(n: tuple, d: tuple, p: int) -> "RatFunc":
    """n/d in lowest terms, for polynomials n and d, d monic."""
    if any(d[:-1]):
        g, r = d, n
        while r:  # Euclid: g ends as a gcd of n and d; made monic, d/g stays monic
            g, r = r, _pdivmod(g, r, p)[1]
        g = _pmul((pow(g[-1], -1, p),), g, p)
        n, d = _pdivmod(n, g, p)[0], _pdivmod(d, g, p)[0]
    elif len(d) > 1:  # d = t^m: the common factor is the power of t dividing n
        k = min(len(d) - 1, next((i for i, x in enumerate(n) if x), len(d)))
        n, d = n[k:], d[k:]
    return RatFunc(n, d, p)


@dataclass(slots=True, unsafe_hash=True)
class RatFunc:
    """n/d in F_p(t) with d monic and gcd(n, d) = 1, so equal elements have equal
    (n, d).  Most tower entries are c t^k, and a gcd with t^m needs no Euclid."""

    n: tuple
    d: tuple
    p: int

    def __bool__(self) -> bool:
        return bool(self.n)

    def __neg__(self) -> RatFunc:
        return RatFunc(_pmul((self.p - 1,), self.n, self.p), self.d, self.p)

    def __add__(self, o: RatFunc, s: int = 1) -> RatFunc:
        """self + s*o."""
        p, a, b = self.p, self.d, o.d
        if not (self.n and o.n):
            return RatFunc(_pmul((s,), o.n, p), b, p) if o.n else self
        x, y, d = (self.n, o.n, a) if a == b else (_pmul(self.n, b, p), _pmul(o.n, a, p), _pmul(a, b, p))
        out = list(x) + [0] * (len(y) - len(x))
        for i, v in enumerate(y):
            out[i] = (out[i] + s * v) % p
        while out and not out[-1]:
            out.pop()
        return _frac(tuple(out), d, p)

    def __sub__(self, o: RatFunc) -> RatFunc:
        return self.__add__(o, self.p - 1)

    def __mul__(self, o: RatFunc) -> RatFunc:
        p = self.p
        if not (self.n and o.n):
            return o if self.n else self  # the zero one
        if self.d == o.d == (1,):
            return RatFunc(_pmul(self.n, o.n, p), (1,), p)
        return _frac(_pmul(self.n, o.n, p), _pmul(self.d, o.d, p), p)

    def __truediv__(self, o: RatFunc) -> RatFunc:
        if not o.n:
            raise ZeroDivisionError("division by zero in F_p(t)")
        inv = (pow(o.n[-1], -1, self.p),)
        return self * RatFunc(_pmul(inv, o.d, self.p), _pmul(inv, o.n, self.p), self.p)


class Tower:
    def __init__(self, spec: TowerSpec):
        if spec.p >= P_LIMIT:
            raise ParameterError(f"p is {P_RANGE}")
        if not _is_prime(spec.p):
            raise ParameterError(f"p = {shown(spec.p)} is not prime")
        self.spec = spec
        p = self.p = spec.p

        if spec.mode == "cyclic":
            if spec.q is None or spec.c is None:
                raise ParameterError("cyclic tower needs q and c")
            q = spec.q
            if q > MAX_Q:
                raise ParameterError(f"q = {shown(q)} is too large: exact int64 arithmetic "
                                     f"needs (q - 1)^2 < 2^63, so q <= {MAX_Q}")
            if not _is_prime(q):
                raise ParameterError(f"q = {shown(q)} is not prime")
            if (q - 1) % p:
                raise ParameterError(f"p = {p} does not divide q - 1 = {q - 1}")
            c = spec.c % q
            if c == 0 or pow(c, (q - 1) // p, q) == 1:
                raise ParameterError(f"c = {shown(spec.c)} is a p-th power in F_{q}")
            self.q = q
            self.c = c
            self.lin = ModQ(q)
            self.omega = _smallest_root_of_unity(p, q)
            # sigma: xi^i -> omega^i xi^i
            self.theta = self.lin.mat([[pow(self.omega, i, q) if j == i else 0 for j in range(p)]
                                       for i in range(p)])
        elif spec.mode == "inseparable":
            self.c = RatFunc((0, 1), (1,), p)
            self.lin = GenericField(lambda x: x if isinstance(x, RatFunc)
                                    else RatFunc((x % p,) if x % p else (), (1,), p))
            self.omega = None
            # delta: xi^i -> i xi^(i-1)
            self.theta = self.lin.mat([[j if j == i + 1 else 0 for j in range(p)] for i in range(p)])
        else:
            raise ParameterError(f"unknown tower mode {spec.mode!r}")

        a1 = self.a_ell_basis(1)
        if self.lin.rank(self.flatten_all(a1)) != self.p:
            raise ParameterError("operator basis is degenerate")

    # -- G arithmetic -------------------------------------------------------

    def xi_pow(self, j: int):
        vec = [0] * self.p
        vec[j % self.p] = 1  # callers keep j < p
        return self.lin.mat([vec])[0]

    def g_mul(self, a, b):
        """Product of two G-elements (coefficient vectors)."""
        lin = self.lin
        return lin.rows(lin.matmul(lin.mat([list(a)]), lin.transpose(self.mu_mat(b))))[0]

    def mu_mat(self, g):
        """Multiplication-by-g as a matrix (columns are g * xi^j).

        Entry (r, j) is the coefficient of xi^r in g * xi^j: g_(r-j) when
        j <= r, and c * g_(r-j+p) once the exponent wraps past xi^p = c."""
        p, lin = self.p, self.lin
        row = lin.mat([list(g)])
        g, cg = lin.rows(row)[0], lin.rows(lin.smul(self.c, row))[0]
        return lin.mat([[g[r - j] if j <= r else cg[r - j + p] for j in range(p)]
                        for r in range(p)])

    # -- operator algebra ---------------------------------------------------

    def eps(self, strong: bool):
        """Idempotent attached to a point: corner projection when strong,
        the identity operator when weak."""
        if not strong:
            return self.lin.eye(self.p)
        e = self.lin.zeros(self.p, self.p)
        e[0][0] = self.lin.one
        return e

    def a_ell_basis(self, ell: int) -> list:
        """Spanning operators mu_(xi^j) . theta^i for j < p, i < ell."""
        lin = self.lin
        out = []
        theta_pow = lin.eye(self.p)
        for _ in range(ell):
            for j in range(self.p):
                out.append(lin.matmul(self.mu_mat(self.xi_pow(j)), theta_pow))
            theta_pow = lin.matmul(self.theta, theta_pow)
        return out

    # operators flatten row-major into vectors of length p^2

    def flatten(self, m):
        return self.lin.reshape(m, 1, self.p * self.p)[0]

    def unflatten(self, v):
        return self.lin.reshape(v, self.p, self.p)

    def flatten_all(self, mats: list):
        return self.lin.reshape(mats, len(mats), self.p * self.p)


def _smallest_root_of_unity(p: int, q: int) -> int:
    """Smallest a >= 2 with a^p = 1 in F_q, for primes p | q - 1.

    The p-th roots of unity are the powers of any one of them other than 1,
    so this takes O(p) multiplications rather than a scan over F_q."""
    e = (q - 1) // p
    h = next(h for h in (pow(a, e, q) for a in range(2, q)) if h != 1)
    return min(pow(h, k, q) for k in range(1, p))


def default_tower(p: int, mode: str = "cyclic") -> Tower:
    if mode == "inseparable":
        return Tower(TowerSpec(p, "inseparable"))
    if p not in DEFAULT_TOWERS:
        raise ParameterError(f"no default tower for p = {p}; pass q and c explicitly")
    q, c = DEFAULT_TOWERS[p]
    return Tower(TowerSpec(p, "cyclic", q, c))
