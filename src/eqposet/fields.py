"""Degree-p field extensions G = F[xi]/(xi^p - c) with a distinguished operator.

`Tower(p, mode, q, c)` builds G and checks its own parameters, raising
`ParameterError` (defined in poset.py) on any it refuses.  Cyclic mode: F =
F_q (q prime, p | q - 1), c a non-p-th power, both given or both taken from
`DEFAULT_TOWERS`, and the operator is the automorphism sigma(xi) = omega*xi
for the smallest primitive p-th root of unity omega.  Inseparable mode: F =
F_p(t) (driver `FpT`), c = t, and the operator is the derivation
delta(xi^i) = i*xi^(i-1).

G-elements are coefficient vectors of length p in the basis 1, xi, ...,
xi^(p-1), multiplied by convolution modulo xi^p - c (`Tower.g_mul`); operators
on G are p x p matrices over F acting on columns.

A constant of F_p(t), 0 included, is a Python int in [0, p), as an entry of
F_q is; any other element is a `RatFunc`, the tuple (n, d) in lowest terms
with d monic.  So the constant arithmetic that is most of the oracle's runs
on ints, and truth tests, comparisons and hashes run at C level.  Monomials
c t^k (k in Z), nearly all the other entries the oracle meets, take direct
arithmetic paths; the rest reduce by Euclid's algorithm.
"""

from __future__ import annotations

import functools

from .linalg import GenericField, ModQ
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


def _frac(n: tuple, d: tuple, K: type) -> RatFunc | int:
    """n/d in lowest terms, for polynomials n and d, d monic, in K's F_p(t): a
    `RatFunc`, or an int when it is constant."""
    p = K.p
    if any(d[:-1]):
        g, r = d, n
        while r:  # Euclid: g ends as a gcd of n and d; made monic, d/g stays monic
            g, r = r, _pdivmod(g, r, p)[1]
        g = _pmul((pow(g[-1], -1, p),), g, p)
        n, d = _pdivmod(n, g, p)[0], _pdivmod(d, g, p)[0]
    elif len(d) > 1:  # d = t^m: the common factor is the power of t dividing n
        k = min(len(d) - 1, next((i for i, x in enumerate(n) if x), len(d)))
        n, d = n[k:], d[k:]
    if len(n) < 2 and len(d) == 1:
        return n[0] if n else 0
    return _new(K, (n, d))


def _monomial(n: tuple, d: tuple):
    """(c, k) with n/d = c t^k, k in Z, for n/d != 0 in lowest terms, or None."""
    if len(d) == 1:
        if n.count(0) == len(n) - 1:  # the top coefficient is nonzero
            return n[-1], len(n) - 1
    elif len(n) == 1 and d.count(0) == len(d) - 1:
        return n[0], 1 - len(d)
    return None


def _mono(K: type, c: int, k: int) -> RatFunc | int:
    """c t^k in K's F_p(t), for a residue c != 0 and k in Z; c itself for k = 0."""
    if not k:
        return c
    return _new(K, ((0,) * k + (c,), _ONE) if k > 0 else ((c,), (0,) * -k + _ONE))


def _inv(c: int, p: int) -> int:
    """1/c in F_p for any int c; ZeroDivisionError when p divides c."""
    if c % p:
        return pow(c, -1, p)
    raise ZeroDivisionError("division by zero in F_p(t)")


_new, _ONE = tuple.__new__, (1,)


class RatFunc(tuple):
    """A non-constant n/d in F_p(t), stored as the tuple (n, d) with d monic and
    gcd(n, d) = 1.  A constant of F_p(t), 0 included, is a Python int in [0, p)
    and never a RatFunc, so equal elements are equal ints or equal tuples:
    truth, == and hash are the built-in ones.  `RatFunc(n, d, p)` takes
    polynomials n and d, d monic, and gives n/d in lowest terms: an instance
    of the one subclass for p, which holds p, or an int when it is constant.
    Elements of different p compare as tuples; they never meet, as a family
    works in one tower.

    +, - and * take a RatFunc or any int (read mod p) on either side, and
    give a RatFunc or an int in [0, p); there is no /, as the driver divides
    through `inv`.  Nearly every element the oracle meets is a constant or
    c t^k (k in Z): an int operand scales or shifts the numerator, two
    monomials combine directly, and any other pair goes through `_frac`,
    where a gcd with t^m needs no Euclid."""

    __slots__ = ()
    p: int  # set on each subclass

    def __new__(cls, n: tuple, d: tuple, p: int) -> RatFunc | int:
        return _frac(n, d, _field(p))

    @property
    def n(self) -> tuple:
        return self[0]

    @property
    def d(self) -> tuple:
        return self[1]

    def __repr__(self) -> str:
        return f"RatFunc(n={self.n}, d={self.d}, p={self.p})"

    def __reduce__(self):
        return RatFunc, (self.n, self.d, self.p)

    def __neg__(self) -> RatFunc:
        p, (n, d) = self.p, self
        return _new(type(self), (tuple(-x % p for x in n), d))

    def __add__(self, o: RatFunc | int) -> RatFunc | int:
        p, (a, b) = self.p, self
        if isinstance(o, int):
            if not (o := o % p):
                return self
            c, e = (o,), _ONE
        else:
            c, e = o
        u, v = _monomial(a, b), _monomial(c, e)
        if u and v:
            (x, k), (y, j) = (u, v) if u[1] <= v[1] else (v, u)
            if k == j:
                x = (x + y) % p
                return _mono(type(self), x, k) if x else 0
            n = (x,) + (0,) * (j - k - 1) + (y,)  # t^-k (x t^k + y t^j)
            return _new(type(self), ((0,) * k + n, _ONE) if k >= 0 else (n, (0,) * -k + _ONE))
        x, y, d = (a, c, b) if b == e else (_pmul(a, e, p), _pmul(c, b, p), _pmul(b, e, p))
        out = list(x) + [0] * (len(y) - len(x))
        for i, v in enumerate(y):
            out[i] = (out[i] + v) % p
        while out and not out[-1]:
            out.pop()
        return _frac(tuple(out), d, type(self))

    __radd__ = __add__

    def __sub__(self, o: RatFunc | int) -> RatFunc | int:
        return self + -o

    def __rsub__(self, o: int) -> RatFunc | int:
        return -self + o

    def __mul__(self, o: RatFunc | int) -> RatFunc | int:
        p, (a, b) = self.p, self
        if isinstance(o, int):  # scale the numerator
            o %= p
            return _new(type(self), (tuple(o * x % p for x in a), b)) if o else 0
        c, e = o
        u, v = _monomial(a, b), _monomial(c, e)
        if u and v:
            return _mono(type(self), u[0] * v[0] % p, u[1] + v[1])
        if len(b) == len(e) == 1:
            return _new(type(self), (_pmul(a, c, p), _ONE))
        return _frac(_pmul(a, c, p), _pmul(b, e, p), type(self))

    __rmul__ = __mul__

    def inverse(self) -> RatFunc:
        """d/n, with its denominator made monic."""
        p, (n, d) = self.p, self
        c = pow(n[-1], -1, p)
        return _new(type(self), (_pmul((c,), d, p), _pmul((c,), n, p)))


@functools.cache
def _field(p: int) -> type:
    """The subclass of `RatFunc` for F_p(t)."""
    return type(f"RatFunc{p}", (RatFunc,), {"__slots__": (), "p": p})


class FpT(GenericField):
    """The driver over F_p(t): a constant is an int in [0, p), and `norm`
    takes an int mod p; any other element is a `RatFunc`, already canonical."""

    def __init__(self, p: int):
        self.p = p

    def norm(self, x):
        return x if isinstance(x, RatFunc) else x % self.p

    def inv(self, x):
        return x.inverse() if isinstance(x, RatFunc) else _inv(x, self.p)


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
        self.p = p
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
            self.q, self.c = q, c % q
            self.lin = ModQ(q)
            self.omega = _smallest_root_of_unity(p, q)
            # sigma: xi^i -> omega^i xi^i
            self.theta = self.lin.mat([[pow(self.omega, i, q) if j == i else 0 for j in range(p)]
                                       for i in range(p)])
        elif mode == "inseparable":
            if q is not None or c is not None:
                raise ParameterError("q and c apply to cyclic towers only")
            self.c = RatFunc((0, 1), (1,), p)
            self.lin = FpT(p)
            self.omega = None
            # delta: xi^i -> i xi^(i-1)
            self.theta = self.lin.mat([[j if j == i + 1 else 0 for j in range(p)] for i in range(p)])
        else:
            raise ParameterError(f"unknown tower mode {mode!r}")

    # -- G arithmetic -------------------------------------------------------

    def xi_pow(self, j: int):
        if not 0 <= j < self.p:
            raise ValueError(f"xi_pow takes 0 <= j < p = {self.p}, not j = {j}")
        return [self.lin.one if i == j else self.lin.zero for i in range(self.p)]

    def g_mul(self, a, b):
        """Product of two G-elements (coefficient vectors): their convolution,
        with xi^(p+k) = c xi^k folded back in."""
        p, norm = self.p, self.lin.norm
        acc = [self.lin.zero] * (2 * p - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        acc[i + j] = norm(acc[i + j] + x * y)
        for k in range(p - 1):
            if acc[p + k]:
                acc[k] = norm(acc[k] + self.c * acc[p + k])
        return acc[:p]

    def mu_mat(self, g):
        """Multiplication-by-g as a matrix: column j is g * xi^j."""
        return self.lin.transpose([self.g_mul(g, self.xi_pow(j)) for j in range(self.p)])

    # -- operator algebra ---------------------------------------------------

    def a_ell_basis(self, ell: int) -> list:
        """Spanning operators mu_(xi^j) . theta^i for i < ell, j < p, i major, as
        new lists.  Each mu_(xi^j) is built once, and theta^0 = 1 takes no product."""
        lin, mus = self.lin, [self.mu_mat(self.xi_pow(j)) for j in range(self.p)]
        out, theta_pow = list(mus), self.theta
        for _ in range(1, ell):
            out += [lin.matmul(mu, theta_pow) for mu in mus]
            theta_pow = lin.matmul(self.theta, theta_pow)
        return out

    def cut(self, a, strong_x: bool, strong_y: bool) -> list:
        """eps_y . a . eps_x, flattened, where eps is the corner projection at a
        strong point and the identity at a weak one: row 0 alone at a strong y,
        column 0 alone at a strong x, zero everywhere else."""
        zero = self.lin.zero
        return [x if (i == 0 or not strong_y) and (j == 0 or not strong_x) else zero
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
