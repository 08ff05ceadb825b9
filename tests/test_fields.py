"""F_p(t) arithmetic of the inseparable tower, and the package's runtime
dependencies and exports."""

import pickle
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC, run_python, src_imports
from eqposet.fields import RatFunc


def _const(c: int, p: int) -> RatFunc:
    return RatFunc((c % p,) if c % p else (), (1,), p)


def _poly(coeffs, p: int) -> RatFunc:
    """sum_i coeffs[i] t^i, built with the field operations (Horner)."""
    acc, t = _const(0, p), RatFunc((0, 1), (1,), p)
    for c in reversed(coeffs):
        acc = acc * t + _const(c, p)
    return acc


def _ref_mul(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and not out[-1]:
        out.pop()
    return out


def _ref_gcd_degree(a, b, p: int) -> int:
    """Degree of gcd(a, b) over F_p, by Euclid on coefficient lists; -1 for gcd 0."""
    a, b = list(a), list(b)
    while b:
        while len(a) >= len(b):
            c, shift = a[-1] * pow(b[-1], -1, p) % p, len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] = (a[shift + j] - c * y) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _eval(x: RatFunc, t0: int):
    """x(t0) in F_p, or None where its denominator vanishes."""
    p = x.p
    num = sum(c * t0 ** i for i, c in enumerate(x.n)) % p
    den = sum(c * t0 ** i for i, c in enumerate(x.d)) % p
    return num * pow(den, -1, p) % p if den else None


def _monomials(p: int):
    """(num, den) of c t^k for a residue c != 0 and k in [-3, 3]."""
    return st.tuples(st.integers(1, p - 1), st.integers(-3, 3)).map(
        lambda ck: ([0] * max(ck[1], 0) + [ck[0]], [0] * max(-ck[1], 0) + [1]))


@st.composite
def quotients(draw, p: int):
    """(num, den, num/den): zero, a constant, a monomial c t^k with k in
    [-3, 3], which take RatFunc's direct paths, or random polynomials num
    and den != 0 of low degree; short coefficient lists make powers of t
    common denominators."""
    num, den = draw(st.one_of(
        st.just(([], [1])),
        st.integers(1, p - 1).map(lambda c: ([c], [1])),
        _monomials(p),
        st.tuples(st.lists(st.integers(0, p - 1), max_size=4),
                  st.lists(st.integers(0, p - 1), min_size=1, max_size=3).filter(any))))
    return num, den, _poly(num, p) / _poly(den, p)


@st.composite
def elements(draw, k: int = 3):
    p = draw(st.sampled_from((2, 3, 5)))
    return (p, *[draw(quotients(p))[2] for _ in range(k)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(st.just(p), quotients(p))))
def test_canonical_form(case):
    """n/d keeps the value of num/den, d is monic and gcd(n, d) = 1."""
    p, (num, den, x) = case
    assert x.p == p and x.d and x.d[-1] == 1
    assert _ref_gcd_degree(x.n, x.d, p) == 0
    assert _ref_mul(x.n, den, p) == _ref_mul(num, x.d, p)
    assert bool(x) == any(num)
    # residues stay in [0, p): -x negates each coefficient mod p
    assert (-x).n == tuple(-c % p for c in x.n) and (-x).d == x.d
    assert all(0 <= c < p for c in x.n + x.d)


@settings(max_examples=300, deadline=None)
@given(elements())
def test_field_axioms(case):
    p, a, b, c = case
    zero, one = _const(0, p), _const(1, p)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b) and a - a == zero
    if b:
        assert (a / b) * b == a and b * (one / b) == one
    if b and c:  # equal values reached two ways are equal tuples
        x, y = (a * c) / (b * c), a / b
        assert (x.n, x.d) == (y.n, y.d) and hash(x) == hash(y)


@settings(max_examples=300, deadline=None)
@given(elements(2), st.integers(0, 4))
def test_evaluation_is_a_homomorphism(case, t0):
    p, a, b = case
    t0 %= p
    va, vb = _eval(a, t0), _eval(b, t0)
    if va is None or vb is None:
        return
    assert _eval(a + b, t0) == (va + vb) % p
    assert _eval(a - b, t0) == (va - vb) % p
    assert _eval(a * b, t0) == va * vb % p
    assert _eval(-a, t0) == -va % p
    if vb:
        assert _eval(a / b, t0) == va * pow(vb, -1, p) % p


def test_truth_equality_and_hash_are_tuples():
    """Truth, == and hash of an F_p(t) element are tuple's own C slots, not
    Python-level methods; 0 is the empty tuple and keeps its p and d."""
    for p in (2, 3, 5):
        zero = RatFunc((), (1,), p)
        for cls in (RatFunc, type(zero)):
            assert not {"__bool__", "__eq__", "__hash__", "__len__"} & set(vars(cls))
        assert not zero and zero == () and zero.p == p and zero.d == (1,) and zero.n == ()
        t = RatFunc((0, 1), (1,), p)
        assert t and t == ((0, 1), (1,)) and hash(t) == hash(((0, 1), (1,)))
        assert type(t) is type(zero) and isinstance(t, RatFunc) and t.p == p
        assert repr(t) == f"RatFunc(n=(0, 1), d=(1,), p={p})"
        with pytest.raises(TypeError):
            2 * t  # not tuple repetition
        with pytest.raises(ZeroDivisionError):
            t / zero
        assert pickle.loads(pickle.dumps(t)) == t and pickle.loads(pickle.dumps(zero)).p == p


def test_src_never_imports_sympy():
    """F_p(t) is native: no module of the package imports sympy."""
    imports = src_imports()
    assert len(imports) >= 10
    for name, roots in imports.items():
        assert "sympy" not in roots, name


def test_inseparable_tower_leaves_sympy_unloaded():
    code = ("import sys; from eqposet import default_tower; "
            "default_tower(2, 'inseparable'); print('sympy' in sys.modules)")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_tower_refuses_huge_p_quickly():
    """A p of 2^31 or more is refused before trial division, which would take
    ~10^9 steps on this prime."""
    code = ("from eqposet.fields import ParameterError, Tower\n"
            "try:\n    Tower(1000000000000000003, 'cyclic', 3, 2)\n"
            "except ParameterError as e:\n    print(e)")
    out = run_python("-c", code, timeout=10)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "p is out of range (p < 2^31)\n"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    assert meta["project"]["dependencies"] == []


def test_star_import_binds_exactly_all():
    """`__all__` is sorted, holds no name twice and names every public
    attribute of the package that is not a submodule."""
    import eqposet
    names = eqposet.__all__
    assert names == sorted(set(names))
    assert set(names) == {n for n, v in vars(eqposet).items()
                          if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    scope = {}
    exec("from eqposet import *", scope)
    assert scope.keys() - {"__builtins__"} == set(names)
