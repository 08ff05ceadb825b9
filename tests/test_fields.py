"""F_p(t) arithmetic of the inseparable tower, and the package's runtime
dependencies, exports and surface."""

import ast
import importlib.util
import pickle
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_FIXTURES, SRC, cached_tower, enumerate_equipped, load_fixture, run_python, src_imports
from eqposet import Flavor, augment, build_family, oracle_hom_dim, verify_admissible
from eqposet.fields import FpT, RatFunc


class E:
    """An element of F_p(t) whose +, -, * and / are the driver's: each raw
    result is normed, and / multiplies by `inv`."""

    __slots__ = ("x", "K")

    def __init__(self, x, K: FpT):
        self.x, self.K = K.norm(x), K

    def __add__(self, o):
        return E(self.x + o.x, self.K)

    def __sub__(self, o):
        return E(self.x - o.x, self.K)

    def __mul__(self, o):
        return E(self.x * o.x, self.K)

    def __truediv__(self, o):
        return E(self.x * self.K.inv(o.x), self.K)

    def __neg__(self):
        return E(-self.x, self.K)

    def __bool__(self):
        return bool(self.x)

    def __eq__(self, o):
        return self.x == o.x

    def __hash__(self):
        return hash(self.x)


def _t(p: int) -> RatFunc:
    return RatFunc((0, 1), (1,), p)


def _poly(coeffs, p: int) -> E:
    """sum_i coeffs[i] t^i, built with the field operations (Horner)."""
    K = cached_tower(p, "inseparable").lin
    acc, t = E(0, K), E(_t(p), K)
    for c in reversed(coeffs):
        acc = acc * t + E(c, K)
    return acc


def _nd(x) -> tuple[tuple, tuple]:
    """(n, d) of an F_p(t) element; a constant c is c/1."""
    return (((x,) if x else ()), (1,)) if type(x) is int else (x.n, x.d)


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


def assert_canonical(x, p: int) -> None:
    """x is an int in [0, p), or a RatFunc of p that is not constant, with d
    monic, gcd(n, d) = 1 and every coefficient a residue.  Neither bool nor
    float passes."""
    if type(x) is int:
        assert 0 <= x < p, x
        return
    assert type(x) is type(_t(p)) and x.p == p, x
    n, d = x
    assert len(n) > 1 or len(d) > 1, x
    assert n[-1] and d[-1] == 1 and all(0 <= c < p for c in n + d), x
    assert _ref_gcd_degree(n, d, p) == 0, x


def _eval(x, t0: int, p: int):
    """x(t0) in F_p, or None where its denominator vanishes."""
    n, d = _nd(x)
    num = sum(c * t0 ** i for i, c in enumerate(n)) % p
    den = sum(c * t0 ** i for i, c in enumerate(d)) % p
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
    """n/d keeps the value of num/den, d is monic and gcd(n, d) = 1; a
    constant is an int and nothing else is."""
    p, (num, den, x) = case
    n, d = _nd(x.x)
    assert_canonical(x.x, p)  # d monic, gcd(n, d) = 1, residues in [0, p)
    assert (type(x.x) is int) == (len(n) < 2 and d == (1,))
    assert _ref_mul(n, den, p) == _ref_mul(num, d, p)
    assert bool(x) == any(num)
    # -x negates each coefficient mod p
    assert _nd((-x).x) == (tuple(-c % p for c in n), d)


@settings(max_examples=300, deadline=None)
@given(elements())
def test_field_axioms(case):
    p, a, b, c = case
    K = a.K
    zero, one = E(0, K), E(1, K)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b) and a - a == zero
    if b:
        assert (a / b) * b == a and b * (one / b) == one
    if b and c:  # equal values reached two ways are equal ints or tuples
        x, y = (a * c) / (b * c), a / b
        assert _nd(x.x) == _nd(y.x) and hash(x.x) == hash(y.x)
    for v in (a, b, c, a * b, a + b, a - b):
        assert_canonical(v.x, p)


@settings(max_examples=300, deadline=None)
@given(elements(2), st.integers(0, 4))
def test_evaluation_is_a_homomorphism(case, t0):
    p, a, b = case
    t0 %= p
    va, vb = _eval(a.x, t0, p), _eval(b.x, t0, p)
    if va is None or vb is None:
        return
    assert _eval((a + b).x, t0, p) == (va + vb) % p
    assert _eval((a - b).x, t0, p) == (va - vb) % p
    assert _eval((a * b).x, t0, p) == va * vb % p
    assert _eval((-a).x, t0, p) == -va % p
    if vb:
        assert _eval((a / b).x, t0, p) == va * pow(vb, -1, p) % p


def test_truth_equality_and_hash_are_tuples():
    """Truth, == and hash of an F_p(t) element are int's or tuple's own C
    slots, not Python-level methods; 0 and every constant are ints, and an
    int operand is read mod p on either side of a RatFunc."""
    for p in (2, 3, 5):
        K = FpT(p)
        for cls in (RatFunc, type(_t(p))):
            assert not {"__bool__", "__eq__", "__hash__", "__len__"} & set(vars(cls))
        assert type(K.zero) is int and K.zero == 0 and type(K.one) is int and K.one == 1
        assert RatFunc((), (1,), p) == 0 and RatFunc((1,), (1,), p) == 1
        assert type(RatFunc((1,), (1,), p)) is int
        assert RatFunc((0, 1), (0, 1), p) == 1  # t/t, reduced to the constant
        t = _t(p)
        assert t and t == ((0, 1), (1,)) and hash(t) == hash(((0, 1), (1,)))
        assert isinstance(t, RatFunc) and t.p == p and type(t) is type(RatFunc((1, 1), (1,), p))
        assert repr(t) == f"RatFunc(n=(0, 1), d=(1,), p={p})"
        two_t = 0 if p == 2 else RatFunc((0, 2), (1,), p)
        assert 2 * t == t * 2 == two_t and (p + 2) * t == t * (2 - p) == two_t  # not repetition
        assert t - t == 0 and type(t - t) is int
        assert (t + 1) - t == 1 and type((t + 1) - t) is int
        with pytest.raises(TypeError):
            t / t  # no / on an element: the driver divides through `inv`
        for zero in (0, p, -p):
            with pytest.raises(ZeroDivisionError):
                K.inv(zero)
        assert K.inv(t) == RatFunc((1,), (0, 1), p) and K.inv(p - 1) == p - 1
        assert K.norm(True) == 1 and type(K.norm(True)) is int
        assert pickle.loads(pickle.dumps(t)) == t and pickle.loads(pickle.dumps(t)).p == p


def _rf(x, p: int) -> RatFunc:
    """The constant x as the tuple ((x,), (1,)) of p's RatFunc subclass, which
    canonical arithmetic never makes: the all-RatFunc reference operand."""
    return tuple.__new__(type(_t(p)), ((x % p,), (1,)))


@settings(max_examples=300, deadline=None)
@given(elements(1), st.integers(-7, 7), st.integers(0, 4))
def test_int_operands_match_the_ratfunc_reference(case, c, t0):
    """int o RatFunc and RatFunc o int, for +, - and * in both orders, give
    canonical results whose values at t0 are those of the operation in F_p
    and of the same operation with c as a constant RatFunc, which takes the
    general paths."""
    p, a = case
    a, t0 = a.x, t0 % p
    if type(a) is int:
        a = a * _t(p) if a else _t(p)  # a non-constant operand
    va = _eval(a, t0, p)
    if va is None:
        return
    ops = [(lambda x, y: x + y, lambda u, v: (u + v) % p),
           (lambda x, y: x - y, lambda u, v: (u - v) % p),
           (lambda x, y: x * y, lambda u, v: u * v % p)]
    for x, y in ((a, c), (c, a)):
        for op, value in ops:
            got = op(x, y)
            assert_canonical(got, p)
            assert _eval(got, t0, p) == value(*[va if v is a else c % p for v in (x, y)])
            if c % p:
                ref = op(*[_rf(c, p) if v is c else v for v in (x, y)])
                assert _eval(ref, t0, p) == _eval(got, t0, p)


def _oracle_entries(fam):
    """Every entry of every basis, unit and action table of fam."""
    above = fam.above
    for B in fam.basis.values():
        yield from (x for row in B for x in row)
    for u in fam.unit.values():
        yield from u
    for x in above:
        for y in above[x]:
            for z in above[y]:
                for C in fam.table(x, y, z)[0]:
                    yield from (v for row in C for v in row)


def _assert_oracle_scalars(P) -> int:
    """Run the inseparable oracle's A.1-A.3 and hom systems on P in both flavors,
    then check every entry it built; the number of entries checked."""
    count, tower = 0, cached_tower(P.p, "inseparable")
    for flavor in (Flavor.R, Flavor.C):
        fam = build_family(tower, P, flavor)
        verify_admissible(fam)
        for i in fam.above:
            for j in fam.above:
                oracle_hom_dim(fam, i, j)
        for x in _oracle_entries(fam):
            assert_canonical(x, P.p)
            count += 1
    return count


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_inseparable_oracle_scalars_are_canonical_on_fixtures(name):
    assert _assert_oracle_scalars(load_fixture(name)) > 0


def test_inseparable_oracle_scalars_are_canonical_on_small_posets():
    """The [2-3] sweep of test_small_posets: every valid p = 2 poset of three
    points, augmented."""
    posets = list(enumerate_equipped(2, 3))
    assert len(posets) == 230
    assert all(_assert_oracle_scalars(augment(P)) > 0 for P in posets)


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


def test_every_src_name_has_a_reader_in_src():
    """Every module function, method, class attribute and dataclass field of
    the package is read somewhere in src, by name or as an attribute.  Exempt:
    dunders, the exports of `__all__`, the names perfbench's tracer wraps
    (`SPANS`, `COUNTED`), and `RFamily.replace`, with which tests tamper with
    a family while it keeps the member-name caches consistent."""
    import eqposet
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", SRC.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    exempt = {attr for _, attr, _ in tracing.SPANS + tracing.COUNTED}
    exempt |= {*eqposet.__all__, "RFamily.replace"}
    defined, loaded = [], set()
    for path in sorted((SRC / "eqposet").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append(node.name)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        names = [item.name]
                    elif isinstance(item, ast.AnnAssign):
                        names = [item.target.id]
                    elif isinstance(item, ast.Assign):  # also `a, b = ...`
                        names = [n.id for t in item.targets for n in ast.walk(t)
                                 if isinstance(n, ast.Name)]
                    else:
                        continue
                    defined += [f"{node.name}.{name}" for name in names]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loaded.add(n.attr)
    assert len(defined) > 200
    unread = [q for q in defined if q not in exempt and (name := q.rpartition(".")[2]) not in loaded
              and not (name.startswith("__") and name.endswith("__"))]
    assert unread == [], unread
