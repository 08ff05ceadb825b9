"""Field towers and the exact realization oracle."""

import itertools
import json
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALL_FIXTURES, DEEP_P5, assert_division_agrees, assert_picks_match_reference,
                      assert_solver_matches_reference, cached_tower, enumerated_division,
                      flatten, hom_systems, load_fixture, load_fixture_or_deep, model, rank_hom_dim,
                      reference_a_ell_basis, reference_compose, reference_eps,
                      reference_member_gens, unflatten)
from eqposet import (EquippedPoset, Flavor, OracleError, ParameterError, RFamily, Tower,
                     augment, build_family, build_model, default_tower,
                     min_equipment_closure, oracle, oracle_hom_dim, oracle_radical,
                     parse_poset, run_verification, verify_admissible, verify_dims)
from eqposet.fields import DEFAULT_TOWERS, MAX_TOWER_P
from eqposet.linalg import ModQ



# ---------------------------------------------------------------- towers

def test_default_tower_p2():
    t = default_tower(2)
    assert (t.q, t.c, t.omega) == (3, 2, 2)  # c = -1 mod 3
    xi = t.xi_pow(1)
    assert list(t.g_mul(xi, xi)) == [2, 0]  # xi^2 = -1


def test_default_tower_p3():
    t = default_tower(3)
    assert (t.q, t.c, t.omega) == (7, 3, 2)
    xi = t.xi_pow(1)
    assert list(t.g_mul(t.g_mul(xi, xi), xi)) == [3, 0, 0]  # xi^3 = 3
    assert list(t.g_mul(t.xi_pow(0), xi)) == [0, 1, 0]


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
def test_xi_pow_refuses_exponents_outside_0_to_p_minus_1(mode):
    """xi^p = c and xi^-1 are not basis vectors, so no exponent wraps mod p."""
    t = default_tower(2, mode)
    assert [t.xi_pow(j) for j in range(2)] == t.lin.eye(2)
    for j in (-1, 2, 3):
        with pytest.raises(ValueError, match=f"0 <= j < p = 2, not j = {j}"):
            t.xi_pow(j)


def test_tower_operator_basis_ranks():
    """a_ell_basis(ell) has rank p * ell and is the first ell * p operators of
    a_ell_basis(p), which build_family slices once per family."""
    for p, mode in [(2, "cyclic"), (3, "cyclic"), (5, "cyclic"),
                    (2, "inseparable"), (3, "inseparable")]:
        t = cached_tower(p, mode)
        full = t.a_ell_basis(p)
        for ell in range(1, p + 1):
            mats = t.a_ell_basis(ell)
            assert len(mats) == p * ell
            assert len(t.lin.rref([flatten(m) for m in mats])[1]) == p * ell
            assert mats == full[:ell * p], (p, mode, ell)


@pytest.mark.parametrize("spec, fragment", [
    ((3, "cyclic", 5, 2), "does not divide"),
    ((2, "cyclic", 3, 1), "p-th power"),
    ((2, "cyclic", 3, 3), "p-th power"),      # c = 0 mod q
    ((2, "cyclic", 9, 2), "not prime"),
    ((4, "cyclic", 5, 2), "not prime"),
    ((2, "weird"), "unknown tower mode"),
    pytest.param((2, "cyclic", 3), "^cyclic towers need both q and c$", id="spec6-needs q and c"),
    # a prime past MAX_Q, the bound on q's trial division
    ((2, "cyclic", 4294967311, 3), "too large"),
    # below "weird" in spirit; here, so that the ids above keep their numbers
    pytest.param((3, "inseparable", 7, 3), "^q and c apply to cyclic towers only$",
                 id="inseparable-q-c"),
    pytest.param((3, "inseparable", None, 3), "^q and c apply to cyclic towers only$",
                 id="inseparable-c"),
    pytest.param(lambda: default_tower(2, "inseperable"), "unknown tower mode 'inseperable'",
                 id="default-misspelled-mode"),
    pytest.param((37, "cyclic", 149, 2), "p = 37 is too large for a tower",
                 id="p-past-max-tower-p"),
    # refused before the p x p operators are built: O(p^2) memory at this p
    pytest.param((2147483647, "inseparable"),
                 "p = 2147483647 is too large for a tower: its operators are p x p matrices, "
                 "so p <= 31", id="p-2^31-1-inseparable"),
    pytest.param((2, "cyclic", None, 3), "^cyclic towers need both q and c$", id="c-without-q"),
    # p is checked before a default tower is looked up
    pytest.param((37,), "p = 37 is too large for a tower", id="p-past-max-tower-p-default"),
])
def test_bad_tower_parameters(spec, fragment):
    """A tuple holds Tower's arguments; a callable builds its tower itself."""
    with pytest.raises(ParameterError, match=fragment):
        spec() if callable(spec) else Tower(*spec)


@pytest.mark.parametrize("spec, message", [
    ((-10 ** 5000, "cyclic", 3, 2), "p = -10000000000... (5001 digits) is not prime"),
    ((2, "cyclic", -10 ** 5000, 2), "q = -10000000000... (5001 digits) is not prime"),
    ((2, "cyclic", 3, 3 * 10 ** 5000),
     "c = 300000000000... (5001 digits) is a p-th power in F_3"),
    ((2, "cyclic", 10 ** 5000, 3),
     "q = 100000000000... (5001 digits) is too large: the primality of q is "
     "checked by trial division, so q <= 3037000500"),
], ids=["p", "q prime", "c", "q large"])
def test_huge_tower_parameters_are_parameter_errors(spec, message):
    """Integers past str()'s 4300-digit limit give the library's own error,
    with the number shortened."""
    with pytest.raises(ParameterError) as err:
        Tower(*spec)
    assert str(err.value) == message
    assert len(message) < 100 or "too large" in message


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tower_without_q_and_c_is_the_default_tower(p):
    """A cyclic Tower given only p takes p's entry in DEFAULT_TOWERS, as
    default_tower does."""
    towers = Tower(p), default_tower(p), Tower(p, "cyclic", *DEFAULT_TOWERS[p])
    assert len({(t.q, t.c, t.omega, str(t.theta)) for t in towers}) == 1


def test_default_towers_for_p7_to_p31_follow_the_rule():
    """Every prime p <= 31 has a default cyclic tower.  From p = 7 on it is
    the least prime q = 1 mod p and the least c >= 2 with c^((q - 1)/p) != 1
    mod q (Euler's criterion: c is not a p-th power); p = 2, 3, 5 keep their
    towers, so no output of theirs moves."""
    primes = [p for p in range(2, MAX_TOWER_P + 1) if all(p % k for k in range(2, p))]
    assert sorted(DEFAULT_TOWERS) == primes
    assert {p: DEFAULT_TOWERS[p] for p in (2, 3, 5)} == {2: (3, -1), 3: (7, 3), 5: (11, 2)}
    for p in primes[3:]:
        q = next(q for q in itertools.count(p + 1, p) if all(q % k for k in range(2, q)))
        c = next(c for c in itertools.count(2) if pow(c, (q - 1) // p, q) != 1)
        assert DEFAULT_TOWERS[p] == (q, c), p
        t = default_tower(p)
        assert (t.q, t.c) == (q, c) and pow(t.omega, p, q) == 1 != t.omega


def _entries(lin, A):
    return [list(row) for row in A]


@pytest.mark.parametrize("p, mode", [(2, "cyclic"), (3, "cyclic"), (5, "cyclic"),
                                     (2, "inseparable"), (3, "inseparable")])
def test_driver_parity(p, mode):
    """Both towers run on `ModQ`, the inseparable one over F_p with c = 1 (the
    F_p(t) tower at t = 1), which takes zero and one as the ints 0 and 1 and
    reduces ints by `norm` in `mat`; operators flatten row-major and back, and
    the tower's fixed operators are the expected matrices."""
    t = cached_tower(p, mode)
    lin = t.lin
    assert type(lin.zero) is int and lin.zero == 0 and type(lin.one) is int and lin.one == 1
    n = t.q if mode == "cyclic" else p
    assert (type(lin), lin.q, t.mode) == (ModQ, n, mode) and (mode == "cyclic" or t.c == 1)
    row = lin.mat([[-1, n + 1, n]])[0]
    assert row == [n - 1, 1, 0] and all(type(x) is int for x in row)
    for m in t.a_ell_basis(p):
        assert _entries(lin, unflatten(t, flatten(m))) == _entries(lin, m)
    if mode == "cyclic":
        theta = [[pow(t.omega, i, t.q) if j == i else 0 for j in range(p)] for i in range(p)]
    else:
        theta = [[j if j == i + 1 else 0 for j in range(p)] for i in range(p)]
    assert _entries(lin, t.theta) == _entries(lin, lin.mat(theta))
    corner = [[int(i == j == 0) for j in range(p)] for i in range(p)]
    assert t.cut(lin.eye(p), True, True) == flatten(lin.mat(corner))
    assert t.cut(lin.eye(p), False, False) == flatten(lin.eye(p))


def test_inseparable_tower_arithmetic():
    """xi^p = c (t, at t = 1), and theta is a derivation: delta(uv) =
    delta(u) v + u delta(v) on every product of basis elements xi^i xi^j."""
    for p in (2, 3, 5):
        t = default_tower(p, "inseparable")
        lin = t.lin
        xi, power = t.xi_pow(1), t.xi_pow(0)
        for _ in range(p):
            power = t.g_mul(power, xi)
        assert list(power) == [t.c] + [lin.zero] * (p - 1)

        def delta(g):
            return lin.matmul(lin.mat([list(g)]), lin.transpose(t.theta))[0]

        for i in range(p):
            for j in range(p):
                u, v = t.xi_pow(i), t.xi_pow(j)
                lhs = delta(t.g_mul(u, v))
                rhs = [lin.norm(a + b) for a, b in zip(t.g_mul(delta(u), v), t.g_mul(u, delta(v)))]
                assert list(lhs) == rhs, (p, i, j)


# ---------------------------------------------------------------- operator constructions
# a_ell_basis, the cut members and the flat product against the matmul
# references of conftest, which form every operator product on nested lists

OPERATOR_TOWERS = [(p, mode) for p in (2, 3, 5, 7) for mode in ("cyclic", "inseparable")]


@pytest.mark.parametrize("p, mode", OPERATOR_TOWERS)
def test_operator_basis_and_cuts_match_the_matmul_references(p, mode):
    """a_ell_basis(ell) equals the reference entry for entry and hands out new
    lists on every call; the cut of each of its operators is eps_y a eps_x
    for every (x strong?, y strong?, ell); every entry is an int in [0, q)."""
    t = Tower(p, mode)
    for ell in range(1, p + 1):
        mats, again = t.a_ell_basis(ell), t.a_ell_basis(ell)
        assert mats == reference_a_ell_basis(t, ell), ell
        ids = [{id(m) for m in ms} | {id(row) for m in ms for row in m} for ms in (mats, again)]
        assert not ids[0] & ids[1] and len(ids[0]) == len(mats) * (p + 1)
        for sx, sy in itertools.product((False, True), repeat=2):
            gens = [t.cut(a, sx, sy) for a in mats]
            assert gens == reference_member_gens(t, sx, sy, ell), (ell, sx, sy)
            for x in itertools.chain(*gens, *itertools.chain(*mats)):
                assert type(x) is int and 0 <= x < t.lin.q


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
@pytest.mark.parametrize("name", ALL_FIXTURES + DEEP_P5)
def test_flavor_r_members_and_units_are_the_reference_cuts(name, mode):
    """build_family's R_{x,y} is the rref of the reference rows of its key,
    and each unit is the flattened reference idempotent."""
    P = load_fixture_or_deep(name)
    t = cached_tower(P.p, mode)
    fam = build_family(t, P, "r")
    for x, above in fam.above.items():
        assert fam.unit[x] == flatten(reference_eps(t, x in P.strong)), x
        for y in above:
            gens = reference_member_gens(t, x in P.strong, y in P.strong, P.rel[(x, y)])
            assert (fam.basis[(x, y)], fam.piv[(x, y)]) == tuple(t.lin.rref(gens)), (x, y)


@pytest.mark.parametrize("p, mode", OPERATOR_TOWERS)
def test_flat_compose_matches_the_matmul_reference(p, mode, monkeypatch):
    """The flavor-r product of flattened operators equals the reference's on
    random operators with zero entries, through the same norm calls in the
    same order; its entries are ints in [0, q)."""
    t = Tower(p, mode)
    lin, rng, fam = t.lin, random.Random(p), RFamily(t, None, Flavor.R)

    def entry():
        """0 half the time; else a residue of F_q (F_p for an inseparable tower)."""
        return lin.zero if rng.randrange(2) else rng.randrange(lin.q)

    seen, norm = [], lin.norm

    def spy(v):
        seen.append(v)
        return norm(v)

    monkeypatch.setattr(lin, "norm", spy)
    for _ in range(20):
        u, v = [entry() for _ in range(p * p)], [entry() for _ in range(p * p)]
        got, calls = fam.compose(u, v), seen[:]
        seen.clear()
        assert got == reference_compose(t, u, v)
        assert seen == calls
        seen.clear()
        assert all(type(e) is int and 0 <= e < lin.q for e in got)


# ---------------------------------------------------------------- families

def test_family_dims_match_tables_star2():
    t = default_tower(2)
    for fl in ("r", "c"):
        M = model("star2", fl)
        fam = build_family(t, M.poset, fl)
        assert verify_dims(fam, M) == []
    fam_r = build_family(t, model("star2", "r").poset, "r")
    assert fam_r.dim("0", "w") == 2
    assert fam_r.dim("0", "m") == 1
    assert fam_r.dim("w", "w") == 2


def test_admissibility_star2_both_flavors():
    t = default_tower(2)
    P = load_fixture("star2")
    for fl in ("r", "c"):
        rep = verify_admissible(build_family(t, P, fl))
        assert rep.ok
        assert rep.division_exhaustive


def test_admissibility_negative_control():
    t = default_tower(2)
    P = load_fixture("trivial")
    fam = build_family(t, P, "r")
    key = (P.zero, P.max)
    fam.replace(*key, fam.basis[key][:0], [])
    rep = verify_admissible(fam)
    assert not rep.ok
    assert rep.a3_failures


def _split_tower(p: int = 2):
    """The default tower for p with c = 1, set past Tower's check:
    G = F_q[xi]/(xi^p - 1) is no field.  At p = 2, G = F_3[xi]/(xi^2 - 1)
    has (1 + xi)(1 - xi) = 0, yet its basis elements 1 and xi are both
    units; at p = 3, xi^3 - 1 has the three roots 1, 2 and 4 in F_7."""
    t = default_tower(p)
    t.c = 1
    return t


def test_division_check_finds_zero_divisors():
    P = load_fixture("star2")
    for fl, want in (("c", ["element of R_0 has no right inverse",
                            "element of R_m has no right inverse"]),
                     ("r", ["element of R_w has no right inverse"])):
        fam = build_family(_split_tower(), P, fl)
        rep = verify_admissible(fam)
        assert rep.a2_failures == want, fl
        assert rep.a3_failures == []
        assert rep.division_exhaustive
        assert_division_agrees(fam)


@pytest.mark.parametrize("flavor", ["r", "c"])
def test_division_check_finds_zero_divisors_at_p3(flavor):
    """F_7[xi]/(xi^3 - 1): every 3-dimensional R_x fails A.2, and nothing else."""
    fam = build_family(_split_tower(3), load_fixture("star3"), flavor)
    rep = verify_admissible(fam)
    split = [x for x in fam.poset.points if fam.dim(x, x) == 3]
    assert split and rep.a2_failures == [f"element of R_{x} has no right inverse" for x in split]
    assert rep.a3_failures == []
    assert rep.division_exhaustive
    assert_division_agrees(fam)


@pytest.mark.parametrize("flavor", ["r", "c"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_division_certificate_agrees_with_enumeration(name, flavor):
    P = load_fixture(name)
    assert_division_agrees(build_family(cached_tower(P.p, "cyclic"), P, flavor))


def _monic(q: int, d: int):
    """Every monic polynomial of degree d over F_q, constant term first."""
    return [tuple(c) + (1,) for c in itertools.product(range(q), repeat=d)]


def _remainder(f: tuple, g: tuple, q: int) -> list:
    """f mod the monic g over F_q, both constant term first, with the
    cancelled top left as zeros."""
    r = list(f)
    for k in range(len(f) - len(g), -1, -1):
        c = r[k + len(g) - 1]
        for j, y in enumerate(g):
            r[k + j] = (r[k + j] - c * y) % q
    return r


@pytest.mark.parametrize("q, d, sample", [(3, 2, None), (7, 3, None), (11, 5, 40)])
def test_division_certificate_on_companion_algebras(q, d, sample):
    """R_w := F_q[C_f], spanned by the powers of the companion matrix of the
    monic f of prime degree d, is F_q[X]/(f): a field exactly when no monic
    polynomial of degree 1 to d // 2 divides f, and (q^d - q) / d such f
    exist.  At (11, 5) a seeded sample is taken, with the product of an
    irreducible quadratic and an irreducible cubic: reducible, with no root.
    One flavor-r family over the default tower for p = d serves every f."""
    t = default_tower(d)
    assert t.q == q
    lin = t.lin
    fam = build_family(t, parse_poset(f"p {d}\npoint w weak\naugment\n"), "r")
    fam.unit["w"] = flatten(lin.eye(d))
    factors = [g for k in range(1, d // 2 + 1) for g in _monic(q, k)]

    def irreducible(f):  # no monic factor of degree 1 to deg f // 2
        return all(any(_remainder(f, g, q)) for g in factors if 2 * len(g) <= len(f) + 1)

    fs = _monic(q, d)
    if sample:
        quad, cubic = (next(g for g in _monic(q, k) if irreducible(g)) for k in (2, 3))
        product = tuple(sum(a * cubic[n - i] for i, a in enumerate(quad) if 0 <= n - i < 4) % q
                        for n in range(6))
        assert not irreducible(product) and all(any(_remainder(product, (a, 1), q)) for a in range(q))
        fs = [product] + random.Random(45).sample(fs, sample)
    got = []
    for f in fs:
        comp = [[int(i == j + 1) if j < d - 1 else -f[i] % q for j in range(d)] for i in range(d)]
        powers = [lin.eye(d)]
        for _ in range(d - 1):
            powers.append(lin.matmul(powers[-1], comp))
        fam.replace("w", "w", *lin.rref([flatten(m) for m in powers]))
        got.append(oracle._certify_division(fam, "w", True))
    assert got == [irreducible(f) for f in fs]
    if sample:
        assert not got[0] and True in got[1:]
    else:
        assert got.count(True) == (q ** d - q) // d


@pytest.mark.parametrize("p", [p for p in DEFAULT_TOWERS if p > 13])
def test_a2_at_every_default_tower_above_p13(p):
    """p P / point w strong / augment in flavor c: R_0, R_w and R_m are G, a
    field over the default tower and F_q[xi]/(xi^p - 1) over the split one."""
    P = parse_poset(f"p {p}\npoint w strong\naugment\n")
    assert verify_admissible(build_family(Tower(p), P, "c")).ok
    rep = verify_admissible(build_family(_split_tower(p), P, "c"))
    assert (rep.a2_failures, rep.a3_failures) == (
        [f"element of R_{x} has no right inverse" for x in ("0", "w", "m")], [])


def test_division_not_certified_when_the_unit_does_not_fix_r_x():
    """2 * 1 lies in R_0 but fixes nothing, so no coordinates of powers can
    be read: A.2 says so, and the report is no ok."""
    fam = build_family(default_tower(2), load_fixture("star2"), "c")
    fam.unit["0"] = [2, 0]
    rep = verify_admissible(fam)
    assert rep.a2_failures[-1] == "division in R_0 not certified"
    assert "unit of R_0 does not fix R_(0,0) on the left" in rep.a2_failures
    assert not rep.ok


def test_division_is_never_asked_of_an_r_x_that_products_leave(monkeypatch):
    """R_w cut to span(1, sigma), which sigma^2 leaves: A.1 raises, and A.2
    never asks whether R_w divides."""
    t = default_tower(3)
    fam = build_family(t, load_fixture("star3"), "r")
    fam.replace("w", "w", *t.lin.rref([flatten(t.lin.eye(3)), flatten(t.theta)]))
    asked = []
    monkeypatch.setattr(oracle, "_certify_division", lambda fam, x, unital: asked.append(x))
    with pytest.raises(OracleError) as err:
        verify_admissible(fam)
    assert str(err.value) == "R_(w,w) * R_(w,w) leaves R_(w,w)" and asked == []


def test_division_refuted_when_e_spans_less_than_r_x():
    """The diagonal 3 x 3 matrices over F_7 as R_w: e = diag(1, 0, 0) has
    minimal polynomial X^2 - X, of degree 2 < 3, so R_w is no field."""
    t = default_tower(3)
    fam = build_family(t, load_fixture("star3"), "r")
    fam.replace("w", "w", *t.lin.rref(
        [flatten([[int(i == j == k) for j in range(3)] for i in range(3)]) for k in range(3)]))
    assert "element of R_w has no right inverse" in verify_admissible(fam).a2_failures
    assert_division_agrees(fam)


def test_division_refuted_in_a_one_dimensional_r_x_that_squares_to_zero():
    """R_0 = span(E_12) with E_12 as its unit: b_1 b_1 = 0, so R_0 is no field.
    R_0 R_(0,w) leaves R_(0,w), so A.1 refuses the family, and the verdict,
    which reads R_0's own table alone, is asked of the certificate directly."""
    t = default_tower(2)
    fam = build_family(t, load_fixture("star2"), "r")
    fam.unit["0"] = [0, 1, 0, 0]
    fam.replace("0", "0", [fam.unit["0"]], [1])
    with pytest.raises(OracleError, match=r"^R_\(0,0\) \* R_\(0,w\) leaves R_\(0,w\)$"):
        verify_admissible(fam)
    assert oracle._certify_division(fam, "0", False) is False
    assert not enumerated_division(fam, "0")


def test_division_not_certified_in_composite_dimension():
    """All 2 x 2 matrices over F_3 as R_w: closed and unital, but of
    dimension 4, where a subfield's degree need not be 1 or 4."""
    t = default_tower(2)
    fam = build_family(t, load_fixture("star2"), "r")
    fam.replace("w", "w", *t.lin.rref(t.lin.eye(4)))
    rep = verify_admissible(fam)
    assert "division in R_w not certified" in rep.a2_failures
    assert not enumerated_division(fam, "w")


@pytest.mark.parametrize("flavor", ["r", "c"])
def test_a2_reports_a_zero_local_member(flavor):
    """A zero R_x fails A.2 as zero, before its unit is looked for in it."""
    fam = build_family(default_tower(2), load_fixture("star2"), flavor)
    fam.replace("w", "w", [], [])
    rep = verify_admissible(fam)
    assert (rep.a2_failures, rep.a3_failures) == (["R_w is zero"], [])


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
def test_a_leaving_product_is_reported_by_a1_alone(mode, monkeypatch):
    """With R_w of star3 cut to span(1, theta), A.1 raises at the product that
    leaves it, over either field, and so does run_verification, before any
    hom system.  With R_(w,m) = span(E_10) instead, R_(0,w) R_(w,m) leaves
    R_(0,m) and R_(w,w) R_(w,m) leaves R_(w,m): A.1 raises at the first in
    declaration order, and each table raises with its own text."""
    t, P, build = default_tower(3, mode), load_fixture("star3"), oracle.build_family

    def cut(*args):
        fam = build(*args)
        fam.replace("w", "w", *t.lin.rref([flatten(t.lin.eye(3)), flatten(t.theta)]))
        return fam
    with pytest.raises(OracleError) as err:
        verify_admissible(cut(t, P, "r"))
    assert str(err.value) == "R_(w,w) * R_(w,w) leaves R_(w,w)"
    monkeypatch.setattr(oracle, "build_family", cut)
    monkeypatch.setattr(oracle, "_solve_hom_system", None)  # never reached
    with pytest.raises(OracleError) as err:
        run_verification(build_model(P, Flavor.R), t)
    assert str(err.value) == "R_(w,w) * R_(w,w) leaves R_(w,w)"

    fam, one, zero = build(t, P, "r"), t.lin.one, t.lin.zero
    fam.replace("w", "m", [flatten([[one if (i, j) == (1, 0) else zero for j in range(3)]
                                      for i in range(3)])], [3])
    with pytest.raises(OracleError) as err:
        verify_admissible(fam)
    assert str(err.value) == "R_(0,w) * R_(w,m) leaves R_(0,m)"
    with pytest.raises(OracleError) as err:
        fam.table("w", "w", "m")
    assert str(err.value) == "R_(w,w) * R_(w,m) leaves R_(w,m)"


class ReadLog(list):
    """A.3's image blocks, recording the index of each block handed out."""

    def __init__(self, blocks):
        super().__init__(blocks)
        self.read = []

    def __getitem__(self, k):
        self.read.append(k)
        return super().__getitem__(k)

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def _a3_calls(fam, monkeypatch):
    """verify_admissible's report on fam, and per pair that A.3 hands `_kills`
    its d, image blocks, verdict and the indices of the blocks it read."""
    calls, kills = [], oracle._kills

    def spy(lin, d, images):
        log = ReadLog(images)
        calls.append((d, list(images), kills(lin, d, log), log.read))
        return calls[-1][2]

    monkeypatch.setattr(oracle, "_kills", spy)
    rep = verify_admissible(fam)
    monkeypatch.undo()
    return rep, calls


def _rank(lin, rows) -> int:
    return lin.rank(dict(enumerate(r)) for r in rows)


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
@pytest.mark.parametrize("flavor", ["r", "c"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_a3_verdict_is_the_rank_of_all_blocks_and_stops_at_a_full_first_block(name, flavor,
                                                                              mode, monkeypatch):
    """A.3 says "kills" exactly when the image blocks side by side have rank
    below d, and reads only the first block when that block has rank d."""
    P = load_fixture(name)
    fam = build_family(cached_tower(P.p, mode), P, flavor)
    lin = fam.tower.lin
    rep, calls = _a3_calls(fam, monkeypatch)
    assert calls and rep.a3_failures == []
    for d, images, kills, read in calls:
        side_by_side = [[x for row in rows for x in row] for rows in zip(*images)]
        assert kills == (_rank(lin, side_by_side) < d)
        if _rank(lin, images[0]) == d:
            assert read == [0]


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
@pytest.mark.parametrize("flavor", ["r", "c"])
def test_a3_reads_one_block_of_a_pair_whose_first_block_has_rank_d(flavor, mode, monkeypatch):
    """In chain3_ell1, R_(0,a) has images in R_(0,b) and R_(0,m); the first
    block already has rank dim R_(0,a), and the others are not read."""
    P = load_fixture("chain3_ell1")
    fam = build_family(cached_tower(P.p, mode), P, flavor)
    _, calls = _a3_calls(fam, monkeypatch)
    pairs = [(x, y) for x in P.points for y in fam.above[x] if y != P.max]
    assert len(calls) == len(pairs)
    d, images, kills, read = calls[pairs.index(("0", "a"))]
    assert d == fam.dim("0", "a") and len(images) > 1
    assert _rank(fam.tower.lin, images[0]) == d and read == [0] and not kills


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
def test_a3_zero_blocks_kill_everything(mode):
    """A zero block, or one of width 0 (R_(x,l) = 0), kills every b; a later
    identity block still separates."""
    lin = cached_tower(2, mode).lin
    zero, eye = [[lin.zero] * 2] * 2, lin.eye(2)
    assert oracle._kills(lin, 2, [zero, [[], []]])
    assert not oracle._kills(lin, 2, [[[], []], zero, eye])


def _e(t, i, j) -> list:
    """E_ij, flattened: the p x p operator with a single 1 at (i, j)."""
    return [t.lin.one if (a, b) == (i, j) else t.lin.zero for a in range(t.p) for b in range(t.p)]


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
def test_a3_reads_past_a_deficient_first_block(mode, monkeypatch):
    """A first block below rank d that a later block makes up for gives no
    A.3 line.  In star2 (flavor r) each image block of R_(0,w) lands in
    R_(0,m), of dimension 1 < 2.  In chain2_strong, tampered so that
    R_(s,m) is span(E_01, E_00) with E_01 first, E_01 kills R_(0,s) =
    span(E_00) and R_(s,s), and E_00 does not; no product leaves the family."""
    t = cached_tower(2, mode)
    star = build_family(t, load_fixture("star2"), "r")
    chain = build_family(t, load_fixture("chain2_strong"), "r")
    chain.replace("s", "m", [_e(t, 0, 1), _e(t, 0, 0)], [1, 0])
    for fam, pairs in ((star, 1), (chain, 2)):
        rep, calls = _a3_calls(fam, monkeypatch)
        assert rep.a3_failures == []
        deficient = [(d, read) for d, images, kills, read in calls
                     if _rank(t.lin, images[0]) < d]
        assert len(deficient) == pairs and all(len(read) > 1 for _, read in deficient)


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
def test_a3_reports_an_element_that_every_block_kills(mode, monkeypatch):
    """chain2_strong with R_(0,s) tampered to span(E_10): every operator of
    R_(s,m) and R_(s,s) has column 0 alone, so it kills E_10, and every block
    is zero, while no product leaves the family.  The report names the pair."""
    P, t, build = load_fixture("chain2_strong"), cached_tower(2, mode), oracle.build_family

    def cut(*args):
        fam = build(*args)
        fam.replace("0", "s", [_e(t, 1, 0)], [2])
        return fam
    monkeypatch.setattr(oracle, "build_family", cut)
    assert str(run_verification(build_model(P, Flavor.R), t)) == "\n".join([
        "flavor r:",
        "  member dimensions: ok",
        "  admissibility: FAIL" + ("" if mode == "cyclic" else " (structural division check)"),
        "    A.2: unit of R_s does not fix R_(0,s) on the right",
        "    A.3: nonzero element of R_(0,s) kills everything above s",
        "  radicals: FAIL",
        "    End rad(e_0 A) has dim 2, table says 1",
        "  hom dimensions: FAIL",
        "    dim Hom(e_s A, e_0 A) = 0, table says 1"])


def test_a2_reports_a_member_that_is_not_graded(monkeypatch):
    """star2 over the inseparable tower with R_w tampered to span(1, A), A =
    [[0, 1], [1, 1]]: at t = 1 that is the field F_4, closed under products,
    but A has support in degrees 0 and 1, so the basis test at t = 1 says
    nothing about F_p(t).  A.2 reports the member, and nothing else fails."""
    P, t, build = load_fixture("star2"), cached_tower(2, "inseparable"), oracle.build_family

    def cut(*args):
        fam = build(*args)
        fam.replace("w", "w", [[1, 0, 0, 1], [0, 1, 1, 1]], [0, 1])
        return fam
    monkeypatch.setattr(oracle, "build_family", cut)
    assert str(run_verification(build_model(P, Flavor.R), t)) == "\n".join([
        "flavor r:",
        "  member dimensions: ok",
        "  admissibility: FAIL (structural division check)",
        "    A.2: member R_(w,w) is not graded",
        "  radicals: ok",
        "  hom dimensions: ok"])
    fam = cut(default_tower(2), P, "r")  # the cyclic tower asks no grading of it
    assert not any("graded" in f for f in verify_admissible(fam).a2_failures)


def test_basis_only_division_check_misses_zero_divisors():
    """Only a non-basis element shows the defect: the basis-only check, which
    inseparable towers still use, passes the split tower's R_0 in flavor c."""
    fam = build_family(_split_tower(), load_fixture("star2"), "c")
    assert oracle._basis_divides(fam, "0")
    assert not enumerated_division(fam, "0")


def test_failing_report_text():
    """The full text of a failing report: every A.2 failure is listed under
    the admissibility line."""
    P = load_fixture("star2")
    want = {
        "r": ["flavor r:",
              "  member dimensions: ok",
              "  admissibility: FAIL",
              "    A.2: element of R_w has no right inverse",
              "  radicals: ok",
              "  hom dimensions: ok"],
        "c": ["flavor c:",
              "  member dimensions: ok",
              "  admissibility: FAIL",
              "    A.2: element of R_0 has no right inverse",
              "    A.2: element of R_m has no right inverse",
              "  radicals: ok",
              "  hom dimensions: ok"],
    }
    for fl, lines in want.items():
        rep = run_verification(build_model(P, Flavor(fl)), _split_tower())
        assert not rep.ok
        assert str(rep) == "\n".join(lines), fl


def _leaving(fam) -> list[str]:
    """The error text of every action table of fam that raises, over the
    triples x <= y <= z in declaration order, the order A.1 walks them in."""
    out = []
    for x in fam.poset.points:
        for y in fam.above[x]:
            for z in fam.above[y]:
                try:
                    fam.table(x, y, z)
                except OracleError as err:
                    out.append(str(err))
    return out


# the strong maximum first and the strong minimum last; with no `augment`
# the points keep this order, which is not a linear extension
OUT_OF_ORDER = """\
p 3
point m strong
point d weak
point c weak
point b weak
point a weak
point z strong
rel b c 2
rel a b 1
rel a d 2
rel z a 3
rel c m 3
rel d m 3
closure
"""


@pytest.mark.parametrize("flavor", ["r", "c"])
def test_oracle_keeps_declaration_order(monkeypatch, flavor):
    """Reports list pairs, blocks and hom systems in declaration order, also
    when that order is not a linear extension; a member is cut to provoke
    them, and after a second cut A.1, in verify_admissible and in
    run_verification alike, raises at the first leaving product in that order."""
    P = parse_poset(OUT_OF_ORDER)
    assert P.points == ("m", "d", "c", "b", "a", "z") and (P.zero, P.max) == ("z", "m")
    M, t, build = build_model(P, flavor), default_tower(3), oracle.build_family
    assert str(run_verification(M, t)) == "\n".join([
        f"flavor {flavor}:", "  member dimensions: ok", "  admissibility: ok",
        "  radicals: ok", "  hom dimensions: ok"])

    def cut(x, y, k):
        def cut_family(*args):
            fam = build(*args)
            fam.replace(x, y, fam.basis[(x, y)][:k], fam.piv[(x, y)][:k])
            return fam
        monkeypatch.setattr(oracle, "build_family", cut_family)

    cut("d", "m", 0)
    end_d, end_a = {"r": (9, "15, table says 3"), "c": (3, "5, table says 1")}[flavor]
    assert str(run_verification(M, t)) == "\n".join([
        f"flavor {flavor}:",
        "  member dimensions: FAIL",
        "    dim R_(d,m) = 0, table says 3",
        "  admissibility: FAIL",
        "    A.3: R_(d,d) has nothing above to hit",
        "    A.3: R_(a,d) has nothing above to hit",
        "    A.3: R_(z,d) has nothing above to hit",
        "  radicals: FAIL",
        "    rad(e_d A) has dim 0 at m, table says 3",
        f"    End rad(e_d A) has dim 0, table says {end_d}",
        f"    End rad(e_a A) has dim {end_a}",
        "  hom dimensions: FAIL",
        "    dim Hom(e_m A, e_d A) = 0, table says 3"])

    cut("a", "m", 1)
    first = {"r": [], "c": ["R_(a,m) * R_(m,m) leaves R_(a,m)"]}[flavor]
    last = {"r": ["R_(a,a) * R_(a,m) leaves R_(a,m)"], "c": []}[flavor]
    leaving = first + ["R_(a,d) * R_(d,m) leaves R_(a,m)", "R_(a,c) * R_(c,m) leaves R_(a,m)",
                       "R_(a,b) * R_(b,m) leaves R_(a,m)"] + last
    assert _leaving(oracle.build_family(t, P, flavor)) == leaving
    for run in (lambda: verify_admissible(oracle.build_family(t, P, flavor)),
                lambda: run_verification(M, t)):
        with pytest.raises(OracleError) as err:
            run()
        assert str(err.value) == leaving[0]


# ---------------------------------------------------------------- radicals

def test_oracle_radical_star2():
    t = default_tower(2)
    P = load_fixture("star2")
    # End(rad) has dimension m^2 * k: m = 2 copies of a summand with k = 1
    # in flavor r, one summand with k = p = 2 in flavor c
    rad_r = oracle_radical(build_family(t, P, "r"), "w")
    assert rad_r.end_dim == 2 ** 2 * 1
    assert rad_r.block_dims == {"m": 2}
    rad_c = oracle_radical(build_family(t, P, "c"), "w")
    assert rad_c.end_dim == 1 ** 2 * 2


def test_oracle_radical_weak_chain():
    t = default_tower(3)
    P = load_fixture("chain3_ell1")
    rad = oracle_radical(build_family(t, P, "r"), "a")
    assert rad.end_dim == 1 ** 2 * 3


def test_oracle_radical_rejects_maximum():
    t = default_tower(2)
    P = load_fixture("star2")
    fam = build_family(t, P, "r")
    with pytest.raises(OracleError, match="maximal point"):
        oracle_radical(fam, P.max)


def test_oracle_hom_dim_star2():
    t = default_tower(2)
    M = model("star2", "r")
    fam = build_family(t, M.poset, "r")
    assert oracle_hom_dim(fam, "m", "w") == 2 == M.hom_dim("w", "m")
    assert oracle_hom_dim(fam, "w", "m") == 0
    assert oracle_hom_dim(fam, "0", "0") == 1


# ---------------------------------------------------------------- full runs

def test_run_verification_star2():
    t = default_tower(2)
    for fl in ("r", "c"):
        rep = run_verification(model("star2", fl), t)
        assert rep.ok, str(rep)
        assert "member dimensions: ok" in str(rep)


def test_run_verification_rejects_wrong_p():
    with pytest.raises(ParameterError, match="tower is for p"):
        run_verification(model("star2", "r"), default_tower(3))


def test_run_verification_inseparable():
    t = default_tower(2, "inseparable")
    rep = run_verification(model("star2", "r"), t)
    assert rep.ok, str(rep)
    assert not rep.adm.division_exhaustive
    assert "(structural division check)" in str(rep)


# ---------------------------------------------------------------- pinned values

# oracle_hom_dim for every ordered pair and oracle_radical for every point
# below the maximum, per "fixture flavor mode", as the per-pivot elimination
# computed them before products were cached and systems reduced blockwise
PINNED = json.loads((Path(__file__).parent / "data" / "oracle_values.json").read_text())


@pytest.mark.parametrize("key", sorted(PINNED))
def test_oracle_values_pinned(key):
    name, flavor, mode = key.split()
    P = load_fixture(name)
    fam = build_family(cached_tower(P.p, mode), P, flavor)
    want = PINNED[key]
    assert {f"{i} {j}": oracle_hom_dim(fam, i, j)
            for i in P.points for j in P.points} == want["hom"]
    got = {}
    for x in P.points:
        if x != P.max:
            r = oracle_radical(fam, x)
            got[x] = [r.end_dim, r.block_dims]
    assert got == want["radical"]


def test_p5_weak_chain_ell2_flavor_r_passes():
    P = parse_poset("p 5\npoint a weak\npoint b weak\npoint c weak\n"
                    "rel a b 2\nrel b c 2\nclosure\naugment\n")
    rep = run_verification(build_model(P, Flavor.R), default_tower(5))
    assert rep.ok, str(rep)


@pytest.mark.parametrize("n, ell", [(3, 5), (4, 2)])
def test_p5_weak_chain_flavor_r_passes(n, ell):
    """Two of the weak chains that perfbench's P5_SLOW set keeps out of its
    p = 5 members: their hom systems run to thousands of rows."""
    names = "abcd"[:n]
    P = parse_poset("p 5\n" + "".join(f"point {x} weak\n" for x in names)
                    + "".join(f"rel {x} {y} {ell}\n" for x, y in zip(names, names[1:]))
                    + "closure\naugment\n")
    rep = run_verification(build_model(P, Flavor.R), default_tower(5))
    assert rep.ok, str(rep)


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
@pytest.mark.parametrize("flavor", ["r", "c"])
@pytest.mark.parametrize("p", [11, 13])
def test_weak_chain_of_three_at_p11_and_p13(p, flavor, mode, monkeypatch):
    """The oracle past p = 7: the weak chain a < b < c with l = 2, closed and
    augmented, passes run_verification over the default tower, and every hom
    system of its family equals the rank reference."""
    P = parse_poset(f"p {p}\npoint a weak\npoint b weak\npoint c weak\n"
                    "rel a b 2\nrel b c 2\nclosure\naugment\n")
    families, build = [], oracle.build_family

    def spy(*args):
        families.append(build(*args))
        return families[-1]
    monkeypatch.setattr(oracle, "build_family", spy)
    rep = run_verification(build_model(P, Flavor(flavor)), cached_tower(p, mode))
    assert rep.ok, str(rep)
    assert len(families) == 1 and assert_solver_matches_reference(families[0])


# ---------------------------------------------------------------- products

def kron(lin, A, B):
    """The Kronecker product of A and B, with canonical entries."""
    return [[lin.norm(a * b) for a in ra for b in rb] for ra in A for rb in B]


def right_mults(fam, y, z):
    """The reference product rule: for each basis element s of R_{y,z}, the
    matrix M with u * s = u M.  For flavor r, u * s flattens S U, and
    U -> S U is kron(S^T, 1) on row-major rows; for flavor c, M = mu_s^T."""
    t = fam.tower
    lin = t.lin
    if fam.flavor is Flavor.R:
        return [kron(lin, lin.transpose(unflatten(t, s)), lin.eye(t.p))
                for s in fam.basis[(y, z)]]
    return [lin.transpose(t.mu_mat(s)) for s in fam.basis[(y, z)]]


def assert_table_matches_right_multiplication(fam, x, y, z) -> bool:
    """C[k] of the action table (x, y, z) holds the coordinates in R_{x,z} of
    B M_s, for the basis B of R_{x,y} and the right multiplication M_s by the
    k-th basis element s of R_{y,z}.  The table raises, naming (x, y, z),
    exactly when a row of some B M_s leaves R_{x,z}, which an rref of R_{x,z}
    with that row tells; returns whether it raised."""
    lin, R = fam.tower.lin, fam.basis[(x, z)]
    want = [lin.matmul(fam.basis[(x, y)], M) for M in right_mults(fam, y, z)]
    if any(len(lin.rref(R + [w])[1]) > len(R) for W in want for w in W):
        with pytest.raises(OracleError) as err:
            fam.table(x, y, z)
        assert str(err.value) == f"R_({x},{y}) * R_({y},{z}) leaves R_({x},{z})"
        return True
    C = fam.table(x, y, z)[0]
    assert len(C) == len(want), (x, y, z)
    for Ck, W in zip(C, want):
        assert (lin.matmul(Ck, R) if R else [[lin.zero] * len(w) for w in W]) == W
    return False


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
@pytest.mark.parametrize("flavor", ["r", "c"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_products_match_right_multiplication(name, flavor, mode):
    """Every action table, built from RFamily.compose, holds the coordinates
    of B M_s; once R_{0,max} loses a basis element, the tables whose products
    leave it raise, each naming its own triple, and only those."""
    P = load_fixture(name)
    fam = build_family(cached_tower(P.p, mode), P, flavor)
    triples = [(x, y, z) for x in fam.above for y in fam.above[x] for z in fam.above[y]]
    assert not any(assert_table_matches_right_multiplication(fam, *t) for t in triples)
    key = (P.zero, P.max)
    fam.replace(*key, fam.basis[key][1:], fam.piv[key][1:])
    raised = [assert_table_matches_right_multiplication(fam, *t) for t in triples]
    # in trivial's flavor r, R_0 and R_max are F, so every subspace of R_{0,max} is closed
    assert any(raised) or (name, flavor) == ("trivial", "r")


def _action_or_error(fam, t):
    """The action table t of fam, or the text of the OracleError it raises."""
    try:
        return fam.table(*t)[0]
    except OracleError as err:
        return str(err)


@pytest.mark.parametrize("name, flavor, a, b, want", [
    ("chain3_ell1", "r", ("0", "a"), ("0", "b"), "R_(0,a) * R_(a,a) leaves R_(0,a)"),
    ("star2", "c", ("0", "w"), ("w", "m"), "R_(0,0) * R_(0,w) leaves R_(0,w)"),
])
def test_equal_members_share_one_realization_and_a_replaced_one_is_seen(name, flavor, a, b,
                                                                        want):
    """Pairs a and b have equal members, so they share one name, one basis
    and one pivot list.  Once every table is built, R_a is replaced by a part
    of its basis under a name of its own: the actions and A.1 see it at a
    only, and every table, b's too, still holds the coordinates of its products
    or raises when they leave the family."""
    P = load_fixture(name)
    tower = cached_tower(P.p, "cyclic")
    fam, fresh = build_family(tower, P, flavor), build_family(tower, P, flavor)
    assert fam.basis[a] is fam.basis[b] and fam.piv[a] is fam.piv[b]
    assert fam.member[a] == fam.member[b]
    assert verify_admissible(fam).ok
    triples = [t for t in itertools.product(P.points, repeat=3) if t[:2] in P.rel and t[1:] in P.rel]
    for t in triples:
        fam.table(*t)
    fam.replace(*a, fam.basis[a][:1], fam.piv[a][:1])
    assert fam.member[a] != fam.member[b] and fam.member[b] == fresh.member[b]
    seen = [t for t in triples if _action_or_error(fam, t) != _action_or_error(fresh, t)]
    assert seen and all(a in ((x, y), (y, z), (x, z)) for x, y, z in seen)
    with pytest.raises(OracleError) as err:
        verify_admissible(fam)
    assert str(err.value) == want
    for t in triples:
        assert_table_matches_right_multiplication(fam, *t)


# ---------------------------------------------------------------- generators

@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
@pytest.mark.parametrize("flavor", ["r", "c"])
@pytest.mark.parametrize("name", ALL_FIXTURES + DEEP_P5)
def test_picks_match_the_closure_without_early_stop(name, flavor, mode):
    """A local closure that stops at the whole member picks what one that
    runs on picks, at every comparable pair."""
    P = load_fixture_or_deep(name)
    assert assert_picks_match_reference(build_family(cached_tower(P.p, mode), P, flavor))


def all_basis_hom_dim(fam, i, j, blocks):
    """The reference: dim of the block-graded A-linear maps e_i A -> e_j A,
    with one equation block for every basis element s of every R_{l,l'}."""
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
            if (l, lp) not in P.rel:
                continue
            Ci = fam.table(i, l, lp)[0]
            Cj = fam.table(j, l, lp)[0] if e[l] else None
            if not Ci or e[lp] == 0:
                continue
            n = len(Ci) * e[lp] * d[l]
            parts = {m: [[lin.zero] * (e[m] * d[m]) for _ in range(n)] for m in blocks}
            parts[lp] = lin.vstack([kron(lin, lin.eye(e[lp]), C) for C in Ci])
            if e[l]:
                eye = lin.eye(d[l])
                S = lin.vstack([kron(lin, lin.transpose(C), eye) for C in Cj])
                parts[l] = lin.mat([[x - y for x, y in zip(r1, r2)]
                                    for r1, r2 in zip(parts[l], S)])
            groups.append([[x for m in blocks for x in parts[m][r]] for r in range(n)])
    if not groups:
        return N
    return N - len(lin.rref(lin.vstack(groups))[1])


def assert_reduced_systems_match(fam):
    """oracle_hom_dim and oracle_radical's end_dim equal the all-basis systems."""
    P = fam.poset
    for i in P.points:
        up = [l for l in P.points if (i, l) in P.rel]
        for j in P.points:
            assert oracle_hom_dim(fam, i, j) == all_basis_hom_dim(fam, i, j, up), (i, j)
        if i != P.max:
            want = all_basis_hom_dim(fam, i, i, [l for l in up if l != i])
            assert oracle_radical(fam, i).end_dim == want, i


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
@pytest.mark.parametrize("flavor", ["r", "c"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_reduced_systems_match_all_basis_systems(name, flavor, mode):
    P = load_fixture(name)
    assert_reduced_systems_match(build_family(cached_tower(P.p, mode), P, flavor))


@pytest.mark.parametrize("flavor", ["r", "c"])
def test_hom_systems_hold_no_zero_row_and_equal_systems_are_ranked_once(flavor, monkeypatch):
    """On wide2, whose hom systems repeat, every row handed to rank has a
    nonzero entry (the rows of a unit pick are not built, and heavy rows
    that vanish in root coordinates are dropped), and fewer systems with
    unknowns are solved than are asked."""
    P = load_fixture("wide2")
    fam = build_family(cached_tower(P.p, "cyclic"), P, flavor)
    lin, calls, solved = fam.tower.lin, [], []
    rank, solve = lin.rank, oracle._solve_hom_system

    def spy(rows):
        rows = list(rows)
        calls.append(rows)
        return rank(rows)

    def spy_solve(fam, i, j, blocks):
        solved.append(any(fam.dim(i, l) and fam.dim(j, l) for l in blocks))
        return solve(fam, i, j, blocks)

    monkeypatch.setattr(lin, "rank", spy)
    monkeypatch.setattr(oracle, "_solve_hom_system", spy_solve)
    systems = 0
    for i in P.points:
        up = [l for l in P.points if (i, l) in P.rel]
        for j in P.points:
            systems += any(fam.dim(i, l) and fam.dim(j, l) for l in up)
            oracle_hom_dim(fam, i, j)
        if i != P.max:
            systems += any(fam.dim(i, l) for l in up if l != i)
            oracle_radical(fam, i)
    assert all(any(map(lin.norm, row.values())) for rows in calls for row in rows)
    assert len(calls) <= sum(solved) and 0 < sum(solved) < systems


@pytest.mark.parametrize("flavor", ["r", "c"])
def test_reduced_systems_match_on_split_tower(flavor):
    """The family of test_failing_report_text, whose local rings are not fields."""
    assert_reduced_systems_match(build_family(_split_tower(), load_fixture("star2"), flavor))


@st.composite
def small_posets(draw):
    """A valid augmented equipped poset with at most 3 inner points at p in {2, 3}."""
    p = draw(st.sampled_from((2, 3)))
    names = tuple(f"x{i}" for i in range(draw(st.integers(1, 3))))
    strong = frozenset(x for x in names if draw(st.booleans()))
    rel = {(x, x): p if x in strong else 1 for x in names}
    for k, x in enumerate(names):
        for y in names[k + 1:]:
            if draw(st.booleans()):
                weak = x not in strong and y not in strong
                rel[(x, y)] = draw(st.integers(1, p)) if weak else p
    return augment(min_equipment_closure(EquippedPoset(p, names, strong, rel)))


@settings(deadline=None, max_examples=60)
@given(small_posets(), st.sampled_from(["r", "c"]))
def test_reduced_systems_match_on_random_posets(P, flavor):
    assert_reduced_systems_match(build_family(cached_tower(P.p, "cyclic"), P, flavor))


# ---------------------------------------------------------------- merged rows

@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
@pytest.mark.parametrize("flavor", ["r", "c"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_solver_matches_rank_reference(name, flavor, mode):
    P = load_fixture(name)
    assert assert_solver_matches_reference(build_family(cached_tower(P.p, mode), P, flavor))


@pytest.mark.parametrize("name", ["star2", "star3", "chain3_ell1", "mixed3", "four3"])
@pytest.mark.parametrize("flavor", ["r", "c"])
def test_solver_matches_rank_reference_on_split_towers(name, flavor):
    """Local rings that are not fields: cycles of merges whose gains do not
    multiply to 1 zero a class, and the reference must agree."""
    P = load_fixture(name)
    assert assert_solver_matches_reference(build_family(_split_tower(P.p), P, flavor))


@settings(deadline=None, max_examples=60)
@given(small_posets(), st.sampled_from(["r", "c"]), st.sampled_from(["cyclic", "inseparable"]))
def test_solver_matches_rank_reference_on_random_posets(P, flavor, mode):
    assert assert_solver_matches_reference(build_family(cached_tower(P.p, mode), P, flavor))


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
def test_heavy_rows_reach_rank_without_zero_rows(mode, monkeypatch):
    """chain3_ell2 in flavor r keeps heavy rows past the merges (wide2 has
    none): they reach rank in root coordinates, each with a nonzero entry."""
    P = load_fixture("chain3_ell2")
    fam = build_family(cached_tower(P.p, mode), P, "r")
    lin, calls, rank = fam.tower.lin, [], fam.tower.lin.rank

    def spy(rows):
        calls.append(list(rows))
        return rank(calls[-1])

    monkeypatch.setattr(lin, "rank", spy)
    got = [oracle._solve_hom_system(fam, *s) for s in hom_systems(fam)]
    monkeypatch.undo()
    assert calls and all(any(map(lin.norm, row.values())) for rows in calls for row in rows)
    assert got == [rank_hom_dim(fam, *s) for s in hom_systems(fam)]


class StubFamily:
    """What a hom system reads of a family, given by hand: points i and j,
    blocks (d_l, e_l) = (dim R_{i,l}, dim R_{j,l}) and, per block pair (l, l'),
    the picks as pairs of matrices (S_i^T, S_j^T) of `RFamily.table`."""

    def __init__(self, lin, blocks: dict, picks: dict):
        self.tower, self.picks, names = SimpleNamespace(lin=lin), picks, list(blocks)
        self.dims = {(x, l): de[n] for l, de in blocks.items() for n, x in enumerate("ij")}
        self.above = {l: names[k:] for k, l in enumerate(names)}
        self.done = {}

    def dim(self, x, l):
        return self.dims[(x, l)]

    def table(self, x, l, lp):
        C = [self.tower.lin.mat(pair["ij".index(x)]) for pair in self.picks.get((l, lp), [])]
        return C, self.done.setdefault((x, l, lp), {})

    def generators(self, l, lp):
        return list(range(len(self.picks.get((l, lp), []))))


HAND_CASES = {
    # 2 phi_m = 0: one entry
    "one entry": ({"l": (1, 0), "m": (1, 1)}, {("l", "m"): [([[2]], None)]}, 0),
    # 2 phi_m - 3 phi_l = 0: one entry on each side, a merge
    "one on each side": ({"l": (1, 1), "m": (1, 1)}, {("l", "m"): [([[2]], [[3]])]}, 1),
    # x + 2 y = 0 from C[a] alone, then x = 0: y is zeroed through the merge
    "two from C": ({"l": (1, 0), "m": (2, 1)},
                   {("l", "m"): [([[1, 2]], None), ([[1, 0]], None)]}, 0),
    # -u - 3 v = 0 from Dt[r] alone, then -u = 0: phi_m stays free
    "two from Dt": ({"l": (1, 2), "m": (1, 1)},
                    {("l", "m"): [([[0]], [[1], [3]]), ([[0]], [[1], [0]])]}, 1),
    # (2 - 2) phi = 0 and (2 - 3) phi = 0: both entries on one column
    "one column, cancelling": ({"l": (1, 1)}, {("l", "l"): [([[2]], [[2]])]}, 1),
    "one column": ({"l": (1, 1)}, {("l", "l"): [([[2]], [[3]])]}, 0),
    # x_0 = 5 x_2, x_1 = 2 x_0, x_2 = 3 x_1: gains multiply to 30 = 2, or to 36 = 1
    "cycle": ({"l": (1, 3)}, {("l", "l"): [([[1]], [[0, 2, 0], [0, 0, 3], [5, 0, 0]])]}, 0),
    "cycle of gain 1": ({"l": (1, 3)}, {("l", "l"): [([[1]], [[0, 2, 0], [0, 0, 3], [6, 0, 0]])]},
                        1),
    # x + y + z = 0 is zero once x + y = 0 and z = 0 are in, z = 0 once
    # x + y = 0 is, and x + y = 0 once z = 0 is; alone, it is ranked
    "heavy to zero": ({"l": (1, 0), "m": (3, 1)},
                      {("l", "m"): [([[1, 1, 1]], None), ([[1, 1, 0]], None),
                                    ([[0, 0, 1]], None)]}, 1),
    "heavy to one entry": ({"l": (1, 0), "m": (3, 1)},
                           {("l", "m"): [([[1, 1, 1]], None), ([[1, 1, 0]], None)]}, 1),
    "heavy to two entries": ({"l": (1, 0), "m": (3, 1)},
                             {("l", "m"): [([[1, 1, 1]], None), ([[0, 0, 1]], None)]}, 1),
    "heavy": ({"l": (1, 0), "m": (3, 1)}, {("l", "m"): [([[1, 1, 1]], None)]}, 2),
}


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
@pytest.mark.parametrize("case", list(HAND_CASES))
def test_solver_on_each_row_shape(case, mode, monkeypatch):
    """Each row shape the merge tells apart, over F_7 and F_7(t), against
    the dimension worked out by hand and the rank reference.  A misread row
    changes the answer: read as one entry, "two from C" and "two from Dt"
    give 1 and 2.  Every row handed to rank has a nonzero entry, and only
    a heavy row still heavy in root coordinates reaches it."""
    blocks, picks, want = HAND_CASES[case]
    lin, calls = ModQ(7) if mode == "cyclic" else Tower(7, mode).lin, []
    fam, rank = StubFamily(lin, blocks, picks), lin.rank

    def spy(rows):
        calls.append(list(rows))
        return rank(calls[-1])

    monkeypatch.setattr(lin, "rank", spy)
    assert oracle._solve_hom_system(fam, "i", "j", list(blocks)) == want
    assert all(any(map(lin.norm, row.values())) for rows in calls for row in rows)
    assert len(calls) == (case == "heavy")
    assert rank_hom_dim(fam, "i", "j", list(blocks)) == want


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
def test_solver_reads_the_heavy_rows_beside_a_one_entry_row_of_d(mode):
    """C = [[1, 0], [1, 1]] beside D = [[1]]: phi_m0 - phi_l0 = 0 is merged as
    it is read, and phi_m0 + phi_m1 - phi_l1 = 0, three entries, is kept for
    the rank; 4 unknowns less 2 rows."""
    lin = ModQ(7) if mode == "cyclic" else Tower(7, mode).lin
    blocks = {"l": (2, 1), "m": (2, 1)}
    fam = StubFamily(lin, blocks, {("l", "m"): [([[1, 0], [1, 1]], [[1]])]})
    assert oracle._solve_hom_system(fam, "i", "j", list(blocks)) == 2
    assert rank_hom_dim(fam, "i", "j", list(blocks)) == 2


def generated_spans(fam):
    """Per comparable pair (a, b), an echelon basis of what the picks of
    fam.generators generate in R_{a,b}: the closure of their spans under
    products R_{a,y} R_{y,b}, taken by multiplying elements with compose."""
    P, lin = fam.poset, fam.tower.lin
    pairs = [(a, b) for a in P.points for b in P.points if (a, b) in P.rel]

    def echelon(vectors):
        return lin.rref(lin.mat([list(v) for v in vectors]))[0] if vectors else []

    span = {ab: echelon([fam.basis[ab][k] for k in fam.generators(*ab)])
            for ab in pairs}
    grew = True
    while grew:
        grew = False
        for a, b in pairs:
            products = [fam.compose(u, v) for y in P.points if (a, y) in P.rel and (y, b) in P.rel
                        for u in span[(a, y)] for v in span[(y, b)]]
            new = echelon(span[(a, b)] + products)
            grew |= len(new) > len(span[(a, b)])
            span[(a, b)] = new
    return span


@pytest.mark.parametrize("flavor", ["r", "c"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_generators_generate_every_member(name, flavor):
    P = load_fixture(name)
    fam = build_family(cached_tower(P.p, "cyclic"), P, flavor)
    for ab, rows in generated_spans(fam).items():
        assert len(rows) == fam.dim(*ab), ab


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
@pytest.mark.parametrize("flavor", ["r", "c"])
def test_generators_drop_basis_elements_on_chain3_ell1(flavor, mode):
    P = load_fixture("chain3_ell1")
    fam = build_family(cached_tower(P.p, mode), P, flavor)
    pairs = [(a, b) for a in P.points for b in P.points if (a, b) in P.rel]
    assert all(len(rows) == fam.dim(*ab) for ab, rows in generated_spans(fam).items())
    assert sum(len(fam.generators(*ab)) for ab in pairs) < sum(fam.dim(*ab) for ab in pairs)


def test_generators_raise_when_a_product_leaves_the_family():
    """R_(0,b) of chain3_ell1 is generated by R_(0,a) R_(a,b); cut to two of
    its three basis elements, products leave it, and generators raises at the
    first table it reads that holds one.  The family is the same one, so the
    picks cached for the uncut basis must not answer for the cut one."""
    P = load_fixture("chain3_ell1")
    fam = build_family(cached_tower(P.p, "cyclic"), P, "r")
    assert fam.generators("0", "b") == []
    fam.replace("0", "b", fam.basis[("0", "b")][:2], fam.piv[("0", "b")][:2])
    assert _action_or_error(fam, ("0", "a", "b")) == "R_(0,a) * R_(a,b) leaves R_(0,b)"
    with pytest.raises(OracleError) as err:
        fam.generators("0", "b")
    assert str(err.value) == "R_(0,b) * R_(b,b) leaves R_(0,b)"


def test_hom_dim_errors_when_a_product_leaves_the_family():
    """With R_(0,b) of chain3_ell1 cut as above, a hom system fails at the
    first table it reads, for its generators or its rows, that leaves the
    family, with that table's text."""
    P = load_fixture("chain3_ell1")
    fam = build_family(cached_tower(P.p, "cyclic"), P, "r")
    fam.replace("0", "b", fam.basis[("0", "b")][:2], fam.piv[("0", "b")][:2])
    ab = "R_(0,a) * R_(a,b) leaves R_(0,b)"
    bb = "R_(0,b) * R_(b,b) leaves R_(0,b)"
    want = [[bb, bb, bb, 0], [ab, 3, 0, 0], [bb, 3, 3, 0], [1, 3, 3, 1]]
    got = []
    for i in P.points:
        got.append([])
        for j in P.points:
            try:
                got[-1].append(oracle_hom_dim(fam, i, j))
            except OracleError as err:
                got[-1].append(str(err))
    assert P.points == ("0", "a", "b", "m") and got == want


def _hom_answers(fam):
    """Every oracle_hom_dim and radical end_dim of fam, or its OracleError text."""
    P, out = fam.poset, []
    calls = [(oracle_hom_dim, (i, j)) for i in P.points for j in P.points]
    calls += [(lambda f, i: oracle_radical(f, i).end_dim, (i,)) for i in P.points if i != P.max]
    for fn, args in calls:
        try:
            out.append(fn(fam, *args))
        except OracleError as err:
            out.append(str(err))
    return out


@pytest.mark.parametrize("flavor", ["r", "c"])
def test_hom_systems_see_a_replaced_basis(flavor):
    """Hom systems are looked up by the names of the members they read, not
    by point names: once every system of a family is solved, R_(0,b) of
    chain3_ell1 is cut, and every answer then equals that of a fresh family
    with the same cut."""
    P = load_fixture("chain3_ell1")
    tower = cached_tower(P.p, "cyclic")
    fam, fresh = build_family(tower, P, flavor), build_family(tower, P, flavor)
    before = _hom_answers(fam)
    for f in (fam, fresh):
        f.replace("0", "b", f.basis[("0", "b")][:2], f.piv[("0", "b")][:2])
    after = _hom_answers(fam)
    assert after == _hom_answers(fresh) and after != before


LEAVES = "R_(0,{0}) * R_({0},b) leaves R_(0,b)".format
# the fourth answer, dim Hom(e_0 A, e_m A), was an error when each system
# checked every table; every other number is one the oracle gave then
CUT_ANSWERS = {
    "r": [*[LEAVES("b")] * 3, 0, LEAVES("a"), 3, 0, 0, LEAVES("b"), 3, 3, 0, 1, 3, 3, 1,
          LEAVES("a"), 3, 9],
    "c": [*[LEAVES("0")] * 3, 0, LEAVES("a"), 1, 0, 0, 2, 1, 1, 0, 3, 3, 3, 3, LEAVES("a"), 1, 3],
}


@pytest.mark.parametrize("flavor", ["r", "c"])
def test_cut_family_answers_come_from_checked_products(flavor):
    """Hom systems read the tables that give rows, each checked as it is
    built.  Cutting R_(0,b) of chain3_ell1 makes A.1 raise at its first
    leaving product; a system that reads a leaving table raises with its
    text, and every system that the rank reference, which reads every table
    of its blocks, can solve gives the reference's number."""
    P = load_fixture("chain3_ell1")
    fam = build_family(cached_tower(P.p, "cyclic"), P, flavor)
    assert verify_admissible(fam).ok
    assert assert_solver_matches_reference(fam) and _hom_answers(fam)
    fam.replace("0", "b", fam.basis[("0", "b")][:2], fam.piv[("0", "b")][:2])
    with pytest.raises(OracleError) as err:
        verify_admissible(fam)
    assert str(err.value) == _leaving(fam)[0]
    assert _hom_answers(fam) == CUT_ANSWERS[flavor]
    solved = 0
    for s in hom_systems(fam):
        try:
            want = rank_hom_dim(fam, *s)
        except OracleError:
            continue
        assert oracle._solve_hom_system(fam, *s) == want, s
        solved += 1
    assert solved


def _closure_key(fam, l, lp):
    """l == l' and the names of R_{l,l'}, R_{l,l}, R_{l',l'}, then of R_{l,y}
    and R_{y,l'} for each y strictly between."""
    m, above = fam.member, fam.above
    mid = [y for y in above[l] if y not in (l, lp) and lp in above[y]]
    return (l == lp, m[(l, lp)], m[(l, l)], m[(lp, lp)],
            *[m[ab] for y in mid for ab in ((l, y), (y, lp))])


def _member_keys(fam):
    """By member names: dim R_{y,z} per action table (x <= y <= z), and the
    set of hom and radical systems that have unknowns."""
    m, above = fam.member, fam.above
    tables = {(m[(x, y)], m[(y, z)], m[(x, z)]): fam.dim(y, z)
              for x in above for y in above[x] for z in above[y]}
    systems = set()
    for i in above:
        asked = [(j, above[i]) for j in above]
        asked += [(i, [l for l in above[i] if l != i])] if i != fam.poset.max else []
        for j, blocks in asked:
            if any(fam.dim(i, l) and fam.dim(j, l) for l in blocks):
                systems.add((*[m.get((x, l)) for l in blocks for x in (i, j)],
                             *[m.get((l, lp)) for l in blocks for lp in blocks]))
    return tables, systems


@pytest.mark.parametrize("flavor", ["r", "c"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_one_verification_reads_each_table_and_pick_list_once(name, flavor, monkeypatch):
    """Every cache is keyed by member names, so one run_verification builds
    each action table once per member triple (coords_rows once per basis
    element of R_{y,z}), runs each generator closure once per key, and solves
    each distinct hom system with unknowns once.  Asked again afterwards,
    no system is solved again or reaches rank, rref or coords_rows."""
    P = load_fixture(name)
    lin, families, asked = cached_tower(P.p, "cyclic").lin, [], []
    calls, generators = Counter(), RFamily.generators
    verify, close, solve = oracle.verify_admissible, oracle._close, oracle._solve_hom_system

    def spy(attr):
        real = getattr(lin, attr)

        def counted(*args):
            calls[attr, bool(families)] += 1
            return real(*args)
        monkeypatch.setattr(lin, attr, counted)

    def spy_generators(self, l, lp):
        asked.append((l, lp))
        return generators(self, l, lp)

    def spy_close(*args):
        calls["close", asked[-1]] += 1
        return close(*args)

    def spy_verify(fam):
        rep = verify(fam)
        families.append(fam)
        return rep

    def spy_solve(fam, i, j, blocks):
        calls["solve", any(fam.dim(i, l) and fam.dim(j, l) for l in blocks)] += 1
        return solve(fam, i, j, blocks)

    for fn in ("rank", "rref", "coords_rows"):
        spy(fn)
    monkeypatch.setattr(oracle, "_solve_hom_system", spy_solve)
    monkeypatch.setattr(RFamily, "generators", spy_generators)
    monkeypatch.setattr(oracle, "_close", spy_close)
    monkeypatch.setattr(oracle, "verify_admissible", spy_verify)
    assert run_verification(model(name, flavor), cached_tower(P.p, "cyclic")).ok
    fam = families[0]
    tables, systems = _member_keys(fam)
    built = calls["coords_rows", False] + calls["coords_rows", True]
    assert len(families) == 1 and built == sum(tables.values())
    # the first (l, l') asked of each closure key runs the closure, no later one
    first = {}
    for l, lp in asked:
        first.setdefault(_closure_key(fam, l, lp), (l, lp))
    assert {k[1]: n for k, n in calls.items() if k[0] == "close"} == dict.fromkeys(
        first.values(), 1)
    assert calls["solve", True] == len(systems) > 0
    assert calls["rank", True] <= len(systems)
    calls.clear()
    _hom_answers(fam)
    assert not calls
