"""Field towers and the exact realization oracle."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_FIXTURES, cached_tower, load_fixture, model
from eqposet import (EquippedPoset, Flavor, OracleError, ParameterError, Tower, TowerSpec,
                     augment, build_family, build_model, default_tower,
                     min_equipment_closure, oracle, oracle_hom_dim, oracle_radical,
                     parse_poset, run_verification, verify_admissible, verify_dims)


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


def test_tower_operator_basis_ranks():
    for p in (2, 3):
        t = default_tower(p)
        for ell in range(1, p + 1):
            mats = t.a_ell_basis(ell)
            assert len(mats) == p * ell
            assert t.lin.rank(t.flatten_all(mats)) == p * ell


@pytest.mark.parametrize("spec, fragment", [
    (TowerSpec(3, "cyclic", 5, 2), "does not divide"),
    (TowerSpec(2, "cyclic", 3, 1), "p-th power"),
    (TowerSpec(2, "cyclic", 3, 3), "p-th power"),      # c = 0 mod q
    (TowerSpec(2, "cyclic", 9, 2), "not prime"),
    (TowerSpec(4, "cyclic", 5, 2), "not prime"),
    (TowerSpec(2, "weird"), "unknown tower mode"),
    (TowerSpec(2, "cyclic"), "needs q and c"),
    # a prime whose residues overflow int64 in a single product
    (TowerSpec(2, "cyclic", 4294967311, 3), "too large"),
])
def test_bad_tower_parameters(spec, fragment):
    with pytest.raises(ParameterError, match=fragment):
        Tower(spec)


@pytest.mark.parametrize("spec, message", [
    (TowerSpec(-10 ** 5000, "cyclic", 3, 2), "p = -10000000000... (5001 digits) is not prime"),
    (TowerSpec(2, "cyclic", -10 ** 5000, 2), "q = -10000000000... (5001 digits) is not prime"),
    (TowerSpec(2, "cyclic", 3, 3 * 10 ** 5000),
     "c = 300000000000... (5001 digits) is a p-th power in F_3"),
    (TowerSpec(2, "cyclic", 10 ** 5000, 3),
     "q = 100000000000... (5001 digits) is too large: exact int64 arithmetic "
     "needs (q - 1)^2 < 2^63, so q <= 3037000500"),
], ids=["p", "q prime", "c", "q large"])
def test_huge_tower_parameters_are_parameter_errors(spec, message):
    """Integers past str()'s 4300-digit limit give the library's own error,
    with the number shortened."""
    with pytest.raises(ParameterError) as err:
        Tower(spec)
    assert str(err.value) == message
    assert len(message) < 100 or "too large" in message


def test_no_default_tower_for_p7():
    with pytest.raises(ParameterError, match="no default tower"):
        default_tower(7)


def _entries(lin, A):
    return [list(row) for row in lin.rows(A)]


@pytest.mark.parametrize("p, mode", [(2, "cyclic"), (3, "cyclic"), (5, "cyclic"),
                                     (2, "inseparable"), (3, "inseparable")])
def test_driver_parity(p, mode):
    """Both drivers flatten operators row-major, and the tower's fixed
    operators are the same matrices under either driver."""
    t = cached_tower(p, mode)
    lin = t.lin
    mats = t.a_ell_basis(p)
    flat = t.flatten_all(mats)
    assert len(lin.rows(flat)) == len(mats)
    for k, m in enumerate(mats):
        v = t.flatten(m)
        assert list(v) == [x for row in _entries(lin, m) for x in row]
        assert list(lin.rows(flat)[k]) == list(v)
        assert _entries(lin, t.unflatten(v)) == _entries(lin, m)
    assert lin.rows(t.flatten_all([])) == []
    if mode == "cyclic":
        theta = [[pow(t.omega, i, t.q) if j == i else 0 for j in range(p)] for i in range(p)]
    else:
        theta = [[j if j == i + 1 else 0 for j in range(p)] for i in range(p)]
    assert _entries(lin, t.theta) == _entries(lin, lin.mat(theta))
    corner = [[int(i == j == 0) for j in range(p)] for i in range(p)]
    assert _entries(lin, t.eps(True)) == _entries(lin, lin.mat(corner))
    assert _entries(lin, t.eps(False)) == _entries(lin, lin.eye(p))


def test_inseparable_tower_arithmetic():
    """xi^p = t, and theta is a derivation: delta(uv) = delta(u) v + u delta(v)
    on every product of basis elements xi^i xi^j."""
    for p in (2, 3, 5):
        t = default_tower(p, "inseparable")
        lin = t.lin
        xi, power = t.xi_pow(1), t.xi_pow(0)
        for _ in range(p):
            power = t.g_mul(power, xi)
        assert list(power) == [t.c] + [lin.zero] * (p - 1)

        def delta(g):
            return lin.rows(lin.matmul(lin.mat([list(g)]), lin.transpose(t.theta)))[0]

        for i in range(p):
            for j in range(p):
                u, v = t.xi_pow(i), t.xi_pow(j)
                lhs = delta(t.g_mul(u, v))
                rhs = [a + b for a, b in zip(t.g_mul(delta(u), v), t.g_mul(u, delta(v)))]
                assert list(lhs) == rhs, (p, i, j)


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
    fam.basis[key] = fam.basis[key][:0]
    fam.piv[key] = []
    rep = verify_admissible(fam)
    assert not rep.ok
    assert rep.a3_failures


def _split_tower():
    """The p = 2 tower with c = 1, set past Tower's check: G = F_3[xi]/(xi^2 - 1)
    is no field, since (1 + xi)(1 - xi) = 0, yet its basis elements 1 and xi
    are both units."""
    t = default_tower(2)
    t.c = 1
    return t


def test_division_check_finds_zero_divisors():
    P = load_fixture("star2")
    for fl, want in (("c", ["element of R_0 has no right inverse",
                            "element of R_m has no right inverse"]),
                     ("r", ["element of R_w has no right inverse"])):
        rep = verify_admissible(build_family(_split_tower(), P, fl))
        assert rep.a2_failures == want, fl
        assert rep.a1_failures == rep.a3_failures == []
        assert rep.division_exhaustive


def test_basis_only_division_check_misses_zero_divisors(monkeypatch):
    """Only a non-basis element shows the defect: testing the basis alone
    passes flavor c."""
    monkeypatch.setattr(oracle, "MAX_DIVISION_ENUM", 1)
    rep = verify_admissible(build_family(_split_tower(), load_fixture("star2"), "c"))
    assert rep.ok and not rep.division_exhaustive


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


# ---------------------------------------------------------------- radicals

def test_oracle_radical_star2():
    t = default_tower(2)
    P = load_fixture("star2")
    rad_r = oracle_radical(build_family(t, P, "r"), "w")
    assert (rad_r.end_dim, rad_r.multiplicity, rad_r.end_kind) == (4, 2, "F")
    assert rad_r.block_dims == {"m": 2}
    rad_c = oracle_radical(build_family(t, P, "c"), "w")
    assert (rad_c.end_dim, rad_c.multiplicity, rad_c.end_kind) == (2, 1, "G")


def test_oracle_radical_weak_chain():
    t = default_tower(3)
    P = load_fixture("chain3_ell1")
    rad = oracle_radical(build_family(t, P, "r"), "a")
    assert (rad.end_dim, rad.multiplicity, rad.end_kind) == (3, 1, "G")


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
            got[x] = [r.end_dim, r.block_dims, r.multiplicity, r.end_kind]
    assert got == want["radical"]


def test_p5_weak_chain_ell2_flavor_r_passes():
    P = parse_poset("p 5\npoint a weak\npoint b weak\npoint c weak\n"
                    "rel a b 2\nrel b c 2\nclosure\naugment\n")
    rep = run_verification(build_model(P, Flavor.R), default_tower(5))
    assert rep.ok, str(rep)


# ---------------------------------------------------------------- generators

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
            if not P.leq(l, lp):
                continue
            Ci = fam.action(i, l, lp)
            Cj = fam.action(j, l, lp) if e[l] else None
            if not Ci or e[lp] == 0:
                continue
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


def assert_reduced_systems_match(fam):
    """oracle_hom_dim and oracle_radical's end_dim equal the all-basis systems."""
    P = fam.poset
    for i in P.points:
        up = [l for l in P.points if P.leq(i, l)]
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


def generated_spans(fam):
    """Per comparable pair (a, b), an echelon basis of what the picks of
    fam.generators generate in R_{a,b}: the closure of their spans under
    products R_{a,y} R_{y,b}, taken by multiplying elements with compose."""
    P, lin = fam.poset, fam.tower.lin
    pairs = [(a, b) for a in P.points for b in P.points if P.leq(a, b)]

    def echelon(vectors):
        return lin.rows(lin.rref(lin.mat([list(v) for v in vectors]))[0]) if vectors else []

    span = {ab: echelon([lin.rows(fam.basis[ab])[k] for k in fam.generators(*ab)])
            for ab in pairs}
    grew = True
    while grew:
        grew = False
        for a, b in pairs:
            products = [fam.compose(u, v) for y in P.points if P.leq(a, y) and P.leq(y, b)
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
    pairs = [(a, b) for a in P.points for b in P.points if P.leq(a, b)]
    assert all(len(rows) == fam.dim(*ab) for ab, rows in generated_spans(fam).items())
    assert sum(len(fam.generators(*ab)) for ab in pairs) < sum(fam.dim(*ab) for ab in pairs)


def test_generators_keep_every_index_when_a_product_leaves_the_family():
    """R_(0,b) of chain3_ell1 is generated by R_(0,a) R_(a,b); cut to two of
    its three basis elements, those products leave it, and both stay."""
    P = load_fixture("chain3_ell1")
    fam = build_family(cached_tower(P.p, "cyclic"), P, "r")
    assert fam.generators("0", "b") == []
    fam = build_family(cached_tower(P.p, "cyclic"), P, "r")
    fam.basis[("0", "b")] = fam.basis[("0", "b")][:2]
    fam.piv[("0", "b")] = fam.piv[("0", "b")][:2]
    assert any(C is None for C in fam.action("0", "a", "b"))
    assert fam.generators("0", "b") == [0, 1]
