"""Hom tables, radicals, injective profiles, heredity."""

import pytest

from conftest import ALL_FIXTURES, is_slender_above, load_fixture, model
from eqposet import (AlgebraModel, Flavor, Label, ModelError, PosetError, RatVec, build_model,
                     injective_profiles, is_hereditary, projective_cd,
                     projective_udimF, radical_info)


def table(M):
    P = M.poset
    return [[M.hom_dim(x, y) for y in P.points] for x in P.points]


# ---------------------------------------------------------------- hom tables

def test_star2_hom_tables():
    Mr = model("star2", "r")
    assert table(Mr) == [[1, 2, 1], [0, 2, 2], [0, 0, 1]]
    Mc = model("star2", "c")
    assert table(Mc) == [[2, 2, 2], [0, 1, 2], [0, 0, 2]]


def test_star3_hom_tables():
    Mr = model("star3", "r")
    assert table(Mr) == [[1, 3, 1], [0, 3, 3], [0, 0, 1]]
    Mc = model("star3", "c")
    assert table(Mc) == [[3, 3, 3], [0, 1, 3], [0, 0, 3]]


def test_twochain2_hom_tables():
    Mr = model("twochain2", "r")
    # points (0, a, b, m); ell(a,b) = 1
    assert table(Mr) == [[1, 2, 2, 1], [0, 2, 2, 2], [0, 0, 2, 2], [0, 0, 0, 1]]
    Mc = model("twochain2", "c")
    assert table(Mc) == [[2, 2, 2, 2], [0, 1, 1, 2], [0, 0, 1, 2], [0, 0, 0, 2]]


def test_chain3_ell2_hom_tables():
    Mr = model("chain3_ell2", "r")
    assert table(Mr) == [[1, 3, 3, 1], [0, 3, 6, 3], [0, 0, 3, 3], [0, 0, 0, 1]]
    Mc = model("chain3_ell2", "c")
    assert table(Mc) == [[3, 3, 3, 3], [0, 1, 2, 3], [0, 0, 1, 3], [0, 0, 0, 3]]


def test_mixed3_hom_tables():
    Mr = model("mixed3", "r")
    # points (0, a, s, t); s and t strong
    assert table(Mr) == [[1, 3, 1, 1], [0, 3, 3, 3], [0, 0, 1, 1], [0, 0, 0, 1]]
    Mc = model("mixed3", "c")
    assert table(Mc) == [[3, 3, 3, 3], [0, 1, 3, 3], [0, 0, 3, 3], [0, 0, 0, 3]]


def test_trivial_hom_tables():
    assert table(model("trivial", "r")) == [[1, 1], [0, 1]]
    assert table(model("trivial", "c")) == [[2, 2], [0, 2]]


def test_local_dims_and_t_socle():
    Mr = model("star2", "r")
    assert [Mr.hom_dim(x, x) for x in Mr.poset.points] == [1, 2, 1]
    assert Mr.t_socle == 1
    Mc = model("star2", "c")
    assert [Mc.hom_dim(x, x) for x in Mc.poset.points] == [2, 1, 2]
    assert Mc.t_socle == 1
    assert model("chain3_ell2", "r").t_socle == 1


def test_kdim_convention():
    Mr, Mc = model("star2", "r"), model("star2", "c")
    assert Mr.kdim(Label.STRONG) == 1 and Mr.kdim(Label.WEAK) == 2
    assert Mc.kdim(Label.STRONG) == 2 and Mc.kdim(Label.WEAK) == 1


def test_build_model_requires_bounds():
    from eqposet import EquippedPoset
    P = EquippedPoset(2, ("x",), frozenset(), {("x", "x"): 1})
    with pytest.raises(PosetError, match="missing-zero"):
        build_model(P, Flavor.R)


def test_t_socle_refuses_a_remainder():
    """t_socle = hom(0, m)/hom(m, m) is an exact quotient: 3/2 raises, where
    a floor division gave 1."""
    M = model("star2", "r")
    hom = [list(row) for row in M.hom]
    hom[0][2], hom[2][2] = 3, 2
    bad = AlgebraModel(M.poset, M.flavor, tuple(map(tuple, hom)))
    with pytest.raises(ModelError, match=r"^t_socle = 3/2 is not integral$"):
        bad.t_socle
    assert M.t_socle == 1


# ---------------------------------------------------------------- radicals

def test_star2_radicals_flavor_r():
    M = model("star2", "r")
    w = radical_info(M, "w")
    assert (w.multiplicity, w.label) == (2, Label.STRONG)
    assert w.udimF == RatVec.of(0, 0, 1)
    assert w.cd == RatVec.of(1, 0, 1)
    assert w.is_projective == "m"
    z = radical_info(M, "0")
    assert (z.multiplicity, z.label) == (1, Label.STRONG)
    assert z.udimF == RatVec.of(0, 2, 1)
    assert z.is_projective is None
    with pytest.raises(ModelError):
        radical_info(M, "m")


def test_star2_radicals_flavor_c():
    M = model("star2", "c")
    w = radical_info(M, "w")
    assert (w.multiplicity, w.label) == (1, Label.STRONG)
    assert w.udimF == RatVec.of(0, 0, 2)
    assert w.is_projective == "m"


def test_chain3_ell1_radical_at_a_is_whole_projective():
    M = model("chain3_ell1", "r")
    a = radical_info(M, "a")
    assert (a.multiplicity, a.label) == (1, Label.WEAK)
    assert a.udimF == RatVec.of(0, 0, 3, 3)  # = udimF of e_b A
    assert a.is_projective == "b"
    assert a.cd == projective_cd(M, "b")


def test_chain3_ell2_radical_at_a_not_projective():
    M = model("chain3_ell2", "r")
    a = radical_info(M, "a")
    assert (a.multiplicity, a.label) == (1, Label.WEAK)
    assert a.udimF == RatVec.of(0, 0, 6, 3)
    assert a.is_projective is None


def test_mixed3_tee_case_spans_two_strong_points():
    M = model("mixed3", "r")
    a = radical_info(M, "a")
    assert (a.multiplicity, a.label) == (3, Label.STRONG)
    assert a.udimF == RatVec.of(0, 0, 1, 1)  # socle row restricted above a
    assert a.is_projective == "s"


def test_diamond3_multi_successor_radical():
    M = model("diamond3", "r")
    a = radical_info(M, "a")
    assert (a.multiplicity, a.label) == (1, Label.WEAK)
    assert a.udimF == RatVec.of(0, 0, 3, 3, 3)
    assert a.is_projective is None


def test_radical_dim_sum_property():
    # mult * summand dims account exactly for the hom row above the point
    for name in ALL_FIXTURES:
        for fl in ("r", "c"):
            M = model(name, fl)
            P = M.poset
            for x in P.points:
                if x == P.max:
                    continue
                info = radical_info(M, x)
                for j, y in enumerate(P.points):
                    want = M.hom_dim(x, y) if ((x, y) in P.rel and y != x) else 0
                    assert info.multiplicity * info.udimF[j] == want, (name, fl, x, y)


def test_projective_vectors():
    M = model("star2", "r")
    assert projective_udimF(M, "m") == RatVec.of(0, 0, 1)
    assert projective_udimF(M, "w") == RatVec.of(0, 2, 2)
    assert projective_cd(M, "w") == RatVec.of(2, 1, 0)
    assert projective_cd(M, "m") == RatVec.of(1, 0, 1)
    with pytest.raises(ModelError):
        projective_cd(M, "0")


# ---------------------------------------------------------------- profiles

def test_star2_profiles():
    Mr = model("star2", "r")
    pr = injective_profiles(Mr)
    assert set(pr) == {"0", "w"}
    assert pr["0"].label is Label.STRONG and pr["0"].udimF == RatVec.of(0, 2, 1)
    assert pr["w"].label is Label.WEAK and pr["w"].udimF == RatVec.of(0, 2, 2)
    Mc = model("star2", "c")
    pc = injective_profiles(Mc)
    assert pc["0"].udimF == RatVec.of(0, 2, 2)
    assert pc["w"].udimF == RatVec.of(0, 1, 2)


def test_profiles_are_distinct_on_all_fixtures():
    for name in ALL_FIXTURES:
        for fl in ("r", "c"):
            prof = injective_profiles(model(name, fl))
            keys = {(p.udimF, p.label) for p in prof.values()}
            assert len(keys) == len(prof)


# ---------------------------------------------------------------- heredity

def test_heredity_examples():
    Mr = model("star2", "r")
    assert is_hereditary(Mr, "w") and is_hereditary(Mr, "m")
    assert not is_hereditary(Mr, "0")

    M4 = model("four3", "r")
    assert is_hereditary(M4, "a") and is_hereditary(M4, "b") and is_hereditary(M4, "c")

    Mj = model("chain3_ell2", "r")
    assert not is_hereditary(Mj, "a")
    assert is_hereditary(Mj, "b")

    Md = model("diamond3", "c")
    assert not is_hereditary(Md, "a")


def test_heredity_flavor_agreement_and_slenderness():
    for name in ALL_FIXTURES:
        Mr, Mc = model(name, "r"), model(name, "c")
        for x in Mr.poset.points:
            want = is_slender_above(Mr.poset, x)
            assert is_hereditary(Mr, x) == want, (name, x)
            assert is_hereditary(Mc, x) == want, (name, x)
