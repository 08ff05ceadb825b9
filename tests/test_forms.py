"""Gram matrices, bilinear/quadratic forms, the hom pairing identity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_FIXTURES, model, src_imports
from eqposet import RatVec, bilinear, gram_matrix, projective_cd, quadratic


def test_star2_gram_matrix():
    M = model("star2", "r")
    assert gram_matrix(M) == ((1, -2, -1), (0, 2, 2), (0, 0, 1))
    Mc = model("star2", "c")
    assert gram_matrix(Mc) == ((2, -2, -2), (0, 1, 2), (0, 0, 2))


def test_quadratic_values_on_projectives():
    M = model("star2", "r")
    assert quadratic(M, RatVec.of(1, 0, 1)) == 1   # strong vertex
    assert quadratic(M, RatVec.of(2, 1, 0)) == 2   # weak vertex
    Mc = model("star2", "c")
    assert quadratic(Mc, RatVec.of(1, 0, 1)) == 2  # strong vertex, flavor c
    assert quadratic(Mc, RatVec.of(1, 1, 0)) == 1  # weak vertex, flavor c


def test_pairing_example():
    M = model("star2", "r")
    cd_m = projective_cd(M, "m")
    cd_w = projective_cd(M, "w")
    assert bilinear(M, cd_w, cd_m) == 2  # = hom(w, m) = dim Hom(e_m A, e_w A)
    assert bilinear(M, cd_m, cd_w) == 0  # = hom(m, w)


def test_pairing_reproduces_hom_table_everywhere():
    for name in ALL_FIXTURES:
        for fl in ("r", "c"):
            M = model(name, fl)
            P = M.poset
            inner = [x for x in P.points if x != P.zero]
            cds = {x: projective_cd(M, x) for x in inner}
            for i in inner:
                for j in inner:
                    assert bilinear(M, cds[j], cds[i]) == M.hom_dim(j, i), \
                        (name, fl, i, j)


def vecs(n):
    return st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(
        lambda v: RatVec.from_seq(v))


@given(vecs(3), vecs(3), vecs(3), st.integers(-5, 5))
@settings(max_examples=100)
def test_bilinearity(u, v, w, s):
    M = model("star2", "r")
    assert bilinear(M, u + v, w) == bilinear(M, u, w) + bilinear(M, v, w)
    assert bilinear(M, u, v + w) == bilinear(M, u, v) + bilinear(M, u, w)
    assert bilinear(M, s * u, v) == s * bilinear(M, u, v)
    assert quadratic(M, u) == bilinear(M, u, u)


def test_bilinear_refuses_a_vector_of_the_wrong_length():
    M = model("star2", "r")
    for d1, d2 in (((1,), (1, 0, 0)), ((1, 0, 0), (1,)), ((1,), (1,))):
        with pytest.raises(ValueError) as err:
            bilinear(M, d1, d2)
        assert str(err.value) == "vector length does not match the model"


def test_rational_vector_arithmetic():
    u = RatVec.of(1, 1, 0)
    v = RatVec.of(1, -1, 3)
    assert u + v == RatVec.of(2, 0, 3)
    assert u - v == RatVec.of(0, 2, -3)
    assert 2 * u == u * 2 == RatVec.of(2, 2, 0)
    assert -v == RatVec.of(-1, 1, -3)
    assert str(u + v) == "(2, 0, 3)"


def test_vectors_print_entries_past_the_int_digit_limit(default_digit_limit):
    huge = 10 ** 4400  # past Python's default of 4300 digits for int -> str
    assert str(RatVec.of(huge, -huge, 1)) == f"(1{'0' * 4400}, -1{'0' * 4400}, 1)"


def test_integral_entries_are_ints():
    v = RatVec.from_seq([3, -4, 0])
    assert v.entries == (3, -4, 0)
    assert all(type(e) is int for e in v.entries + RatVec.zeros(3).entries
               + RatVec.unit(3, 1).entries)
    u = RatVec.of(1, 2)
    assert all(type(e) is int for w in (u + u, u - u, 3 * u, -u) for e in w)


@pytest.mark.parametrize("bad", ["1/2", "4", Fraction(4), Fraction(1, 2), 1.0])
def test_non_integer_entries_raise(bad):
    with pytest.raises(TypeError):
        RatVec.of(1, bad)
    with pytest.raises(TypeError):
        RatVec.from_seq([bad, 1])


def test_src_never_imports_fractions():
    """The package computes in the integers: no module of it imports fractions."""
    imports = src_imports()
    assert len(imports) >= 10
    for name, roots in imports.items():
        assert "fractions" not in roots, name
