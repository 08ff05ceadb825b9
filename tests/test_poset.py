"""Parsing, validation, closure, augmentation, slenderness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_FIXTURES, is_slender_above, load_fixture, run_python
from eqposet import EquippedPoset, PosetError, augment, min_equipment_closure, parse_poset, validate
from eqposet.poset import _is_prime, shown


# ---------------------------------------------------------------- parsing

def test_parse_basic():
    P = parse_poset("p 3\npoint a weak\npoint b weak\nrel a b 1\naugment\n")
    assert P.points == ("0", "a", "b", "m")
    assert P.strong == frozenset({"0", "m"})
    assert P.rel[("0", "a")] == 3 and P.rel[("a", "b")] == 1
    assert P.rel[("a", "m")] == 3 and P.rel[("0", "m")] == 3
    assert P.rel[("0", "b")] == 3


def test_parse_comments_and_blank_lines():
    P = parse_poset("# leading comment\n\np 2\npoint w weak  # trailing\naugment\n")
    assert P.points == ("0", "w", "m")


@pytest.mark.parametrize("text,fragment", [
    ("p 4\n", "prime"),
    ("p 2\np 3\n", "duplicate p"),
    ("point a weak\n", "p"),
    ("p 2\npoint a odd\n", "kind"),
    ("p 2\npoint a weak\npoint a weak\n", "duplicate"),
    ("p 2\npoint a weak\nrel a b 1\n", "unknown point"),
    ("p 2\npoint a weak\nrel a a 1\n", "reflexive"),
    ("p 2\npoint a weak\npoint b weak\nrel a b 3\n", "outside 1..2"),
    ("p 2\npoint a weak\npoint b weak\nrel a b 1\nrel a b 2\n", "duplicate"),
    ("p 2\nfrobnicate\n", "directive"),
    ("p 2\npoint a weak\npoint b weak\nrel b a bad\n", "integer"),
    ("p 2147483648\n", "out of range"),
    # past int()'s default digit limit
    pytest.param("p " + "9" * 5000 + "\n", "p = 999999999999... (5000 digits) is out of range",
                 id="p 5000 digits"),
    pytest.param("p 2\npoint a weak\npoint b weak\nrel a b 1" + "0" * 5000 + "\n",
                 "line 4, col 9: ell = 100000000000... (5001 digits) outside 1..2",
                 id="ell 5001 digits"),
    # digits that int() does not read
    pytest.param("p \u00b2\n", "p must be an integer", id="p superscript"),
    pytest.param("p 2\npoint a weak\npoint b weak\nrel a b \u00b2\n",
                 "ell must be a positive integer", id="ell superscript"),
    pytest.param("p --5\n", "p must be an integer", id="p two minus signs"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(PosetError) as exc:
        parse_poset(text)
    assert fragment in str(exc.value)
    # a long token is shortened: the 5000-digit p gives a one-line message
    assert len(str(exc.value)) < 100


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PosetError) as exc:
        parse_poset("p 2\npoint a weak\npoint a weak\n")
    assert "line 3" in str(exc.value)


def test_missing_p_is_an_error():
    with pytest.raises(PosetError):
        parse_poset("point a weak\naugment\n")


# ---------------------------------------------------------------- validation

def _poset(p, points, strong, rels):
    rel = {}
    for x in points:
        rel[(x, x)] = p if x in strong else 1
    rel.update(rels)
    return EquippedPoset(p, tuple(points), frozenset(strong), rel)


def test_validate_accepts_fixtures():
    for name in ALL_FIXTURES:
        P = load_fixture(name)
        rep = validate(P, require_bounds=True)
        assert rep.ok, f"{name}: {rep}"


def test_validate_composition_violation_has_witness():
    P = _poset(3, ["x", "y", "z"], [], {("x", "y"): 2, ("y", "z"): 2, ("x", "z"): 2})
    rep = validate(P)
    assert not rep.ok
    codes = {v.code for v in rep.violations}
    assert "composition" in codes
    witness = next(v for v in rep.violations if v.code == "composition")
    assert witness.witness == ("x", "y", "z")
    assert "3" in witness.message  # the required minimum min(2+2-1, 3)


def test_validate_strong_relation_rule():
    P = _poset(3, ["x", "y"], ["y"], {("x", "y"): 2})
    rep = validate(P)
    assert any(v.code == "strong-relation" for v in rep.violations)


def test_validate_transitivity_gap():
    P = _poset(2, ["x", "y", "z"], [], {("x", "y"): 1, ("y", "z"): 1})
    rep = validate(P)
    assert any(v.code == "transitivity" for v in rep.violations)


def test_validate_antisymmetry():
    P = _poset(2, ["x", "y"], [], {("x", "y"): 1, ("y", "x"): 1})
    rep = validate(P)
    assert any(v.code == "antisymmetry" for v in rep.violations)


def test_validate_missing_bounds_only_when_required():
    P = _poset(2, ["x"], [], {})
    assert validate(P).ok
    rep = validate(P, require_bounds=True)
    codes = {v.code for v in rep.violations}
    assert codes == {"missing-zero", "missing-max"}


def test_validate_one_point_as_both_bounds_only_when_required():
    """A lone strong point is the strong minimum and the maximum at once;
    augment would keep it inner and adjoin both bounds."""
    P = _poset(2, ["s"], ["s"], {})
    assert P.zero == P.max == "s" and validate(P).ok
    assert [(v.code, v.witness) for v in validate(P, require_bounds=True).violations] == \
        [("bounds-coincide", ("s",))]
    assert validate(augment(P), require_bounds=True).ok


# ---------------------------------------------------------------- closure

def test_closure_chain_sum():
    # 2-step chain with ell = 2 twice: longest path 1+1 -> ell = min(3, 5) = 3
    P = _poset(5, ["a", "b", "c"], [], {("a", "b"): 2, ("b", "c"): 2})
    Q = min_equipment_closure(P)
    assert Q.rel[("a", "c")] == 3


def test_closure_weakest_chain():
    P = _poset(5, ["a", "b", "c"], [], {("a", "b"): 1, ("b", "c"): 1})
    Q = min_equipment_closure(P)
    assert Q.rel[("a", "c")] == 1


def test_closure_diamond_takes_longest_path():
    rels = {("a", "b"): 2, ("a", "c"): 1, ("b", "d"): 2, ("c", "d"): 1}
    P = _poset(5, ["a", "b", "c", "d"], [], rels)
    Q = min_equipment_closure(P)
    assert Q.rel[("a", "d")] == 3  # via b: (2-1)+(2-1)+1


def test_closure_caps_at_p():
    P = _poset(2, ["a", "b", "c"], [], {("a", "b"): 2, ("b", "c"): 2})
    Q = min_equipment_closure(P)
    assert Q.rel[("a", "c")] == 2


def test_closure_keeps_declared_edges():
    P = _poset(5, ["a", "b", "c"], [], {("a", "b"): 3, ("b", "c"): 1})
    Q = min_equipment_closure(P)
    assert Q.rel[("a", "b")] == 3 and Q.rel[("b", "c")] == 1
    assert Q.rel[("a", "c")] == 3


def test_closure_rejects_cycles():
    P = _poset(2, ["a", "b"], [], {("a", "b"): 1, ("b", "a"): 1})
    with pytest.raises(PosetError, match="cycle"):
        min_equipment_closure(P)


def test_closure_rejects_weak_edge_at_strong_point():
    P = _poset(3, ["a", "b"], ["b"], {("a", "b"): 1})
    with pytest.raises(PosetError, match="strong"):
        min_equipment_closure(P)


def test_closure_output_validates():
    rels = {("a", "b"): 2, ("b", "c"): 3, ("a", "d"): 1, ("d", "c"): 2}
    P = _poset(3, ["a", "b", "c", "d"], [], rels)
    Q = min_equipment_closure(P)
    assert validate(Q).ok


def test_closure_is_minimal():
    # lowering any derived value below the closure's choice breaks validity
    P = _poset(5, ["a", "b", "c"], [], {("a", "b"): 3, ("b", "c"): 2})
    Q = min_equipment_closure(P)
    got = Q.rel[("a", "c")]
    assert got == 4
    rel = dict(Q.rel)
    rel[("a", "c")] = got - 1
    lowered = EquippedPoset(Q.p, Q.points, Q.strong, rel)
    assert not validate(lowered).ok


# ---------------------------------------------------------------- augment

def test_augment_adjoins_both_bounds():
    P = _poset(3, ["a", "b"], [], {("a", "b"): 1})
    Q = augment(P)
    assert Q.points == ("0", "a", "b", "m")
    assert Q.zero == "0" and Q.max == "m"
    assert Q.rel[("0", "a")] == 3 and Q.rel[("b", "m")] == 3 and Q.rel[("0", "m")] == 3


def test_augment_adopts_strong_extrema():
    P = _poset(3, ["a", "t"], ["t"], {("a", "t"): 3})
    Q = augment(P)
    assert Q.points == ("0", "a", "t")
    assert Q.max == "t"


def test_augment_single_strong_point_stays_inner():
    P = _poset(2, ["s"], ["s"], {})
    Q = augment(P)
    assert Q.points == ("0", "s", "m")


def test_augment_empty_poset():
    P = _poset(2, [], [], {})
    Q = augment(P)
    assert Q.points == ("0", "m")
    assert Q.rel[("0", "m")] == 2


def test_augment_idempotent():
    for name in ALL_FIXTURES:
        P = load_fixture(name)
        assert augment(P) == P


def test_augment_weak_minimum_is_not_adopted():
    P = _poset(2, ["w", "t"], ["t"], {("w", "t"): 2})
    Q = augment(P)
    assert Q.zero == "0" and Q.points[0] == "0"


def test_augment_name_conflicts():
    P = _poset(2, ["0", "a"], [], {("0", "a"): 1})  # weak "0" cannot be adopted
    with pytest.raises(PosetError, match='"0" conflicts'):
        augment(P)
    P = _poset(2, ["m", "a"], [], {("m", "a"): 1})
    with pytest.raises(PosetError, match='"m" conflicts'):
        augment(P)


def test_augment_two_strong_maxima_gets_fresh_bound():
    P = _poset(2, ["s", "t"], ["s", "t"], {})
    Q = augment(P)
    assert Q.max == "m"
    assert Q.rel[("s", "m")] == 2 and Q.rel[("t", "m")] == 2


# ---------------------------------------------------------------- slender

def test_slender_examples():
    star = load_fixture("star2")
    assert is_slender_above(star, "w")
    assert not is_slender_above(star, "0")  # weak above strong

    four = load_fixture("four3")
    assert is_slender_above(four, "a")

    jump = load_fixture("chain3_ell2")
    assert not is_slender_above(jump, "a")  # weak pair needs ell = 1

    dia = load_fixture("diamond3")
    assert not is_slender_above(dia, "a")  # not a chain


# ---------------------------------------------------------------- properties

@st.composite
def weak_chain_triples(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    l1 = draw(st.integers(1, p))
    l2 = draw(st.integers(1, p))
    n = draw(st.integers(1, p))
    return p, l1, l2, n


@given(weak_chain_triples())
@settings(max_examples=300)
def test_composition_axiom_matches_formula(t):
    p, l1, l2, n = t
    P = _poset(p, ["x", "y", "z"], [],
               {("x", "y"): l1, ("y", "z"): l2, ("x", "z"): n})
    assert validate(P).ok == (n >= min(l1 + l2 - 1, p))


@st.composite
def random_weak_dags(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    points = [f"x{i}" for i in range(n)]
    rels = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rels[(points[i], points[j])] = draw(st.integers(1, p))
    return _poset(p, points, [], rels)


@given(random_weak_dags())
@settings(max_examples=200)
def test_closure_always_validates_and_is_stable(P):
    Q = min_equipment_closure(P)
    assert validate(Q).ok
    assert min_equipment_closure(Q) == Q
    # declared edges never shrink
    for pair, l in P.rel.items():
        if pair[0] != pair[1]:
            assert Q.rel[pair] >= l


@given(random_weak_dags())
@settings(max_examples=100)
def test_augmented_closure_builds_a_model_poset(P):
    Q = augment(min_equipment_closure(P))
    assert validate(Q, require_bounds=True).ok


def test_validate_refuses_huge_p_quickly():
    """A p of 2^31 or more given through the library is a violation found
    before trial division, which would take ~10^9 steps on this prime."""
    code = ("from eqposet import EquippedPoset, validate\n"
            "print(validate(EquippedPoset(1000000000000000003, ('a',), frozenset(), "
            "{('a', 'a'): 1})))")
    out = run_python("-c", code, timeout=10)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 violation(s):\n  - p-range: p is out of range (p < 2^31)\n"


def test_is_prime_small_values():
    assert [n for n in range(2, 20) if _is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_shown_shortens_long_integers():
    """An int and its decimal text show alike; past 20 digits only the first
    12 characters and the digit count remain."""
    for n in (0, 7, -5, 10 ** 19, 10 ** 20 - 1, 10 ** 20, -10 ** 20, 2 ** 64, 10 ** 299 + 1):
        assert shown(n) == shown(str(n)), n
    assert shown(10 ** 20 - 1) == "9" * 20
    assert shown(10 ** 20) == "100000000000... (21 digits)"
    assert shown(-(10 ** 5000 - 1)) == "-99999999999... (5000 digits)"
    assert shown("9" * 5000) == "999999999999... (5000 digits)"


def test_validate_shortens_huge_integers():
    """Violations that print a caller's integer past str()'s 4300-digit
    limit show it shortened; the p-not-prime line stays under 100 characters."""
    huge = 10 ** 5000
    P = EquippedPoset(-huge, ("a",), frozenset(), {("a", "a"): 1})
    assert [str(v) for v in validate(P).violations] == [
        "p-not-prime: p = -10000000000... (5001 digits) is not prime",
        "ell-range: ell = 1 outside 1..-10000000000... (5001 digits) [a, a]"]
    P = EquippedPoset(5, ("a", "b"), frozenset("a"),
                      {("a", "a"): huge, ("b", "b"): 1, ("a", "b"): huge})
    shown_ell = "100000000000... (5001 digits)"
    assert [str(v) for v in validate(P).violations] == [
        f"ell-range: ell = {shown_ell} outside 1..5 [a, a]",
        f"ell-range: ell = {shown_ell} outside 1..5 [a, b]",
        f"reflexive: reflexive ell = {shown_ell}, expected 5 [a]",
        f"strong-relation: relation touching a strong point has ell = {shown_ell} != p [a, b]"]
