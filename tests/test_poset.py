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


PARSE_ERRORS = {
    "p arguments": ("p\n", "line 1, col 1: directive 'p' takes 1 argument(s), got 0"),
    "point arguments": ("p 2\npoint  a\n", "line 2, col 1: directive 'point' takes 2 argument(s), got 1"),
    "rel arguments": ("p 2\npoint a weak\npoint b weak\n  rel a b\n",
                      "line 4, col 3: directive 'rel' takes 3 argument(s), got 2"),
    "closure arguments": ("p 2\nclosure now\n", "line 2, col 1: directive 'closure' takes 0 argument(s), got 1"),
    "augment arguments": ("p 2\n\taugment  twice # comment\n",
                          "line 2, col 2: directive 'augment' takes 0 argument(s), got 1"),
    "p not an integer": ("p\t two\n", "line 1, col 4: p must be an integer, got 'two'"),
    "p duplicate": ("p 2\n  p 3\n", "line 2, col 3: duplicate p directive"),
    "p digits": ("p   123456789012\n", "line 1, col 5: p = 123456789012 is out of range (p < 2^31)"),
    "p range": ("p  2147483648\n", "line 1, col 4: p = 2147483648 is out of range (p < 2^31)"),
    "p not prime": ("point a weak\np\t9\n", "line 2, col 3: p = 9 is not prime"),
    "point duplicate": ("p 2\npoint a weak\npoint\t a  strong\n", "line 3, col 8: duplicate point 'a'"),
    "point kind": ("p 2\npoint a  medium\n", "line 2, col 10: point kind must be weak or strong, got 'medium'"),
    "rel before p": ("point a weak\npoint b weak\n rel a b 1\np 2\n", "line 3, col 2: p must be declared before rel"),
    "rel unknown x": ("p 2\npoint a weak\nrel\tc a 1\n", "line 3, col 5: unknown point 'c'"),
    "rel unknown y": ("p 2\npoint a weak\nrel a   c 1\n", "line 3, col 9: unknown point 'c'"),
    "rel reflexive": ("p 2\npoint a weak\nrel a\ta 1\n",
                      "line 3, col 7: reflexive equipment is implicit; rel needs two distinct points"),
    "rel ell not an integer": ("p 2\npoint a weak\npoint b weak\nrel a b  -1\n",
                               "line 4, col 10: ell must be a positive integer, got '-1'"),
    "rel ell range": ("p 3\npoint a weak\npoint b weak\nrel a b\t\t4\n", "line 4, col 10: ell = 4 outside 1..3"),
    "rel ell digits": ("p 3\npoint a weak\npoint b weak\nrel a b 000000000012345678901\n",
                       "line 4, col 9: ell = 12345678901 outside 1..3"),
    "rel duplicate": ("p 2\npoint a weak\npoint b weak\nrel a b 1\n\n  rel a b 2\n",
                      "line 6, col 3: duplicate relation a <= b"),
    "unknown directive": ("p 2\n\n\tedge a b\n", "line 3, col 2: unknown directive 'edge'"),
    "missing p": ("# no p\npoint a weak\naugment\n", "missing p directive"),
    "closure strong relation": ("p 3\npoint a weak\npoint s strong\nrel a s 2\nclosure\n",
                                "declared relation a <= s with ell = 2 touches a strong point (needs p)"),
    "closure cycle": ("p 2\npoint a weak\npoint b weak\nrel a b 1\nrel b a 1\nclosure\n",
                      "cycle through point 'a' in declared relations"),
    "augment weak 0": ("p 2\npoint 0 weak\npoint a weak\nrel 0 a 1\naugment\n",
                       'point named "0" conflicts with augmentation (it is not a strong global minimum)'),
    "augment weak m": ("p 2\npoint a weak\npoint m weak\nrel a m 1\naugment\n",
                       'point named "m" conflicts with augmentation (it is not a strong global maximum)'),
    "validation": ("p 3\npoint x weak\npoint y weak\npoint z weak\nrel x y 2\nrel y z 2\nrel x z 1\n",
                   "1 violation(s):\n  - composition: ell(x, z) = 1 < 3 forced by the chain [x, y, z]"),
}


@pytest.mark.parametrize("text, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_error_texts(text, message):
    """The full text of each PosetError that parse_poset raises, one case
    per raise site; a column counts a tab as one character."""
    with pytest.raises(PosetError) as exc:
        parse_poset(text)
    assert str(exc.value) == message


def test_parse_takes_a_ten_digit_ell():
    """ell <= p < 2^31 has at most ten digits, and ten digits parse: ell =
    10^9 under p = 2^31 - 1, a prime."""
    P = parse_poset("p 2147483647\npoint a weak\npoint b weak\nrel a b 1000000000\n")
    assert (P.p, P.rel[("a", "b")]) == (2147483647, 10 ** 9)


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


@pytest.mark.parametrize("inner, violations", [
    ("", ["strong-relation: relation touching a strong point has ell = 1 != p [a, b]"]),
    ("point w weak\nrel a w 3\nrel w b 3\n",
     ["strong-relation: relation touching a strong point has ell = 1 != p [a, b]",
      "composition: ell(x, z) = 1 < 3 forced by the chain [a, w, b]"]),
], ids=["bounds", "bounds-through-w"])
def test_augment_keeps_every_declared_ell(inner, violations):
    """Two strong bounds that augment keeps keep their declared ell, so a
    file whose ell(a, b) breaks an axiom is refused with or without augment."""
    text = "p 3\npoint a strong\npoint b strong\nrel a b 1\n" + inner
    P = _poset(3, ["a", "w", "b"] if inner else ["a", "b"], ["a", "b"],
               {("a", "b"): 1, **({("a", "w"): 3, ("w", "b"): 3} if inner else {})})
    assert augment(P).rel == P.rel
    want = f"{len(violations)} violation(s):\n" + "".join(f"  - {v}\n" for v in violations)
    for tail in ("", "augment\n"):
        with pytest.raises(PosetError) as exc:
            parse_poset(text + tail)
        assert str(exc.value) + "\n" == want


def test_augment_weak_minimum_is_not_adopted():
    P = _poset(2, ["w", "t"], ["t"], {("w", "t"): 2})
    Q = augment(P)
    assert Q.zero == "0" and Q.points[0] == "0"


def test_augment_name_conflicts():
    P = _poset(2, ["0", "a"], [], {("0", "a"): 1})  # weak "0" cannot be adopted
    with pytest.raises(PosetError, match='^point named "0" conflicts with augmentation '
                                         r'\(it is not a strong global minimum\)$'):
        augment(P)
    P = _poset(2, ["m", "a"], [], {("m", "a"): 1})
    with pytest.raises(PosetError, match='^point named "m" conflicts with augmentation '
                                         r'\(it is not a strong global maximum\)$'):
        augment(P)


@pytest.mark.parametrize("name", ["0", "m"])
def test_augment_name_conflict_at_both_extremes(name):
    """A lone strong point is both the strong global minimum and maximum; it
    cannot be both bounds, so augment adjoins both, and its own name blocks
    one of them.  The reason says so, for one point and for a strong 2-cycle."""
    both = (f'point named "{name}" conflicts with augmentation '
            f"({name} is both the strong global minimum and maximum, and one point cannot be both bounds)")
    for P in (_poset(2, [name], [name], {}),
              _poset(2, [name, "b"], [name, "b"], {(name, "b"): 2, ("b", name): 2})):
        assert P.zero == P.max == name
        with pytest.raises(PosetError) as exc:
            augment(P)
        assert str(exc.value) == both
    with pytest.raises(PosetError) as exc:
        parse_poset(f"p 2\npoint {name} strong\naugment\n")
    assert str(exc.value) == both


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


def test_validate_reports_p_out_of_range():
    """2^31 is the least p out of range, reported as one violation."""
    report = validate(EquippedPoset(2 ** 31, ("x",), frozenset(), {("x", "x"): 1}))
    assert str(report) == "1 violation(s):\n  - p-range: p is out of range (p < 2^31)"


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
