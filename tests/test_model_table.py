"""The indexed tables of poset.py and model.py against the name-keyed
reference arithmetic kept in conftest: equal objects, or ModelErrors with
equal text, and the same violations in the same order."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ALL_FIXTURES, assert_table_matches_reference, enumerate_equipped,
                      fixture_path, load_fixture, model, reference_violations)
from eqposet import (AlgebraModel, EquippedPoset, Flavor, ModelError, augment, build_model,
                     cli, injective_profiles, is_hereditary, knit, min_equipment_closure, parse_poset,
                     projective_cd, projective_udimF, radical_info, validate)


def tampered(M, changes: dict) -> AlgebraModel:
    """M with the hom entries at the (x, y) keys of `changes` replaced."""
    idx = M.poset.index
    hom = [list(row) for row in M.hom]
    for (x, y), v in changes.items():
        hom[idx[x]][idx[y]] = v
    return AlgebraModel(M.poset, M.flavor, tuple(map(tuple, hom)))


# ---------------------------------------------------------------- model tables

@pytest.mark.parametrize("flavor", ["r", "c"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_tables_match_the_reference(name, flavor):
    assert sorted(assert_table_matches_reference(model(name, flavor), name)) == [
        "the minimal point carries no vertex projective",
        "the radical at the maximal point is zero"]


@pytest.mark.parametrize("p", [2, 3])
def test_small_poset_tables_match_the_reference(p):
    for n in range(4):
        for P in enumerate_equipped(p, n):
            A = augment(P)
            for fl in (Flavor.R, Flavor.C):
                assert len(assert_table_matches_reference(build_model(A, fl), P)) == 2


@st.composite
def shuffled_posets(draw):
    """A valid equipped poset on 4 to 8 points at p in {2, 3, 5}: random
    strong points and relations x_i < x_j (i < j) closed to the minimal
    equipment, declared in a random order, then augmented."""
    p = draw(st.sampled_from((2, 3, 5)))
    names = tuple(f"x{i}" for i in range(draw(st.integers(4, 8))))
    strong = frozenset(x for x in names if draw(st.booleans()))
    rel = {(x, x): p if x in strong else 1 for x in names}
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            if draw(st.booleans()):
                rel[(x, y)] = draw(st.integers(1, p)) if x not in strong and y not in strong else p
    P = min_equipment_closure(EquippedPoset(p, names, strong, rel))
    return augment(EquippedPoset(p, tuple(draw(st.permutations(names))), strong, P.rel))


@settings(deadline=None, max_examples=60)
@given(shuffled_posets())
def test_random_poset_tables_match_the_reference(P):
    for fl in (Flavor.R, Flavor.C):
        assert len(assert_table_matches_reference(build_model(P, fl), P)) == 2


# every ModelError of the per-point arithmetic, by the start of its text
ERROR_KINDS = {
    "non-positive local": r"hom\((\w+), \1\) = -?\d+ is not positive",
    "cover multiplicity": r"cover multiplicity at \(\w+, \w+\) is not integral",
    "socle coefficient": r"socle coefficient at \w+ is not integral",
    "socle mismatch": r"socle coefficient mismatch at \w+: -?\d+/\d+ vs -?\d+/\d+",
    "summand coordinates": r"radical summand coordinates at \w+ are not integral",
    "negative profile": r"negative injective profile entry at \(\w+, \w+\)",
    "socle-less profile": r"injective profile at \w+ misses the socle",
    "colliding profiles": r"injective profiles collide: \w+ vs \w+",
}


def test_tampered_tables_match_the_reference_on_every_error_branch():
    """Each hom entry of each fixture, in both flavors, moved by -1, +1 or
    +p, a diagonal entry of 1 down to 0 among them: the table answers as the
    reference does, point by point or with the reference's first error on
    every call, and the sweep reaches every error branch as a first error."""
    seen = {kind: 0 for kind in ERROR_KINDS}
    for name in ALL_FIXTURES:
        for fl in ("r", "c"):
            M = model(name, fl)
            pts = M.poset.points
            for x in pts:
                for y in pts:
                    for delta in (-1, 1, M.poset.p):
                        v = M.hom_dim(x, y) + delta
                        errors = assert_table_matches_reference(tampered(M, {(x, y): v}),
                                                                (name, x, y, delta))
                        for kind, pattern in ERROR_KINDS.items():
                            seen[kind] += any(re.fullmatch(pattern, e) for e in errors)
    assert all(seen.values()), seen


def test_a_failing_table_raises_its_first_error_on_every_call():
    """A socle coefficient broken at b fails every call that reads the
    table, at every point; the two sentinels keep their own texts."""
    M = model("chain3_ell2", "r")
    T = tampered(M, {("b", "m"): 4})
    calls = [lambda: injective_profiles(T)]
    calls += [lambda x=x: radical_info(T, x) for x in ("0", "a", "b")]
    calls += [lambda x=x: projective_cd(T, x) for x in ("a", "b", "m")]
    calls += [lambda x=x: projective_udimF(T, x) for x in T.poset.points]
    calls += [lambda x=x: is_hereditary(T, x) for x in ("0", "a", "b")]
    # asked again, the same error
    for call in calls + calls:
        with pytest.raises(ModelError, match=r"^socle coefficient mismatch at b: 3/1 vs 4/1$"):
            call()
    with pytest.raises(ModelError, match=r"^the radical at the maximal point is zero$"):
        radical_info(T, "m")
    with pytest.raises(ModelError, match=r"^the minimal point carries no vertex projective$"):
        projective_cd(T, "0")


@pytest.mark.parametrize("fl", ["r", "c"])
@pytest.mark.parametrize("x", ["0", "w", "m"])
def test_a_zero_local_dimension_is_a_model_error(x, fl):
    """star2 with hom(x, x) = 0: the table, and so knit, refuse it with a
    ModelError naming the point, not a division by zero; so does t_socle,
    which divides by hom(m, m)."""
    T = tampered(model("star2", fl), {(x, x): 0})
    calls = [lambda: T.table, lambda: knit(T), lambda: radical_info(T, "0")]
    for call in calls + [lambda: T.t_socle] * (x == "m"):
        with pytest.raises(ModelError, match=rf"^hom\({x}, {x}\) = 0 is not positive$"):
            call()


def test_info_prints_up_to_the_failing_point(monkeypatch, capsys):
    """`eqposet info` on that table prints everything before the first
    radical, then the table's first error, and exits 1."""
    real = cli.build_model
    monkeypatch.setattr(cli, "build_model", lambda P, fl: tampered(real(P, fl), {("b", "m"): 4}))
    assert cli.main(["info", fixture_path("chain3_ell2")]) == 1
    out, err = capsys.readouterr()
    assert out == (
        "p = 3, flavor r\n"
        "points: 0 (strong)  a (weak)  b (weak)  m (strong)\n"
        "t_socle = 1\n"
        "hom table (rows = first index):\n"
        "  0: (1, 3, 3, 1)\n"
        "  a: (0, 3, 6, 3)\n"
        "  b: (0, 0, 3, 4)\n"
        "  m: (0, 0, 0, 1)\n"
        "radicals:\n")
    assert err == "error: socle coefficient mismatch at b: 3/1 vs 4/1\n"


def test_both_flavors_share_one_view():
    P = load_fixture("diamond3")
    Mr, Mc = build_model(P, Flavor.R), build_model(P, Flavor.C)
    assert Mr.poset.view is Mc.poset.view
    assert Mc.hom is P.view.ell


# ---------------------------------------------------------------- validation

@st.composite
def damaged_posets(draw):
    """A poset parsed with check=False from random relations (both ways
    between two points, any ell in 1..p, no closure), then damaged in the
    ways the parser refuses: a point dropped or named twice, relations to a
    name that is no point, a reflexive entry missing, an ell out of range."""
    p = draw(st.sampled_from((2, 3, 5)))
    names = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    lines = [f"p {p}"] + [f"point {x} {draw(st.sampled_from(('weak', 'strong')))}" for x in names]
    pairs = [(x, y) for x in names for y in names if x != y]
    if pairs:
        for x, y in draw(st.lists(st.sampled_from(pairs), unique=True)):
            lines.append(f"rel {x} {y} {draw(st.integers(1, p))}")
    P = parse_poset("\n".join(lines) + "\n", check=False)
    points, rel = list(P.points), dict(P.rel)
    if draw(st.booleans()):
        points.append(draw(st.sampled_from(names)))
    if draw(st.booleans()):
        points.remove(draw(st.sampled_from(names)))
    if draw(st.booleans()):
        ghost_rel = draw(st.dictionaries(st.sampled_from(
            [("ghost", x) for x in names] + [(x, "ghost") for x in names]), st.integers(0, p + 1)))
        rel.update(ghost_rel)
    if draw(st.booleans()):
        rel.pop((draw(st.sampled_from(names)),) * 2, None)
    if rel and draw(st.booleans()):
        rel[draw(st.sampled_from(sorted(rel)))] = draw(st.sampled_from((0, p + 1, -1)))
    return EquippedPoset(p, tuple(points), P.strong, rel)


@settings(deadline=None, max_examples=300)
@given(damaged_posets())
def test_violations_keep_the_reference_order(P):
    """`eqposet validate` prints this list: the same violations, in the same
    order, as the pair x point loop."""
    assert validate(P).violations == reference_violations(P)
    zero = next((x for x in P.points if x in P.strong and all((x, y) in P.rel for y in P.points)), None)
    top = next((x for x in P.points if x in P.strong and all((y, x) in P.rel for y in P.points)), None)
    assert (P.zero, P.max) == (zero, top)


def test_damaged_posets_reach_every_violation():
    """The strategy above makes posets with every kind of violation."""
    codes = set()

    @settings(deadline=None, max_examples=300, database=None, derandomize=True)
    @given(damaged_posets())
    def collect(P):
        codes.update(v.code for v in validate(P).violations)

    collect()
    assert {"duplicate-point", "unknown-point", "ell-range", "reflexive", "antisymmetry",
            "strong-relation", "transitivity", "composition"} <= codes
