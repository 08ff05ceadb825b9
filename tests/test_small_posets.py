"""Every small equipped poset: both flavors knit, pair r <-> c and pass the
oracle.

The paper puts C^(r) and C^(c) in bijection, so a flavor whose knit or
oracle fails where the other succeeds is a model bug.  These tests run the
whole pipeline on every valid equipped poset with at most three points at
p in {2, 3} and at most one point at p = 5, augmented, and on random ones
with four or five points.  The oracle runs over the default cyclic tower on
all of them, and over the inseparable one too on all but the random ones at
p = 5.  On every poset of the sweep, A.2's division certificate over the
cyclic tower agrees with the enumeration of each R_x.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_division_agrees, assert_picks_match_reference,
                      assert_solver_matches_reference, cached_tower, check_component_invariants,
                      enumerate_equipped)
from eqposet import (EquippedPoset, Flavor, augment, build_family, build_model, knit,
                     min_equipment_closure, pair_components, run_verification)

SIZES = [(p, n) for p in (2, 3) for n in (0, 1, 2, 3)] + [(5, 1)]


def _reference_modes(p: int, n: int) -> list[str]:
    """The towers the hom-system reference checks each poset over: the cyclic
    and the inseparable one on every poset of the sweep but the 344 p = 3
    posets of 3 points, which take the cyclic one alone.  The inseparable
    one there takes about 8 s, more than tier-1 has room for; the oracle
    itself runs over both towers on those posets too."""
    return ["cyclic", "inseparable"] if (p, n) != (3, 3) else ["cyclic"]


@pytest.mark.parametrize("p, n", SIZES)
def test_every_small_poset_knits_pairs_and_passes_the_oracle(p, n):
    for P in enumerate_equipped(p, n):
        A = augment(P)
        Mr, Mc = build_model(A, Flavor.R), build_model(A, Flavor.C)
        Gr, Gc = knit(Mr), knit(Mc)
        for M, G in ((Mr, Gr), (Mc, Gc)):
            check_component_invariants(M, G, (P, M.flavor.value))
        report = pair_components(Gr, Gc, Mr, Mc)
        assert report.ok, f"{P}:\n{report}"
        for mode in ("cyclic", "inseparable"):
            for M in (Mr, Mc):
                rep = run_verification(M, cached_tower(p, mode))
                assert rep.ok, f"{P} {mode}:\n{rep}"
        if p in (2, 3):
            for M in (Mr, Mc):
                assert_division_agrees(build_family(cached_tower(p, "cyclic"), A, M.flavor))


@pytest.mark.parametrize("p, n", SIZES)
def test_every_small_poset_solves_hom_systems_as_the_rank_reference(p, n):
    """The merged hom systems equal the sparse rank of every row, over the
    towers of `_reference_modes`."""
    for P in enumerate_equipped(p, n):
        A = augment(P)
        for mode in _reference_modes(p, n):
            for flavor in (Flavor.R, Flavor.C):
                assert assert_solver_matches_reference(build_family(cached_tower(p, mode), A, flavor))


@pytest.mark.parametrize("mode", ["cyclic", "inseparable"])
def test_every_two_three_poset_picks_as_the_closure_without_early_stop(mode):
    """On the 230 posets of 3 points at p = 2, augmented, `RFamily.generators`
    picks what `reference_close` picks at every comparable pair, in both
    flavors."""
    n = 0
    for P in enumerate_equipped(2, 3):
        A = augment(P)
        for flavor in (Flavor.R, Flavor.C):
            assert assert_picks_match_reference(build_family(cached_tower(2, mode), A, flavor))
        n += 1
    assert n == 230


@st.composite
def equipped_posets(draw):
    """A valid equipped poset on 4 or 5 points at p in {2, 3, 5}: random
    strong points and declared relations x_i < x_j (i < j), any ell on a
    relation between weak points, then the minimal valid equipment."""
    p = draw(st.sampled_from((2, 3, 5)))
    names = tuple(f"x{i}" for i in range(draw(st.integers(4, 5))))
    strong = frozenset(x for x in names if draw(st.booleans()))
    rel = {(x, x): p if x in strong else 1 for x in names}
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            if draw(st.booleans()):
                weak = x not in strong and y not in strong
                rel[(x, y)] = draw(st.integers(1, p)) if weak else p
    return augment(min_equipment_closure(EquippedPoset(p, names, strong, rel)))


@settings(deadline=None)
@given(equipped_posets())
def test_random_posets_knit_and_pair(P):
    Mr, Mc = build_model(P, Flavor.R), build_model(P, Flavor.C)
    Gr, Gc = knit(Mr), knit(Mc)
    for M, G in ((Mr, Gr), (Mc, Gc)):
        check_component_invariants(M, G, (P, M.flavor.value))
    report = pair_components(Gr, Gc, Mr, Mc)
    assert report.ok, f"{P}:\n{report}"
    for mode in ["cyclic", "inseparable"] if P.p in (2, 3) else ["cyclic"]:
        for M in (Mr, Mc):
            rep = run_verification(M, cached_tower(P.p, mode))
            assert rep.ok, f"{P} {mode}:\n{rep}"


@settings(deadline=None)
@given(equipped_posets())
def test_random_posets_solve_hom_systems_as_the_rank_reference(P):
    for mode in ["cyclic", "inseparable"] if P.p in (2, 3) else ["cyclic"]:
        for flavor in (Flavor.R, Flavor.C):
            assert assert_solver_matches_reference(build_family(cached_tower(P.p, mode), P, flavor))
