"""Acceptance gate: one test per release criterion, each printing a verdict line.

The criteria below are exact (integer/rational arithmetic throughout); the
only tolerances are the stated wall-clock budgets.
"""

import random
import time

from conftest import (ALL_FIXTURES, FINITE_FIXTURES, TABLE_NAMES, check_component_invariants,
                      enumerate_equipped, is_slender_above, load_fixture, load_table, model,
                      table_mismatches)
from eqposet import (EquippedPoset, Flavor, augment, bilinear, build_family, build_model,
                     default_tower, is_hereditary, knit, oracle_hom_dim, oracle_radical,
                     pair_components, parse_poset, projective_cd, run_verification, validate)
from eqposet.forms import RatVec
from eqposet.knitter import FINITE, TRUNCATED, _kind
from eqposet.model import Label


def test_criterion_1_table_correspondence():
    t0 = time.perf_counter()
    counts = {}
    for name in TABLE_NAMES:
        table = load_table(name)
        assert table_mismatches(table) == [], name
        counts[name] = len(table["pairs"])
    elapsed = time.perf_counter() - t0
    assert counts == {"twopoint2": 4, "twopoint3": 6, "chain3": 12,
                      "reorient3": 12, "wild3": 12}
    chain3 = {(tuple(q["r"]), tuple(q["c"])) for q in load_table("chain3")["pairs"]}
    assert ((9, 21, 12), (3, 7, 12)) in chain3
    assert ((6, 15, 9), (2, 5, 9)) in chain3
    assert elapsed < 1.0, f"table checks took {elapsed:.3f}s"
    print(f"criterion 1: PASS — {sum(counts.values())} vector pairs across "
          f"{len(counts)} tables in {elapsed:.3f}s")


def test_criterion_2_heredity_equals_slenderness():
    posets = checked = 0
    for p in (2, 3):
        for n in (0, 1, 2, 3):
            for P in enumerate_equipped(p, n):
                posets += 1
                A = augment(P)
                Mr = build_model(A, Flavor.R)
                Mc = build_model(A, Flavor.C)
                for x in A.points:
                    want = is_slender_above(A, x)
                    assert is_hereditary(Mr, x) == want, (p, P, x)
                    assert is_hereditary(Mc, x) == want, (p, P, x)
                    checked += 1
    # deterministic enumeration totals: 247 equipped posets for p=2, 363 for p=3
    assert (posets, checked) == (610, 2810)
    print(f"criterion 2: PASS — heredity == flavor-other heredity == slender "
          f"up-set at {checked} (poset, point) pairs on {posets} equipped posets")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    towers = {2: default_tower(2), 3: default_tower(3)}
    assert (towers[2].q, towers[3].q) == (3, 7)
    runs = 0
    for name in ALL_FIXTURES:
        P = load_fixture(name)
        tower = towers[P.p]
        for fl in (Flavor.R, Flavor.C):
            M = build_model(P, fl)
            rep = run_verification(M, tower)  # dims + A.1-A.3 + radicals + hom
            assert rep.ok, f"{name}/{fl.value}:\n{rep}"
            fam = build_family(tower, P, fl)
            for i in P.points:
                if i == P.zero:
                    continue
                cdi = projective_cd(M, i)
                for j in P.points:
                    if j == P.zero:
                        continue
                    assert oracle_hom_dim(fam, i, j) == \
                        bilinear(M, projective_cd(M, j), cdi), (name, fl, i, j)
            runs += 1
    elapsed = time.perf_counter() - t0
    assert runs == 2 * len(ALL_FIXTURES) >= 20
    assert elapsed < 5.0, f"oracle suite took {elapsed:.3f}s"
    print(f"criterion 3: PASS — {runs} realization runs "
          f"(dims, admissibility, radicals, hom = Euler pairing) in {elapsed:.3f}s")


def test_criterion_4_star_component_against_oracle():
    P = load_fixture("star2")
    tower = default_tower(2)
    want = {
        "r": [("Projective(m)", "Strong", (0, 0, 1), None),
              ("ProjectiveInjective(w,w)", "Weak", (0, 2, 2), (2, 1)),
              ("Injective(0)", "Strong", (0, 2, 1), (1, 2))],
        "c": [("Projective(m)", "Strong", (0, 0, 2), None),
              ("ProjectiveInjective(w,w)", "Weak", (0, 1, 2), (1, 2)),
              ("Injective(0)", "Strong", (0, 2, 2), (2, 1))],
    }
    for fl in ("r", "c"):
        M = build_model(P, fl)
        G = knit(M)
        assert G.status == FINITE and len(G.vertices) == 3
        got = []
        for i, v in enumerate(G.vertices):
            inc = [(a.a, a.b) for a in G.arrows if a.dst == i]
            got.append((_kind(v.proj_point, v.inj_point), v.label.value, v.udimF,
                        inc[0] if inc else None))
        assert got == want[fl], fl
        rep = run_verification(M, tower)
        assert rep.ok, str(rep)
    # the oracle reproduces the flavor-r arrow valuation 2 = radical multiplicity
    fam_r = build_family(tower, P, "r")
    Gr = knit(build_model(P, "r"))
    assert oracle_radical(fam_r, "w") == Gr.out_arrows(0)[0].a ** 2
    assert {l: fam_r.dim("w", l) for l in fam_r.above["w"] if l != "w"} == {"m": 2}
    # and the middle vertex is the w-projective with its hom-table row
    assert RatVec(Gr.vertices[1].udimF) == RatVec.of(1, 2, 2) - RatVec.of(1, 0, 0)
    assert fam_r.dim("w", "m") == 2 and fam_r.dim("w", "w") == 2
    print("criterion 4: PASS — star fixture knits the exact 3-vertex components, "
          "valuations and radical multiplicity confirmed by the realization")


def test_criterion_5_component_bijection():
    checked_pairs = 0
    for name in ALL_FIXTURES:
        Mr, Mc = model(name, "r"), model(name, "c")
        Gr, Gc = knit(Mr), knit(Mc)
        expect = FINITE if name in FINITE_FIXTURES else TRUNCATED
        assert Gr.status == Gc.status == expect, name
        report = pair_components(Gr, Gc, Mr, Mc)
        assert report.ok, f"{name}:\n{report}"
        checked_pairs += len(report.pairs)
    # valuation swap, stated explicitly on the star fixture
    Gr, Gc = knit(model("star2", "r")), knit(model("star2", "c"))
    assert [(a.a, a.b) for a in Gr.arrows] == [(2, 1), (1, 2)]
    assert [(a.a, a.b) for a in Gc.arrows] == [(1, 2), (2, 1)]
    # negative control: a corrupted component must be rejected
    Gc.udimF[1] = (9, 9, 9)
    bad = pair_components(Gr, Gc, model("star2", "r"), model("star2", "c"))
    assert not bad.ok
    print(f"criterion 5: PASS — bijection (kinds, labels, both dimension laws, "
          f"tau-orbits, swapped valuations) on {checked_pairs} vertex pairs "
          f"across {len(ALL_FIXTURES)} posets")


def test_criterion_6_structural_invariants():
    components = 0
    for name in ALL_FIXTURES:
        for fl in ("r", "c"):
            M = model(name, fl)
            check_component_invariants(M, knit(M), (name, fl))
            components += 1
    print(f"criterion 6: PASS — invariant suite on {components} knitted components")


def test_criterion_7_axiom_fuzzing():
    rng = random.Random(0xE9)
    trials_per_p = 10_000
    accepted = rejected = 0
    for p in (2, 3, 5):
        for _ in range(trials_per_p):
            l, m, n = (rng.randint(1, p) for _ in range(3))
            rel = {("x", "x"): 1, ("y", "y"): 1, ("z", "z"): 1,
                   ("x", "y"): l, ("y", "z"): m, ("x", "z"): n}
            P = EquippedPoset(p, ("x", "y", "z"), frozenset(), rel)
            want = n >= min(l + m - 1, p)
            got = validate(P).ok
            assert got == want, (p, l, m, n)
            accepted += got
            rejected += not got
    assert accepted and rejected
    print(f"criterion 7: PASS — {3 * trials_per_p} random equipment triples, "
          f"{accepted} accepted / {rejected} rejected, all matching the bound")
