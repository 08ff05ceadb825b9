"""The component correspondence between the two flavors, and the stored grids."""

import pytest

from conftest import check_component_invariants, load_table, model, table_mismatches
from eqposet import FINITE, TRUNCATED, Flavor, build_model, knit, pair_components, parse_poset
from eqposet.model import Label


def test_strengths_of_matches_points():
    P = model("star2", "r").poset
    assert P.view.strong == (True, False, True)


def pair(name):
    Mr, Mc = model(name, "r"), model(name, "c")
    Gr, Gc = knit(Mr), knit(Mc)
    return Gr, Gc, Mr, Mc


def test_pairing_detects_dimension_tampering():
    Gr, Gc, Mr, Mc = pair("star2")
    Gc.udimF[1] = (0, 1, 4)
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert any("udimF law fails" in m for fails in report.failures.values() for m in fails)
    assert "FAILS" in str(report)


def test_pairing_reports_non_integral_image():
    """At a Weak pair, p = 2 and loc_c(w) = 1, so the udimF law at the weak point w
    reads 2*c = r: an odd r has no integer c.  As loc_r(w) = 2, an odd r is not
    divisible by its local dimension either, and that check stops the pairing
    before any pair is compared."""
    Gr, Gc, Mr, Mc = pair("star2")
    assert Gr.labels[1] is Label.WEAK and Gc.udimF[1] == (0, 1, 2)
    assert pair_components(Gr, Gc, Mr, Mc).ok
    Gr.udimF[1] = (0, 3, 2)
    report = pair_components(Gr, Gc, Mr, Mc)
    assert str(report) == ("component mismatch: r#1 udimF (0, 3, 2) is not divisible by the local "
                           "dimensions (1, 2, 1)\ncorrespondence FAILS")


def test_pairing_stops_at_udimF_its_local_dimensions_do_not_divide():
    """Both flavors tampered at vertex 0 so that the udimF law holds, 1*c = loc_c*r
    entrywise, while flavor r's entry 3 at w is odd over loc_r(w) = 2: its udim
    would be a floor.  The pairing names the vertex and compares no pair."""
    Gr, Gc, Mr, Mc = pair("star2")
    Gr.udimF[0], Gc.udimF[0] = (0, 3, 1), (0, 3, 2)
    assert Gr.vertices[0].udim == (0, 1, 1)
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.pairs and not report.failures
    assert str(report) == ("component mismatch: r#0 udimF (0, 3, 1) is not divisible by the local "
                           "dimensions (1, 2, 1)\ncorrespondence FAILS")


def test_pairing_reports_entries_past_the_int_digit_limit(default_digit_limit):
    Gr, Gc, Mr, Mc = pair("star2")
    Gc.udimF[1] = (0, 10 ** 4400, 2)
    report = pair_components(Gr, Gc, Mr, Mc)
    assert report.failures == {1: [f"udimF law fails at w: 2*1{'0' * 4400} (c) != 1*2 (r)"]}


def test_pairing_refuses_models_on_different_posets():
    Gr, Gc, Mr, _ = pair("star2")
    report = pair_components(Gr, Gc, Mr, model("chain2_strong", "c"))
    assert str(report) == "component mismatch: models live on different posets\ncorrespondence FAILS"
    # two posets that share their point names: the components pair id for id
    # with every law holding, so only the posets tell them apart
    P1 = parse_poset("p 2\npoint x0 weak\npoint x1 weak\npoint x2 weak\n"
                     "rel x0 x1 1\nrel x0 x2 1\naugment\n")
    P2 = parse_poset("p 2\npoint x0 strong\npoint x1 weak\npoint x2 weak\nrel x0 x2 2\naugment\n")
    assert P1.points == P2.points
    Mr, Mc = build_model(P1, Flavor.R), build_model(P2, Flavor.C)
    report = pair_components(knit(Mr, max_sections=12), knit(Mc, max_sections=12), Mr, Mc)
    assert str(report) == "component mismatch: models live on different posets\ncorrespondence FAILS"


def test_pairing_refuses_swapped_models():
    """The laws read flavor r's kdim from Mr, so the models must come in the order r, c."""
    Gr, Gc, Mr, Mc = pair("star2")
    report = pair_components(Gr, Gc, Mc, Mr)
    assert str(report) == ("component mismatch: models are flavors c and r, not r and c\n"
                           "correspondence FAILS")
    assert str(pair_components(Gr, Gc, Mr, Mr)).startswith(
        "component mismatch: models are flavors r and r, not r and c\n")


def test_pairing_detects_label_tampering():
    Gr, Gc, Mr, Mc = pair("star3")
    Gc.labels[2] = Label.WEAK
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert any("labels differ" in m for fails in report.failures.values() for m in fails)


def test_pairing_detects_valuation_tampering():
    Gr, Gc, Mr, Mc = pair("star2")
    s, d, a, b = Gc.arrows[0]
    Gc.arrows[0] = (s, d, b, a)
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert any("valuations do not swap" in m for fails in report.failures.values() for m in fails)


def test_pairing_detects_flavor_r_valuation_tampering():
    """Pairing reads the flavor-r arrows from `arrows` itself, as it reads
    the flavor-c ones."""
    Gr, Gc, Mr, Mc = pair("star2")
    s, d, a, b = Gr.arrows[0]
    Gr.arrows[0] = (s, d, b, a)
    assert Gr.out_arrows(s) == [Gr.arrows[0]]
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert any("valuations do not swap" in m for fails in report.failures.values() for m in fails)


def test_pairing_detects_status_mismatch():
    Mr, Mc = model("vee2", "r"), model("vee2", "c")
    Gr = knit(Mr, max_sections=3)
    Gc = knit(Mc, max_sections=4)
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert any("section counts differ" in m for m in report.problems)


def _posets_at(p):
    """Weak chains of 2-4 points with ell 1, 2 and p, an antichain of three
    weak points, and a weak point on each side of an inner strong point."""
    def weak_chain(n, ell):
        return "".join(f"point x{i} weak\n" for i in range(n)) + "".join(
            f"rel x{i} x{i + 1} {ell}\n" for i in range(n - 1))
    bodies = [weak_chain(n, ell) for n in (2, 3, 4) for ell in (1, 2, p)]
    bodies += ["point a weak\npoint b weak\npoint c weak\n",
               f"point a weak\npoint s strong\npoint b weak\nrel a s {p}\nrel s b {p}\n"]
    return [parse_poset(f"p {p}\n{body}closure\naugment\n") for body in bodies]


@pytest.mark.parametrize("p", [7, 11, 13])
def test_knit_and_pair_above_p5(p):
    """Both flavors knit to well-formed components that pair, at 12 and 60
    sections, for primes past the fixtures' 2 and 3 and the sweeps' 5."""
    for P in _posets_at(p):
        Mr, Mc = build_model(P, Flavor.R), build_model(P, Flavor.C)
        for sections in (12, 60):
            Gr, Gc = knit(Mr, max_sections=sections), knit(Mc, max_sections=sections)
            for M, G in ((Mr, Gr), (Mc, Gc)):
                check_component_invariants(M, G, (P, M.flavor.value, sections))
            report = pair_components(Gr, Gc, Mr, Mc)
            assert report.ok and len(report.pairs) == len(Gr.labels) > 0, (P, sections, str(report))


def _ok_pairs(*ids):
    return "".join(f"pair r#{i} <-> c#{i}: ok\n" for i in ids)


def _drop_last_injective(G):
    """Vertex 2, the one vertex of star2's last section, loses its injective
    point: the status, read off that section, turns to truncated."""
    assert G.sections[-1] == [2] and G.status == FINITE
    G.inj_point[2] = None
    assert G.status == TRUNCATED


@pytest.mark.parametrize("name, max_sections, flavor, tamper, text", [
    ("star2", 12, "c", _drop_last_injective,
     _ok_pairs(0, 1) + "pair r#2 <-> c#2: FAIL\n    kinds differ: Injective(0) vs Regular\n"),
    ("vee2", 2, "c", lambda G: G.sections[1].reverse(),
     "component mismatch: section 1 ids differ: [3, 4, 5] vs [5, 4, 3]\n"),
    ("star2", 12, "c", lambda G: G.inj_point.__setitem__(0, "m"),
     "pair r#0 <-> c#0: FAIL\n    kinds differ: Projective(m) vs ProjectiveInjective(m,m)\n"
     + _ok_pairs(1, 2)),
    ("star2", 12, "c", lambda G: G.proj_point.__setitem__(1, None),
     _ok_pairs(0) + "pair r#1 <-> c#1: FAIL\n    kinds differ: ProjectiveInjective(w,w) vs Injective(w)\n"
     + _ok_pairs(2)),
    ("star2", 12, "c", lambda G: G.arrows.pop(1),
     _ok_pairs(0) + "pair r#1 <-> c#1: FAIL\n    arrow 1->2 has no counterpart\n"
     + _ok_pairs(2)),
    ("star2", 12, "c", lambda G: G.arrows.append((2, 0, 1, 1)),
     _ok_pairs(0, 1) + "pair r#2 <-> c#2: FAIL\n    extra flavor-c arrow 2->0\n"),
    ("star2", 12, "c", lambda G: setattr(G, "local", (2, 2, 2)),
     "component mismatch: c local dimensions (2, 2, 2), not the poset's (2, 1, 2)\n"),
    ("star2", 12, "r", lambda G: setattr(G, "local", (1, 2)),
     "component mismatch: r local dimensions (1, 2), not the poset's (1, 2, 1)\n"),
    ("star2", 12, "r", lambda G: G.udimF.__setitem__(0, (0, 3, 1)),
     "component mismatch: r#0 udimF (0, 3, 1) is not divisible by the local dimensions (1, 2, 1)\n"),
    ("star2", 12, "c", lambda G: G.udimF.__setitem__(2, (0, 2, 1)),
     "component mismatch: c#2 udimF (0, 2, 1) is not divisible by the local dimensions (2, 1, 2)\n"),
    ("star2", 12, "c", lambda G: G.udimF.__setitem__(0, (0, 2)),
     "pair r#0 <-> c#0: FAIL\n    udimF law fails: (0, 0, 1) vs (0, 2), not both of length 3\n"
     + _ok_pairs(1, 2)),
    ("star2", 12, "c", lambda G: G.udimF.__setitem__(0, (2,)),
     "pair r#0 <-> c#0: FAIL\n    udimF law fails: (0, 0, 1) vs (2), not both of length 3\n"
     + _ok_pairs(1, 2)),
    ("star2", 12, "c", lambda G: G.labels.pop(),
     "component mismatch: per-vertex lists not of 3 entries, one per id: c labels (2)\n"),
    ("star2", 12, "c", lambda G: G.cd.pop(),
     "component mismatch: per-vertex lists not of 3 entries, one per id: c cd (2)\n"),
    ("star2", 12, "r", lambda G: G.arrows.append((3, 0, 1, 1)),
     "component mismatch: r arrow 3->0 ends outside the ids 0..2\n"),
    ("star2", 12, "c", lambda G: G.arrows.append((3, 0, 1, 1)),
     "component mismatch: c arrow 3->0 ends outside the ids 0..2\n"),
    ("star2", 12, "c", lambda G: G.arrows.append((0, 3, 1, 1)),
     "component mismatch: c arrow 0->3 ends outside the ids 0..2\n"),
    ("star2", 12, "c", lambda G: G.arrows.append(G.arrows[0]),
     "component mismatch: c arrow 0->1 occurs 2 times\n"),
    ("star2", 12, "r", lambda G: G.arrows.extend([G.arrows[0], G.arrows[0], G.arrows[1]]),
     "component mismatch: r arrow 0->1 occurs 3 times\n"
     "component mismatch: r arrow 1->2 occurs 2 times\n"),
], ids=["last_section_injective", "section", "kind", "kind_proj_point", "missing_arrow",
        "extra_arrow", "local_c", "local_r", "udimF_not_divisible_r", "udimF_not_divisible_c",
        "udimF_length", "udimF_one_entry", "short_labels", "short_cd", "stray_arrow_r", "stray_arrow_c",
        "stray_arrow_dst", "repeated_arrow_c", "repeated_arrow_r"])
def test_pairing_reports_each_id_mismatch(name, max_sections, flavor, tamper, text):
    """Each check of the id-for-id pairing, failed once on a tampered graph of
    the flavor given, with its full report."""
    Mr, Mc = model(name, "r"), model(name, "c")
    Gr, Gc = knit(Mr, max_sections=max_sections), knit(Mc, max_sections=max_sections)
    assert pair_components(Gr, Gc, Mr, Mc).ok
    tamper({"r": Gr, "c": Gc}[flavor])
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert str(report) == text + "correspondence FAILS"


# ---------------------------------------------------------------- tables

def test_tampered_table_fails():
    table = load_table("chain3")
    table["pairs"][3] = dict(table["pairs"][3], c=[1, 1, 1])
    assert [m.split(":")[0] for m in table_mismatches(table)] == [table["pairs"][3]["pos"]]


def test_table_flags_non_integral_image():
    table = {"name": "bad", "p": 2, "strengths": ["weak"],
             "pairs": [{"pos": "X", "label": "Weak", "r": [1], "c": [1]}]}
    assert table_mismatches(table) == ["X: non-integral image of (1)"]
