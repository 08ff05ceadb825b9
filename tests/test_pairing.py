"""Scaling maps and the component correspondence between the two flavors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALL_FIXTURES, TABLE_NAMES, load_table, model, table_mismatches
from eqposet import knit, map_s, map_s_inv, map_w, map_w_inv, pair_components
from eqposet.forms import RatVec
from eqposet.knitter import ArArrow
from eqposet.model import Label


def test_star2_coordinate_pairs():
    p, strengths = 2, (True, False, True)
    for rv, cv, label in [
        ((0, 0, 1), (0, 0, 2), Label.STRONG),
        ((0, 2, 2), (0, 1, 2), Label.WEAK),
        ((0, 2, 1), (0, 2, 2), Label.STRONG),
    ]:
        fwd = map_w_inv if label is Label.STRONG else map_s_inv
        assert fwd(p, strengths, RatVec.of(*rv)) == RatVec.of(*cv)


@given(st.data())
def test_scaling_map_identities(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(min_value=1, max_value=6))
    strengths = tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    v = RatVec.from_seq(data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n)))
    # the total directions: each inverse undoes its map, and s = p * w
    assert map_s_inv(p, strengths, map_s(p, strengths, v)) == v
    assert map_w(p, strengths, map_w_inv(p, strengths, v)) == v
    assert map_s(p, strengths, v) == map_w(p, strengths, v * p)
    assert map_s(p, strengths, map_w_inv(p, strengths, v)) == v * p


def test_scaling_maps_divide_exactly():
    strengths = (True, False, True)
    img = map_s_inv(2, strengths, RatVec.of(3, 4, 5))
    assert img.entries == (3, 2, 5) and all(type(e) is int for e in img)
    with pytest.raises(ValueError, match=r"^p = 2 does not divide \(3, 4, 5\)$"):
        map_w(2, strengths, RatVec.of(3, 4, 5))
    with pytest.raises(ValueError, match=r"^p = 3 does not divide \(3, 4, 5\)$"):
        map_s_inv(3, strengths, RatVec.of(3, 4, 5))


def test_strengths_of_matches_points():
    P = model("star2", "r").poset
    assert P.view.strong == (True, False, True)


def pair(name):
    Mr, Mc = model(name, "r"), model(name, "c")
    Gr, Gc = knit(Mr), knit(Mc)
    return Gr, Gc, Mr, Mc


def test_pairing_holds_on_every_fixture():
    for name in ALL_FIXTURES:
        Gr, Gc, Mr, Mc = pair(name)
        report = pair_components(Gr, Gc, Mr, Mc)
        assert report.ok, f"{name}: {report}"
        assert len(report.pairs) == len(Gr.vertices) == len(Gc.vertices)
        assert "correspondence holds" in str(report)


def test_pairing_detects_dimension_tampering():
    Gr, Gc, Mr, Mc = pair("star2")
    Gc.vertices[1].udimF = RatVec.of(0, 1, 3)
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert any("udimF law fails" in m for pc in report.pairs for m in pc.problems)
    assert "FAILS" in str(report)


def test_pairing_reports_non_integral_image():
    Gr, Gc, Mr, Mc = pair("star2")
    assert Gr.vertices[1].label is Label.WEAK and Gc.vertices[1].udimF == RatVec.of(0, 1, 2)
    Gr.vertices[1].udimF = RatVec.of(0, 3, 2)  # s^-1 halves the weak coordinate 3
    report = pair_components(Gr, Gc, Mr, Mc)
    assert [(pc.r_id, pc.problems) for pc in report.pairs if not pc.ok] == [
        (1, ["udimF law fails: p = 2 does not divide (0, 3, 2), got (0, 1, 2)"])]


def test_pairing_detects_label_tampering():
    Gr, Gc, Mr, Mc = pair("star3")
    Gc.vertices[2].label = Label.WEAK
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert any("labels differ" in m for pc in report.pairs for m in pc.problems)


def test_pairing_detects_valuation_tampering():
    Gr, Gc, Mr, Mc = pair("star2")
    a = Gc.arrows[0]
    Gc.arrows[0] = ArArrow(a.src, a.dst, a.b, a.a)
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert any("valuations do not swap" in m for pc in report.pairs for m in pc.problems)


def test_pairing_detects_flavor_r_valuation_tampering():
    """Pairing reads the flavor-r arrows from `arrows` itself, as it reads
    the flavor-c ones."""
    Gr, Gc, Mr, Mc = pair("star2")
    a = Gr.arrows[0]
    Gr.arrows[0] = ArArrow(a.src, a.dst, a.b, a.a)
    assert Gr.out_arrows(a.src) == [Gr.arrows[0]]
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert any("valuations do not swap" in m for pc in report.pairs for m in pc.problems)


def test_pairing_detects_status_mismatch():
    Mr, Mc = model("vee2", "r"), model("vee2", "c")
    Gr = knit(Mr, max_sections=3)
    Gc = knit(Mc, max_sections=4)
    report = pair_components(Gr, Gc, Mr, Mc)
    assert not report.ok
    assert any("section counts differ" in m for m in report.problems)


# ---------------------------------------------------------------- tables

def test_all_shipped_tables_pass():
    counts = {}
    for name in TABLE_NAMES:
        table = load_table(name)
        assert table_mismatches(table) == [], name
        counts[name] = len(table["pairs"])
    assert counts == {"twopoint2": 4, "twopoint3": 6, "chain3": 12,
                      "reorient3": 12, "wild3": 12}
    assert sum(counts.values()) == 46


def test_chain3_contains_named_pairs():
    table = load_table("chain3")
    got = {(tuple(q["r"]), tuple(q["c"])) for q in table["pairs"]}
    assert ((9, 21, 12), (3, 7, 12)) in got
    assert ((6, 15, 9), (2, 5, 9)) in got


def test_tampered_table_fails():
    table = load_table("chain3")
    table["pairs"][3] = dict(table["pairs"][3], c=[1, 1, 1])
    assert [m.split(":")[0] for m in table_mismatches(table)] == [table["pairs"][3]["pos"]]


def test_table_flags_non_integral_image():
    table = {"name": "bad", "p": 2, "strengths": ["weak"],
             "pairs": [{"pos": "X", "label": "Weak", "r": [1], "c": [1]}]}
    assert table_mismatches(table) == ["X: non-integral image of (1)"]
