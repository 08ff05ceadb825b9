"""Knitted components: golden graphs, truncation, grid reproduction."""

from collections import Counter
from dataclasses import replace

import pytest

from conftest import ALL_FIXTURES, fixture_path, load_fixture, load_table, model
from eqposet import (FINITE, TRUNCATED, Flavor, KnitError, Label, ParameterError, RatVec, build_model, cli,
                     default_tower, gram_matrix, injective_profiles, knit, knitter,
                     pair_components, parse_poset, projective_cd, projective_udimF,
                     radical_info, run_verification)
from eqposet.cli import emit_dot, emit_json
from eqposet.knitter import ArVertex


def snap(G):
    return {
        "status": G.status,
        "sections": [list(s) for s in G.sections],
        "vertices": [
            (i, v.kind, v.label.letter, v.udimF, v.udim, v.cd)
            for i, v in enumerate(G.vertices)
        ],
        "arrows": sorted((a.src, a.dst, a.a, a.b) for a in G.arrows),
    }


def test_star2_flavor_r():
    G = knit(model("star2", "r"))
    assert snap(G) == {
        "status": FINITE,
        "sections": [[0, 1], [2]],
        "vertices": [
            (0, "Projective(m)", "S", (0, 0, 1), (0, 0, 1), (1, 0, 1)),
            (1, "ProjectiveInjective(w,w)", "W", (0, 2, 2), (0, 1, 2), (2, 1, 0)),
            (2, "Injective(0)", "S", (0, 2, 1), (0, 1, 1), None),
        ],
        "arrows": [(0, 1, 2, 1), (1, 2, 1, 2)],
    }


def test_star2_flavor_c():
    G = knit(model("star2", "c"))
    assert snap(G) == {
        "status": FINITE,
        "sections": [[0, 1], [2]],
        "vertices": [
            (0, "Projective(m)", "S", (0, 0, 2), (0, 0, 1), (1, 0, 1)),
            (1, "ProjectiveInjective(w,w)", "W", (0, 1, 2), (0, 1, 1), (1, 1, 0)),
            (2, "Injective(0)", "S", (0, 2, 2), (0, 2, 1), None),
        ],
        "arrows": [(0, 1, 1, 2), (1, 2, 2, 1)],
    }


def test_star3_flavor_r():
    G = knit(model("star3", "r"))
    assert snap(G) == {
        "status": FINITE,
        "sections": [[0, 1], [2, 3], [4]],
        "vertices": [
            (0, "Projective(m)", "S", (0, 0, 1), (0, 0, 1), (1, 0, 1)),
            (1, "Projective(w)", "W", (0, 3, 3), (0, 1, 3), (3, 1, 0)),
            (2, "Regular", "S", (0, 3, 2), (0, 1, 2), None),
            (3, "Injective(w)", "W", (0, 6, 3), (0, 2, 3), None),
            (4, "Injective(0)", "S", (0, 3, 1), (0, 1, 1), None),
        ],
        "arrows": [(0, 1, 3, 1), (1, 2, 1, 3), (2, 3, 3, 1), (3, 4, 1, 3)],
    }


def test_twochain2_flavor_r():
    G = knit(model("twochain2", "r"))
    assert snap(G) == {
        "status": FINITE,
        "sections": [[0, 1, 2], [3, 4], [5]],
        "vertices": [
            (0, "Projective(m)", "S", (0, 0, 0, 1), (0, 0, 0, 1), (1, 0, 0, 1)),
            (1, "Projective(b)", "W", (0, 0, 2, 2), (0, 0, 1, 2), (2, 0, 1, 0)),
            (2, "ProjectiveInjective(a,b)", "W", (0, 2, 2, 2), (0, 1, 1, 2), (2, 1, 0, 0)),
            (3, "Regular", "S", (0, 0, 2, 1), (0, 0, 1, 1), None),
            (4, "Injective(a)", "W", (0, 2, 4, 2), (0, 1, 2, 2), None),
            (5, "Injective(0)", "S", (0, 2, 2, 1), (0, 1, 1, 1), None),
        ],
        "arrows": [(0, 1, 2, 1), (1, 2, 1, 1), (1, 3, 1, 2), (2, 4, 1, 1),
                   (3, 4, 2, 1), (4, 5, 1, 2)],
    }


def test_twochain2_flavor_c():
    G = knit(model("twochain2", "c"))
    assert snap(G) == {
        "status": FINITE,
        "sections": [[0, 1, 2], [3, 4], [5]],
        "vertices": [
            (0, "Projective(m)", "S", (0, 0, 0, 2), (0, 0, 0, 1), (1, 0, 0, 1)),
            (1, "Projective(b)", "W", (0, 0, 1, 2), (0, 0, 1, 1), (1, 0, 1, 0)),
            (2, "ProjectiveInjective(a,b)", "W", (0, 1, 1, 2), (0, 1, 1, 1), (1, 1, 0, 0)),
            (3, "Regular", "S", (0, 0, 2, 2), (0, 0, 2, 1), None),
            (4, "Injective(a)", "W", (0, 1, 2, 2), (0, 1, 2, 1), None),
            (5, "Injective(0)", "S", (0, 2, 2, 2), (0, 2, 2, 1), None),
        ],
        "arrows": [(0, 1, 1, 2), (1, 2, 1, 1), (1, 3, 2, 1), (2, 4, 1, 1),
                   (3, 4, 1, 2), (4, 5, 2, 1)],
    }


def test_chain3_ell2_flavor_r():
    G = knit(model("chain3_ell2", "r"))
    assert snap(G) == {
        "status": FINITE,
        "sections": [[0, 1], [2, 3, 4], [5, 6], [7, 8], [9]],
        "vertices": [
            (0, "Projective(m)", "S", (0, 0, 0, 1), (0, 0, 0, 1), (1, 0, 0, 1)),
            (1, "Projective(b)", "W", (0, 0, 3, 3), (0, 0, 1, 3), (3, 0, 1, 0)),
            (2, "Regular", "S", (0, 0, 3, 2), (0, 0, 1, 2), None),
            (3, "Regular", "W", (0, 0, 6, 3), (0, 0, 2, 3), (3, 0, 2, 0)),
            (4, "ProjectiveInjective(a,b)", "W", (0, 3, 6, 3), (0, 1, 2, 3), (3, 1, 0, 0)),
            (5, "Regular", "S", (0, 0, 3, 1), (0, 0, 1, 1), None),
            (6, "Regular", "W", (0, 3, 9, 3), (0, 1, 3, 3), None),
            (7, "Regular", "S", (0, 3, 6, 2), (0, 1, 2, 2), None),
            (8, "Injective(a)", "W", (0, 6, 9, 3), (0, 2, 3, 3), None),
            (9, "Injective(0)", "S", (0, 3, 3, 1), (0, 1, 1, 1), None),
        ],
        "arrows": [(0, 1, 3, 1), (1, 2, 1, 3), (2, 3, 3, 1), (3, 4, 1, 1),
                   (3, 5, 1, 3), (4, 6, 1, 1), (5, 6, 3, 1), (6, 7, 1, 3),
                   (7, 8, 3, 1), (8, 9, 1, 3)],
    }


def test_mixed3_flavor_r():
    G = knit(model("mixed3", "r"))
    assert snap(G) == {
        "status": FINITE,
        "sections": [[0, 1, 2], [3, 4], [5]],
        "vertices": [
            (0, "ProjectiveInjective(t,s)", "S", (0, 0, 0, 1), (0, 0, 0, 1), (1, 0, 0, 1)),
            (1, "Projective(s)", "S", (0, 0, 1, 1), (0, 0, 1, 1), (1, 0, 1, 0)),
            (2, "Projective(a)", "W", (0, 3, 3, 3), (0, 1, 3, 3), (3, 1, 0, 0)),
            (3, "Regular", "S", (0, 3, 2, 2), (0, 1, 2, 2), None),
            (4, "Injective(a)", "W", (0, 6, 3, 3), (0, 2, 3, 3), None),
            (5, "Injective(0)", "S", (0, 3, 1, 1), (0, 1, 1, 1), None),
        ],
        "arrows": [(0, 1, 1, 1), (1, 2, 3, 1), (2, 3, 1, 3), (3, 4, 3, 1),
                   (4, 5, 1, 3)],
    }


def test_twochain2_mixed_flavor_r():
    G = knit(model("twochain2_mixed", "r"))
    assert snap(G) == {
        "status": FINITE,
        "sections": [[0, 1, 2], [3]],
        "vertices": [
            (0, "ProjectiveInjective(t,s)", "S", (0, 0, 0, 1), (0, 0, 0, 1), (1, 0, 0, 1)),
            (1, "Projective(s)", "S", (0, 0, 1, 1), (0, 0, 1, 1), (1, 0, 1, 0)),
            (2, "ProjectiveInjective(a,a)", "W", (0, 2, 2, 2), (0, 1, 2, 2), (2, 1, 0, 0)),
            (3, "Injective(0)", "S", (0, 2, 1, 1), (0, 1, 1, 1), None),
        ],
        "arrows": [(0, 1, 1, 1), (1, 2, 2, 1), (2, 3, 1, 2)],
    }


def test_chain2_strong_both_flavors():
    Gr = knit(model("chain2_strong", "r"))
    assert snap(Gr) == {
        "status": FINITE,
        "sections": [[0, 1]],
        "vertices": [
            (0, "ProjectiveInjective(m,s)", "S", (0, 0, 1), (0, 0, 1), (1, 0, 1)),
            (1, "ProjectiveInjective(s,0)", "S", (0, 1, 1), (0, 1, 1), (1, 1, 0)),
        ],
        "arrows": [(0, 1, 1, 1)],
    }
    Gc = knit(model("chain2_strong", "c"))
    assert [v.udimF for v in Gc.vertices] == [(0, 0, 2), (0, 2, 2)]
    assert [(a.a, a.b) for a in Gc.arrows] == [(1, 1)]


def test_trivial_both_flavors():
    for fl, vec in (("r", (0, 1)), ("c", (0, 2))):
        G = knit(model("trivial", fl))
        assert G.status == FINITE
        assert len(G.vertices) == 1 and not G.arrows
        v = G.vertices[0]
        assert v.kind == "ProjectiveInjective(m,0)"
        assert v.udimF == vec


# ---------------------------------------------------------------- truncation

def test_truncation_status_and_depth():
    for name in ("vee2", "wide2", "chain3_ell1", "diamond3", "four3"):
        for fl in ("r", "c"):
            G = knit(model(name, fl))
            assert G.status == TRUNCATED, name
            assert len(G.sections) == 12


def test_truncation_prefix_property():
    M = model("chain3_ell1", "r")
    small = knit(M, max_sections=3)
    big = knit(M, max_sections=6)
    assert small.status == TRUNCATED
    assert [list(s) for s in big.sections][:3] == [list(s) for s in small.sections]
    small_ids = range(len(small.vertices))
    big_V = big.vertices
    for i, v in enumerate(small.vertices):
        assert big_V[i].udimF == v.udimF
        assert big_V[i].label == v.label
    for a in small.arrows:
        if a.src in small_ids and a.dst in small_ids:
            assert a in big.arrows


def test_knit_emit_and_pair_build_no_record_per_vertex(monkeypatch, capsys):
    """No src path constructs a RatVec or an ArVertex: on wide2, the model
    table, knit, both emitters and the pairing at 12 and 200 sections (800
    vertices a flavor), `info --forms` in both flavors, and a pairing that
    reports kinds that differ."""
    built = Counter()
    for cls in (RatVec, ArVertex):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)

    def run(sections):
        Mr, Mc = (build_model(load_fixture("wide2"), fl) for fl in ("r", "c"))
        Mr.table, Mc.table
        Gr, Gc = knit(Mr, sections), knit(Mc, sections)
        for G in (Gr, Gc):
            emit_json(G), emit_dot(G)
        assert pair_components(Gr, Gc, Mr, Mc).ok
        return sum(map(len, Gr.sections))

    assert (run(12), run(200)) == (48, 800)
    for fl in ("r", "c"):
        assert cli.main(["info", fixture_path("wide2"), "--forms", "--flavor", fl]) == 0
    assert "q on projectives:" in capsys.readouterr().out
    Mr, Mc = model("star2", "r"), model("star2", "c")
    Gr, Gc = knit(Mr), knit(Mc)
    Gc.inj_point[0] = "m"
    assert "kinds differ: Projective(m) vs ProjectiveInjective(m,m)" in str(pair_components(Gr, Gc, Mr, Mc))
    assert built == Counter()


def test_vertices_are_records_built_on_each_read():
    G = knit(model("star2", "r"))
    V = G.vertices
    assert [(i, v.kind, v.label, v.udimF, v.udim, v.cd) for i, v in enumerate(V)] == [
        (0, "Projective(m)", Label.STRONG, (0, 0, 1), (0, 0, 1), (1, 0, 1)),
        (1, "ProjectiveInjective(w,w)", Label.WEAK, (0, 2, 2), (0, 1, 2), (2, 1, 0)),
        (2, "Injective(0)", Label.STRONG, (0, 2, 1), (0, 1, 1), None)]
    V[1].udimF = (9, 9, 9)
    assert G.udimF[1] == (0, 2, 2) and G.vertices[1].udimF == (0, 2, 2)


def test_finite_component_ignores_max_sections():
    M = model("star2", "r")
    assert knit(M, max_sections=50).status == FINITE


def test_max_sections_argument_must_be_positive():
    with pytest.raises(ParameterError, match="^max_sections must be >= 1$"):
        knit(model("star2", "r"), max_sections=0)


# ---------------------------------------------------------------- grids

def test_chain3_ell1_reproduces_published_grids():
    """The knitted components carry the shipped correspondence grids in the
    coordinates above the adjoined minimum, section by section."""
    table = load_table("chain3")
    for fl, col in (("r", "r"), ("c", "c")):
        G = knit(model("chain3_ell1", fl), max_sections=4)
        got = []
        V = G.vertices
        for sec in G.sections:
            for i in sec:
                v = V[i]
                got.append((list(v.udimF[1:]), v.label.value))
        want = [(pair[col], pair["label"]) for pair in table["pairs"]]
        assert got == want


# ---------------------------------------------------------------- structure

def test_ids_and_sections_are_well_formed():
    for name in ALL_FIXTURES:
        for fl in ("r", "c"):
            G = knit(model(name, fl))
            n = len(G.vertices)
            flat = [i for sec in G.sections for i in sec]
            assert sorted(flat) == list(range(n))
            for a in G.arrows:
                assert a.src < a.dst
            V = G.vertices
            for k, sec in enumerate(G.sections):
                for i in sec:
                    assert V[i].section == k


def test_knit_is_deterministic():
    M = model("twochain2", "r")
    assert snap(knit(M)) == snap(knit(M))


def test_tau_inverse_preserves_labels():
    for name in ALL_FIXTURES:
        G = knit(model(name, "r"))
        for src, dst in G.tau_inv.items():
            assert G.labels[src] == G.labels[dst]


def all_ints(vec) -> bool:
    return all(type(e) is int for e in vec)


@pytest.mark.parametrize("sections", [12, 200])
@pytest.mark.parametrize("fl", ["r", "c"])
def test_vectors_hold_ints(fl, sections):
    """Knitted and model vectors hold Python ints, never a Fraction or a
    float, down to the deepest section."""
    for name in ALL_FIXTURES:
        M = model(name, fl)
        P = M.poset
        for i, v in enumerate(knit(M, max_sections=sections).vertices):
            vecs = [v.udimF, v.udim] + ([v.cd] if v.cd is not None else [])
            assert all(all_ints(vec) for vec in vecs), (name, i)
        for x in P.points:
            assert all_ints(projective_udimF(M, x))
            if x != P.zero:
                assert all_ints(projective_cd(M, x))
            if x != P.max:
                info = radical_info(M, x)
                assert all_ints(info.udimF) and all_ints(info.cd), (name, x)
        assert all(all_ints(pr.udimF) for pr in injective_profiles(M).values())


WEAK_2CHAIN_ELL2 = "p 2\npoint x0 weak\npoint x1 weak\nrel x0 x1 2\nclosure\naugment\n"


def test_weak_chain_at_ell_p_knits_in_both_flavors():
    """x0 is weak with ell = p above it, so flavor r splits rad(e_x0 A) into
    p copies; the model, the knit, the pairing and the oracle then agree."""
    P = parse_poset(WEAK_2CHAIN_ELL2)
    Mr, Mc = build_model(P, Flavor.R), build_model(P, Flavor.C)
    info = radical_info(Mr, "x0")
    assert (info.multiplicity, info.label) == (2, Label.STRONG)
    assert pair_components(knit(Mr), knit(Mc), Mr, Mc).ok
    for M in (Mr, Mc):
        rep = run_verification(M, default_tower(2))
        assert rep.ok, str(rep)


def test_negative_mesh_reports_integer_vector(monkeypatch):
    """The mesh error names the integer vector it produced.  It is reached
    through the flavor-r radical of x0 that takes one copy of the summand
    hom(x0, -) instead of p copies of hom(0, -)."""
    P = parse_poset(WEAK_2CHAIN_ELL2)
    M = build_model(P, Flavor.R)

    def one_copy(M, x):
        info = radical_info(M, x)
        if x != "x0":
            return info
        above = [M.hom_dim(x, y) if (x, y) in P.rel and y != x else 0 for y in P.points]
        return replace(info, multiplicity=1, udimF=tuple(above),
                       cd=tuple(info.multiplicity * e for e in info.cd))

    monkeypatch.setattr(knitter, "radical_info", one_copy)
    with pytest.raises(KnitError) as exc:
        knit(M)
    assert str(exc.value) == \
        "mesh at vertex 2 failed: mesh produced a bad dimension vector (0, 0, -2, -1)"


def hom_edited(name, fl, i, j, delta):
    """The model of a fixture with one hom-table entry changed by delta."""
    M = model(name, fl)
    hom = [list(row) for row in M.hom]
    hom[i][j] += delta
    return replace(M, hom=tuple(map(tuple, hom)))


@pytest.mark.parametrize("M, message", [
    pytest.param(hom_edited("star2", "r", 1, 0, 1),
                 "mesh at vertex 1 failed: dimension vector (1, 2, 0) misses the socle",
                 id="socle"),
    pytest.param(hom_edited("trivial", "c", 1, 0, 1),
                 "dimension vector (1, 2) is not divisible by the local dimensions",
                 id="divisibility"),
])
def test_bad_vertex_reports_its_vector(M, message):
    """A hom table with e_w A reaching 0 gives a mesh vector without socle;
    one with e_m A reaching 0 gives a root that the local dimension 2 does
    not divide."""
    with pytest.raises(KnitError) as exc:
        knit(M)
    assert str(exc.value) == message


def test_vertex_identity_collision_is_an_error(monkeypatch):
    """A model whose projective at s has the dimension vector of the root:
    placing it would merge two vertices of the same label."""
    M = model("chain2_strong", "r")
    root_for_s = lambda M, x: projective_udimF(M, M.poset.max if x == "s" else x)
    monkeypatch.setattr(knitter, "projective_udimF", root_for_s)
    with pytest.raises(KnitError) as exc:
        knit(M)
    assert str(exc.value) == "vertex identity collision at (0, 0, 1) Strong"


def tampered_radical(point, **changes):
    """radical_info with the fields in `changes` replaced at one point."""
    def info(M, x):
        real = radical_info(M, x)
        return replace(real, **changes) if x == point else real
    return info


@pytest.mark.parametrize("changes, message", [
    pytest.param({"is_projective": None},
                 "radical of s matches projective m by dimensions but not by equipment",
                 id="equipment"),
    pytest.param({"multiplicity": 2},
                 "arrow valuation 1 disagrees with radical multiplicity 2 at s",
                 id="multiplicity"),
    pytest.param({"cd": (9, 9, 9)},
                 "coordinate vector mismatch at vertex 0: (1, 0, 1) vs (9, 9, 9)",
                 id="coordinates"),
])
def test_attach_checks_the_radical_against_its_summand(monkeypatch, changes, message):
    """rad(e_s A) is the root e_m A on chain2_strong; a radical that names
    no projective, another multiplicity or other coordinates than the root's
    stops the knit when e_s A is attached."""
    monkeypatch.setattr(knitter, "radical_info", tampered_radical("s", **changes))
    with pytest.raises(KnitError) as exc:
        knit(model("chain2_strong", "r"))
    assert str(exc.value) == message


MINIMUM_SECOND = "p 2\npoint a weak\npoint z strong\npoint m strong\nrel z a 2\nrel a m 2\nrel z m 2\n"
MINIMUM_FIRST = "p 2\npoint z strong\npoint a weak\npoint m strong\nrel z a 2\nrel a m 2\nrel z m 2\n"


def test_strong_minimum_need_not_be_declared_first():
    """Without `augment`, a file may declare its strong minimum z after
    another point.  Both declaration orders give the same radicals,
    injective profiles, Gram matrix, components and pairing verdict, up to
    the order of the coordinates."""
    late, early = parse_poset(MINIMUM_SECOND), parse_poset(MINIMUM_FIRST)
    assert late.zero == early.zero == "z" and late.index["z"] == 1
    perm = [late.index[x] for x in early.points]

    def moved(vec):
        """A vector of `late` in the coordinate order of `early`."""
        return None if vec is None else tuple(vec[i] for i in perm)

    def kept(vec):
        return vec

    def shape(G, move):
        return (G.status, G.sections, G.tau_inv, sorted((a.src, a.dst, a.a, a.b) for a in G.arrows),
                [(v.kind, v.label, v.section, move(v.udimF), move(v.udim), move(v.cd))
                 for v in G.vertices])

    models = {}
    for fl in ("r", "c"):
        Ml, Me = build_model(late, fl), build_model(early, fl)
        models[fl] = Ml, Me
        for x in ("z", "a"):
            rad_l, rad_e = radical_info(Ml, x), radical_info(Me, x)
            assert (rad_l.multiplicity, rad_l.label, rad_l.is_projective) == \
                (rad_e.multiplicity, rad_e.label, rad_e.is_projective)
            assert (moved(rad_l.udimF), moved(rad_l.cd)) == (kept(rad_e.udimF), kept(rad_e.cd))
        assert {x: moved(pr.udimF) for x, pr in injective_profiles(Ml).items()} == \
            {x: kept(pr.udimF) for x, pr in injective_profiles(Me).items()}
        Bl, Be = gram_matrix(Ml), gram_matrix(Me)
        assert [[Bl[i][j] for j in perm] for i in perm] == [list(row) for row in Be]
        assert shape(knit(Ml), moved) == shape(knit(Me), kept)
    reports = [pair_components(knit(Mr), knit(Mc), Mr, Mc)
               for Mr, Mc in zip(models["r"], models["c"])]
    assert reports[0].ok and str(reports[0]) == str(reports[1])
