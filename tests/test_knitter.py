"""Knitted components: golden graphs, truncation, grid reproduction."""

import json
from collections import Counter
from dataclasses import fields, replace

import pytest

from conftest import (ALL_FIXTURES, DEEP_P5, fixture_path, load_fixture, load_fixture_or_deep, load_table, model,
                      tau_inverse)
from eqposet import (FINITE, TRUNCATED, Flavor, KnitError, Label, ParameterError, RatVec, build_model, cli,
                     default_tower, gram_matrix, injective_profiles, knit, knitter,
                     pair_components, parse_poset, projective_cd, projective_udimF,
                     radical_info, run_verification)
from eqposet.cli import emit_dot, emit_json
from eqposet.knitter import ArVertex, _kind


def snap(G):
    return {
        "status": G.status,
        "sections": [list(s) for s in G.sections],
        "vertices": [
            (i, _kind(v.proj_point, v.inj_point), v.label.letter, v.udimF, v.udim, v.cd)
            for i, v in enumerate(G.vertices)
        ],
        "arrows": sorted(G.arrows),
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
    assert [(a, b) for _, _, a, b in Gc.arrows] == [(1, 1)]


def test_trivial_both_flavors():
    for fl, vec in (("r", (0, 1)), ("c", (0, 2))):
        G = knit(model("trivial", fl))
        assert G.status == FINITE
        assert len(G.vertices) == 1 and not G.arrows
        v = G.vertices[0]
        assert _kind(v.proj_point, v.inj_point) == "ProjectiveInjective(m,0)"
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
        if a[0] in small_ids and a[1] in small_ids:
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
    assert [(i, _kind(v.proj_point, v.inj_point), v.label, v.udimF, v.udim, v.cd)
            for i, v in enumerate(V)] == [
        (0, "Projective(m)", Label.STRONG, (0, 0, 1), (0, 0, 1), (1, 0, 1)),
        (1, "ProjectiveInjective(w,w)", Label.WEAK, (0, 2, 2), (0, 1, 2), (2, 1, 0)),
        (2, "Injective(0)", Label.STRONG, (0, 2, 1), (0, 1, 1), None)]
    V[1].udimF = (9, 9, 9)
    assert G.udimF[1] == (0, 2, 2) and G.vertices[1].udimF == (0, 2, 2)


def test_finite_component_ignores_max_sections():
    M = model("star2", "r")
    assert knit(M, max_sections=50).status == FINITE


@pytest.mark.parametrize("depth, text", [(0, ">= 1"), (1.5, "an int, not float"), (2.9, "an int, not float"),
                                         ("3", "an int, not str")])
def test_max_sections_argument_must_be_a_positive_int(depth, text):
    """A depth below 1 or not an int is refused, not rounded up or compared."""
    with pytest.raises(ParameterError, match=f"^max_sections must be {text}$"):
        knit(model("vee2", "r"), max_sections=depth)


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
            for src, dst, _, _ in G.arrows:
                assert src < dst
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
        for src, dst in tau_inverse(G).items():
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
                _, (ent, _), cd, _ = radical_info(M, x)
                assert all_ints(ent) and all_ints(cd), (name, x)
        assert all(all_ints(ent) for ent, _ in injective_profiles(M).values())


@pytest.mark.parametrize("sections", [12, 200])
@pytest.mark.parametrize("fl", ["r", "c"])
def test_arrows_and_injective_profiles_are_plain_tuples(fl, sections):
    """Every arrow is a plain tuple (src, dst, a, b) of ints, and each
    injective vertex's identity (udimF, label) is its point's profile."""
    for name in ALL_FIXTURES:
        M = model(name, fl)
        G = knit(M, max_sections=sections)
        assert all(type(a) is tuple and len(a) == 4 and all_ints(a) for a in G.arrows), name
        profiles = injective_profiles(M)
        for v, x in enumerate(G.inj_point):
            if x is not None:
                assert profiles[x] == (G.udimF[v], G.labels[v]), (name, v)


@pytest.mark.parametrize("sections", [12, 200])
@pytest.mark.parametrize("fl", ["r", "c"])
def test_udim_is_udimF_over_the_local_dimensions(fl, sections):
    """A component stores one tuple of local dimensions, the model's hom
    diagonal; it divides every udimF entry exactly, and each vertex record's
    udim is the quotient."""
    for name in ALL_FIXTURES + DEEP_P5:
        M = build_model(load_fixture_or_deep(name), fl)
        G = knit(M, max_sections=sections)
        assert type(G.local) is tuple and G.local == tuple(M.hom[i][i] for i in range(M.poset.n)), name
        for i, (v, ent) in enumerate(zip(G.vertices, G.udimF, strict=True)):
            assert all(e % loc == 0 for e, loc in zip(ent, G.local, strict=True)), (name, i)
            assert v.udim == tuple(e // loc for e, loc in zip(ent, G.local)), (name, i)


def _check_read_off_sections(G, where) -> None:
    """Each vertex's section, in `vertices` and in the JSON, is the index of
    the section listing its id; the status, in the graph and in the JSON, is
    Finite exactly when every vertex of the last section has an injective point."""
    listed = sorted((i, k) for k, ids in enumerate(G.sections) for i in ids)
    assert [i for i, _ in listed] == list(range(len(G.labels))), where
    want = [k for _, k in listed]
    status = FINITE if all(G.inj_point[x] is not None for x in G.sections[-1]) else TRUNCATED
    assert [v.section for v in G.vertices] == want and G.status == status, where
    got = json.loads(emit_json(G))
    assert [v["section"] for v in got["vertices"]] == want and got["status"] == status, where


@pytest.mark.parametrize("sections", [12, 200])
@pytest.mark.parametrize("fl", ["r", "c"])
def test_section_and_status_are_read_off_the_sections(fl, sections):
    """`sections` is the one store of a vertex's section and of the status:
    they follow it on every knitted graph, and still follow it after an empty
    section is put in front (every vertex moves one section on) and after the
    last section's injective points change (the status flips)."""
    for name in ALL_FIXTURES + DEEP_P5:
        G = knit(build_model(load_fixture_or_deep(name), fl), max_sections=sections)
        assert not {"section_of", "status"} & {f.name for f in fields(G)}, name
        _check_read_off_sections(G, name)
        G.sections.insert(0, [])
        _check_read_off_sections(G, (name, "shifted"))
        last, finite = G.sections[-1], G.status == FINITE
        for x in last[:1] if finite else last:
            G.inj_point[x] = None if finite else G.inj_point[x] or "m"
        assert G.status == (TRUNCATED if finite else FINITE), name
        _check_read_off_sections(G, (name, "flipped"))


def test_status_cannot_be_assigned():
    G = knit(model("star2", "r"))
    with pytest.raises(AttributeError):
        G.status = TRUNCATED
    assert G.status == FINITE


@pytest.mark.parametrize("sections", [12, 200])
@pytest.mark.parametrize("fl", ["r", "c"])
def test_radical_is_a_tuple_naming_its_summand_vertex(fl, sections):
    """radical_info(M, j) is the plain tuple (multiplicity, (udimF, label),
    cd, is_projective); its identity is that of the vertex z whose arrow
    attaches e_j A, the arrow's first valuation is the multiplicity and cd
    is z's coordinate vector."""
    for name in ALL_FIXTURES + DEEP_P5:
        M = build_model(load_fixture_or_deep(name), fl)
        G = knit(M, max_sections=sections)
        into = {}
        for s, d, a, _ in G.arrows:
            into.setdefault(d, []).append((s, a))
        for pj, j in enumerate(G.proj_point):
            if j is None or j == M.poset.max:
                continue
            info = radical_info(M, j)
            assert type(info) is tuple and len(info) == 4 and type(info[1]) is tuple, (name, j)
            mult, ident, cd, _ = info
            [(z, a)] = into[pj]
            assert ident == (G.udimF[z], G.labels[z]) and a == mult and cd == G.cd[z], (name, j)


WEAK_2CHAIN_ELL2 = "p 2\npoint x0 weak\npoint x1 weak\nrel x0 x1 2\nclosure\naugment\n"


def test_weak_chain_at_ell_p_knits_in_both_flavors():
    """x0 is weak with ell = p above it, so flavor r splits rad(e_x0 A) into
    p copies; the model, the knit, the pairing and the oracle then agree."""
    P = parse_poset(WEAK_2CHAIN_ELL2)
    Mr, Mc = build_model(P, Flavor.R), build_model(P, Flavor.C)
    mult, (_, lab), _, _ = radical_info(Mr, "x0")
    assert (mult, lab) == (2, Label.STRONG)
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
        mult, (_, lab), cd, proj = info
        above = [M.hom_dim(x, y) if (x, y) in P.rel and y != x else 0 for y in P.points]
        return 1, (tuple(above), lab), tuple(mult * e for e in cd), proj

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


RADICAL_FIELDS = ("multiplicity", "identity", "cd", "is_projective")   # radical_info's tuple


def tampered_radical(point, **changes):
    """radical_info with the entries named in `changes` replaced at one point."""
    def info(M, x):
        real = radical_info(M, x)
        if x != point:
            return real
        return tuple(changes.get(k, v) for k, v in zip(RADICAL_FIELDS, real, strict=True))
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
        return (G.status, G.sections, sorted(G.arrows),
                [(_kind(v.proj_point, v.inj_point), v.label, v.section, move(v.udimF), move(v.udim),
                  move(v.cd)) for v in G.vertices])

    models = {}
    for fl in ("r", "c"):
        Ml, Me = build_model(late, fl), build_model(early, fl)
        models[fl] = Ml, Me
        for x in ("z", "a"):
            (mult_l, (ent_l, lab_l), cd_l, proj_l), (mult_e, (ent_e, lab_e), cd_e, proj_e) = (
                radical_info(Ml, x), radical_info(Me, x))
            assert (mult_l, lab_l, proj_l) == (mult_e, lab_e, proj_e)
            assert (moved(ent_l), moved(cd_l)) == (kept(ent_e), kept(cd_e))
        assert {x: moved(ent) for x, (ent, _) in injective_profiles(Ml).items()} == \
            {x: kept(ent) for x, (ent, _) in injective_profiles(Me).items()}
        Bl, Be = gram_matrix(Ml), gram_matrix(Me)
        assert [[Bl[i][j] for j in perm] for i in perm] == [list(row) for row in Be]
        assert shape(knit(Ml), moved) == shape(knit(Me), kept)
    reports = [pair_components(knit(Mr), knit(Mc), Mr, Mc)
               for Mr, Mc in zip(models["r"], models["c"])]
    assert reports[0].ok and str(reports[0]) == str(reports[1])
