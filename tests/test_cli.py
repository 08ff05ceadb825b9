"""Command-line driver: exit codes, JSON/DOT output, option handling.

Run as a script (`PYTHONPATH=src python tests/test_cli.py --record`) to
re-record the stdout digests in data/cli_digests.json; `python
perfbench/goldens.py` re-records the benchmark's goldens, which the tests
here check too.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import random
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (ALL_FIXTURES, SRC, assert_meshes, fixture_path, load_fixture, model, run_python,
                      tau_inverse)
from eqposet import (EquippedPoset, Flavor, augment, build_model, cli, knit,
                     min_equipment_closure, parse_poset, validate)
from eqposet.cli import build_parser, emit_dot, emit_json, main
from eqposet.knitter import ComponentGraph, _kind
from eqposet.model import Label

sys.path.insert(0, str(SRC.parent / "perfbench"))
from execute import run_case  # noqa: E402
from goldens import golden_cases  # noqa: E402

BAD_POSET = """\
p 3
point x weak
point y weak
point z weak
rel x y 2
rel y z 2
rel x z 1
"""


@pytest.fixture
def bad_file(tmp_path):
    f = tmp_path / "bad.eqp"
    f.write_text(BAD_POSET)
    return str(f)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_validate_ok(capsys, name):
    assert main(["validate", fixture_path(name)]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_reports_violation(capsys, bad_file):
    assert main(["validate", bad_file]) == 1
    out = capsys.readouterr().out
    assert "violation" in out
    assert "x, y, z" in out  # the witness triple


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file.eqp"]) == 2
    assert "error" in capsys.readouterr().err


def test_knit_rejects_invalid_poset(capsys, bad_file):
    assert main(["knit", bad_file]) == 2
    assert "error" in capsys.readouterr().err


def test_knit_missing_file(capsys):
    assert main(["knit", "/no/such/file.eqp"]) == 2
    assert "error" in capsys.readouterr().err


def reference_dict(G) -> dict:
    """The JSON schema of a component, as a dict in key order: json.dumps of
    it with indent=2 gives the bytes emit_json must write."""
    vertices = []
    for i, v in enumerate(G.vertices):
        entry = {
            "id": i,
            "section": v.section,
            "kind": _kind(v.proj_point, v.inj_point),
            "label": v.label.value,
            "udimF": [str(e) for e in v.udimF],
            "udim": [str(e) for e in v.udim],
        }
        if v.cd is not None:
            entry["cd"] = [str(e) for e in v.cd]
        vertices.append(entry)
    arrows = [{"src": s, "dst": d, "a": a, "b": b}
              for s, d, a, b in sorted(G.arrows, key=lambda a: (a[0], a[1]))]
    return {
        "flavor": G.flavor,
        "status": G.status,
        "sections": [list(s) for s in G.sections],
        "vertices": vertices,
        "arrows": arrows,
    }


def reference_json(G) -> str:
    return json.dumps(reference_dict(G), indent=2) + "\n"


# one name per (p, inner points) stratum of perfbench's knit workload
GENERATED = [f"p{p}-n{n}" for p in (2, 3, 5) for n in range(2, 9)]


@functools.cache
def _gen():
    """perfbench/gen.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", SRC.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def generated_poset(name: str) -> EquippedPoset:
    """The first random poset of the stratum `name`, drawn from a seed fixed by the name."""
    p, n = (int(t[1:]) for t in name.split("-"))
    return parse_poset(_gen().random_poset(random.Random(name), p, n, 0))


@pytest.mark.parametrize("name", ALL_FIXTURES + GENERATED)
def test_emit_json_matches_json_dumps(name):
    """emit_json writes the bytes of json.dumps(..., indent=2) at every depth,
    truncated or finite, on the fixtures and on a generated poset of each
    stratum of the knit workload."""
    if name in GENERATED:
        P, depths = generated_poset(name), (12, 200)
    else:
        P, depths = load_fixture(name), (1, 2, 12, 200)
    for fl in ("r", "c"):
        M = build_model(P, fl)
        for depth in depths:
            G = knit(M, max_sections=depth)
            assert emit_json(G) == reference_json(G), (fl, depth)


def test_emit_json_one_vertex_component():
    G = knit(model("trivial", "r"))
    assert len(G.vertices) == 1 and G.arrows == []
    out = emit_json(G)
    assert out.endswith('\n  "arrows": []\n}\n')
    assert out == reference_json(G)


# names with a quote, a backslash, non-ASCII text (one character beyond the
# BMP) and control characters, which json.dumps escapes
NAME_CHARS = ['"', "\\", "\u00e9", "\x01", "\x7f", "\u2028", "\U0001d54a", "a"]


@st.composite
def posets_with_odd_names(draw):
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    names = [f"x{i}" + draw(st.text(st.sampled_from(NAME_CHARS), min_size=1, max_size=3))
             for i in range(n)]
    strong = frozenset(x for x in names if draw(st.booleans()))
    rel = {(x, x): p if x in strong else 1 for x in names}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                touch = names[i] in strong or names[j] in strong
                rel[names[i], names[j]] = p if touch else draw(st.integers(1, p))
    return augment(min_equipment_closure(EquippedPoset(p, tuple(names), strong, rel)))


@given(posets_with_odd_names(), st.sampled_from(["r", "c"]))
@settings(max_examples=60, deadline=None)
def test_emit_json_escapes_names_as_json_dumps(P, fl):
    assume(validate(P, require_bounds=True).ok)
    G = knit(build_model(P, Flavor(fl)), max_sections=6)
    assert emit_json(G) == reference_json(G)


def test_emit_json_is_deterministic():
    G1 = knit(model("twochain2", "c"))
    G2 = knit(model("twochain2", "c"))
    assert emit_json(G1) == emit_json(G2)


def test_knit_dot_output(capsys):
    assert main(["knit", fixture_path("star2"), "--flavor", "r",
                 "--format", "dot"]) == 0
    out = capsys.readouterr().out
    G = knit(model("star2", "r"))
    assert out.count("rank=same") == len(G.sections)
    assert out.count(" -> ") == len(G.arrows)
    assert '[label="(2,1)"]' in out
    assert 'v0 [label="0: (0, 0, 1) S"]' in out
    assert out == emit_dot(G)


HUGE = "1" + "0" * 4400  # 10**4400, past Python's default of 4300 digits for int -> str


def _huge_component() -> ComponentGraph:
    """One vertex whose udimF (10**4400, 10**4400) over the local dimensions
    (10**4400, 1) gives the udim (1, 10**4400)."""
    return ComponentGraph("r", (10 ** 4400, 1), labels=[Label.WEAK],
                          udimF=[(10 ** 4400, 10 ** 4400)], cd=[None],
                          proj_point=[None], inj_point=[None], sections=[[0]])


def _check_huge(fmt: str, out: str) -> None:
    if fmt == "json":
        v = json.loads(out)["vertices"][0]
        assert (v["udimF"], v["udim"]) == ([HUGE, HUGE], ["1", HUGE])
    else:
        assert f'  v0 [label="0: ({HUGE}, {HUGE}) W"];\n' in out


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_emitters_print_entries_past_the_int_digit_limit(fmt, default_digit_limit, monkeypatch):
    """In one pass, with the limit in force: the emitters never set it."""
    def refuse(n):
        raise AssertionError(f"the emitter set the int digit limit to {n}")
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    _check_huge(fmt, (emit_json if fmt == "json" else emit_dot)(_huge_component()))


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_knit_prints_entries_past_the_int_digit_limit(fmt, default_digit_limit,
                                                      monkeypatch, capsys):
    monkeypatch.setattr(cli, "knit", lambda M, max_sections: _huge_component())
    assert main(["knit", fixture_path("star2"), "--format", fmt]) == 0
    _check_huge(fmt, capsys.readouterr().out)


def test_knit_max_sections_flag(capsys):
    assert main(["knit", fixture_path("vee2"), "--max-sections", "3"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["status"] == "TruncatedAtMaxSections"
    assert len(got["sections"]) == 3


def test_knit_options_ignore_the_environment(capsys, monkeypatch):
    """Knit takes its options, the depth among them, from the command line
    alone: variables named after them change nothing."""
    assert main(["knit", fixture_path("vee2")]) == 0
    want = capsys.readouterr().out
    for opt, value in (("max-sections", "3"), ("flavor", "c"), ("format", "dot")):
        monkeypatch.setenv("EQPOSET_" + opt.replace("-", "_").upper(), value)
    assert main(["knit", fixture_path("vee2")]) == 0
    assert capsys.readouterr().out == want


# ids keep the names these rows have always had
@pytest.mark.parametrize("argv, fragment", [
    pytest.param(["validate", "{latin1}"], "not UTF-8", id="argv0-None-not UTF-8"),
    pytest.param(["knit", "{latin1}"], "not UTF-8", id="argv1-None-not UTF-8"),
    pytest.param(["oracle", "{latin1}"], "not UTF-8", id="argv2-None-not UTF-8"),
    pytest.param(["knit", "{star2}", "--max-sections", "0"], "max_sections must be >= 1",
                 id="argv3-None---max-sections must be >= 1"),
    pytest.param(["compare", "{star2}", "--max-sections", "-3"], "max_sections must be >= 1",
                 id="argv4-None---max-sections must be >= 1"),
    pytest.param(["oracle", "{star2}", "--q", "4294967311", "--c", "3"], "too large",
                 id="argv7-None-too large"),
    pytest.param(["oracle", "{star2}", "--mode", "inseparable", "--q", "4", "--c", "0"],
                 "q and c apply to cyclic towers only",
                 id="argv8-None---q and --c apply to cyclic towers only"),
    pytest.param(["oracle", "{star2}", "--q", "3"], "cyclic towers need both q and c",
                 id="argv9-None-cyclic towers need both --q and --c"),
    *[pytest.param(["knit", "{lone_" + name + "}"],
                   f"({name} is both the strong global minimum and maximum, and one point cannot be both bounds)",
                   id=f"lone-strong-point-{name}") for name in "0m"],
])
def test_malformed_input_exits_2(capsys, tmp_path, argv, fragment):
    latin1 = tmp_path / "latin1.eqp"
    latin1.write_bytes("# caf\u00e9\np 2\npoint a weak\naugment\n".encode("latin-1"))
    paths = {"{latin1}": str(latin1), "{star2}": fixture_path("star2")}
    for name in "0m":   # a lone strong point is both extremes, and its name blocks one bound
        lone = tmp_path / f"lone_{name}.eqp"
        lone.write_text(f"p 2\npoint {name} strong\naugment\n")
        paths["{lone_" + name + "}"] = str(lone)
    assert main([paths.get(a, a) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and fragment in out.err
    assert out.out == ""


@pytest.mark.parametrize("command", ["validate", "knit"])
def test_byte_order_mark_is_ignored(capsys, tmp_path, command):
    """An editor's "UTF-8 with BOM" file reads as the same poset."""
    text = Path(fixture_path("star2")).read_bytes()
    outs = []
    for name, data in (("plain.eqp", text), ("bom.eqp", b"\xef\xbb\xbf" + text)):
        (tmp_path / name).write_bytes(data)
        assert main([command, str(tmp_path / name)]) == 0
        outs.append(capsys.readouterr())
    assert outs[1].out == outs[0].out != "" and outs[1].err == outs[0].err == ""


UNBOUNDED_POSET = "p 3\npoint a weak\npoint b weak\nrel a b 1\n"


@pytest.mark.parametrize("command", ["info", "knit", "compare", "oracle"])
def test_poset_without_strong_bounds_exits_2(capsys, tmp_path, command):
    """A valid poset with no strong minimum or maximum carries no model: the
    commands that build one refuse it as malformed input, while validate
    accepts it."""
    path = tmp_path / "unbounded.eqp"
    path.write_text(UNBOUNDED_POSET)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert main([command, str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == ("error: 2 violation(s):\n"
                       "  - missing-zero: no strong global minimum\n"
                       "  - missing-max: no strong global maximum\n")
    assert out.out == ""


ONE_STRONG_POINT = "p 2\npoint a strong\n"


@pytest.mark.parametrize("command", ["info", "knit", "compare", "oracle"])
def test_one_point_as_both_bounds_exits_2(capsys, tmp_path, command):
    """A lone strong point is both the strong minimum and maximum. A model
    needs two bounds (augment adjoins both), so every command that builds
    one refuses it before any output, while validate accepts it."""
    path = tmp_path / "one.eqp"
    path.write_text(ONE_STRONG_POINT)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert main([command, str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == "error: 1 violation(s):\n  - bounds-coincide: one point is both bounds [a]\n"
    assert out.out == ""


def test_huge_prime_p_exits_2_quickly(tmp_path):
    """A prime p far beyond any tower is rejected at its token, before a
    primality test that would take ~10^9 divisions."""
    path = tmp_path / "huge_p.eqp"
    path.write_text("p 1000000000000000003\npoint a weak\naugment\n")
    out = run_python("-m", "eqposet", "validate", str(path), timeout=10)
    assert out.returncode == 2
    assert out.stderr.startswith("error: line 1, col 3: ")
    assert out.stdout == ""


def test_prime_p_past_any_tower_exits_2(tmp_path):
    """A valid poset whose p is too large for a tower: the oracle refuses it
    before building p x p operators."""
    path = tmp_path / "p31bit.eqp"
    path.write_text("p 2147483647\npoint a weak\naugment\n")
    out = run_python("-m", "eqposet", "oracle", str(path), "--mode", "inseparable", timeout=30)
    assert out.returncode == 2
    assert out.stderr == ("error: p = 2147483647 is too large for a tower: its operators "
                          "are p x p matrices, so p <= 31\n")
    assert out.stdout == ""


@pytest.mark.parametrize("text, code, out", [
    ("p 2\npoint w weak\naugment\n", 0, "valid\n"),
    ("p 2\npoint a weak\npoint b weak\nrel a b 2\nrel b a 2\n", 1, "2 violation(s):\n  - antisymmetry"),
], ids=["valid", "violation"])
def test_python_m_eqposet_exits_with_main(tmp_path, monkeypatch, capsys, text, code, out):
    """`python -m eqposet`, run in process by runpy, exits with main's code."""
    path = tmp_path / "poset.eqp"
    path.write_text(text)
    monkeypatch.setattr(sys, "argv", ["eqposet", "validate", str(path)])
    monkeypatch.delitem(sys.modules, "eqposet.__main__", raising=False)
    with pytest.raises(SystemExit) as err:
        runpy.run_module("eqposet", run_name="__main__")
    assert err.value.code == code and capsys.readouterr().out.startswith(out)


def test_huge_ell_exits_2(tmp_path):
    """An ell past int()'s digit limit is an error at its token, not a crash."""
    path = tmp_path / "huge_ell.eqp"
    path.write_text("p 2\npoint a weak\npoint b weak\nrel a b " + "9" * 5000 + "\naugment\n")
    out = run_python("-m", "eqposet", "validate", str(path), timeout=10)
    assert out.returncode == 2
    assert out.stderr == "error: line 4, col 9: ell = 999999999999... (5000 digits) outside 1..2\n"
    assert out.stdout == ""


def test_info_with_forms(capsys):
    assert main(["info", fixture_path("star2"), "--forms"]) == 0
    out = capsys.readouterr().out
    assert "hom table" in out
    assert "w: (0, 2, 2)" in out
    assert "q(cd P_m) = 1" in out
    assert "gram matrix" in out


def test_compare_exits_1_on_a_failing_pairing(monkeypatch, capsys):
    """Flavor c's first arrow keeps flavor r's valuation, so only pair 0 fails."""
    def swapped_knit(M, **kw):
        G = knit(M, **kw)
        if G.flavor == "c":
            s, d, a, b = G.arrows[0]
            G.arrows[0] = (s, d, b, a)
        return G

    monkeypatch.setattr(cli, "knit", swapped_knit)
    assert main(["compare", fixture_path("star2")]) == 1
    assert capsys.readouterr().out == (
        "pair r#0 <-> c#0: FAIL\n"
        "    arrow valuations do not swap: (2,1) vs (2,1)\n"
        "pair r#1 <-> c#1: ok\n"
        "pair r#2 <-> c#2: ok\n"
        "correspondence FAILS\n")


# a cyclic tower other than the default one for each p of the fixtures
SECOND_TOWER = {2: ("q5-c2", ["--q", "5", "--c", "2"]), 3: ("q13-c2", ["--q", "13", "--c", "2"])}
ORACLE_TOWERS = {f"{name}-{label}": (name, tower) for name in ALL_FIXTURES
                 for label, tower in [("default", []), SECOND_TOWER[load_fixture(name).p],
                                      ("inseparable", ["--mode", "inseparable"])]}


@pytest.mark.parametrize("name, tower", list(ORACLE_TOWERS.values()), ids=list(ORACLE_TOWERS))
def test_oracle_cyclic_tower(capsys, name, tower):
    """On every fixture, the oracle over the default cyclic tower, over a
    given one and over the inseparable tower passes, and its report, of both
    flavors by default, is the flavor-r report followed by the flavor-c one."""
    outs = []
    for flavor in ([], ["--flavor", "r"], ["--flavor", "c"]):
        assert main(["oracle", fixture_path(name), *tower, *flavor]) == 0
        outs.append(capsys.readouterr().out)
    out, r, c = outs
    assert out == r + c
    assert r.startswith("flavor r:") and c.startswith("flavor c:")
    assert out.count("admissibility: ok") == 2


def test_oracle_rejects_bad_parameters(capsys):
    code = main(["oracle", fixture_path("mixed3"), "--q", "5", "--c", "2"])
    assert code == 2
    assert "does not divide" in capsys.readouterr().err


def test_oracle_inseparable(capsys):
    code = main(["oracle", fixture_path("mixed3"), "--flavor", "r",
                 "--mode", "inseparable"])
    assert code == 0
    assert "(structural division check)" in capsys.readouterr().out


def test_oracle_certifies_division_at_p7_over_f29(tmp_path, capsys):
    """At p = 7 over F_29, R_x of flavor c has 29^7 elements at each bound, far
    too many to enumerate; A.2 proves it a field, so neither report says
    "structural"."""
    f = tmp_path / "bounds7.eqp"
    f.write_text("p 7\naugment\n")
    assert main(["oracle", str(f), "--q", "29", "--c", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n  admissibility: ok\n") == 2 and "structural" not in out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_parser_reuse_matches_fresh_runs(monkeypatch):
    """main builds its parser once per process; a usage error, a refused
    option or a non-default option in one call leaves the next untouched, so
    each call prints what a fresh `python -m eqposet` prints."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    star2 = fixture_path("star2")
    argvs = [["no-such-command"],
             ["knit", star2, "--max-sections", "0"],
             ["knit", star2, "--flavor", "c", "--max-sections", "2", "--format", "dot"],
             ["knit", star2],
             ["compare", star2],
             ["knit"]]
    for argv in argvs:
        fresh = run_python("-m", "eqposet", *argv, timeout=60, COLUMNS="80")
        assert run_in_process(argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser() is build_parser()


def fixture_mutants():
    """Every fixture with one line deleted, with one line duplicated, or with
    the ell of one rel line set to 0, 9 or x."""
    for name in ALL_FIXTURES:
        lines = Path(fixture_path(name)).read_text().splitlines(keepends=True)
        for i, line in enumerate(lines):
            yield lines[:i] + lines[i + 1:]
            yield lines[:i + 1] + lines[i:]
            if line.startswith("rel "):
                for ell in ("0", "9", "x"):
                    yield lines[:i] + [" ".join(line.split()[:3] + [ell]) + "\n"] + lines[i + 1:]


FUZZ_COMMANDS = {"validate": [], "info --forms": ["--forms"], "info --flavor c": ["--flavor", "c"],
                 "knit": [], "compare": []}


@pytest.fixture(scope="module")
def mutant_runs(tmp_path_factory):
    """(mutant lines, command, exit code, stdout, stderr) of every
    FUZZ_COMMANDS entry on every fixture mutant, in order, with the mutant's
    path replaced by "{path}"."""
    path = tmp_path_factory.mktemp("mutants") / "mutant.eqp"
    runs = []
    for lines in fixture_mutants():
        path.write_text("".join(lines))
        for command, options in FUZZ_COMMANDS.items():
            code, out, err = run_in_process([command.split()[0], str(path), *options])
            runs.append((lines, command, code, out.replace(str(path), "{path}"),
                         err.replace(str(path), "{path}")))
    return runs


def test_fixture_mutants_keep_the_exit_code_contract(mutant_runs):
    """On each mutant, no exception escapes cli.main, only validate exits 1
    (a violation), and every other run exits 0 or 2: a model built from a
    file never fails its table."""
    codes = {command: [0, 0, 0] for command in FUZZ_COMMANDS}
    for lines, command, code, _, _ in mutant_runs:
        assert code in ((0, 1, 2) if command == "validate" else (0, 2)), (lines, command, code)
        codes[command][code] += 1
    assert codes == {"validate": [74, 3, 114], "info --forms": [61, 0, 130],
                     "info --flavor c": [61, 0, 130], "knit": [61, 0, 130], "compare": [61, 0, 130]}


MUTANT_DIGEST = "c1cae48d054a0edc38ec22c4985626fc0c9fcd404585917f27fe2619953e7b00"


def test_fixture_mutants_keep_their_bytes(mutant_runs):
    """Every mutant run keeps its command, exit code, stdout and stderr,
    hashed in order into one sha256: an error text that changes or moves
    changes it."""
    digest = hashlib.sha256()
    for _, command, code, out, err in mutant_runs:
        digest.update(json.dumps([command, code, out, err]).encode())
    assert digest.hexdigest() == MUTANT_DIGEST


# ---------------------------------------------------------------- digests

# perfbench/goldens.json pins knit (json/dot, r/c) and compare at 12 and 200
# sections and oracle per flavor over both towers, on every fixture;
# data/cli_digests.json pins the rest: info --forms and the deep_p5 runs.
# `oracle --flavor both` prints the r report, then the c report, so the
# goldens pin it too (test_oracle_cyclic_tower checks the concatenation)

GOLDENS = json.loads((SRC.parent / "perfbench" / "goldens.json").read_text())
GOLDEN_CASES = {case.key: case for case in golden_cases()}


@pytest.mark.parametrize("key", sorted(GOLDEN_CASES))
def test_stdout_matches_benchmark_golden(key, tmp_path):
    """Knit, compare and oracle output keep the bytes the benchmark pins,
    under the benchmark's own check of a case."""
    case = GOLDEN_CASES[key]
    path = tmp_path / f"{case.file}.eqp"
    path.write_text(case.text, encoding="utf-8")
    outcome = run_case(main, case.argv_for(str(path)), 60.0, golden=GOLDENS[key])
    assert outcome.status == "ok", f"{key}: {outcome.status} {outcome.detail}"


DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "cli_digests.json"
# random p = 5 posets whose components reach entries of 635 to 905 bits at
# 200 sections; no fixture passes 381 bits
DEEP_POSETS = ["deep_p5_n6", "deep_p5_n7", "deep_p5_n8a", "deep_p5_n8b"]
KNIT_COMMANDS = [["compare"]] + [["knit", "--format", fmt, "--flavor", fl]
                                 for fmt in ("json", "dot") for fl in ("r", "c")]


def digest_cases() -> dict[str, list[str]]:
    """The argv of each case whose stdout digest data/cli_digests.json holds:
    every fixture under info --forms (r, c), and each DEEP_POSETS file under
    knit (json/dot, r/c) and compare at 200 sections."""
    cases = {}
    for name in ALL_FIXTURES:
        for fl in ("r", "c"):
            cases[f"{name} info --forms --flavor {fl}"] = ["info", fixture_path(name), "--forms", "--flavor", fl]
    for name in DEEP_POSETS:
        for cmd, *opts in KNIT_COMMANDS:
            cases[" ".join([name, cmd, *opts])] = [cmd, str(DATA / f"{name}.eqp"), *opts, "--max-sections", "200"]
    return cases


DIGEST_CASES = digest_cases()


def stdout_digest(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("key", sorted(DIGEST_CASES))
def test_stdout_matches_recorded_digest(key):
    """Info output keeps its bytes, and so do knit and compare on components with huge entries."""
    assert stdout_digest(DIGEST_CASES[key]) == json.loads(DIGESTS.read_text())[key]


@pytest.mark.parametrize("fl", ["r", "c"])
@pytest.mark.parametrize("path", [fixture_path("chain3_ell2"), str(DATA / "deep_p5_n6.eqp")])
def test_knit_json_holds_every_mesh(path, fl):
    """Every mesh of a component is read off its `knit --format json` output
    alone: tau^-1 from the sections and the kinds, the mesh sum from udimF and
    the arrows, and each tau-orbit keeps its label."""
    code, out, err = run_in_process(["knit", path, "--flavor", fl, "--max-sections", "12"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    V = doc["vertices"]
    assert [v["id"] for v in V] == list(range(len(V)))
    shape = SimpleNamespace(sections=doc["sections"],
                            inj_point=[v["kind"] if "Injective(" in v["kind"] else None for v in V])
    tau_inv = tau_inverse(shape)
    for x, y in tau_inv.items():
        assert V[x]["label"] == V[y]["label"], (path, fl, x)
    udimF = [tuple(map(int, v["udimF"])) for v in V]
    arrows = [(a["src"], a["dst"], a["a"], a["b"]) for a in doc["arrows"]]
    assert_meshes(tau_inv, udimF, arrows, (path, fl))


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    recorded = {key: stdout_digest(argv) for key, argv in sorted(DIGEST_CASES.items())}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests in {DIGESTS}")
