"""Command-line driver: exit codes, JSON/DOT output, option handling.

Run as a script (`PYTHONPATH=src python tests/test_cli.py --record`) to
re-record the stdout digests in data/knit_digests.json.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from conftest import ALL_FIXTURES, fixture_path, model
from eqposet import knit
from eqposet.cli import component_to_dict, emit_dot, emit_json, main

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


def test_validate_ok(capsys):
    assert main(["validate", fixture_path("star2")]) == 0
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


def test_knit_json_matches_library(capsys):
    assert main(["knit", fixture_path("star2"), "--flavor", "r"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = component_to_dict(knit(model("star2", "r")))
    assert got == want
    assert got["status"] == "Finite"
    assert got["vertices"][0]["udimF"] == ["0", "0", "1"]


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


def test_knit_max_sections_flag(capsys):
    assert main(["knit", fixture_path("vee2"), "--max-sections", "3"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["status"] == "TruncatedAtMaxSections"
    assert len(got["sections"]) == 3


def test_knit_max_sections_env(capsys, monkeypatch):
    monkeypatch.setenv("EQPOSET_MAX_SECTIONS", "3")
    assert main(["knit", fixture_path("vee2")]) == 0
    assert len(json.loads(capsys.readouterr().out)["sections"]) == 3
    monkeypatch.setenv("EQPOSET_MAX_SECTIONS", "junk")
    assert main(["knit", fixture_path("vee2")]) == 2
    assert "EQPOSET_MAX_SECTIONS" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env, fragment", [
    (["validate", "{latin1}"], None, "not UTF-8"),
    (["knit", "{latin1}"], None, "not UTF-8"),
    (["oracle", "{latin1}"], None, "not UTF-8"),
    (["knit", "{star2}", "--max-sections", "0"], None, "--max-sections must be >= 1"),
    (["compare", "{star2}", "--max-sections", "-3"], None, "--max-sections must be >= 1"),
    (["knit", "{star2}"], "abc", "EQPOSET_MAX_SECTIONS must be an integer"),
    (["compare", "{star2}"], "0", "EQPOSET_MAX_SECTIONS must be >= 1"),
    (["oracle", "{star2}", "--q", "4294967311", "--c", "3"], None, "too large"),
    (["oracle", "{star2}", "--mode", "inseparable", "--q", "4", "--c", "0"], None,
     "--q and --c apply to cyclic towers only"),
    (["oracle", "{star2}", "--q", "3"], None, "cyclic towers need both --q and --c"),
])
def test_malformed_input_exits_2(capsys, monkeypatch, tmp_path, argv, env, fragment):
    latin1 = tmp_path / "latin1.eqp"
    latin1.write_bytes("# caf\u00e9\np 2\npoint a weak\naugment\n".encode("latin-1"))
    paths = {"{latin1}": str(latin1), "{star2}": fixture_path("star2")}
    if env is None:
        monkeypatch.delenv("EQPOSET_MAX_SECTIONS", raising=False)
    else:
        monkeypatch.setenv("EQPOSET_MAX_SECTIONS", env)
    assert main([paths.get(a, a) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and fragment in out.err
    assert out.out == ""


def test_info_with_forms(capsys):
    assert main(["info", fixture_path("star2"), "--forms"]) == 0
    out = capsys.readouterr().out
    assert "hom table" in out
    assert "w: (0, 2, 2)" in out
    assert "q(cd P_m) = 1" in out
    assert "gram matrix" in out


def test_compare_ok(capsys):
    assert main(["compare", fixture_path("mixed3")]) == 0
    assert "correspondence holds" in capsys.readouterr().out


def test_oracle_default_tower(capsys):
    assert main(["oracle", fixture_path("star2")]) == 0
    out = capsys.readouterr().out
    assert "flavor r:" in out and "flavor c:" in out
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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- digests

DIGESTS = Path(__file__).parent / "data" / "knit_digests.json"


def digest_cases() -> dict[str, list[str]]:
    """Every fixture under knit (json/dot, r/c) and compare, at the default
    depth and at 200 sections, under info --forms (r, c) and under oracle on
    the default cyclic and inseparable towers; the key names the case,
    "{path}" the file."""
    cases = {}
    for name in ALL_FIXTURES:
        for depth in ([], ["--max-sections", "200"]):
            cmds = [["compare"]] + [["knit", "--format", fmt, "--flavor", fl]
                                    for fmt in ("json", "dot") for fl in ("r", "c")]
            for cmd in cmds:
                argv = [cmd[0], "{path}"] + cmd[1:] + depth
                cases[" ".join([name] + cmd + (depth or ["default"]))] = argv
        for cmd in (["info", "--forms", "--flavor", "r"], ["info", "--forms", "--flavor", "c"],
                    ["oracle", "--flavor", "both"],
                    ["oracle", "--mode", "inseparable", "--flavor", "both"]):
            cases[" ".join([name] + cmd)] = [cmd[0], "{path}"] + cmd[1:]
    return cases


def digest_of(key: str, argv: list[str]) -> dict:
    path = fixture_path(key.split()[0])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([path if a == "{path}" else a for a in argv])
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("key", sorted(digest_cases()))
def test_stdout_matches_recorded_digest(monkeypatch, key):
    """Knit, compare, info and oracle output keep their bytes."""
    monkeypatch.delenv("EQPOSET_MAX_SECTIONS", raising=False)
    want = json.loads(DIGESTS.read_text())[key]
    assert digest_of(key, digest_cases()[key]) == want


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    os.environ.pop("EQPOSET_MAX_SECTIONS", None)
    recorded = {key: digest_of(key, argv) for key, argv in sorted(digest_cases().items())}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests in {DIGESTS}")
