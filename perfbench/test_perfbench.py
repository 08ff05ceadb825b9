"""Tests of the benchmark's own parts.  Run: python3 -m pytest perfbench -q"""

import json
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import gen  # noqa: E402
from execute import check_output, run_case  # noqa: E402
from goldens import golden_cases  # noqa: E402
from hostspeed import CHUNK_S, HostSpeed, chunk  # noqa: E402
from workloads import MIN_CASES, WORKLOADS, load_fixtures, p5_members  # noqa: E402

FIXTURES = load_fixtures(SRC)


def build(name, seed, seconds=20):
    return WORKLOADS[name].cases(random.Random(seed), seconds, FIXTURES)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(name):
    assert build(name, 7) == build(name, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_inputs(name):
    texts = lambda cases: [c.text for c in cases if not c.fixture]
    assert texts(build(name, 1)) != texts(build(name, 2))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_generated_file_validates(name):
    for seed in (1, 2):
        for text in {c.text for c in build(name, seed)}:
            gen.check_valid(text)


def test_random_poset_edges_touching_strong_points_carry_p():
    rng = random.Random(3)
    for k in range(200):
        text = gen.random_poset(rng, 3, 6, k)
        strong = {l.split()[1] for l in text.splitlines() if l.endswith("strong")}
        for line in text.splitlines():
            if line.startswith("rel "):
                _, x, y, ell = line.split()
                assert ell == "3" or not ({x, y} & strong)


def test_random_posets_have_the_shape_of_their_index():
    for seed in (1, 2):
        rng = random.Random(seed)
        for k in range(30):
            text = gen.random_poset(rng, 2, 5, k)
            assert (text.count(" strong\n"), text.count("\nrel ")) == gen.shape(5, k)


def test_shapes_spread_like_the_binomial_draws():
    shapes = [gen.shape(8, k) for k in range(400)]
    mean = lambda xs: sum(xs) / len(xs)
    assert abs(mean([s for s, _ in shapes]) - 8 * gen.STRONG_SHARE) < 0.05
    assert abs(mean([r for _, r in shapes]) - 28 * gen.DENSITY) < 0.1
    assert {s for s, _ in shapes} >= set(range(6))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_times_at_least_100_cases(name):
    assert MIN_CASES >= 100
    assert len(build(name, 1, seconds=1)) >= MIN_CASES


def test_only_the_p5_families_must_pass():
    cases = build("oracle_cyclic", 1)
    must = [c for c in cases if c.must_pass]
    assert len(must) == len(p5_members())
    assert all(c.text.startswith("p 5\n") for c in must)
    assert not any(c.must_pass for name in ("knit", "oracle_inseparable")
                   for c in build(name, 1))


def test_every_fixture_case_has_a_golden():
    goldens = json.loads((HERE / "goldens.json").read_text())
    assert {c.key for c in golden_cases()} == set(goldens)
    for name in WORKLOADS:
        assert {c.key for c in build(name, 1) if c.fixture} <= set(goldens)


def test_check_output_tells_failures_from_malformed_output():
    fail = "flavor r:\n  member dimensions: ok\n  admissibility: ok\n  radicals: FAIL\n" \
           "    End rad(e_x A) has dim 2, table says 4\n  hom dimensions: ok\n"
    argv = ["oracle", "f.eqp", "--flavor", "r"]
    assert check_output(argv, 1, fail, "") == ""
    assert "exit code" in check_output(argv, 0, fail, "")
    assert check_output(argv, 1, "", "error: mesh failed\n") == ""
    assert "flavors" in check_output(["oracle", "f.eqp"], 0, fail, "")
    assert "unreadable" in check_output(["knit", "f.eqp"], 0, "{not json", "")
    assert check_output(["compare", "f.eqp"], 0, "pair r#0 <-> c#0: ok\ncorrespondence holds\n", "") == ""


def test_run_case_times_out_in_process():
    def slow(argv):
        while True:
            pass

    outcome = run_case(slow, ["oracle", "f.eqp"], 0.05)
    assert outcome.status == "timeout" and outcome.seconds == 0.05


def test_cases_not_started_in_time_count_at_their_limit():
    from run import run_pass

    cases = build("oracle_cyclic", 1, seconds=1)[:3]
    outcomes = run_pass(None, cases, [""] * 3, [0, 1, 2], 6.0, {}, stop_at=0.0,
                        speed=HostSpeed())
    assert [(o.status, o.seconds, o.failed) for o in outcomes] == [("skipped", 6.0, True)] * 3


def test_host_speed_samples_at_most_once_per_interval():
    speed = HostSpeed()
    speed.sample_if_due()
    speed.sample_if_due()
    assert len(speed.samples) == 1
    assert speed.factor() == speed.samples[0] / CHUNK_S > 0
    assert chunk() == sum(Fraction(1, i) for i in range(1, 601))


def test_run_case_flags_a_golden_mismatch(tmp_path):
    from eqposet.cli import main

    path = tmp_path / "star2.eqp"
    path.write_text(FIXTURES["star2"])
    argv = ["knit", str(path), "--flavor", "r", "--format", "json"]
    ok = run_case(main, argv, 10.0)
    assert ok.status == "ok" and not ok.malformed
    bad = run_case(main, argv, 10.0, golden="0" * 64)
    assert bad.status == "mismatch" and bad.malformed


def test_tracing_wraps_names_bound_into_other_modules_and_unwraps_them(tmp_path):
    path = tmp_path / "vee2.eqp"
    path.write_text(FIXTURES["vee2"])
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]
        import eqposet.cli, eqposet.knitter, eqposet.model
        from tracing import Tracer, install, uninstall
        knit, rref = eqposet.cli.knit, vars(eqposet.linalg.ModQ)["rref"]
        t = Tracer()
        saved = install(t)
        assert eqposet.cli.knit is not knit
        assert eqposet.cli.knit is eqposet.knitter.knit
        assert eqposet.knitter.radical_info is eqposet.model.radical_info
        with contextlib.redirect_stdout(io.StringIO()):
            assert eqposet.cli.main(["compare", {str(path)!r}]) == 0
            assert eqposet.cli.main(["oracle", {str(path)!r}, "--flavor", "c"]) == 0
        m = {{k: v for k, (v, _) in t.metrics().items()}}
        print(m["knitter.vertices"], m["pairing.pairs"], m["model.build_s"] > 0,
              m["poset.validate_calls"], m["linalg.rref_calls"] > 0,
              m["oracle.division_exhaustive_frac"], m["knitter.attach_hit_frac"] > 0)
        uninstall(saved)
        assert eqposet.cli.knit is eqposet.knitter.knit is knit
        assert vars(eqposet.linalg.ModQ)["rref"] is rref
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True).stdout.split()
    vertices, pairs, built, validations, rref, exhaustive, hits = out
    assert int(vertices) == 2 * int(pairs) > 0
    assert built == rref == hits == "True"
    # compare: load_poset, then build_model per flavor; oracle: load_poset, build_model
    assert int(validations) == 3 + 2
    assert float(exhaustive) == 1.0
