#!/usr/bin/env python3
"""The eqposet benchmark: one workload, one seed, one closed loop of cases.

Usage:
    python3 perfbench/run.py --workload knit --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from the `src/` directory next to
this one.  Inputs are generated from the seed, written to a temporary
directory inside the checkout and validated before use.  Each case calls
`eqposet.cli.main(argv)` in this process and its output is checked.  A run
makes one closed-loop pass over a case list long enough to fill about
--seconds.  Each case runs once: a first run costs no more than a repeat
(set-up builds the first tower before timing), so the time goes to more
distinct cases, and a run depends less on its seed.  Every
time in seconds is reported in reference seconds, adjusted for the speed of
the host during the run (see hostspeed.py); the raw wall times are printed
above the result.

--trace 0 prints the end-to-end metrics:
  total_s       wall time of the pass over every case
  case_s.p50    per-case wall time; a case that times out, or is not started
  case_s.p90    because the run is out of time, counts at its limit
  pass_frac     share of cases that did not fail (fail_frac = 1 - pass_frac)
  setup_s       median over fresh interpreters of import eqposet + first tower,
                started before and after the pass; a wall time, not adjusted
  peak_rss_mib  this process's ru_maxrss
--trace 1 makes, over the case list for a third of --seconds, an untraced
pass, a pass with every layer wrapped (see tracing.py) and a second untraced
pass, and prints the per-layer metrics of the traced pass and the tracing
overhead (traced total over the mean of the two untraced totals).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; `correct` is false when any output is malformed or
differs from its golden digest, or when a case that always passes (the
p = 5 families in oracle_cyclic) fails.

The knitter reads a default depth from EQPOSET_MAX_SECTIONS; the variable is
removed before any case runs, so cases without --max-sections knit at the
CLI's default of 12 sections, which the output checks and goldens assume.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2           # fresh interpreters before and again after the pass
STOP_STARTING_S = 150.0   # no case starts later, so a run ends well within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))

from execute import Outcome, run_case  # noqa: E402
from gen import check_valid  # noqa: E402
from hostspeed import CHUNK_S, HostSpeed  # noqa: E402
from workloads import WORKLOADS, Workload, load_fixtures  # noqa: E402


def setup_times(w: Workload) -> list[float]:
    """Wall time of SETUP_PROBES fresh interpreters that import eqposet and
    build the workload's first tower."""
    p, mode = w.tower
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(p), mode]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def write_inputs(cases, work: Path) -> list[str]:
    paths, checked = [], set()
    for i, case in enumerate(cases):
        if case.text not in checked:
            check_valid(case.text)
            checked.add(case.text)
        path = work / f"{i:04d}-{case.file}.eqp"
        path.write_text(case.text, encoding="utf-8")
        paths.append(str(path))
    return paths


def run_pass(main, cases, paths, order, limit_s: float, goldens: dict,
             stop_at: float, speed: HostSpeed) -> list[Outcome]:
    """One closed-loop pass over the cases in `order`; outcomes in case order."""
    outcomes: list[Outcome] = [None] * len(cases)
    for i in order:
        if time.perf_counter() > stop_at:
            outcomes[i] = Outcome(limit_s, "skipped", "not started: the run is out of time")
            continue
        golden = goldens[cases[i].key] if cases[i].fixture else None
        speed.sample_if_due()
        gc.collect()   # each case starts without the garbage of the last one
        outcomes[i] = run_case(main, cases[i].argv_for(paths[i]), limit_s, golden)
    return outcomes


def environment(args, max_sections_env: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():   # a checkout without history has only src_sha256
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "eqposet").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            digest.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "EQPOSET_MAX_SECTIONS_removed": max_sections_env,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def report(outcomes: list[Outcome], limit_s: float) -> None:
    statuses = Counter(o.status for o in outcomes)
    print(f"cases: {len(outcomes)} attempted, {dict(statuses)}, per-case limit {limit_s} s")
    for o in outcomes:
        if o.malformed or o.status in ("crash", "skipped"):
            print(f"  {o.status}: {o.detail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "eqposet" / "__init__.py").is_file():
        print(f"error: no eqposet package under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    max_sections_env = os.environ.pop("EQPOSET_MAX_SECTIONS", None)
    sys.path.insert(0, str(SRC))
    import eqposet.cli
    from eqposet import default_tower

    w = WORKLOADS[args.workload]
    # a trace run makes three passes, so its case list is for a third of the time
    seconds = max(1, args.seconds // 3) if args.trace else args.seconds
    cases = w.cases(random.Random(args.seed), seconds, load_fixtures(SRC))
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    default_tower(*w.tower)   # lazy imports happen before timing
    gc.collect()
    gc.freeze()    # what set-up made is never collected, so per-case collections stay small

    stop_at = started + STOP_STARTING_S
    forward = list(range(len(cases)))
    speed = HostSpeed()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        paths = write_inputs(cases, Path(work))
        run = lambda order: run_pass(eqposet.cli.main, cases, paths, order, w.per_case_limit_s,
                                     goldens, stop_at, speed)
        if args.trace:
            # the traced pass runs between two untraced ones, so its overhead
            # is not measured against a colder or a warmer process alone
            from tracing import Tracer, install, uninstall
            tracer = Tracer()
            untraced = [run(forward)]
            saved = install(tracer)
            traced = run(forward)
            uninstall(saved)
            untraced.append(run(forward))
            passes = untraced + [traced]
        else:
            setup = setup_times(w)
            passes = [run(forward)]
            setup += setup_times(w)

    outcomes = traced if args.trace else passes[0]
    failed = sum(o.failed for o in outcomes)
    correct = not any(o.malformed or (case.must_pass and o.status in ("fail", "crash"))
                      for pass_ in passes for case, o in zip(cases, pass_))
    setup_s = None
    if args.trace:
        untraced_s = statistics.mean(sum(o.seconds for o in pass_) for pass_ in untraced)
        traced_s = sum(o.seconds for o in traced)
        metrics = tracer.metrics()
        metrics["cli.bytes_out"] = (sum(o.stdout_bytes for o in outcomes), "B")
        metrics["trace.total_s"] = (traced_s, "s")
        metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
        print(f"tracing overhead: traced total_s {traced_s:.3f} s / untraced mean "
              f"{untraced_s:.3f} s")
    else:
        times = [o.seconds for o in outcomes]
        p90 = statistics.quantiles(times, n=10)[8]
        metrics = {
            "total_s": (sum(times), "s"),
            "case_s.p50": (statistics.median(times), "s"),
            "case_s.p90": (p90, "s"),
            "pass_frac": (1 - failed / len(outcomes), "frac"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        setup_s = statistics.median(setup)
        print(f"case_s: {len(times)} samples, "
              f"{sum(t > p90 for t in times)} above p90, slowest {max(times):.3f} s; "
              f"fail_frac {failed / len(outcomes):.4f}; "
              "setup_s samples " + ", ".join(f"{t:.4f}" for t in setup))
    report(outcomes, w.per_case_limit_s)
    factor = speed.factor()
    print(f"host speed: reference chunk median {factor * CHUNK_S * 1e3:.4f} ms over "
          f"{len(speed.samples)} samples, factor {factor:.4f}; raw wall times:")
    for name, (value, unit) in metrics.items():
        if unit == "s":
            print(f"  raw {name:30} {value:>14.6g} s")
    metrics = {k: (v / factor if u == "s" else v, u) for k, (v, u) in metrics.items()}
    if setup_s is not None:
        # fresh interpreters spend their time starting up and importing, which
        # the reference chunk does not track: set-up time stays a wall time
        metrics["setup_s"] = (setup_s, "s")
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:>14.6g} {unit}")
    print("env " + json.dumps(environment(args, max_sections_env), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
