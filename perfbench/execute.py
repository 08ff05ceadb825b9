"""Run one case in process and check its output.

A case is one call of `eqposet.cli.main(argv)` with stdout and stderr
captured and a wall-clock limit enforced by SIGALRM, so no thread or process
is started per case.  A case fails on a nonzero exit, an exception, a
timeout, an oracle or pairing FAIL verdict, or a golden-digest mismatch.
Separately from failing, a case is *malformed* when its output contradicts
its exit code or cannot be read; that means the output is wrong, not merely
a reported failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import signal
import time
from dataclasses import dataclass


class CaseTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout


@dataclass
class Outcome:
    seconds: float
    status: str          # ok | fail | error | timeout | crash | mismatch | skipped
    detail: str = ""
    malformed: bool = False
    stdout_bytes: int = 0
    sha256: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def run_case(main, argv: list[str], limit_s: float, golden: str | None = None) -> Outcome:
    """Call `main(argv)`; `golden` is the expected sha256 of stdout, if any."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    rc: int | str
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except CaseTimeout:
        rc = "timeout"
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a crash of the program under test is a result
        rc = "crash"
        err.write(f"{type(e).__name__}: {e}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - t0
    stdout = out.getvalue()
    data = stdout.encode()
    outcome = Outcome(seconds, "ok", stdout_bytes=len(data),
                      sha256=hashlib.sha256(data).hexdigest())
    if rc == "timeout":
        outcome.seconds, outcome.status, outcome.detail = limit_s, "timeout", f"over {limit_s} s"
    elif rc == "crash":
        outcome.status, outcome.detail = "crash", err.getvalue()
    elif problem := check_output(argv, rc, stdout, err.getvalue()):
        outcome.status, outcome.detail, outcome.malformed = "error", problem, True
    elif golden is not None and outcome.sha256 != golden:
        outcome.status, outcome.detail = "mismatch", "stdout differs from its golden digest"
        outcome.malformed = True
    elif rc != 0:
        outcome.status = "fail"
        outcome.detail = err.getvalue().strip() or _first_fail(stdout)
    return outcome


def _first_fail(stdout: str) -> str:
    return next((l.strip() for l in stdout.splitlines() if "FAIL" in l), "")


def check_output(argv: list[str], rc: int, stdout: str, stderr: str) -> str:
    """What is wrong with the output, or "" when it is well formed and its
    verdict agrees with the exit code."""
    if rc not in (0, 1):
        return f"exit code {rc}: {stderr.strip()}"
    if rc == 1 and stderr.startswith("error: "):
        return ""
    check = {"oracle": _check_oracle, "compare": _check_compare, "knit": _check_knit}[argv[0]]
    try:
        ok, problem = check(argv, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
    if not problem and ok != (rc == 0):
        problem = f"verdict {'ok' if ok else 'FAIL'} with exit code {rc}"
    return problem


_STATUS = re.compile(r"^  (member dimensions|admissibility|radicals|hom dimensions): (ok|FAIL)",
                     re.M)


def _option(argv: list[str], name: str, default: str | None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _check_oracle(argv, stdout):
    want = _option(argv, "--flavor", "both")
    flavors = re.findall(r"^flavor (\w+):$", stdout, re.M)
    if flavors != (["r", "c"] if want == "both" else [want]):
        return False, f"oracle reported flavors {flavors}, asked for {want}"
    status = _STATUS.findall(stdout)
    if len(status) != 4 * len(flavors):
        return False, f"oracle printed {len(status)} verdict lines for {len(flavors)} flavor(s)"
    return all(v == "ok" for _, v in status), ""


def _check_compare(argv, stdout):
    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if last not in ("correspondence holds", "correspondence FAILS"):
        return False, f"compare ended with {last!r}"
    return last == "correspondence holds", ""


def _check_knit(argv, stdout):
    limit = int(_option(argv, "--max-sections", "12"))
    if _option(argv, "--format", "json") == "dot":
        lines = stdout.splitlines()
        if lines[:1] != ["digraph component {"] or lines[-1:] != ["}"]:
            return False, "DOT output is not one digraph"
        ranked = sum(l.count(";") - 1 for l in lines if "rank=same" in l)
        labelled = sum(1 for l in lines if "[label=\"" in l and "->" not in l)
        if ranked != labelled:
            return False, f"DOT ranks {ranked} vertices but labels {labelled}"
        return True, ""
    G = json.loads(stdout)
    if set(G) != {"flavor", "status", "sections", "vertices", "arrows"}:
        return False, f"knit JSON has keys {sorted(G)}"
    if G["flavor"] != _option(argv, "--flavor", "r"):
        return False, f"knit JSON is for flavor {G['flavor']}"
    if G["status"] not in ("Finite", "TruncatedAtMaxSections") or len(G["sections"]) > limit:
        return False, f"status {G['status']} with {len(G['sections'])} sections"
    n = len(G["vertices"])
    if sorted(i for s in G["sections"] for i in s) != list(range(n)):
        return False, "sections do not partition the vertices"
    if any(not (0 <= a["src"] < a["dst"] < n) for a in G["arrows"]):
        return False, "arrow outside the vertex range or against creation order"
    return True, ""
