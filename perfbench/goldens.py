#!/usr/bin/env python3
"""Record the sha256 of stdout for every fixture case into goldens.json.

Usage: python3 perfbench/goldens.py

The digests pin the bytes the CLI prints for fixture x command x flavor;
run.py marks a run incorrect when a fixture case prints anything else.
Re-record only for a change that is meant to alter the output, and say why.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from eqposet.cli import main as cli_main  # noqa: E402
from execute import run_case  # noqa: E402
from workloads import (DEEP_SECTIONS, fixture_cases, knit_commands, load_fixtures,  # noqa: E402
                       oracle_commands)


def golden_cases():
    commands = (knit_commands() + knit_commands(DEEP_SECTIONS) + oracle_commands("cyclic")
                + oracle_commands("inseparable"))
    return fixture_cases(load_fixtures(SRC), commands)


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        for case in golden_cases():
            path = Path(work) / f"{case.file}.eqp"
            path.write_text(case.text, encoding="utf-8")
            outcome = run_case(cli_main, case.argv_for(str(path)), 60.0)
            if outcome.status != "ok":
                print(f"{case.key}: {outcome.status} {outcome.detail}", file=sys.stderr)
                return 1
            digests[case.key] = outcome.sha256
    (HERE / "goldens.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
