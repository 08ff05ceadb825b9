"""A line trace of src/eqposet over a pytest run, by `sys.settrace` alone.

    PYTHONPATH=src:tests python -m pytest -p linetrace -q

Loaded with -p, the plugin starts tracing when pytest imports it, before
conftest.py imports eqposet, so module-level statements count too.  At the
end it fails the run on every executable src line (per `co_lines()`) that
never ran, outside ALLOWED: qualified names of code objects and texts of
lines.  Traced, tier-1 runs four to five times slower, so it runs as a CI step
of its own.  Needs Python 3.11 or later (`co_qualname`).
"""

import os
import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eqposet"
ALLOWED = {
    "GenericField.coords",  # no src caller; kept while perfbench's tracer wraps it
    "raise SystemExit(main())",  # the console entry points run in subprocesses only
}
_mine, _ran = {}, set()


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    f = frame.f_code.co_filename
    if (mine := _mine.get(f)) is None:
        mine = _mine[f] = Path(os.path.realpath(f)).parent == SRC
    return _local if mine else None


sys.settrace(_global)
threading.settrace(_global)


def _codes(code):
    """code and the code objects inside it, skipping those ALLOWED names."""
    if code.co_qualname not in ALLOWED:
        yield code
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                yield from _codes(c)


def unreached() -> list[str]:
    """path:line text, for each executable src line that neither ran nor is allowed."""
    ran = {(os.path.realpath(f), n) for f, n in _ran}
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text, codes = source.splitlines(), _codes(compile(source, str(path), "exec"))
        lines = {n for code in codes for *_, n in code.co_lines() if n}
        out += [f"{path.relative_to(SRC.parent.parent)}:{n} {text[n - 1].strip()}" for n in sorted(lines)
                if (str(path), n) not in ran and text[n - 1].strip() not in ALLOWED]
    return out


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    if missed := unreached():
        session.exitstatus = 1
        print("\nsrc lines no test reached:", *missed, sep="\n  ")
