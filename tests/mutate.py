"""A mutation gate over src modules, by the standard library alone.

    python tests/mutate.py src/eqposet/pairing.py src/eqposet/knitter.py src/eqposet/model.py \
        src/eqposet/poset.py src/eqposet/fields.py src/eqposet/cli.py src/eqposet/forms.py

Each mutant changes one site of one module: a comparison flipped (== and !=,
< and <=, > and >=, in and not in, is and is not), a `not` dropped, or an
`and` swapped with `or`.  The mutant is written into a copy of the
repository in a new temporary directory, never into the checkout, and tier-1
runs on it without perfbench's tests, with -x and the module's own test files
first.  A failing run, or one past twice the clean run plus 60 s, kills the
mutant.  The gate exits 1 on a survivor that `ALLOWED` does not name, and on
an `ALLOWED` entry that names no mutant; each entry names its site by the
enclosing function and the source text of the expression, then the mutated
text and why it may live.
"""

import argparse
import ast
import copy
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
        ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}

# (module, enclosing function, expression, mutated expression, reason)
ALLOWED = [
    ("pairing.py", "pair_components", "len(arcs) < len(G.arrows)", "len(arcs) <= len(G.arrows)",
     "changes work, not answers: the Counter is then built when no arrow repeats, and finds no repeat"),
    ("model.py", "_tabulate.radical", "(v := lj + row_j[k]) > e[k]", "(v := lj + row_j[k]) >= e[k]",
     "equivalent: a running maximum takes an equal value as it is"),
    ("poset.py", "min_equipment_closure", "a >= dik + b", "a > dik + b",
     "equivalent: a running maximum takes an equal value as it is"),
]


class _Sites(ast.NodeVisitor):
    """Each mutable node with the dotted names of the defs around it."""

    def __init__(self):
        self.scope, self.found = [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_JoinedStr(self, node):
        pass   # positions inside f-strings are not reliable before Python 3.12

    def _site(self, node):
        self.found.append((".".join(self.scope) or "<module>", node))
        self.generic_visit(node)

    visit_Compare = visit_BoolOp = _site

    def visit_UnaryOp(self, node):
        if isinstance(node.op, ast.Not):
            self._site(node)
        else:
            self.generic_visit(node)


def _variants(node):
    """Each one-site change of node, as a new node."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            new = copy.deepcopy(node)
            new.ops[k] = FLIP[type(op)]()
            yield new
    elif isinstance(node, ast.BoolOp):
        new = copy.deepcopy(node)
        new.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        yield new
    else:
        yield node.operand


def _offset(lines, lineno, col):
    """The character offset of (1-based line, utf-8 byte column) in the text."""
    return sum(len(l) for l in lines[:lineno - 1]) + len(lines[lineno - 1].encode()[:col].decode())


def _put(parent, name: str, k: int | None, node) -> None:
    """Set field `name` of parent, or entry k of that list field, to node."""
    if k is None:
        setattr(parent, name, node)
    else:
        getattr(parent, name)[k] = node


def mutants(path: Path):
    """(function, line, expression, mutated expression, mutant source) for each site of the module."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    slot = {}   # id of each node -> (its parent, field, index in the field's list or None)
    for parent in ast.walk(tree):
        for name, value in ast.iter_fields(parent):
            for k, child in (enumerate(value) if isinstance(value, list) else [(None, value)]):
                if isinstance(child, ast.AST):
                    slot[id(child)] = parent, name, k
    sites = _Sites()
    sites.visit(tree)
    for where, node in sites.found:
        text = ast.get_source_segment(source, node)
        start = _offset(lines, node.lineno, node.col_offset)
        end = _offset(lines, node.end_lineno, node.end_col_offset)
        assert source[start:end] == text, (path, node.lineno)
        for new in _variants(node):
            mutated = ast.unparse(new)
            out = source[:start] + f"({mutated})" + source[end:]
            # the text edit must be the tree edit and nothing else
            _put(*slot[id(node)], new)
            want = ast.dump(tree)
            _put(*slot[id(node)], node)
            assert ast.dump(ast.parse(out)) == want, (path, node.lineno, mutated)
            yield where, node.lineno, " ".join(text.split()), mutated, out


def _tree(expr: str) -> str:
    """An expression's syntax tree as text: equal for equal code however it is spaced or bracketed."""
    return ast.dump(ast.parse(expr, mode="eval"))


def _run(workdir: Path, tests: list[str], timeout: float) -> str:
    """The outcome of tier-1 without perfbench in workdir: pass, fail or timeout."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--hypothesis-seed=0", *tests, "tests"]
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "pass" if proc.wait(timeout=timeout) == 0 else "fail"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # pytest and the interpreters its tests start
        proc.wait()
        return "timeout"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="+", help="src files to mutate")
    args = ap.parse_args(argv)

    top = Path(tempfile.mkdtemp(prefix="mutate-"))
    try:
        workdir = top / "repo"
        shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        return _gate(workdir, args.modules)
    finally:
        shutil.rmtree(top, ignore_errors=True)


def _gate(workdir: Path, modules: list[str]) -> int:
    found = subprocess.run([sys.executable, "-c", "import eqposet; print(eqposet.__file__)"], cwd=workdir,
                           env=dict(os.environ, PYTHONPATH=str(workdir / "src")),
                           capture_output=True, text=True, check=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(workdir.resolve()):
        print(f"the copy imports eqposet from {found}, not from its own src")
        return 1

    t0 = time.monotonic()
    if _run(workdir, [], None) != "pass":
        print("tier-1 fails on the unmutated copy; no mutant can be judged")
        return 1
    timeout = 2 * (time.monotonic() - t0) + 60
    print(f"clean run {time.monotonic() - t0:.1f} s; a mutant's run times out at {timeout:.0f} s", flush=True)

    allowed = {(m, f, _tree(e), _tree(x)): why for m, f, e, x, why in ALLOWED}
    seen, bad = set(), []
    for module in modules:
        rel = Path(module).resolve().relative_to(ROOT)
        target = workdir / rel
        original = target.read_text()
        own = [str(p.relative_to(ROOT)) for p in sorted((ROOT / "tests").glob(f"test_{rel.stem}*.py"))]
        counts = {"pass": 0, "fail": 0, "timeout": 0}
        t0 = time.monotonic()
        for where, line, expr, mutated, text in mutants(ROOT / rel):
            target.write_text(text)
            outcome = _run(workdir, own, timeout)
            counts[outcome] += 1
            key = (rel.name, where, _tree(expr), _tree(mutated))
            seen.add(key)
            site = f"{rel.name}:{line} in {where}: {expr} -> {mutated}"
            if outcome == "pass" and key not in allowed:
                bad.append(site)
                print(f"  SURVIVOR {site}", flush=True)
            elif key in allowed:
                print(f"  allowed, {'survived' if outcome == 'pass' else 'killed'}: {site}", flush=True)
        target.write_text(original)
        print(f"{rel}: {sum(counts.values())} mutants, {counts['fail']} killed, "
              f"{counts['timeout']} timed out, {counts['pass']} survived, "
              f"{(time.monotonic() - t0) / 60:.1f} min", flush=True)

    names = {Path(m).name for m in modules}
    stale = [k for k in allowed if k[0] in names and k not in seen]
    for m, f, e, x, _ in ALLOWED:
        if (m, f, _tree(e), _tree(x)) in stale:
            print(f"ALLOWED entry matches no mutant: {m} in {f}: {e} -> {x}")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
