import ast
import functools
import itertools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from eqposet import (EquippedPoset, Flavor, RatVec, build_model, default_tower, load_poset,
                     quadratic, validate, verify_admissible)

FIXTURES = resources.files("eqposet") / "fixtures"
TABLES = resources.files("eqposet") / "tables"

ALL_FIXTURES = [
    "trivial", "star2", "star3", "chain2_strong", "twochain2",
    "twochain2_mixed", "vee2", "wide2", "chain3_ell1", "chain3_ell2",
    "mixed3", "diamond3", "four3",
]
FINITE_FIXTURES = ["trivial", "star2", "star3", "chain2_strong", "twochain2",
                   "twochain2_mixed", "chain3_ell2", "mixed3"]
TABLE_NAMES = ["twopoint2", "twopoint3", "chain3", "reorient3", "wild3"]


SRC = Path(__file__).parents[1] / "src"


def src_imports() -> dict[str, set[str]]:
    """For each module of the package, the top-level names of what it imports."""
    out = {}
    for path in sorted((SRC / "eqposet").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add((node.module or "").split(".")[0])
        out[path.name] = names
    return out


def run_python(*args: str, timeout: float | None = None, **env: str):
    """Run `python *args` in a fresh interpreter that imports the package
    under test; returns the CompletedProcess with text stdout and stderr."""
    environ = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=environ, capture_output=True,
                          text=True, timeout=timeout)


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.eqp")


def load_fixture(name: str):
    return load_poset(fixture_path(name))


def load_table(name: str) -> dict:
    return json.loads((TABLES / f"{name}.json").read_text())


def model(name: str, flavor):
    return build_model(load_fixture(name), Flavor(flavor))


@functools.lru_cache(maxsize=None)
def cached_tower(p: int, mode: str):
    return default_tower(p, mode)


@pytest.fixture
def star2():
    return load_fixture("star2")


def enumerated_division(fam, x: str) -> bool:
    """The reference for A.2's division verdict over F_q: whether every nonzero
    element of R_x has a right inverse, found by one rank per line of R_x
    through 0 (the element whose first nonzero coordinate is 1), so
    (q^d - 1) / (q - 1) ranks for a d-dimensional R_x.  e divides exactly
    when e * b_1, ..., e * b_d have rank d, and the products come from the
    table of basis products: e * b_k = sum_a e_a (b_a * b_k)."""
    lin, d = fam.tower.lin, fam.dim(x, x)
    coeffs = [(0,) * i + (1,) + tail for i in range(d)
              for tail in itertools.product(range(lin.size), repeat=d - 1 - i)]
    e_b = [lin.matmul(coeffs, W) for W in fam.products(x, x, x)]
    return all(lin.rank(dict(enumerate(e_b[k][n])) for k in range(d)) == d
               for n in range(len(coeffs)))


def assert_division_agrees(fam) -> None:
    """A.2 certifies or refutes division in every R_x of a family over F_q,
    and each verdict is the enumeration's."""
    rep = verify_admissible(fam)
    for x in fam.poset.points:
        assert f"division in R_{x} not certified" not in rep.a2_failures, x
        field = f"element of R_{x} has no right inverse" not in rep.a2_failures
        assert field == enumerated_division(fam, x), (x, fam.flavor)


def enumerate_equipped(p: int, n: int):
    """Every valid equipped poset on n labeled points (reflexive entries
    filled in, equipment forced to p on pairs touching a strong point)."""
    names = ("a", "b", "c", "d")[:n]
    arcs = [(x, y) for x in names for y in names if x < y or y < x]
    for mask in itertools.product((False, True), repeat=len(arcs)):
        rel_pairs = [pr for pr, keep in zip(arcs, mask) if keep]
        rset = set(rel_pairs)
        if any((y, x) in rset for (x, y) in rel_pairs):
            continue
        if any((x, z) not in rset
               for (x, y) in rel_pairs for (y2, z) in rel_pairs
               if y2 == y and x != z):
            continue
        for strong_mask in itertools.product((False, True), repeat=n):
            strong = frozenset(x for x, s in zip(names, strong_mask) if s)
            free = [pr for pr in rel_pairs if pr[0] not in strong and pr[1] not in strong]
            forced = {pr: p for pr in rel_pairs if pr not in free}
            for choice in itertools.product(range(1, p + 1), repeat=len(free)):
                rel = dict(forced)
                rel.update(zip(free, choice))
                for x in names:
                    rel[(x, x)] = p if x in strong else 1
                P = EquippedPoset(p, names, strong, rel)
                if validate(P).ok:
                    yield P


def check_component_invariants(M, G, where) -> None:
    """The structural invariants of a knitted component: ids, sections,
    tau-orbit labels, mesh conservation, the q-label law, divisibility and
    unique vertex identity."""
    p = M.p
    n = len(G.vertices)
    # acyclicity and id sanity
    assert [v.id for v in G.vertices] == list(range(n))
    for a in G.arrows:
        assert 0 <= a.src < a.dst < n
    # sections are disjoint and cover everything
    flat = [i for sec in G.sections for i in sec]
    assert sorted(flat) == list(range(n))
    # tau-orbit label constancy
    for x, y in G.tau_inv.items():
        assert G.vertex(x).label == G.vertex(y).label
    # mesh conservation, recomputed from arrows alone
    for x, y in G.tau_inv.items():
        total = sum((a.a * G.vertex(a.src).udimF for a in G.arrows if a.dst == y),
                    RatVec.zeros(M.poset.n))
        assert total == G.vertex(x).udimF + G.vertex(y).udimF, (where, x)
    # q-label law at cd-bearing vertices
    for v in G.vertices:
        if v.cd is not None:
            q = quadratic(M, v.cd)
            assert q in (1, p)
            assert q == M.kdim(v.label), (where, v.id)
    # divisibility of udimF and the udim law
    for v in G.vertices:
        k = M.kdim(v.label)
        assert all(e % k == 0 for e in v.udimF.entries)
        for j, pt in enumerate(M.poset.points):
            assert v.udim[j] * M.hom_dim(pt, pt) == v.udimF[j]
    # vertex identity is unique
    keys = {(v.udimF, v.label) for v in G.vertices}
    assert len(keys) == n
