"""The grading that lets the inseparable tower compute at t = 1, and the
package's runtime dependencies, exports and surface."""

import ast
import dataclasses
import importlib.util
import types

import pytest

from conftest import (ALL_FIXTURES, DEEP_P5, SRC, cached_tower, enumerate_equipped,
                      load_fixture_or_deep, run_python, src_imports)
from eqposet import Flavor, augment, build_family, oracle_hom_dim, verify_admissible


def _degree(fam, v) -> int:
    """The one degree of the support of v (fields.py), a flattened operator
    (flavor r: (row - col) mod p) or an element of G (flavor c: k at xi^k);
    fails when v is zero or has support in two degrees."""
    p = fam.tower.p
    degrees = {(k // p - k % p) % p if fam.flavor is Flavor.R else k for k, x in enumerate(v) if x}
    assert len(degrees) == 1, v
    return degrees.pop()


def _assert_graded(P) -> int:
    """Run the inseparable oracle's A.1-A.3 and hom systems on P in both
    flavors, then check that every basis vector and unit it built is graded
    and that every row of every action table is: the coordinates of b * s lie
    on basis vectors of degree deg b + deg s.  The number of vectors checked."""
    count, tower = 0, cached_tower(P.p, "inseparable")
    for flavor in (Flavor.R, Flavor.C):
        fam = build_family(tower, P, flavor)
        assert verify_admissible(fam).ok
        for i in fam.above:
            for j in fam.above:
                oracle_hom_dim(fam, i, j)
        deg = {xy: [_degree(fam, b) for b in B] for xy, B in fam.basis.items()}
        for u in fam.unit.values():
            _degree(fam, u)
        count += sum(map(len, deg.values())) + len(fam.unit)
        for x, above in fam.above.items():
            for y in above:
                for z in fam.above[y]:
                    for s, C in zip(deg[(y, z)], fam.table(x, y, z)[0]):
                        for b, row in zip(deg[(x, y)], C):
                            got = {deg[(x, z)][a] for a, v in enumerate(row) if v}
                            assert got <= {(b + s) % P.p}, (x, y, z, row)
                            count += 1
    return count


@pytest.mark.parametrize("name", ALL_FIXTURES + DEEP_P5)
def test_inseparable_families_are_graded_on_fixtures(name):
    assert _assert_graded(load_fixture_or_deep(name)) > 0


def test_inseparable_families_are_graded_on_small_posets():
    """The [2-3] sweep of test_small_posets: every valid p = 2 poset of three
    points, augmented."""
    posets = list(enumerate_equipped(2, 3))
    assert len(posets) == 230
    assert all(_assert_graded(augment(P)) > 0 for P in posets)


def test_src_never_imports_sympy():
    """The inseparable tower needs no computer algebra: no module of the
    package imports sympy."""
    imports = src_imports()
    assert len(imports) >= 10
    for name, roots in imports.items():
        assert "sympy" not in roots, name


def test_inseparable_tower_leaves_sympy_unloaded():
    code = ("import sys; from eqposet import default_tower; "
            "default_tower(2, 'inseparable'); print('sympy' in sys.modules)")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_tower_refuses_huge_p_quickly():
    """A p of 2^31 or more is refused before trial division, which would take
    ~10^9 steps on this prime."""
    code = ("from eqposet.fields import ParameterError, Tower\n"
            "try:\n    Tower(1000000000000000003, 'cyclic', 3, 2)\n"
            "except ParameterError as e:\n    print(e)")
    out = run_python("-c", code, timeout=10)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "p is out of range (p < 2^31)\n"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    assert meta["project"]["dependencies"] == []


def test_star_import_binds_exactly_all():
    """`__all__` is sorted, holds no name twice and names every public
    attribute of the package that is not a submodule."""
    import eqposet
    names = eqposet.__all__
    assert names == sorted(set(names))
    assert set(names) == {n for n, v in vars(eqposet).items()
                          if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    scope = {}
    exec("from eqposet import *", scope)
    assert scope.keys() - {"__builtins__"} == set(names)


def test_every_src_name_has_a_reader_in_src():
    """Every module function, method, class attribute, dataclass field and
    attribute that a method assigns on `self` of the package is read
    somewhere in src.  A module function is read by name
    or as an attribute; a class member only as an attribute, `x.name`, or
    through a string constant naming it (`getattr` over
    `knitter._PER_VERTEX`), so a local variable of the same name is no reader.
    Exempt: dunders, the exports of `__all__`, the names perfbench's tracer
    wraps (`SPANS`, `COUNTED`), and `RFamily.replace`, with which tests tamper
    with a family while it keeps the member-name caches consistent.  Exempt
    too, until the tracer reads the per-vertex lists (ROADMAP items 18a and
    5): `ComponentGraph.vertices` and the fields of `ArVertex`, since the
    tracer reads `result.vertices` and `v.proj_point`, and `vertices` fills
    each record by position."""
    import eqposet
    from eqposet.knitter import ArVertex
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", SRC.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    exempt = {attr for _, attr, _ in tracing.SPANS + tracing.COUNTED}
    exempt |= {*eqposet.__all__, "RFamily.replace", "ComponentGraph.vertices"}
    exempt |= {f"ArVertex.{f.name}" for f in dataclasses.fields(ArVertex)}
    functions, members, names, attrs = [], [], set(), set()
    for path in sorted((SRC / "eqposet").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append(node.name)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        # the method, and each attribute it assigns on self
                        defined = [item.name, *sorted({n.attr for n in ast.walk(item) if isinstance(n, ast.Attribute)
                                                       and isinstance(n.ctx, ast.Store)
                                                       and isinstance(n.value, ast.Name) and n.value.id == "self"})]
                    elif isinstance(item, ast.AnnAssign):
                        defined = [item.target.id]
                    elif isinstance(item, ast.Assign):  # also `a, b = ...`
                        defined = [n.id for t in item.targets for n in ast.walk(t)
                                   if isinstance(n, ast.Name)]
                    else:
                        continue
                    members += [f"{node.name}.{name}" for name in defined]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attrs.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                attrs.add(n.value)
    assert len(functions) + len(members) > 180
    unread = [q for q in functions if q not in names and q not in attrs]
    unread += [q for q in members if q.rpartition(".")[2] not in attrs]
    unread = [q for q in unread if q not in exempt
              and not (q.rpartition(".")[2].startswith("__") and q.endswith("__"))]
    assert unread == [], unread
