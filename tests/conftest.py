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

from eqposet import (EquippedPoset, Flavor, InjectiveProfile, Label, ModelError, RadicalInfo, RatVec,
                     build_model, default_tower, injective_profiles, is_hereditary, load_poset,
                     projective_cd, projective_udimF, quadratic, radical_info, validate,
                     verify_admissible)
from eqposet.model import _loc
from eqposet.oracle import _block, _solve_hom_system
from eqposet.poset import P_LIMIT, P_RANGE, Violation, _is_prime, shown

FIXTURES = resources.files("eqposet") / "fixtures"
DATA = Path(__file__).parent / "data"
TABLES = DATA / "tables"

ALL_FIXTURES = [
    "trivial", "star2", "star3", "chain2_strong", "twochain2",
    "twochain2_mixed", "vee2", "wide2", "chain3_ell1", "chain3_ell2",
    "mixed3", "diamond3", "four3",
]
FINITE_FIXTURES = ["trivial", "star2", "star3", "chain2_strong", "twochain2",
                   "twochain2_mixed", "chain3_ell2", "mixed3"]
TABLE_NAMES = ["twopoint2", "twopoint3", "chain3", "reorient3", "wild3"]
DEEP_P5 = ["deep_p5_n6", "deep_p5_n7", "deep_p5_n8a", "deep_p5_n8b"]  # p = 5 posets of 6-8 points


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


def load_fixture_or_deep(name: str):
    """A fixture, or one of the `DEEP_P5` posets of tests/data."""
    return load_fixture(name) if name in ALL_FIXTURES else load_poset(str(DATA / f"{name}.eqp"))


def load_table(name: str) -> dict:
    return json.loads((TABLES / f"{name}.json").read_text())


def table_mismatches(table: dict) -> list[str]:
    """The pairs of a stored grid whose flavor-c vector is not the image of
    their flavor-r one: under w^-1, which multiplies the strong coordinates
    by p, for a Strong label; under s^-1, which divides the weak ones by p,
    for a Weak one."""
    p, strong = table["p"], [s == "strong" for s in table["strengths"]]
    out = []
    for pair in table["pairs"]:
        rv, cv = RatVec.from_seq(pair["r"]), RatVec.from_seq(pair["c"])
        if pair["label"] == Label.STRONG:
            want = RatVec.from_seq([e * p if s else e for e, s in zip(rv, strong)])
        elif any(e % p for e, s in zip(rv, strong) if not s):
            out.append(f"{pair['pos']}: non-integral image of {rv}")
            continue
        else:
            want = RatVec.from_seq([e if s else e // p for e, s in zip(rv, strong)])
        if want != cv:
            out.append(f"{pair['pos']}: expected {want}, got {cv}")
    return out


def model(name: str, flavor):
    return build_model(load_fixture(name), Flavor(flavor))


@functools.lru_cache(maxsize=None)
def cached_tower(p: int, mode: str):
    return default_tower(p, mode)


@pytest.fixture
def star2():
    return load_fixture("star2")


@pytest.fixture
def default_digit_limit():
    """Python's default limit on the digits of int -> str, where it has one,
    for the test; the limit found before is put back afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    old = limit and limit()
    if limit:
        sys.set_int_max_str_digits(4300)
    yield
    if limit:
        assert sys.get_int_max_str_digits() == 4300  # the emitters never change the limit
        sys.set_int_max_str_digits(old)


def enumerated_division(fam, x: str) -> bool:
    """The reference for A.2's division verdict over F_q: whether every nonzero
    element of R_x has a right inverse, found by one rank per line of R_x
    through 0 (the element whose first nonzero coordinate is 1), so
    (q^d - 1) / (q - 1) ranks for a d-dimensional R_x.  e divides exactly
    when e * b_1, ..., e * b_d have rank d, and the products come from those
    of basis elements, multiplied by `RFamily.compose`: e * b_k = sum_a e_a
    (b_a * b_k)."""
    lin, d, B = fam.tower.lin, fam.dim(x, x), fam.basis[(x, x)]
    coeffs = [(0,) * i + (1,) + tail for i in range(d)
              for tail in itertools.product(range(lin.q), repeat=d - 1 - i)]
    e_b = [lin.matmul(coeffs, [fam.compose(b, s) for b in B]) for s in B]
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


def rank_hom_dim(fam, i: str, j: str, blocks: list[str]) -> int:
    """The reference for `oracle._solve_hom_system`: the same system, every
    nonzero row built as a dict and handed to one sparse rank, N minus it."""
    lin = fam.tower.lin
    d, e, off, N = {}, {}, {}, 0
    for l in blocks:
        d[l], e[l], off[l] = fam.dim(i, l), fam.dim(j, l), N
        N += e[l] * d[l]
    if N == 0:
        return 0
    parts = []
    for l in blocks:
        if d[l] == 0:
            continue
        for lp in fam.above[l]:
            Ci, ti = fam.table(i, l, lp)
            Cj, tj = fam.table(j, l, lp) if e[l] else (None, None)
            if e[lp]:
                parts.append((l, lp, Ci, Cj, ti, tj, fam.generators(l, lp)))

    def rows():
        for l, lp, Ci, Cj, ti, tj, picks in parts:
            for k in picks:
                unit_i, C, *_ = _block(lin, ti, Ci, k)
                unit_j, _, Dt, *_ = _block(lin, tj, Cj, k) if e[l] else (False, None, [()] * e[lp])
                if l == lp and unit_i and unit_j:
                    continue
                for r in range(e[lp]):
                    for a in range(d[l]):
                        row = {off[lp] + r * d[lp] + b: x for b, x in C[a]}
                        for u, x in Dt[r]:
                            col = off[l] + u * d[l] + a
                            row[col] = row[col] - x if col in row else -x
                        if any(row.values()):
                            yield row

    return N - lin.rank(rows())


def hom_systems(fam):
    """Every hom and radical system the oracle asks of fam, as (i, j, blocks),
    once per key of `oracle._grade_preserving_hom_dim`."""
    m, seen = fam.member.get, set()
    for i, above in fam.above.items():
        asked = [(j, above) for j in fam.above]
        asked += [(i, [l for l in above if l != i])] if i != fam.poset.max else []
        for j, blocks in asked:
            key = (*[m((x, l)) for l in blocks for x in (i, j)],
                   *[m((l, lp)) for l in blocks for lp in blocks])
            if key not in seen:
                seen.add(key)
                yield i, j, blocks


def assert_solver_matches_reference(fam) -> int:
    """`_solve_hom_system` equals `rank_hom_dim` on every distinct system of
    fam; returns the number of systems."""
    n = 0
    for i, j, blocks in hom_systems(fam):
        assert _solve_hom_system(fam, i, j, blocks) == rank_hom_dim(fam, i, j, blocks), \
            (fam.poset, fam.flavor.value, i, j, blocks)
        n += 1
    return n


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


def is_slender_above(P, x: str) -> bool:
    """Whether {y : x <= y} is slender: a chain whose weak points form a lower
    segment, pairwise related by ell = 1."""
    rel = P.rel
    up = [y for y in P.points if (x, y) in rel]
    if any((a, b) not in rel and (b, a) not in rel for a, b in itertools.combinations(up, 2)):
        return False
    chain = sorted(up, key=lambda y: sum((y, z) in rel for z in up), reverse=True)
    weak = [y for y in chain if y not in P.strong]
    return weak == chain[:len(weak)] and all(
        rel[(a, b)] == 1 for a, b in itertools.combinations(weak, 2))


def check_component_invariants(M, G, where) -> None:
    """The structural invariants of a knitted component: ids, sections,
    tau-orbit labels, mesh conservation, the q-label law, divisibility and
    unique vertex identity."""
    p = M.poset.p
    V = G.vertices   # built on each read
    n = len(V)
    # acyclicity and id sanity: vertex i is entry i of every per-vertex list
    assert {len(G.section_of), len(G.labels), len(G.udimF), len(G.udim), len(G.cd),
            len(G.proj_point), len(G.inj_point)} == {n}
    for a in G.arrows:
        assert 0 <= a.src < a.dst < n
    # sections are disjoint and cover everything
    flat = [i for sec in G.sections for i in sec]
    assert sorted(flat) == list(range(n))
    # tau-orbit label constancy
    for x, y in G.tau_inv.items():
        assert V[x].label == V[y].label
    # mesh conservation, recomputed from arrows alone
    for x, y in G.tau_inv.items():
        total = sum((a.a * RatVec(V[a.src].udimF) for a in G.arrows if a.dst == y),
                    RatVec.zeros(M.poset.n))
        assert total == RatVec(V[x].udimF) + RatVec(V[y].udimF), (where, x)
    # q-label law at cd-bearing vertices
    for i, v in enumerate(V):
        if v.cd is not None:
            q = quadratic(M, v.cd)
            assert q in (1, p)
            assert q == M.kdim(v.label), (where, i)
    # divisibility of udimF and the udim law
    for v in V:
        k = M.kdim(v.label)
        assert all(e % k == 0 for e in v.udimF)
        for j, pt in enumerate(M.poset.points):
            assert v.udim[j] * M.hom_dim(pt, pt) == v.udimF[j]
    # vertex identity is unique
    keys = {(v.udimF, v.label) for v in V}
    assert len(keys) == n


# ---------------------------------------------------------------- operator references
# The flavor-r realization as it was built before members were cut and
# operator products were flattened: every product a `matmul` on nested lists.

def flatten(m):
    """The row-major vector of an operator: the flavor-r form of a member."""
    return [x for row in m for x in row]


def unflatten(t, v):
    """The p x p operator of a row-major vector of length p^2."""
    return [list(v[i:i + t.p]) for i in range(0, t.p * t.p, t.p)]


def reference_eps(t, strong: bool):
    """The idempotent of a point: the corner projection when strong, the
    identity when weak."""
    return t.lin.mat([[int(i == j and (i == 0 or not strong)) for j in range(t.p)]
                      for i in range(t.p)])


def reference_a_ell_basis(t, ell: int) -> list:
    """mu_(xi^j) . theta^i for i < ell, j < p: one `mu_mat` per (i, j), times
    theta^i, the powers starting from the identity."""
    lin, out, theta_pow = t.lin, [], t.lin.eye(t.p)
    for _ in range(ell):
        for j in range(t.p):
            out.append(lin.matmul(t.mu_mat(t.xi_pow(j)), theta_pow))
        theta_pow = lin.matmul(t.theta, theta_pow)
    return out


def reference_member_gens(t, strong_x: bool, strong_y: bool, ell: int) -> list:
    """The flattened eps_y . a . eps_x, two matmuls each, for every a of
    `reference_a_ell_basis(t, ell)`: the rows that span R_{x,y} in flavor r."""
    lin, ex, ey = t.lin, reference_eps(t, strong_x), reference_eps(t, strong_y)
    return [flatten(lin.matmul(lin.matmul(ey, a), ex)) for a in reference_a_ell_basis(t, ell)]


def reference_compose(t, u, v):
    """The flavor-r product u * v: the matrix product v u, unflattened and
    flattened back."""
    return flatten(t.lin.matmul(unflatten(t, v), unflatten(t, u)))


def reference_close(lin, local: bool, left: list, right: list, inner: list) -> list[int]:
    """`oracle._close` without the early stop: a local closure runs until a
    round of products adds nothing, also after its span is the whole member."""
    d, ys = len(left), [C for T in inner for C in T]
    picks, (R, piv) = [], lin.rref(lin.vstack(ys))
    flat = [[x for row in C for x in row] for C in left]
    for k in range(d):
        unit = lin.mat([[int(i == k) for i in range(d)]])
        if len(piv) == d or lin.in_span(R, piv, unit[0]):
            continue
        picks.append(k)
        if local:
            size, (R, piv) = 0, lin.rref(lin.vstack([R, unit]))
            while len(piv) > size:
                size = len(piv)
                R, piv = lin.rref(lin.vstack(
                    [R] + [lin.matmul(R, [m[a * d:(a + 1) * d] for a in range(d)])
                           for m in lin.matmul(R, flat)]))
        else:
            rows = [unit, left[k]]
            R, piv = lin.rref(lin.vstack(
                [R] + rows + [lin.matmul(X, C) for X in rows for C in right]))
    return picks


def assert_picks_match_reference(fam) -> int:
    """`RFamily.generators` equals `reference_close` on the same action tables
    for every comparable pair (l, l') of fam; returns the number of pairs."""
    lin, above, n = fam.tower.lin, fam.above, 0
    for l in above:
        for lp in above[l]:
            mid = [y for y in above[l] if y not in (l, lp) and lp in above[y]]
            want = reference_close(lin, l == lp, fam.table(l, l, lp)[0], fam.table(l, lp, lp)[0],
                                   [fam.table(l, y, lp)[0] for y in mid])
            assert fam.generators(l, lp) == want, (fam.poset, fam.flavor.value, l, lp)
            n += 1
    return n


# ---------------------------------------------------------------- references
# The per-point arithmetic of the model and the validation loops as they were
# written before the indexed tables: every lookup goes through point names.
# The tables of model.py and poset.py are checked against them.

def reference_violations(P) -> list:
    """validate(P).violations, from a pair x point loop over `rel`."""
    out = []
    add = out.append
    if P.p >= P_LIMIT:
        add(Violation("p-range", f"p is {P_RANGE}"))
    elif not _is_prime(P.p):
        add(Violation("p-not-prime", f"p = {shown(P.p)} is not prime"))
    pts = set(P.points)
    if len(pts) != len(P.points):
        add(Violation("duplicate-point", "duplicate point names"))
    for (x, y), l in P.rel.items():
        if x not in pts or y not in pts:
            add(Violation("unknown-point", "relation references unknown point", (x, y)))
        if not (1 <= l <= P.p):
            add(Violation("ell-range", f"ell = {shown(l)} outside 1..{shown(P.p)}", (x, y)))
    for x in P.points:
        want = P.p if x in P.strong else 1
        got = P.rel.get((x, x))
        if got is None:
            add(Violation("reflexive", "missing reflexive relation", (x,)))
        elif got != want:
            add(Violation("reflexive", f"reflexive ell = {shown(got)}, expected {shown(want)}", (x,)))
    strict = [(x, y) for (x, y) in P.rel if x != y]
    for (x, y) in strict:
        if (y, x) in P.rel:
            add(Violation("antisymmetry", "both x <= y and y <= x", (x, y)))
        if (x in P.strong or y in P.strong) and P.rel[(x, y)] != P.p:
            add(Violation("strong-relation",
                          f"relation touching a strong point has ell = {shown(P.rel[(x, y)])} != p", (x, y)))
    for (x, y) in strict:
        for z in P.points:
            if z in (x, y) or (y, z) not in P.rel:
                continue
            if (x, z) not in P.rel:
                add(Violation("transitivity", "x <= y <= z but x, z incomparable", (x, y, z)))
                continue
            need = min(P.rel[(x, y)] + P.rel[(y, z)] - 1, P.p)
            got = P.rel[(x, z)]
            if got < need:
                add(Violation("composition",
                              f"ell(x, z) = {shown(got)} < {shown(need)} forced by the chain", (x, y, z)))
    return out


def reference_hasse(P) -> dict:
    """Covering successors of each point, in declaration order."""
    rel = P.rel
    succ = {x: [] for x in P.points}
    for (x, y) in rel:
        if x != y and not any((x, z) in rel and (z, y) in rel and z not in (x, y) for z in P.points):
            succ[x].append(y)
    return {x: tuple(sorted(ys, key=P.index.__getitem__)) for x, ys in succ.items()}


def _reference_hom_piece(flavor, P, x: str, y: str, e: int) -> int:
    if flavor is Flavor.C:
        return e
    num = e * _loc(flavor, x in P.strong, P.p) * _loc(flavor, y in P.strong, P.p)
    if num % P.p:
        raise ModelError(f"non-integral hom dimension at ({x}, {y})")
    return num // P.p


def _reference_c_coeff(M, x: str) -> int:
    P = M.poset
    a, b = M.hom_dim(P.zero, x), M.hom_dim(P.zero, P.zero)
    if a % b:
        raise ModelError(f"socle coefficient at {x} is not integral")
    c = a // b
    a2, b2 = M.hom_dim(x, P.max), M.hom_dim(P.max, P.max)
    if a2 != c * b2:
        raise ModelError(f"socle coefficient mismatch at {x}: {a}/{b} vs {a2}/{b2}")
    return c


def reference_projective_cd(M, x: str):
    P = M.poset
    if x == P.zero:
        raise ModelError("the minimal point carries no vertex projective")
    n = P.n
    return (RatVec.unit(n, P.index[x]) + _reference_c_coeff(M, x) * RatVec.unit(n, P.index[P.zero])).entries


def reference_radical_info(M, x: str):
    P = M.poset
    p = P.p
    if x == P.max:
        raise ModelError("the radical at the maximal point is zero")
    rel, idx, hom = P.rel, P.index, M.hom
    uppers = [y for y in P.points if (x, y) in rel and y != x]
    label = Label.STRONG if (x in P.strong or all(rel[x, y] == p for y in uppers)) else Label.WEAK
    tee = M.flavor is Flavor.R and label is Label.STRONG and x not in P.strong
    mult = p if tee else 1
    row = hom[idx[P.zero] if tee else idx[x]]
    udimF = [0] * P.n
    for y in uppers:
        udimF[idx[y]] = row[idx[y]]
    cd = [0] * P.n
    for z in uppers:
        e_z = max((min(rel[x, y] + rel[y, z] - 1, p)
                   for y in uppers if y != z and (y, z) in rel), default=0)
        top = _reference_hom_piece(M.flavor, P, x, z, rel[x, z]) - _reference_hom_piece(M.flavor, P, x, z, e_z)
        k = idx[z]
        if top < 0 or top % hom[k][k]:
            raise ModelError(f"cover multiplicity at ({x}, {z}) is not integral")
        cd[k] = top // hom[k][k]
    cd[idx[P.zero]] = _reference_c_coeff(M, x)
    if any(e % mult for e in cd):
        raise ModelError(f"radical summand coordinates at {x} are not integral")
    succ = reference_hasse(P)[x]
    proj = None
    if len(succ) == 1:
        j = succ[0]
        if all(rel[x, u] == rel[j, u] for u in P.points if (j, u) in rel):
            proj = j
    return RadicalInfo(mult, label, tuple(udimF), tuple(e // mult for e in cd), proj)


def reference_is_hereditary(M, x: str) -> bool:
    while x != M.poset.max:
        info = reference_radical_info(M, x)
        if info.is_projective is None:
            return False
        x = info.is_projective
    return True


def reference_injective_profiles(M) -> dict:
    P = M.poset
    idx = P.index
    bottom = M.hom[idx[P.zero]]
    out, seen = {}, {}
    for x in P.points:
        if x == P.max:
            continue
        c = _reference_c_coeff(M, x)
        vals = []
        for j, y in enumerate(P.points):
            v = c * bottom[j] - M.hom_dim(y, x)
            if v < 0:
                raise ModelError(f"negative injective profile entry at ({x}, {y})")
            vals.append(v)
        if vals[idx[P.max]] <= 0:
            raise ModelError(f"injective profile at {x} misses the socle")
        label = Label.STRONG if x in P.strong else Label.WEAK
        prof = InjectiveProfile(label, tuple(vals))
        key = (prof.udimF, label)
        if key in seen:
            raise ModelError(f"injective profiles collide: {seen[key]} vs {x}")
        seen[key] = x
        out[x] = prof
    return out


def outcome(f, *args):
    """("ok", value) or ("error", ModelError text) of a call."""
    try:
        return "ok", f(*args)
    except ModelError as e:
        return "error", str(e)


def reference_first_error(M) -> str | None:
    """The text of the reference's first ModelError in the table's check
    order: the socle coefficients and then the radicals, each in point order,
    then the injective profiles; None when it meets none."""
    P = M.poset
    calls = ([functools.partial(_reference_c_coeff, M, x) for x in P.points]
             + [functools.partial(reference_radical_info, M, x) for x in P.points if x != P.max]
             + [functools.partial(reference_injective_profiles, M)])
    return next((text for kind, text in map(outcome, calls) if kind == "error"), None)


def assert_table_matches_reference(M, where=None) -> list[str]:
    """When the reference meets no error, every per-point answer of the model
    equals the reference's: equal objects, or the two sentinel ModelErrors
    with equal text.  Otherwise every call that reads the table raises the
    reference's first error.  Returns the error texts seen."""
    P = M.poset
    first = reference_first_error(M)
    failed = ("error", first)
    errors = []
    for x in P.points:
        for f, ref, sentinel_at in ((radical_info, reference_radical_info, P.max),
                                    (projective_cd, reference_projective_cd, P.zero)):
            got = outcome(f, M, x)
            want = outcome(ref, M, x) if first is None or x == sentinel_at else failed
            assert got == want, (where, M.flavor.value, f.__name__, x)
            errors += [got[1]] if got[0] == "error" else []
        want = ("ok", M.hom[P.index[x]]) if first is None else failed
        assert outcome(projective_udimF, M, x) == want, (where, x)
    got = outcome(injective_profiles, M)
    assert got == (outcome(reference_injective_profiles, M) if first is None else failed), \
        (where, M.flavor.value)
    errors += [got[1]] if got[0] == "error" else []
    for x in P.points:
        want = outcome(reference_is_hereditary, M, x) if first is None or x == P.max else failed
        assert outcome(is_hereditary, M, x) == want, (where, x)
    return errors
