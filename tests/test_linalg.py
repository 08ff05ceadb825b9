"""The driver over F_q, and its sparse rank, against a plain per-pivot
elimination on Python ints."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python, src_imports
from eqposet import ParameterError, Tower, default_tower
from eqposet.fields import MAX_Q
from eqposet.linalg import ModQ
from eqposet.poset import _is_prime

LARGEST_Q = 3037000493  # the largest prime q <= MAX_Q; p = 2 divides q - 1
QS = [3, 11, 1000003, LARGEST_Q]
TALL = 32  # tall matrices have TALL + 1 to 4 * TALL rows


def reference_rref(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination one pivot at a time over the whole matrix."""
    A = [[x % q for x in row] for row in rows]
    cols = len(A[0]) if A else 0
    piv: list[int] = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, len(A)) if A[i][c]), None)
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        inv = pow(A[r][c], -1, q)
        A[r] = [x * inv % q for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % q for x, y in zip(A[i], A[r])]
        piv.append(c)
        r += 1
    return A[:r], piv


def reference_nullspace(rows, q, cols):
    R, piv = reference_rref(rows, q)
    free = [c for c in range(cols) if c not in piv]
    basis = []
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for i, pc in enumerate(piv):
            vec[pc] = -R[i][fc] % q
        basis.append(vec)
    return basis


@st.composite
def matrices(draw, q):
    """Tall, wide or rank-deficient matrices over Z/q.  Row i combines only
    the first few of k random basis rows, more of them further down, so new
    pivots keep turning up far down the matrix."""
    kind = draw(st.sampled_from(["tall", "wide", "deficient"]))
    if kind == "wide":
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(9, 40))
    else:
        rows = draw(st.integers(TALL + 1, 4 * TALL))
        cols = draw(st.integers(1, 40))
    full = min(rows, cols)
    k = full if kind != "deficient" else draw(st.integers(0, full))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    zero_rows = draw(st.booleans())
    basis = [[rng.randrange(q) for _ in range(cols)] for _ in range(k)]
    out = []
    for i in range(rows):
        used = min(k, 1 + i * k // rows)
        coeffs = [rng.randrange(q) if not zero_rows or rng.random() < 0.5 else 0
                  for _ in range(used)]
        out.append([sum(c * b[j] for c, b in zip(coeffs, basis)) % q for j in range(cols)])
    return out


@pytest.mark.parametrize("q", QS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_rank_nullspace_match_reference(q, data):
    rows = data.draw(matrices(q))
    lin = ModQ(q)
    cols = len(rows[0])
    R_ref, piv_ref = reference_rref(rows, q)
    R, piv = lin.rref(rows)
    assert piv == piv_ref
    assert R == R_ref
    assert lin.rank(dict(enumerate(row)) for row in rows) == len(piv_ref)
    N = lin.nullspace(rows)
    assert N == reference_nullspace(rows, q, cols)
    # every basis vector is a kernel vector
    for v in N:
        assert all(sum(a * x for a, x in zip(row, v)) % q == 0 for row in rows)


@pytest.mark.parametrize("q", QS)
def test_matmul_is_exact(q):
    rng = random.Random(q)
    lin = ModQ(q)
    A = [[rng.randrange(q) for _ in range(50)] for _ in range(3)]
    B = [[rng.randrange(q) for _ in range(4)] for _ in range(50)]
    want = [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*B)] for row in A]
    assert lin.matmul(A, B) == want


def test_tower_refuses_q_past_max_q():
    """MAX_Q bounds trial division, not arithmetic: LARGEST_Q is the largest
    prime a tower takes, and the first prime past MAX_Q is refused."""
    assert MAX_Q == 3037000500
    assert _is_prime(LARGEST_Q)
    assert not any(_is_prime(q) for q in range(LARGEST_Q + 1, MAX_Q + 1))
    q = next(q for q in range(MAX_Q + 1, MAX_Q + 100) if _is_prime(q))
    with pytest.raises(ParameterError, match="too large"):
        Tower(2, "cyclic", q, 3)


def largest_q_tower():
    q = LARGEST_Q
    c = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) != 1)
    return Tower(2, "cyclic", q, c)


def test_tower_accepts_the_largest_q():
    t = largest_q_tower()
    q, c = LARGEST_Q, t.c
    assert t.omega == q - 1
    a, b = [q - 2, q - 3], [q - 5, q - 7]
    want = [(a[0] * b[0] + c * a[1] * b[1]) % q, (a[0] * b[1] + a[1] * b[0]) % q]
    assert t.g_mul(t.lin.mat([a])[0], t.lin.mat([b])[0]) == want


def naive_g_mul(t, a, b):
    """a b in F[xi]/(xi^p - c): the full product, of degree <= 2p - 2, then
    long division by xi^p - c from the top coefficient down."""
    lin, p = t.lin, t.p
    out = [lin.zero] * (2 * p - 1)
    for i in range(p):
        for j in range(p):
            out[i + j] = lin.norm(out[i + j] + a[i] * b[j])
    for k in range(2 * p - 2, p - 1, -1):
        out[k - p] = lin.norm(out[k - p] + t.c * out[k])
    return out[:p]


@pytest.mark.parametrize("tower", [
    pytest.param(lambda: default_tower(2), id="cyclic-2"),
    pytest.param(lambda: default_tower(3), id="cyclic-3"),
    pytest.param(lambda: default_tower(5), id="cyclic-5"),
    pytest.param(largest_q_tower, id="largest-q"),
    pytest.param(lambda: default_tower(2, "inseparable"), id="inseparable-2"),
    pytest.param(lambda: default_tower(3, "inseparable"), id="inseparable-3"),
])
def test_g_mul_matches_naive_product(tower):
    """g_mul is the product modulo xi^p - c and commutes, and column j of
    mu_mat(g) is g xi^j, on random elements with some zero coefficients."""
    t = tower()
    lin, p = t.lin, t.p
    rng = random.Random(p)

    def entry():
        """0 or a residue of F_q (F_p for an inseparable tower)."""
        return rng.choice([0, rng.randrange(lin.q)])

    for _ in range(30):
        a, b = [entry() for _ in range(p)], [entry() for _ in range(p)]
        ab = t.g_mul(a, b)
        assert ab == naive_g_mul(t, a, b)
        assert ab == t.g_mul(b, a)
        mu = t.mu_mat(a)
        for j in range(p):
            xj = t.xi_pow(j)
            assert [row[j] for row in mu] == t.g_mul(a, xj) == naive_g_mul(t, a, xj)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_omega_matches_the_scan(p):
    for q in range(3, 2000):
        if not _is_prime(q) or (q - 1) % p:
            continue
        c = next(c for c in range(2, q) if pow(c, (q - 1) // p, q) != 1)
        scan = next(a for a in range(2, q) if pow(a, p, q) == 1)
        assert Tower(p, "cyclic", q, c).omega == scan, q


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generic_rref_matches_dense_reference(data):
    """Sparse matrices over F_3, the inseparable tower's field for p = 3."""
    lin = Tower(3, "inseparable").lin

    def entry():
        return data.draw(st.sampled_from([0, 0, 0, 1, 1, 2]))

    def matrix():
        rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        return [[entry() for _ in range(cols)] for _ in range(rows)]

    A = matrix()
    assert lin.rref(A) == reference_rref(A, 3)


@st.composite
def fill_in_rows(draw, entries, zero):
    """Dense rows over `entries` that fill in under elimination: dense and
    sparse rows, zero rows, repeats of earlier rows and combinations of two
    earlier rows, whose entries may cancel."""
    cols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["dense", "sparse", "zero", "repeat", "combine"]))
        if kind == "dense" or (kind in ("repeat", "combine") and not rows):
            row = draw(st.lists(entries, min_size=cols, max_size=cols))
        elif kind == "sparse":
            keep = draw(st.sets(st.integers(0, cols - 1), max_size=2))
            row = [x if c in keep else zero for c, x in
                   enumerate(draw(st.lists(entries, min_size=cols, max_size=cols)))]
        elif kind == "zero":
            row = [zero] * cols
        elif kind == "repeat":
            s = draw(entries)
            row = [s * x for x in draw(st.sampled_from(rows))]
        else:
            a, b = draw(entries), draw(entries)
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = [a * x + b * y for x, y in zip(r1, r2)]
        rows.append(row)
    return rows


def as_dicts(draw, rows, zero):
    """The rows as dicts column -> entry; some zero entries are kept."""
    return [{c: x for c, x in enumerate(row) if x != zero or draw(st.booleans())}
            for row in rows]


@pytest.mark.parametrize("q", QS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_rank_matches_reference_mod_q(q, data):
    """Entries are any Python ints: the rank reduces them mod q, so q, -1
    and q + 1 stand for 0, q - 1 and 1."""
    entries = st.one_of(st.sampled_from([0, 1, -1, q, q + 1]), st.integers(0, q - 1))
    rows = data.draw(fill_in_rows(entries, 0))
    assert ModQ(q).rank(as_dicts(data.draw, rows, 0)) == len(reference_rref(rows, q)[1])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sparse_rank_matches_reference_over_f3(data):
    """Residues of F_3, the inseparable tower's field for p = 3."""
    lin = Tower(3, "inseparable").lin
    rows = data.draw(fill_in_rows(st.integers(0, 2), lin.zero))
    # the rank norms its raw entries (products and sums of ints may leave
    # [0, 3)), as the reference does
    assert lin.rank(as_dicts(data.draw, rows, lin.zero)) == len(reference_rref(rows, 3)[1])


def test_no_module_imports_numpy():
    """The package runs on Python scalars: no module of it imports numpy."""
    assert [name for name, roots in src_imports().items() if "numpy" in roots] == []


def test_cli_leaves_numpy_unloaded():
    code = "import sys, eqposet.cli; print('numpy' in sys.modules)"
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
