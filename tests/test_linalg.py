"""The mod-q driver against a plain per-pivot elimination on Python ints, and
the generic driver against its dense elimination over F_p(t)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqposet import Tower, TowerSpec
from eqposet.fields import RatFunc
from eqposet.linalg import MAX_Q, RREF_MIN_BLOCK, ModQ
from eqposet.poset import _is_prime

LARGEST_Q = 3037000493  # the largest prime q <= MAX_Q; p = 2 divides q - 1
QS = [3, 11, 1000003, LARGEST_Q]


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
    pivots keep turning up in later row blocks."""
    kind = draw(st.sampled_from(["tall", "wide", "deficient"]))
    if kind == "wide":
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(9, 40))
    else:
        rows = draw(st.integers(RREF_MIN_BLOCK + 1, 4 * RREF_MIN_BLOCK))
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
    A = np.array(rows, dtype=np.int64)
    cols = A.shape[1]
    R_ref, piv_ref = reference_rref(rows, q)
    R, piv = lin.rref(A)
    assert piv == piv_ref
    assert R.tolist() == R_ref
    assert lin.rank(A) == len(piv_ref)
    N = lin.nullspace(A)
    assert N.tolist() == reference_nullspace(rows, q, cols)
    # every basis vector is a kernel vector, checked on Python ints
    for v in N.tolist():
        assert all(sum(a * x for a, x in zip(row, v)) % q == 0 for row in rows)


@pytest.mark.parametrize("q", QS)
def test_matmul_is_exact(q):
    rng = random.Random(q)
    lin = ModQ(q)
    A = [[rng.randrange(q) for _ in range(50)] for _ in range(3)]
    B = [[rng.randrange(q) for _ in range(4)] for _ in range(50)]
    want = [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*B)] for row in A]
    assert lin.matmul(np.array(A), np.array(B)).tolist() == want


def test_max_q_is_the_int64_bound():
    assert (MAX_Q - 1) ** 2 < 2**63 <= MAX_Q**2
    assert _is_prime(LARGEST_Q)
    assert not any(_is_prime(q) for q in range(LARGEST_Q + 1, MAX_Q + 1))
    with pytest.raises(ValueError, match="too large"):
        ModQ(MAX_Q + 1)


def test_tower_accepts_the_largest_q():
    q = LARGEST_Q
    c = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) != 1)
    t = Tower(TowerSpec(2, "cyclic", q, c))
    assert t.omega == q - 1
    a, b = [q - 2, q - 3], [q - 5, q - 7]
    want = [(a[0] * b[0] + c * a[1] * b[1]) % q, (a[0] * b[1] + a[1] * b[0]) % q]
    assert [int(x) for x in t.g_mul(t.lin.mat([a])[0], t.lin.mat([b])[0])] == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_omega_matches_the_scan(p):
    for q in range(3, 2000):
        if not _is_prime(q) or (q - 1) % p:
            continue
        c = next(c for c in range(2, q) if pow(c, (q - 1) // p, q) != 1)
        scan = next(a for a in range(2, q) if pow(a, p, q) == 1)
        assert Tower(TowerSpec(p, "cyclic", q, c)).omega == scan, q


def dense_generic_rref(lin, A):
    """Gauss-Jordan elimination over whole rows, as the generic driver did
    before it touched only the nonzero columns of each pivot row."""
    A = [list(row) for row in A]
    cols = len(A[0]) if A else 0
    piv, r = [], 0
    for c in range(cols):
        sel = next((i for i in range(r, len(A)) if A[i][c]), None)
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        inv = lin.one / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv.append(c)
        r += 1
    return A[:r], piv


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generic_rref_and_kron_match_dense_reference(data):
    """Sparse matrices over F_3(t), with entries c t^k / (t + 1)^m."""
    lin = Tower(TowerSpec(3, "inseparable")).lin
    t, t1 = RatFunc((0, 1), (1,), 3), RatFunc((1, 1), (1,), 3)

    def entry():
        x = lin.convert(data.draw(st.sampled_from([0, 0, 0, 1, 1, 2])))
        for _ in range(data.draw(st.integers(0, 2))):
            x = x * t
        for _ in range(data.draw(st.integers(0, 1))):
            x = x / t1
        return x

    def matrix():
        rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        return [[entry() for _ in range(cols)] for _ in range(rows)]

    A, B = matrix(), matrix()
    assert lin.rref(A) == dense_generic_rref(lin, A)
    assert lin.kron(A, B) == [[a * b for a in ra for b in rb] for ra in A for rb in B]
