"""Exact linear algebra over small fields.

Two interchangeable drivers with one API: a vectorized mod-q driver on
numpy int64 arrays (q a prime up to MAX_Q) and a generic driver on lists
for any exact field whose elements support +, -, *, / and truthiness (used
for rational-function coefficients).  Both produce reduced row echelon
bases, so span bases are canonical and coordinate extraction reads off
pivot columns.  No floating point is used.
"""

from __future__ import annotations

import math

import numpy as np


# Residues mod q lie in [0, q).  A product of two of them, plus a residue
# already accumulated, must fit in int64: (q - 1)^2 + (q - 1) <= 2^63 - 1,
# which holds exactly when (q - 1)^2 < 2^63.
INT64_MAX = 2**63 - 1
MAX_Q = math.isqrt(INT64_MAX) + 1

# rref takes rows in blocks of max(cols, RREF_MIN_BLOCK)
RREF_MIN_BLOCK = 32


class ModQ:
    """Arithmetic driver for matrices over Z/q, q prime and at most MAX_Q.

    Every matrix handed in or out holds residues in [0, q).  All arithmetic
    is exact int64: a product splits its inner dimension into chunks short
    enough that no partial sum can overflow."""

    def __init__(self, q: int):
        if q > MAX_Q:
            raise ValueError(f"q = {q} is too large for int64 arithmetic (max {MAX_Q})")
        self.q = q
        self.size = q
        self.zero, self.one = 0, 1
        # longest inner dimension of one int64 product, accumulator included
        self.chunk = (INT64_MAX - (q - 1)) // (q - 1) ** 2

    def mat(self, rows) -> np.ndarray:
        return np.array(rows, dtype=np.int64) % self.q

    def zeros(self, r: int, c: int) -> np.ndarray:
        return np.zeros((r, c), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def rows(self, A: np.ndarray) -> list:
        return list(A)

    def reshape(self, A, r: int, c: int) -> np.ndarray:
        """The entries of A (a vector, a matrix or a list of matrices) in
        row-major order, as an r x c matrix."""
        return np.asarray(A, dtype=np.int64).reshape(r, c)

    def transpose(self, A: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(A.T)

    def hstack(self, mats: list) -> np.ndarray:
        return np.hstack(mats)

    def vstack(self, mats: list) -> np.ndarray:
        return np.vstack(mats)

    def kron(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        (a0, a1), (b0, b1) = A.shape, B.shape
        return (A[:, None, :, None] * B[None, :, None, :]).reshape(a0 * b0, a1 * b1) % self.q

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        k, step = A.shape[1], self.chunk
        if k <= step:
            return (A @ B) % self.q
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for s in range(0, k, step):
            out = (out + A[:, s:s + step] @ B[s:s + step]) % self.q
        return out

    def sub(self, A, B):
        return (A - B) % self.q

    def smul(self, s: int, A):
        return ((s % self.q) * A) % self.q

    def eq(self, A, B) -> bool:
        return bool(np.array_equal(A % self.q, B % self.q))

    def rref(self, A: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon basis of the row space of A, and its pivots.

        Rows are taken in blocks of max(cols, RREF_MIN_BLOCK).  One product
        X - X[:, piv] @ R, taken on the columns that are not yet pivots,
        reduces a block X against the basis R found so far.  Per-pivot
        elimination then runs on the nonzero rows left of that block alone,
        and the basis is cleared at the new pivots by one more product."""
        q = self.q
        A = np.asarray(A, dtype=np.int64) % q
        rows, cols = A.shape
        step = max(cols, RREF_MIN_BLOCK)
        if rows <= step:
            return self._eliminate(A)
        R, piv = self.zeros(0, cols), []
        for start in range(0, rows, step):
            free = np.setdiff1d(np.arange(cols), piv)
            if free.size == 0:
                break
            X = A[start:start + step, free]
            if piv:
                X = (X - self.matmul(A[start:start + step, piv], R[:, free])) % q
            Rf, pf = self._eliminate(X[X.any(axis=1)])
            if pf:
                new = free[pf]
                R[:, free] = (R[:, free] - self.matmul(R[:, new], Rf)) % q
                Rx = self.zeros(len(pf), cols)
                Rx[:, free] = Rf
                R = np.vstack([R, Rx])
                piv += new.tolist()
        order = np.argsort(piv, kind="stable")
        return R[order], [piv[k] for k in order]

    def _eliminate(self, A: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Per-pivot Gauss-Jordan elimination of a reduced matrix, in place."""
        q = self.q
        rows, cols = A.shape
        piv: list[int] = []
        r = 0
        for c in range(cols):
            if r >= rows:
                break
            nz = np.nonzero(A[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                A[[r, i]] = A[[i, r]]
            A[r] = A[r] * pow(int(A[r, c]), -1, q) % q
            col = A[:, c].copy()
            col[r] = 0
            A -= np.outer(col, A[r])
            A %= q
            piv.append(c)
            r += 1
        return A[:r], piv

    def rank(self, A: np.ndarray) -> int:
        if A.size == 0:
            return 0
        return len(self.rref(A)[1])

    def nullspace(self, A: np.ndarray) -> np.ndarray:
        """Rows span {x : A x = 0}."""
        cols = A.shape[1]
        R, piv = self.rref(A)
        free = np.setdiff1d(np.arange(cols), piv)
        basis = np.zeros((free.size, cols), dtype=np.int64)
        basis[np.arange(free.size), free] = 1
        basis[:, piv] = (-R[:, free].T) % self.q
        return basis

    def reduce(self, R: np.ndarray, piv: list[int], v) -> np.ndarray:
        v = np.array(v, dtype=np.int64) % self.q
        for i, pc in enumerate(piv):
            if v[pc]:
                v = (v - v[pc] * R[i]) % self.q
        return v

    def in_span(self, R: np.ndarray, piv: list[int], v: np.ndarray) -> bool:
        return not self.reduce(R, piv, v).any()

    def coords(self, R: np.ndarray, piv: list[int], v: np.ndarray) -> np.ndarray:
        """Coefficients of v in the rref basis R; raises if v is outside the span."""
        if not self.in_span(R, piv, v):
            raise ValueError("vector outside span")
        return np.array([v[pc] for pc in piv], dtype=np.int64) % self.q

    def coords_rows(self, R: np.ndarray, piv: list[int], W: np.ndarray):
        """Coefficients of every row of W in the rref basis R, one row each,
        or None when some row of W is outside the span."""
        C = W[:, piv] % self.q
        return C if self.eq(self.matmul(C, R), W) else None


class GenericField:
    """Same driver API over an arbitrary exact field (list-of-list matrices);
    convert maps an int or a field element to a field element."""

    size = None  # the field is infinite

    def __init__(self, convert):
        self.convert = convert
        self.zero, self.one = convert(0), convert(1)

    def mat(self, rows):
        return [[self.convert(x) for x in row] for row in rows]

    def zeros(self, r, c):
        return [[self.zero for _ in range(c)] for _ in range(r)]

    def eye(self, n):
        return [[self.one if i == j else self.zero for j in range(n)] for i in range(n)]

    def rows(self, A) -> list:
        return list(A)

    def reshape(self, A, r, c):
        flat = list(A)
        while flat and isinstance(flat[0], (list, tuple)):
            flat = [x for part in flat for x in part]
        return [flat[i * c:(i + 1) * c] for i in range(r)]

    def transpose(self, A):
        return [list(col) for col in zip(*A)]

    def hstack(self, mats):
        return [[x for part in parts for x in part] for parts in zip(*mats)]

    def vstack(self, mats):
        return [row for m in mats for row in m]

    def kron(self, A, B):
        return [[x for a in ra for x in self._scaled(a, rb)] for ra in A for rb in B]

    def _scaled(self, a, row):
        # kron's factors are mostly 0 and 1, and products of rational functions are costly
        if not a:
            return [self.zero] * len(row)
        if a == self.one:
            return list(row)
        return [(a if b == self.one else a * b) if b else self.zero for b in row]

    def matmul(self, A, B):
        rb = len(B)
        cb = len(B[0]) if rb else 0
        out = []
        for row in A:
            acc = [self.zero] * cb
            for k, x in enumerate(row):
                if not x:
                    continue
                Bk = B[k]
                for j in range(cb):
                    if Bk[j]:
                        acc[j] = acc[j] + x * Bk[j]
            out.append(acc)
        return out

    def sub(self, A, B):
        return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(A, B)]

    def smul(self, s, A):
        s = self.convert(s)
        return [[s * x for x in row] for row in A]

    def eq(self, A, B) -> bool:
        return all(x == y for r1, r2 in zip(A, B) for x, y in zip(r1, r2))

    def rref(self, A):
        A = [list(row) for row in A]
        rows = len(A)
        cols = len(A[0]) if rows else 0
        piv: list[int] = []
        r = 0
        for c in range(cols):
            if r >= rows:
                break
            sel = next((i for i in range(r, rows) if A[i][c]), None)
            if sel is None:
                continue
            A[r], A[sel] = A[sel], A[r]
            row = A[r]
            # entries left of c are zero in every row from r on
            nz = [k for k in range(c, cols) if row[k]]
            inv = self.one / row[c]
            for k in nz:
                row[k] = row[k] * inv
            for i in range(rows):
                f = A[i][c]
                if f and i != r:
                    Ai = A[i]
                    for k in nz:
                        Ai[k] = Ai[k] - f * row[k]
            piv.append(c)
            r += 1
        return A[:r], piv

    def rank(self, A) -> int:
        if not A:
            return 0
        return len(self.rref(A)[1])

    def nullspace(self, A):
        rows = len(A)
        cols = len(A[0]) if rows else 0
        R, piv = self.rref(A)
        pivset = set(piv)
        free = [c for c in range(cols) if c not in pivset]
        basis = []
        for fc in free:
            vec = [self.zero] * cols
            vec[fc] = self.one
            for i, pc in enumerate(piv):
                vec[pc] = self.zero - R[i][fc]
            basis.append(vec)
        return basis

    def reduce(self, R, piv, v):
        v = list(v)
        for i, pc in enumerate(piv):
            if v[pc]:
                f = v[pc]
                v = [x - f * y for x, y in zip(v, R[i])]
        return v

    def in_span(self, R, piv, v) -> bool:
        return all(not x for x in self.reduce(R, piv, v))

    def coords(self, R, piv, v):
        if not self.in_span(R, piv, v):
            raise ValueError("vector outside span")
        return [v[pc] for pc in piv]

    def coords_rows(self, R, piv, W):
        out = []
        for w in W:
            if not self.in_span(R, piv, w):
                return None
            out.append([w[pc] for pc in piv])
        return out
