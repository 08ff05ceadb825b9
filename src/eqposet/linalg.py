"""Exact linear algebra mod a prime q.

One driver on lists of rows of Python ints, `GenericField`, which computes mod
the prime `self.q` in place: entries are ints in [0, q), zero and one are the
ints 0 and 1, sums and products are reduced by `% q` and an inverse is
`pow(x, -1, q)`.  `ModQ(q)` sets q.  Both towers run on it, the inseparable
one over F_p (fields.py says why t = 1 suffices).  The two classes stay apart
only because perfbench's tracer wraps the methods of each (ROADMAP item 5
decides, after item 18a).  Every matrix handed in or out holds entries in
[0, q).  Row reduction gives reduced row echelon bases, so span bases are
canonical and `coords` reads each product of A.1's tables off pivot columns;
ranks of systems given row by row go through one sparse elimination.
"""

from __future__ import annotations


class GenericField:
    """The driver: arithmetic mod the prime `self.q`, which `ModQ` sets.  It is a
    class apart from `ModQ` only because perfbench's tracer wraps both."""

    def mat(self, rows):
        q = self.q
        return [[x % q for x in row] for row in rows]

    def eye(self, n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    def transpose(self, A):
        return [list(col) for col in zip(*A)]

    def vstack(self, mats):
        return [row for m in mats for row in m]

    def matmul(self, A, B):
        """A B, skipping zero factors.  Most rows of B meet one row of A, so
        entries are tested where they are used rather than listed first."""
        q, cols, out = self.q, len(B[0]) if B else 0, []
        for row in A:
            acc = [0] * cols
            for x, Bk in zip(row, B):
                if x:
                    for j, y in enumerate(Bk):
                        if y:
                            acc[j] = (acc[j] + x * y) % q
            out.append(acc)
        return out

    def rref(self, A):
        """Reduced row echelon basis of the row space of A, and its pivots, by
        Gauss-Jordan elimination over the nonzero columns of each pivot row."""
        A = [list(row) for row in A]
        rows = len(A)
        cols = len(A[0]) if rows else 0
        q, piv, r = self.q, [], 0
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
            inv = pow(row[c], -1, q)
            for k in nz:
                row[k] = row[k] * inv % q
            for i in range(rows):
                f = A[i][c]
                if f and i != r:
                    Ai = A[i]
                    for k in nz:
                        Ai[k] = (Ai[k] - f * row[k]) % q
            piv.append(c)
            r += 1
        return A[:r], piv

    def nullspace(self, A):
        """Rows span {x : A x = 0}."""
        cols = len(A[0]) if A else 0
        R, piv = self.rref(A)
        basis = []
        for fc in sorted(set(range(cols)) - set(piv)):
            vec = [0] * cols
            vec[fc] = 1
            for Ri, pc in zip(R, piv):
                vec[pc] = -Ri[fc] % self.q
            basis.append(vec)
        return basis

    def reduce(self, R, piv, v):
        q, v = self.q, list(v)
        for Ri, pc in zip(R, piv):
            f = v[pc]
            if f:
                for k, y in enumerate(Ri):
                    if y:
                        v[k] = (v[k] - f * y) % q
        return v

    def in_span(self, R, piv, v) -> bool:
        return not any(self.reduce(R, piv, v))

    def coords(self, R, piv, v):
        """Coefficients of v in the rref basis R; raises if v is outside the span."""
        if not self.in_span(R, piv, v):
            raise ValueError("vector outside span")
        return [v[pc] for pc in piv]

    def rank(self, rows) -> int:
        """Rank of the rows, each a dict column -> entry, not necessarily
        canonical.  Each row is reduced, in the order given, against the pivot
        rows found so far, keyed by their leading column, until it is zero or
        leads at a new column.  A pivot row is kept without its leading entry,
        scaled by -1/lead, so that reducing by it adds multiples.  Zero
        entries and rows drop out."""
        q, pivots = self.q, {}
        for row in rows:
            row = {c: x for c, v in row.items() if (x := v % q)}
            while row:
                c = min(row)
                f = row.pop(c)
                pr = pivots.get(c)
                if pr is None:
                    f = -pow(f, -1, q) % q
                    pivots[c] = {k: v * f % q for k, v in row.items()}
                    break
                for k, v in pr.items():
                    if x := (row.pop(k, 0) + f * v) % q:
                        row[k] = x
        return len(pivots)


class ModQ(GenericField):
    """The driver over F_q, q prime: entries are Python ints in [0, q)."""

    def __init__(self, q: int):
        self.q = q

    # perfbench's tracer wraps these per class, so ModQ holds a binding of its
    # own until the library records its spans itself (ROADMAP item 3)
    rref, nullspace, reduce, in_span, coords = (GenericField.rref, GenericField.nullspace,
                                                GenericField.reduce, GenericField.in_span,
                                                GenericField.coords)
