"""Exact linear algebra over small fields.

One driver on lists of rows of Python scalars (`GenericField`).  A field is
a subclass that supplies only `norm` (the canonical form of an int or an
entry), `inv` and `size`: `ModQ` for F_q with q prime, whose entries are ints
in [0, q), and `fields.FpT` for F_p(t), whose constants are ints in [0, p) and
whose other entries are `RatFunc`s; zero and one are the ints 0 and 1 in
both.  Every matrix handed in or out holds canonical entries.  Row reduction
gives reduced row echelon bases, so span bases are canonical and coordinate
extraction reads off pivot columns; ranks of systems given row by row go
through one sparse elimination.  No floating point is used.
"""

from __future__ import annotations


class GenericField:
    """The driver over an exact field; a subclass supplies `norm`, which maps
    an int or a field element to a canonical one, and `inv`."""

    size = None  # the field is infinite
    zero, one = 0, 1

    def mat(self, rows):
        return [[self.norm(x) for x in row] for row in rows]

    def eye(self, n):
        return [[self.one if i == j else self.zero for j in range(n)] for i in range(n)]

    def transpose(self, A):
        return [list(col) for col in zip(*A)]

    def vstack(self, mats):
        return [row for m in mats for row in m]

    def matmul(self, A, B):
        """A B, skipping zero factors.  Most rows of B meet one row of A, so
        entries are tested where they are used rather than listed first."""
        norm, zero = self.norm, self.zero
        cols = len(B[0]) if B else 0
        out = []
        for row in A:
            acc = [zero] * cols
            for x, Bk in zip(row, B):
                if x:
                    for j, y in enumerate(Bk):
                        if y:
                            acc[j] = norm(acc[j] + x * y)
            out.append(acc)
        return out

    def rref(self, A):
        """Reduced row echelon basis of the row space of A, and its pivots, by
        Gauss-Jordan elimination over the nonzero columns of each pivot row."""
        A = [list(row) for row in A]
        rows = len(A)
        cols = len(A[0]) if rows else 0
        norm, piv, r = self.norm, [], 0
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
            inv = self.inv(row[c])
            for k in nz:
                row[k] = norm(row[k] * inv)
            for i in range(rows):
                f = A[i][c]
                if f and i != r:
                    Ai = A[i]
                    for k in nz:
                        Ai[k] = norm(Ai[k] - f * row[k])
            piv.append(c)
            r += 1
        return A[:r], piv

    def nullspace(self, A):
        """Rows span {x : A x = 0}."""
        cols = len(A[0]) if A else 0
        R, piv = self.rref(A)
        basis = []
        for fc in sorted(set(range(cols)) - set(piv)):
            vec = [self.zero] * cols
            vec[fc] = self.one
            for Ri, pc in zip(R, piv):
                vec[pc] = self.norm(-Ri[fc])
            basis.append(vec)
        return basis

    def reduce(self, R, piv, v):
        norm, v = self.norm, list(v)
        for Ri, pc in zip(R, piv):
            f = v[pc]
            if f:
                for k, y in enumerate(Ri):
                    if y:
                        v[k] = norm(v[k] - f * y)
        return v

    def in_span(self, R, piv, v) -> bool:
        return not any(self.reduce(R, piv, v))

    def coords(self, R, piv, v):
        """Coefficients of v in the rref basis R; raises if v is outside the span."""
        if not self.in_span(R, piv, v):
            raise ValueError("vector outside span")
        return [v[pc] for pc in piv]

    def coords_rows(self, R, piv, W):
        """Coefficients of every row of W in the rref basis R, one row each,
        or None when some row of W is outside the span."""
        out = []
        for w in W:
            if not self.in_span(R, piv, w):
                return None
            out.append([w[pc] for pc in piv])
        return out

    def rank(self, rows) -> int:
        """Rank of the rows, each a dict column -> entry, not necessarily
        canonical.  Each row is reduced, in the order given, against the pivot
        rows found so far, keyed by their leading column, until it is zero or
        leads at a new column.  A pivot row is kept without its leading entry,
        scaled by -1/lead, so that reducing by it adds multiples.  Zero
        entries and rows drop out."""
        norm, inv, zero, pivots = self.norm, self.inv, self.zero, {}
        for row in rows:
            row = {c: x for c, v in row.items() if (x := norm(v))}
            while row:
                c = min(row)
                f = row.pop(c)
                pr = pivots.get(c)
                if pr is None:
                    f = norm(-inv(f))
                    pivots[c] = {k: norm(v * f) for k, v in row.items()}
                    break
                for k, v in pr.items():
                    if x := norm(row.pop(k, zero) + f * v):
                        row[k] = x
        return len(pivots)


class ModQ(GenericField):
    """The driver over F_q, q prime: entries are Python ints in [0, q)."""

    def __init__(self, q: int):
        self.q = self.size = q

    def norm(self, x) -> int:
        return x % self.q

    def inv(self, x: int) -> int:
        return pow(x, -1, self.q)

    # perfbench's tracer wraps these per class, so ModQ holds a binding of its
    # own until the library records its spans itself (ROADMAP item 3)
    rref, nullspace, reduce, in_span, coords = (GenericField.rref, GenericField.nullspace,
                                                GenericField.reduce, GenericField.in_span,
                                                GenericField.coords)
