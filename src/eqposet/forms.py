"""Integer coordinate vectors and the bilinear form of a model.

Models and components hold vectors as int tuples, printed by `_vec_text`;
`RatVec`, entrywise arithmetic on one, is public API no library path builds.

The Gram matrix of a model is its hom table with the row of the strong
minimum 0 (minus the diagonal entry) negated:

    B[i][j] = hom_dim(i, j)        except   B[0][j] = -hom_dim(0, j)  for j != 0,

where 0 stands for the minimum's index, wherever the file declares it.

The quadratic form takes the value 1 on coordinate vectors of strong-type
vertices and p on weak-type ones (flavor R; the roles swap for flavor C).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


def _text(n: int) -> str:
    """The decimal text of n, in full: past Python's limit on the digits of
    int -> str it is Decimal's exact text, which has no such limit."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # here only: importing it costs every run about 2 ms
        return str(Decimal(n))


def _vec_text(entries) -> str:
    """An integer vector as "(a, b, ...)": "(a)" at one entry, where a tuple
    would print "(a,)"."""
    return "(" + ", ".join(map(_text, entries)) + ")"


@dataclass(frozen=True)
class RatVec:
    """A vector of Python ints."""

    entries: tuple[int, ...]

    @staticmethod
    def of(*vals: int) -> "RatVec":
        return RatVec.from_seq(vals)

    @staticmethod
    def from_seq(vals: Iterable[int]) -> "RatVec":
        """Each entry must be an integer: a str, float or rational raises TypeError."""
        return RatVec(tuple(map(operator.index, vals)))

    @staticmethod
    def zeros(n: int) -> "RatVec":
        return RatVec((0,) * n)

    @staticmethod
    def unit(n: int, k: int) -> "RatVec":
        return RatVec(tuple(int(i == k) for i in range(n)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __add__(self, other: "RatVec") -> "RatVec":
        return RatVec(tuple(a + b for a, b in zip(self.entries, other.entries, strict=True)))

    def __sub__(self, other: "RatVec") -> "RatVec":
        return RatVec(tuple(a - b for a, b in zip(self.entries, other.entries, strict=True)))

    def __mul__(self, s: int) -> "RatVec":
        return RatVec(tuple(a * s for a in self.entries))

    __rmul__ = __mul__

    def __neg__(self) -> "RatVec":
        return RatVec(tuple(-a for a in self.entries))

    def __str__(self) -> str:
        return _vec_text(self.entries)


def gram_matrix(model) -> tuple[tuple[int, ...], ...]:
    P = model.poset
    n, z = P.n, P.index[P.zero]
    hom = model.hom
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = hom[i][j]
            if i == z and j != z:
                v = -v
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def bilinear(model, d1: Sequence[int], d2: Sequence[int]) -> int:
    B = gram_matrix(model)
    n = len(B)
    if len(d1) != n or len(d2) != n:
        raise ValueError("vector length does not match the model")
    total = 0
    for i in range(n):
        if d1[i] == 0:
            continue
        row = B[i]
        total += d1[i] * sum(row[j] * d2[j] for j in range(n) if row[j])
    return total


def quadratic(model, d: Sequence[int]) -> int:
    return bilinear(model, d, d)
