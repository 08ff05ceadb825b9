"""Integer coordinate vectors and the bilinear form of a model.

The Gram matrix of a model is its hom table with the first row (minus the
diagonal entry) negated:

    B[i][j] = hom_dim(i, j)        except   B[0][j] = -hom_dim(0, j)  for j > 0.

The quadratic form takes the value 1 on coordinate vectors of strong-type
vertices and p on weak-type ones (flavor R; the roles swap for flavor C).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator


def _exact(v: int | str | Fraction) -> int | Fraction:
    """v as an int when it is integral; a Fraction only when it is not."""
    if type(v) is int:
        return v
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


@dataclass(frozen=True)
class RatVec:
    """A vector of exact entries: ints, except where a non-integral value was
    put in (a Fraction, whose str, == and hash agree with an equal int)."""

    entries: tuple[int | Fraction, ...]

    @staticmethod
    def of(*vals: int | str | Fraction) -> "RatVec":
        return RatVec.from_seq(vals)

    @staticmethod
    def from_seq(vals: Iterable[int | str | Fraction]) -> "RatVec":
        return RatVec(tuple(_exact(v) for v in vals))

    @staticmethod
    def zeros(n: int) -> "RatVec":
        return RatVec((0,) * n)

    @staticmethod
    def unit(n: int, k: int) -> "RatVec":
        return RatVec(tuple(int(i == k) for i in range(n)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int | Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int | Fraction:
        return self.entries[i]

    def __add__(self, other: "RatVec") -> "RatVec":
        return RatVec(tuple(a + b for a, b in zip(self.entries, other.entries, strict=True)))

    def __sub__(self, other: "RatVec") -> "RatVec":
        return RatVec(tuple(a - b for a, b in zip(self.entries, other.entries, strict=True)))

    def __mul__(self, s: int | Fraction) -> "RatVec":
        return RatVec(tuple(a * s for a in self.entries))

    __rmul__ = __mul__

    def __neg__(self) -> "RatVec":
        return RatVec(tuple(-a for a in self.entries))

    @property
    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.entries)

    @property
    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self.entries)

    def as_strings(self) -> list[str]:
        return [str(a) for a in self.entries]

    def as_ints(self) -> tuple[int, ...]:
        if not self.is_integral:
            raise ValueError(f"non-integral vector {self}")
        return tuple(int(a) for a in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.entries) + ")"


def gram_matrix(model) -> tuple[tuple[int, ...], ...]:
    n = model.poset.n
    hom = model.hom
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = hom[i][j]
            if i == 0 and j > 0:
                v = -v
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def bilinear(model, d1: RatVec, d2: RatVec) -> int | Fraction:
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


def quadratic(model, d: RatVec) -> int | Fraction:
    return bilinear(model, d, d)


def euler_pairing(model, cd_x: RatVec, cd_y: RatVec) -> int | Fraction:
    """Pairing <X, Y> = dim Hom(X, Y) on coordinate vectors of projectives."""
    return bilinear(model, cd_y, cd_x)
