"""Seeded generators of valid equipped-poset files (`.eqp` text).

Random posets are random DAGs on points x0, x1, ... where each point is
strong or weak and every edge touching a strong point carries ell = p.  The
edges are written as generators followed by `closure` and `augment`, so the
program completes them itself.  A poset's cost depends mostly on its shape:
how many points are strong and how many pairs are declared relations.  So
the shape of the k-th poset of a size is fixed by k, spread over the
binomial distributions of both counts by a Halton sequence, and the seed
picks which points are strong, which pairs are related and each ell.  Every
seed then gives the same mix of shapes, and a run's time depends on the code
more than on its seed.  The scaling families are the weak chain
chain_n (every cover carries the same ell) and the weak antichain
antichain_n, whose point names and declaration order are drawn from the
generator.  Every file is checked with `eqposet.poset.validate` before use.
"""

from __future__ import annotations

import math
import random

STRONG_SHARE = 0.3   # mean share of points that are strong
DENSITY = 0.5        # mean share of pairs x_i < x_j (i < j) that are declared relations


def _radical_inverse(k: int, base: int) -> float:
    """k-th term of the van der Corput sequence in `base`, in [0, 1)."""
    x, scale = 0.0, 1.0
    while k:
        k, digit = divmod(k, base)
        scale /= base
        x += digit * scale
    return x


def _binomial_quantile(n: int, q: float, u: float) -> int:
    """Smallest s with P(Binomial(n, q) <= s) > u."""
    cdf = 0.0
    for s in range(n):
        cdf += math.comb(n, s) * q**s * (1 - q)**(n - s)
        if u < cdf:
            return s
    return n


def shape(n_inner: int, k: int) -> tuple[int, int]:
    """(strong points, declared relations) of the k-th random poset of its size."""
    pairs = n_inner * (n_inner - 1) // 2
    return (_binomial_quantile(n_inner, STRONG_SHARE, _radical_inverse(k + 1, 2)),
            _binomial_quantile(pairs, DENSITY, _radical_inverse(k + 1, 3)))


def random_poset(rng: random.Random, p: int, n_inner: int, k: int) -> str:
    """The k-th random poset with n_inner points at p; its shape is shape(n_inner, k)."""
    n_strong, n_rel = shape(n_inner, k)
    names = [f"x{i}" for i in range(n_inner)]
    strong = set(rng.sample(names, n_strong))
    pairs = [(x, y) for i, x in enumerate(names) for y in names[i + 1:]]
    lines = [f"p {p}"]
    lines += [f"point {x} {'strong' if x in strong else 'weak'}" for x in names]
    for x, y in sorted(rng.sample(pairs, n_rel), key=pairs.index):
        ell = p if (x in strong or y in strong) else rng.randint(1, p)
        lines.append(f"rel {x} {y} {ell}")
    lines += ["closure", "augment"]
    return "\n".join(lines) + "\n"


def _names(n: int, rng: random.Random) -> list[str]:
    return [f"v{i}" for i in rng.sample(range(100), n)]


def _points(names: list[str], rng: random.Random) -> list[str]:
    order = list(names)
    rng.shuffle(order)
    return [f"point {x} weak" for x in order]


def chain(p: int, n: int, ell: int, rng: random.Random) -> str:
    names = _names(n, rng)
    lines = [f"p {p}"] + _points(names, rng)
    lines += [f"rel {a} {b} {ell}" for a, b in zip(names, names[1:])]
    lines += ["closure", "augment"]
    return "\n".join(lines) + "\n"


def antichain(p: int, n: int, rng: random.Random) -> str:
    lines = [f"p {p}"] + _points(_names(n, rng), rng) + ["augment"]
    return "\n".join(lines) + "\n"


def check_valid(text: str) -> None:
    """Raise ValueError unless `text` parses into a valid poset with bounds."""
    from eqposet.poset import parse_poset, validate

    report = validate(parse_poset(text), require_bounds=True)
    if not report.ok:
        raise ValueError(f"generated poset is invalid: {report}\n{text}")
