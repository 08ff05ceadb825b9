"""Finite p-equipped posets: parsing, validation, completion, augmentation.

Every comparable pair x <= y carries an equipment value ell(x, y) in {1..p}
subject to the composition bound

    ell(x, z) >= min(ell(x, y) + ell(y, z) - 1, p)   for x <= y <= z.

Points are weak or strong.  Relations touching a strong point always carry
ell = p; reflexive equipment is 1 on weak points and p on strong ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator


class PosetError(ValueError):
    """Structural or syntactic problem with an equipped poset."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}" + (f", col {col}" if col is not None else "") + f": {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    witness: tuple[str, ...] = ()

    def __str__(self) -> str:
        w = f" [{', '.join(self.witness)}]" if self.witness else ""
        return f"{self.code}: {self.message}{w}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


# every tower needs a far smaller p, and below it trial division is short
P_LIMIT = 2 ** 31
P_RANGE = "out of range (p < 2^31)"


def shown(n: int | str) -> str:
    """An integer, or its decimal text, for a message: past 20 digits only its
    first 12 characters and its digit count."""
    if isinstance(n, int):  # str() refuses huge ints: cut all but 20 or more leading digits
        k = max(0, abs(n).bit_length() * 30102 // 100000 - 20)
        lead = str(abs(n) // 10 ** k)
        n, digits = "-" * (n < 0) + lead, len(lead) + k
    else:
        digits = len(n.lstrip("-"))
    return n if digits <= 20 else f"{n[:12]}... ({digits} digits)"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class EquippedPoset:
    """Immutable equipped poset.

    `rel` maps every comparable pair (x, y) with x <= y — including the
    reflexive pairs — to its equipment value.
    """

    p: int
    points: tuple[str, ...]
    strong: frozenset[str]
    rel: dict[tuple[str, str], int]

    @cached_property
    def index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.points)}

    @property
    def n(self) -> int:
        return len(self.points)

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self.rel

    def ell(self, x: str, y: str) -> int:
        try:
            return self.rel[(x, y)]
        except KeyError:
            raise ValueError(f"points not comparable: {x} <= {y}") from None

    def is_strong(self, x: str) -> bool:
        return x in self.strong

    violations = cached_property(lambda self: _structural_violations(self))

    @cached_property
    def zero(self) -> str | None:
        """The strong global minimum, when one exists."""
        for x in self.points:
            if x in self.strong and all(self.leq(x, y) for y in self.points):
                return x
        return None

    @cached_property
    def max(self) -> str | None:
        """The strong global maximum, when one exists."""
        for x in self.points:
            if x in self.strong and all(self.leq(y, x) for y in self.points):
                return x
        return None

    def strict_pairs(self) -> Iterator[tuple[str, str]]:
        for (x, y) in self.rel:
            if x != y:
                yield (x, y)

    @cached_property
    def hasse(self) -> dict[str, tuple[str, ...]]:
        """Covering successors of each point, in declaration order."""
        succ: dict[str, list[str]] = {x: [] for x in self.points}
        for (x, y) in self.strict_pairs():
            if not any(self.leq(x, z) and self.leq(z, y) and z not in (x, y) for z in self.points):
                succ[x].append(y)
        order = self.index
        return {x: tuple(sorted(ys, key=order.__getitem__)) for x, ys in succ.items()}

    def up_set(self, x: str) -> "EquippedPoset":
        """Restriction to {y : x <= y}, preserving declaration order."""
        keep = [y for y in self.points if self.leq(x, y)]
        ks = set(keep)
        rel = {(a, b): l for (a, b), l in self.rel.items() if a in ks and b in ks}
        return EquippedPoset(self.p, tuple(keep), self.strong & ks, rel)


def validate(P: EquippedPoset, require_bounds: bool = False) -> ValidationReport:
    """Check every structural invariant (found once per poset: `P.violations`) and,
    with require_bounds, a strong minimum and maximum; the report lists all violations."""
    report = ValidationReport(list(P.violations))
    if require_bounds:
        if P.zero is None:
            report.violations.append(Violation("missing-zero", "no strong global minimum"))
        if P.max is None:
            report.violations.append(Violation("missing-max", "no strong global maximum"))
    return report


def _structural_violations(P: EquippedPoset) -> tuple[Violation, ...]:
    out: list[Violation] = []
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
            add(Violation("unknown-point", f"relation references unknown point", (x, y)))
        if not (1 <= l <= P.p):
            add(Violation("ell-range", f"ell = {shown(l)} outside 1..{shown(P.p)}", (x, y)))

    for x in P.points:
        want = P.p if P.is_strong(x) else 1
        got = P.rel.get((x, x))
        if got is None:
            add(Violation("reflexive", "missing reflexive relation", (x,)))
        elif got != want:
            add(Violation("reflexive", f"reflexive ell = {shown(got)}, expected {shown(want)}", (x,)))

    for (x, y) in P.strict_pairs():
        if P.leq(y, x):
            add(Violation("antisymmetry", "both x <= y and y <= x", (x, y)))
        if (P.is_strong(x) or P.is_strong(y)) and P.rel[(x, y)] != P.p:
            add(Violation("strong-relation",
                          f"relation touching a strong point has ell = {shown(P.rel[(x, y)])} != p", (x, y)))

    for (x, y) in P.strict_pairs():
        for z in P.points:
            if z in (x, y) or not P.leq(y, z):
                continue
            if not P.leq(x, z):
                add(Violation("transitivity", "x <= y <= z but x, z incomparable", (x, y, z)))
                continue
            need = min(P.rel[(x, y)] + P.rel[(y, z)] - 1, P.p)
            got = P.rel[(x, z)]
            if got < need:
                add(Violation("composition",
                              f"ell(x, z) = {shown(got)} < {shown(need)} forced by the chain", (x, y, z)))
    return tuple(out)


def augment(P: EquippedPoset) -> EquippedPoset:
    """Adjoin strong bounds where missing; reorder points (zero, ..., max).

    An existing strong global extremum is adopted whatever its name.  When a
    bound must be adjoined it is named "0" (below) or "m" (above); a point
    already carrying that name — which necessarily failed to be adopted —
    conflicts and raises.  Idempotent.
    """
    points = list(P.points)
    strong = set(P.strong)
    rel = dict(P.rel)
    p = P.p

    zero = P.zero
    top = P.max
    if zero is not None and zero == top:
        # a single strong point qualifies as both extremes; it can serve as
        # at most one bound, so keep it inner and adjoin both
        zero = top = None
    if zero is None:
        if "0" in points:
            raise PosetError('point named "0" conflicts with augmentation (it is not a strong global minimum)')
        zero = "0"
        for y in points:
            rel[(zero, y)] = p
        points.insert(0, zero)
        strong.add(zero)
        rel[(zero, zero)] = p

    if top is None:
        if "m" in points:
            raise PosetError('point named "m" conflicts with augmentation (it is not a strong global maximum)')
        top = "m"
        for x in points:
            rel[(x, top)] = p
        points.append(top)
        strong.add(top)
        rel[(top, top)] = p
    rel[(zero, top)] = p

    inner = [x for x in points if x not in (zero, top)]
    return EquippedPoset(p, tuple([zero] + inner + [top]), frozenset(strong), rel)


def min_equipment_closure(P: EquippedPoset) -> EquippedPoset:
    """Complete a generating set of relations to the minimal valid equipment.

    The strict pairs of `P` are read as directed edges of weight ell - 1;
    each comparable pair receives ell = min(longest path + 1, p).  A declared
    edge with ell < p touching a strong point cannot be raised silently and
    is an error, as is any directed cycle.
    """
    p = P.p
    edges: dict[tuple[str, str], int] = {}
    for (x, y) in P.strict_pairs():
        l = P.rel[(x, y)]
        if (P.is_strong(x) or P.is_strong(y)) and l != p:
            raise PosetError(f"declared relation {x} <= {y} with ell = {l} touches a strong point (needs p)")
        edges[(x, y)] = l

    # longest-path DP over the edge DAG; NEG marks "no path"
    NEG = None
    idx = {x: i for i, x in enumerate(P.points)}
    n = len(P.points)
    dist: list[list[int | None]] = [[NEG] * n for _ in range(n)]
    for (x, y), l in edges.items():
        i, j = idx[x], idx[y]
        if dist[i][j] is None or dist[i][j] < l - 1:
            dist[i][j] = l - 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik is None:
                continue
            row_k = dist[k]
            for j in range(n):
                dkj = row_k[j]
                if dkj is None:
                    continue
                cand = dik + dkj
                if dist[i][j] is None or dist[i][j] < cand:
                    dist[i][j] = cand
    for i in range(n):
        if dist[i][i] is not None:
            raise PosetError(f"cycle through point {P.points[i]!r} in declared relations")

    rel: dict[tuple[str, str], int] = {}
    for x in P.points:
        rel[(x, x)] = p if P.is_strong(x) else 1
    for i, x in enumerate(P.points):
        for j, y in enumerate(P.points):
            if i != j and dist[i][j] is not None:
                rel[(x, y)] = min(dist[i][j] + 1, p)
    return EquippedPoset(p, P.points, P.strong, rel)


_TOKEN = re.compile(r"\S+")


def parse_poset(text: str, check: bool = True) -> EquippedPoset:
    """Parse the line-oriented poset format.

    Directives: `p <prime>`, `point <name> weak|strong`, `rel <x> <y> <ell>`,
    `closure`, `augment`; `#` starts a comment.  Syntax errors carry the
    (line, col) of the offending token.  With check=True the final poset must
    validate, otherwise a PosetError summarising the violations is raised.
    """
    p: int | None = None
    names: list[str] = []
    strong: set[str] = set()
    declared: dict[tuple[str, str], int] = {}
    flags: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        toks = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body)]
        if not toks:
            continue
        head, col = toks[0]

        def need(k: int) -> None:
            if len(toks) != k:
                raise PosetError(f"directive {head!r} takes {k - 1} argument(s), got {len(toks) - 1}",
                                 lineno, col)

        if head == "p":
            need(2)
            val, vcol = toks[1]
            if not val.lstrip("-").isdigit():
                raise PosetError(f"p must be an integer, got {val!r}", lineno, vcol)
            if p is not None:
                raise PosetError("duplicate p directive", lineno, col)
            # the digit count is tested first, as int() refuses very long strings
            if len(val.lstrip("-0")) > 10 or int(val) >= P_LIMIT:
                raise PosetError(f"p = {shown(val)} is {P_RANGE}", lineno, vcol)
            p = int(val)
            if not _is_prime(p):
                raise PosetError(f"p = {p} is not prime", lineno, vcol)
        elif head == "point":
            need(3)
            name, ncol = toks[1]
            kind, kcol = toks[2]
            if name in names:
                raise PosetError(f"duplicate point {name!r}", lineno, ncol)
            if kind not in ("weak", "strong"):
                raise PosetError(f"point kind must be weak or strong, got {kind!r}", lineno, kcol)
            names.append(name)
            if kind == "strong":
                strong.add(name)
        elif head == "rel":
            need(4)
            if p is None:
                raise PosetError("p must be declared before rel", lineno, col)
            x, xcol = toks[1]
            y, ycol = toks[2]
            lv, lcol = toks[3]
            if x not in names:
                raise PosetError(f"unknown point {x!r}", lineno, xcol)
            if y not in names:
                raise PosetError(f"unknown point {y!r}", lineno, ycol)
            if x == y:
                raise PosetError("reflexive equipment is implicit; rel needs two distinct points",
                                 lineno, ycol)
            if not lv.isdigit():
                raise PosetError(f"ell must be a positive integer, got {lv!r}", lineno, lcol)
            l = int(lv)
            if not (1 <= l <= p):
                raise PosetError(f"ell = {l} outside 1..{p}", lineno, lcol)
            if (x, y) in declared:
                raise PosetError(f"duplicate relation {x} <= {y}", lineno, col)
            declared[(x, y)] = l
        elif head in ("closure", "augment"):
            need(1)
            flags.add(head)
        else:
            raise PosetError(f"unknown directive {head!r}", lineno, col)

    if p is None:
        raise PosetError("missing p directive")

    rel = dict(declared)
    for x in names:
        rel[(x, x)] = p if x in strong else 1
    P = EquippedPoset(p, tuple(names), frozenset(strong), rel)
    if "closure" in flags:
        P = min_equipment_closure(P)
    if "augment" in flags:
        P = augment(P)
    if check:
        report = validate(P)
        if not report.ok:
            raise PosetError(str(report))
    return P


def load_poset(path: str, check: bool = True) -> EquippedPoset:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise PosetError(f"{path} is not UTF-8 text ({e.reason} at byte {e.start})") from None
    return parse_poset(text, check=check)


def is_slender(P: EquippedPoset) -> bool:
    """Chain whose weak points form a lower segment pairwise related by ell = 1."""
    pts = list(P.points)
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if not (P.leq(x, y) or P.leq(y, x)):
                return False
    chain = sorted(pts, key=lambda x: sum(P.leq(x, y) for y in pts), reverse=True)
    seen_strong = False
    for x in chain:
        if P.is_strong(x):
            seen_strong = True
        elif seen_strong:
            return False  # weak point above a strong one
    weak = [x for x in chain if not P.is_strong(x)]
    for i, x in enumerate(weak):
        for y in weak[i + 1:]:
            lo, hi = (x, y) if P.leq(x, y) else (y, x)
            if P.rel[(lo, hi)] != 1:
                return False
    return True
