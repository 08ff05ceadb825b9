"""Finite p-equipped posets: parsing, validation, completion, augmentation.

Every comparable pair x <= y carries an equipment value ell(x, y) in {1..p}
subject to the composition bound

    ell(x, z) >= min(ell(x, y) + ell(y, z) - 1, p)   for x <= y <= z.

Points are weak or strong.  Relations touching a strong point always carry
ell = p; reflexive equipment is 1 on weak points and p on strong ones.

`EquippedPoset.view` indexes a poset by declaration order: ell rows, strength
and the points strictly above each point.  Validation walks the chains
x <= y <= z over those up-lists; the model, oracle and pairing read the view.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple


class PosetError(ValueError):
    """Structural or syntactic problem with an equipped poset."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}" + (f", col {col}" if col is not None else "") + f": {message}"
        super().__init__(message)


class ParameterError(ValueError):
    """A tower parameter or knitting depth that the library refuses."""


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
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class PosetView(NamedTuple):
    """An equipped poset indexed by declaration order."""

    ell: tuple[tuple[int, ...], ...]    # ell[i][j] = ell(x_i, x_j), 0 if x_i <= x_j fails
    strong: tuple[bool, ...]
    up: tuple[tuple[int, ...], ...]     # up[i]: each j != i with x_i <= x_j, in order


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

    violations = cached_property(lambda self: _structural_violations(self))

    @cached_property
    def zero(self) -> str | None:
        """The strong global minimum, when one exists."""
        return next((x for x in self.points if x in self.strong
                     and all((x, y) in self.rel for y in self.points)), None)

    @cached_property
    def max(self) -> str | None:
        """The strong global maximum, when one exists."""
        return next((x for x in self.points if x in self.strong
                     and all((y, x) in self.rel for y in self.points)), None)

    @cached_property
    def view(self) -> PosetView:
        """The poset by point index; up-lists follow `rel`, whatever the ell."""
        pts, rel, get = self.points, self.rel, self.rel.get
        return PosetView(tuple([tuple([get((x, y), 0) for y in pts]) for x in pts]),
                         tuple([x in self.strong for x in pts]),
                         tuple([tuple([j for j, y in enumerate(pts) if (x, y) in rel and j != i])
                                for i, x in enumerate(pts)]))


def validate(P: EquippedPoset, require_bounds: bool = False) -> ValidationReport:
    """Check every structural invariant (found once per poset: `P.violations`) and, with
    require_bounds, a strong minimum and a distinct strong maximum; the report lists all."""
    report = ValidationReport(list(P.violations))
    if require_bounds:
        if P.zero is None:
            report.violations.append(Violation("missing-zero", "no strong global minimum"))
        if P.max is None:
            report.violations.append(Violation("missing-max", "no strong global maximum"))
        elif P.max == P.zero:
            report.violations.append(Violation("bounds-coincide", "one point is both bounds", (P.max,)))
    return report


def _structural_violations(P: EquippedPoset) -> tuple[Violation, ...]:
    out: list[Violation] = []
    add = out.append
    pts, rel, strong, p, get = P.points, P.rel, P.strong, P.p, P.rel.get

    if p >= P_LIMIT:
        add(Violation("p-range", f"p is {P_RANGE}"))
    elif not _is_prime(p):
        add(Violation("p-not-prime", f"p = {shown(p)} is not prime"))

    names = set(pts)
    if len(names) != len(pts):
        add(Violation("duplicate-point", "duplicate point names"))
    for (x, y), l in rel.items():
        if x not in names or y not in names:
            add(Violation("unknown-point", f"relation references unknown point", (x, y)))
        if not (1 <= l <= p):
            add(Violation("ell-range", f"ell = {shown(l)} outside 1..{shown(p)}", (x, y)))

    for x in pts:
        want = p if x in strong else 1
        got = get((x, x))
        if got is None:
            add(Violation("reflexive", "missing reflexive relation", (x,)))
        elif got != want:
            add(Violation("reflexive", f"reflexive ell = {shown(got)}, expected {shown(want)}", (x,)))

    # the findings on chains x <= y <= z come after those on pairs x <= y, z
    # in y's up-list (or, when y is no point, its relations) in declaration order
    index, up = P.index, P.view.up
    chains: list[Violation] = []
    for (x, y), l in rel.items():
        if x == y:
            continue
        if (y, x) in rel:
            add(Violation("antisymmetry", "both x <= y and y <= x", (x, y)))
        if (x in strong or y in strong) and l != p:
            add(Violation("strong-relation",
                          f"relation touching a strong point has ell = {shown(l)} != p", (x, y)))
        j = index.get(y)
        for z in [pts[k] for k in up[j]] if j is not None else [z for z in pts if (y, z) in rel]:
            if z == x or z == y:
                continue
            got = get((x, z))
            if got is None:
                chains.append(Violation("transitivity", "x <= y <= z but x, z incomparable", (x, y, z)))
            elif got < (need := min(l + rel[y, z] - 1, p)):
                chains.append(Violation("composition",
                                        f"ell(x, z) = {shown(got)} < {shown(need)} forced by the chain",
                                        (x, y, z)))
    out += chains
    return tuple(out)


def augment(P: EquippedPoset) -> EquippedPoset:
    """Adjoin strong bounds where missing; reorder points (zero, ..., max).

    An existing strong global extremum is adopted whatever its name.  When a
    bound must be adjoined it is named "0" (below) or "m" (above); a point
    already carrying that name — which necessarily failed to be adopted —
    conflicts and raises.  Idempotent.
    """
    points, strong, rel, p = list(P.points), set(P.strong), dict(P.rel), P.p
    zero, top = P.zero, P.max
    if zero is not None and zero == top:
        # a single strong point qualifies as both extremes; it can serve as
        # at most one bound, so keep it inner and adjoin both
        zero = top = None
    if zero is None:
        if "0" in points:
            raise PosetError('point named "0" conflicts with augmentation (it is not a strong global minimum)')
        zero = "0"
        rel.update(((zero, y), p) for y in points)
        points.insert(0, zero)
        strong.add(zero)
        rel[(zero, zero)] = p

    if top is None:
        if "m" in points:
            raise PosetError('point named "m" conflicts with augmentation (it is not a strong global maximum)')
        top = "m"
        rel.update(((x, top), p) for x in points)
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
    p, n, idx = P.p, P.n, P.index
    # longest paths over the edge DAG, edge weight ell - 1; None marks "no path"
    dist: list[list[int | None]] = [[None] * n for _ in range(n)]
    for (x, y), l in P.rel.items():
        if x == y:
            continue
        if (x in P.strong or y in P.strong) and l != p:
            raise PosetError(f"declared relation {x} <= {y} with ell = {l} touches a strong point (needs p)")
        dist[idx[x]][idx[y]] = l - 1
    for k, row_k in enumerate(dist):
        for row in dist:
            if (dik := row[k]) is not None:
                row[:] = [a if b is None or (a is not None and a >= dik + b) else dik + b
                          for a, b in zip(row, row_k)]
    for i in range(n):
        if dist[i][i] is not None:
            raise PosetError(f"cycle through point {P.points[i]!r} in declared relations")

    rel = {(x, x): p if x in P.strong else 1 for x in P.points}
    rel.update(((x, P.points[j]), min(d + 1, p)) for i, x in enumerate(P.points)
               for j, d in enumerate(dist[i]) if i != j and d is not None)
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
            if not val.removeprefix("-").isdecimal():
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
            if not lv.isdecimal():
                raise PosetError(f"ell must be a positive integer, got {lv!r}", lineno, lcol)
            lv = lv.lstrip("0") or "0"
            # as for p, the digit count is tested before int(): ell <= p < 2^31
            if len(lv) > 10 or not 1 <= int(lv) <= p:
                raise PosetError(f"ell = {shown(lv)} outside 1..{p}", lineno, lcol)
            l = int(lv)
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
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise PosetError(f"{path} is not UTF-8 text ({e.reason} at byte {e.start})") from None
    return parse_poset(text, check=check)
