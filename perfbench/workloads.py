"""Case lists of the three workloads, made from a seed.

A case is one `eqposet` command line on one generated `.eqp` file.  Every
workload is a closed loop over its case list, one case at a time.  Random
posets come in blocks of one per (p, inner points) stratum, so every seed
gives the same mix of sizes and shapes.  Every list holds at least MIN_CASES
cases.  Why each workload exists, and which layers it stresses:

- knit: `compare` and `knit` on the fixtures at 12 and 200 sections and on
  random posets at 12 sections, a third of them also at 200.  Exercises
  poset, model, knitter, forms (RatVec), pairing and the emitters; no linear
  algebra runs.
- oracle_cyclic: the oracle over the default cyclic towers (numpy mod-q
  linear algebra).  On fixtures and small random posets it solves many small
  systems, where per-call overhead dominates (case_s.p50); at p = 5 on the
  chain and antichain families it solves the tall systems, the known wall
  (most of total_s and case_s.p90).  Every family case passes, so a FAIL
  verdict or crash there marks the output wrong.
- oracle_inseparable: the oracle over F_p(t) (sympy, the generic linear
  algebra) on fixtures and small random posets: the only workload for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

FLAVORS = ("r", "c")
DEEP_SECTIONS = "200"
MIN_CASES = 100           # so that case_s.p90 has at least ten cases above it
BLOCKS_PER_S = 0.33       # blocks of random posets per second of --seconds; with
                          # the fixed cases, a pass takes about --seconds

# Family members at p = 5 left out of oracle_cyclic.  At this package's first
# benchmarked version each takes from 13.6 s (chain3, ell 2) to 316 s
# (chain4, ell 2), which no run of this benchmark's length can hold; every
# other member takes at most 1.9 s.
P5_SLOW = {("chain", 2, 5, "r"), ("chain", 3, 2, "r"), ("chain", 3, 5, "r"),
           ("chain", 4, 2, "r"), ("chain", 4, 5, "r")}


@dataclass(frozen=True)
class Case:
    file: str                 # stem of the generated input file
    text: str                 # its `.eqp` content
    argv: tuple[str, ...]     # command line with "{path}" in place of the file
    fixture: bool = False     # stdout is compared against a stored digest
    must_pass: bool = False   # a FAIL verdict or crash is wrong output, not a known failure

    def argv_for(self, path: str) -> list[str]:
        return [path if a == "{path}" else a for a in self.argv]

    @property
    def key(self) -> str:
        """Identity of a fixture case in the golden-digest table."""
        return " ".join([self.file] + [a for a in self.argv if a != "{path}"])


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable           # (rng, seconds, fixtures) -> list[Case]
    tower: tuple[int, str]    # (p, mode) of the first tower, built in set-up
    per_case_limit_s: float

    def cases(self, rng: random.Random, seconds: int, fixtures: dict[str, str]) -> list[Case]:
        return self.build(rng, seconds, fixtures)


def knit_commands(max_sections: str | None = None) -> list[tuple[str, ...]]:
    deep = ("--max-sections", max_sections) if max_sections else ()
    out = [("compare", "{path}") + deep]
    for fl in FLAVORS:
        for fmt in ("json", "dot"):
            out.append(("knit", "{path}", "--flavor", fl, "--format", fmt) + deep)
    return out


def oracle_commands(mode: str) -> list[tuple[str, ...]]:
    extra = ("--mode", "inseparable") if mode == "inseparable" else ()
    return [("oracle", "{path}", "--flavor", fl) + extra for fl in FLAVORS]


def fixture_cases(fixtures: dict[str, str], commands: list[tuple[str, ...]]) -> list[Case]:
    return [Case(name, text, cmd, fixture=True)
            for name, text in sorted(fixtures.items()) for cmd in commands]


def _random_cases(rng: random.Random, seconds: int, cases: list[Case],
                  strata, commands) -> list[Case]:
    """Append blocks of random posets, one per (p, inner points) in `strata`,
    until there are the workload's blocks for `seconds` and MIN_CASES cases.
    The posets of one block have the block's shapes (see gen.shape), so the
    mix of shapes depends on the number of blocks, not on the seed.
    `commands(k)` gives the command lines run on the k-th poset."""
    k = block = 0
    while block < max(1, round(BLOCKS_PER_S * seconds)) or len(cases) < MIN_CASES:
        for p, n in strata:
            text = gen.random_poset(rng, p, n, block)
            cases += [Case(f"rand{k}", text, cmd) for cmd in commands(k)]
            k += 1
        block += 1
    rng.shuffle(cases)
    return cases


def _knit(rng, seconds, fixtures):
    # The fixtures run at both depths.  Random posets run at the default
    # depth, and every third one once more at 200 sections: a deep component
    # of a random poset costs anything from 0.01 s to 1 s, so a larger deep
    # share of them made total_s depend on the seed more than on the code.
    deep = knit_commands(DEEP_SECTIONS)

    def commands(k):
        return knit_commands() + ([deep[k // 3 % len(deep)]] if k % 3 == 0 else [])

    return _random_cases(rng, seconds, fixture_cases(fixtures, knit_commands() + deep),
                         [(p, n) for p in (2, 3, 5) for n in range(2, 9)], commands)


def _oracle_random(rng, seconds, fixtures, mode, strata, fixed=()):
    commands = oracle_commands(mode)
    return _random_cases(rng, seconds, fixture_cases(fixtures, commands) + list(fixed),
                         strata, lambda k: commands)


# At p = 3, the oracle in flavor r takes from 0.02 s to 7 s (cyclic) or 3 s
# (inseparable) on a random poset of 3 or more inner points, which made
# total_s depend on the seed more than on the code.  Random p = 3 posets
# therefore have at most 2 inner points; the p = 3 fixtures have up to 3.
P3_MAX_INNER = 2


def _oracle_cyclic(rng, seconds, fixtures):
    strata = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, P3_MAX_INNER + 1)]
    return _oracle_random(rng, seconds, fixtures, "cyclic", strata,
                          p5_cases(rng))


def _oracle_inseparable(rng, seconds, fixtures):
    strata = [(2, n) for n in range(1, 4)] + [(3, n) for n in range(1, P3_MAX_INNER + 1)]
    return _oracle_random(rng, seconds, fixtures, "inseparable", strata)


def p5_members() -> list[tuple[str, int, int, str]]:
    """(family, n, ell, flavor) for antichain_n and chain_n, n <= 4, at p = 5."""
    out = [("antichain", n, 0, fl) for n in range(1, 5) for fl in FLAVORS]
    out += [("chain", n, ell, fl) for n in range(2, 5) for ell in (1, 2, 5) for fl in FLAVORS]
    return [m for m in out if m not in P5_SLOW]


def p5_cases(rng: random.Random) -> list[Case]:
    """One case per p5_members() entry, with names and point order drawn from `rng`."""
    cases = []
    for fam, n, ell, fl in p5_members():
        text = gen.chain(5, n, ell, rng) if fam == "chain" else gen.antichain(5, n, rng)
        stem = f"{fam}{n}" + (f"_ell{ell}" if fam == "chain" else "")
        cases.append(Case(stem, text, ("oracle", "{path}", "--flavor", fl), must_pass=True))
    return cases


# Each per-case limit is at least 4 times the slowest case seen at this
# package's first benchmarked version (1.2 s on knit, 2.4 s on oracle_cyclic
# for chain4 ell1 flavor r, 2.0 s on oracle_inseparable for four3 flavor r),
# so no case flips between passing and timing out from run to run.
WORKLOADS = {w.name: w for w in [
    Workload("knit", _knit, (2, "cyclic"), per_case_limit_s=10.0),
    Workload("oracle_cyclic", _oracle_cyclic, (2, "cyclic"), per_case_limit_s=10.0),
    Workload("oracle_inseparable", _oracle_inseparable, (2, "inseparable"), per_case_limit_s=8.0),
]}


def load_fixtures(src: Path) -> dict[str, str]:
    return {f.stem: f.read_text(encoding="utf-8")
            for f in sorted((src / "eqposet" / "fixtures").glob("*.eqp"))}
