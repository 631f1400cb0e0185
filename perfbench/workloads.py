"""Workload definitions of the gbengine benchmark.

A workload is one builtin ideal and the CLI configs that make up one unit
of work: a unit runs every config once, in order.  The seed picks the
characteristic from PRIMES.  All of them are large, so no coefficient of
these systems vanishes by accident and every prime does the same work
(same #SB, #basis, reductions and monomial counts); the result bytes
still differ per prime, so each (workload, prime) has its own expected
entry in expected.json.
"""

from __future__ import annotations

from dataclasses import dataclass

# The eight largest primes below 2^31.
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579,
          2147483563, 2147483549, 2147483543, 2147483497)


def prime_for(seed: int) -> int:
    return PRIMES[seed % len(PRIMES)]


@dataclass(frozen=True)
class Workload:
    name: str
    ideal: str          # builtin ideal name, as `gbengine gen` takes it
    algorithm: str      # algorithm whose output the expected table holds
    configs: tuple      # CLI flag lists; one unit of work runs each once
    why: str


# Non-default configs of katsura8 sb, one data-structure axis at a time.
# The reducer rows run both non-default backends hashed and compressed,
# and the heap with dedup folding, which turns hashing off and so also
# runs the plain (non-hashed, uncompressed) path.  tourtree --dedup and
# --plain without dedup are left out: they take 10-18 s per solve here,
# which would make one sweep longer than a traced run may take.
AXIS_CONFIGS = (
    ("--reducer", "heap"),
    ("--reducer", "heap", "--compressed"),
    ("--reducer", "heap", "--dedup"),
    ("--reducer", "tourtree"),
    ("--reducer", "tourtree", "--plain", "--compressed"),
    ("--lookup", "list"),
    ("--lookup", "divlist"),
    ("--lookup", "kdtree"),
    ("--spair-queue", "heap"),
    ("--spair-queue", "tourtree"),
    ("--spair-queue", "triangle-heap"),
)

WORKLOADS = {w.name: w for w in (
    Workload("sb-katsura9", "katsura9", "sb", ((),),
             "sb default config; regular reduction dominates, split between "
             "the term queue and divisor lookups"),
    Workload("sb-hcyclic6", "hcyclic6", "sb", ((),),
             "sb default config; many S-pairs, so pair construction, pop-time "
             "criteria and the pair queue weigh most, the term queue least"),
    Workload("classic-cyclic6", "cyclic6", "classic",
             (("--algorithm", "classic"),),
             "classic Buchberger; term queue, lcm criterion and ring "
             "arithmetic, with little lookup work"),
    Workload("sb-axes-katsura8", "katsura8", "sb", AXIS_CONFIGS,
             "katsura8 sb swept over the non-default reducer, lookup and "
             "pair-queue backends; every config must give the same bytes"),
)}
