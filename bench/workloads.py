"""Workload definitions and the benchmark's own input generators.

The generators emit DIMACS text directly and never call
``proofsat.families``, so a change to the package cannot shift the inputs;
the SHA-256 of every generated text is pinned in ``pins.json``.

Each workload is one solver configuration over a fixed pool of instances.
Pool entry ``i`` is a pure function of the workload name and ``i``, so
each entry's verdict can be pinned.  A pass over a workload takes one
instance from each stratum of the pool and the run's seed picks the member
of each stratum.  Every seed thus gives different inputs of the same
spread of difficulty, which keeps the pass time steady across seeds even
though random 3-CNF solve times are heavy-tailed.  The strata are frozen in
``pins.json`` (see ``pin.py``), so a change to the solver cannot change
which instances a seed selects.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from proofsat import SolverConfig


def random_3cnf(n: int, ratio: float, seed: int) -> str:
    """round(ratio * n) clauses over n variables, three distinct variables
    per clause, each negated with probability 1/2."""
    rng = random.Random(seed)
    m = round(ratio * n)
    lines = ["p cnf %d %d" % (n, m)]
    for _ in range(m):
        picked: List[int] = []
        while len(picked) < 3:
            v = rng.randrange(1, n + 1)
            if v not in picked:
                picked.append(v)
        lines.append(
            " ".join(str(v if rng.getrandbits(1) else -v) for v in picked) + " 0"
        )
    return "\n".join(lines) + "\n"


def unit_chains(k: int) -> str:
    """All eight sign patterns over variables 1..3, preceded by a length-k
    chain of binary clauses hanging off each of the six core literals.

    Unsatisfiable.  With unit-driven decisions the solver walks every chain
    before the core clauses conflict, so the run is dominated by the unit
    scan while the refutation stays at seven resolvents."""
    clauses: List[Tuple[int, ...]] = []
    next_var = 4
    for p in (1, -1, 2, -2, 3, -3):
        chain = list(range(next_var, next_var + k))
        next_var += k
        clauses.append((p, chain[0]))
        clauses.extend((-chain[i], chain[i + 1]) for i in range(k - 1))
    for a in (1, -1):
        for b in (2, -2):
            for c in (3, -3):
                clauses.append((a, b, c))
    lines = ["p cnf %d %d" % (3 + 6 * k, len(clauses))]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def instance_seed(workload: str, index: int) -> int:
    digest = hashlib.sha256(("%s/%d" % (workload, index)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Workload:
    name: str
    config: SolverConfig
    pool_size: int
    stride: int  # pool entries per stratum when the strata were first cut
    make: Callable[[str, int], str]  # (workload name, pool index) -> DIMACS


def _random_pool(n_lo: int, n_hi: int, ratio: float) -> Callable[[str, int], str]:
    span = n_hi - n_lo + 1

    def make(name: str, index: int) -> str:
        return random_3cnf(n_lo + index % span, ratio, instance_seed(name, index))

    return make


def _chain_pool(k_lo: int, k_step: int) -> Callable[[str, int], str]:
    def make(name: str, index: int) -> str:
        return unit_chains(k_lo + k_step * index)

    return make


FULL = SolverConfig(bcp=True, ncb=True, cdb_1uip=True, ccr=True)
BCP = SolverConfig(bcp=True)
PLAIN = SolverConfig()

# Why each workload exists is recorded in BENCHMARK.json.  The sizes keep a
# pass near a second on a 2-core VM, so that a run holds a dozen passes and
# the tracemalloc pass stays affordable.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("unit_chain", BCP, 41, 4, _chain_pool(180, 2)),
        Workload("rand3_full", FULL, 76, 2, _random_pool(36, 42, 4.26)),
        Workload("rand3_tree", BCP, 60, 2, _random_pool(34, 40, 5.0)),
        Workload("rand3_plain", PLAIN, 108, 2, _random_pool(20, 24, 4.26)),
    )
}

# Tiny pools for the smoke test: same configurations, small instances.
TINY: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("unit_chain", BCP, 4, 2, _chain_pool(5, 3)),
        Workload("rand3_full", FULL, 8, 2, _random_pool(12, 15, 4.8)),
        Workload("rand3_tree", BCP, 8, 2, _random_pool(12, 15, 5.0)),
        Workload("rand3_plain", PLAIN, 8, 2, _random_pool(12, 15, 4.8)),
    )
}


def pool_texts(workload: Workload) -> List[str]:
    return [workload.make(workload.name, i) for i in range(workload.pool_size)]


def pool_digest(texts: List[str]) -> str:
    """SHA-256 over the pool's DIMACS texts, each length-prefixed."""
    h = hashlib.sha256()
    for text in texts:
        data = text.encode()
        h.update(b"%d:" % len(data))
        h.update(data)
    return h.hexdigest()


def select(strata: List[List[int]], seed: int) -> List[int]:
    """One pool index per stratum, chosen by ``seed``, in pool order."""
    rng = random.Random(seed)
    return sorted(rng.choice(stratum) for stratum in strata)
