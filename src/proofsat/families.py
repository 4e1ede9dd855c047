"""Benchmark formula families.

Three generators: a trivially contradictory pair of unit clauses padded
with unused variables, an unsatisfiable construction whose unit-chain
structure rewards unit propagation, and a seeded random k-CNF family for
differential testing.
"""
from __future__ import annotations

import random
from itertools import product

from .cnf import Formula


def gen_contradiction(n: int) -> Formula:
    """(x1) and (-x1) over n declared variables; x2..xn never occur.

    Unsatisfiable for every n, but a search that only evaluates clauses at
    total assignments must enumerate every combination of the unused
    variables before concluding that.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Formula(n, [(1,), (-1,)])


def gen_bcp_separation(k: int) -> Formula:
    """All eight sign patterns over variables 1..3, plus a length-k unit
    chain hanging off each of the six literals of those variables.

    Variables: 3 + 6k (the core triple first, then one contiguous block of
    k fresh variables per chained literal, blocks ordered a, -a, b, -b,
    c, -c).  Clauses: 8 + 6k, chains before the ternary block: a
    unit-clause scan that prefers low clause ids then runs each freshly
    falsified literal's whole chain before the ternary clauses can
    conflict.  The eight ternary clauses exclude every assignment of the
    core triple, so the formula is unsatisfiable; the chains are only
    reachable through unit propagation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    formula = Formula(3 + 6 * k)
    next_var = 4
    for p in (1, -1, 2, -2, 3, -3):
        chain = list(range(next_var, next_var + k))
        next_var += k
        formula.add_clause((p, chain[0]))
        for i in range(k - 1):
            formula.add_clause((-chain[i], chain[i + 1]))
    for signs in product((1, -1), repeat=3):
        formula.add_clause((signs[0] * 1, signs[1] * 2, signs[2] * 3))
    return formula


def gen_random_kcnf(n: int, m: int, k: int, seed: int) -> Formula:
    """m clauses of k distinct variables each, uniform polarities,
    deterministic under seed.  Tautology-free by construction (a clause
    never mentions a variable twice)."""
    if n < 1 or m < 0 or k < 1:
        raise ValueError("need n >= 1, m >= 0, k >= 1")
    if k > n:
        raise ValueError("clause width k=%d exceeds variable count n=%d" % (k, n))
    rng = random.Random(seed)
    formula = Formula(n)
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), k)
        formula.add_clause(tuple(rng.choice((v, -v)) for v in variables))
    return formula
