"""Mutated solver traces: every mutation of a real refutation trace that
breaks a record is rejected by ``parse_trace`` with a ValueError, and the
one mutation that keeps every record sound (swapping a resolvent's two
premises) is still accepted."""
import random

import pytest

from proofsat import (
    SolverConfig,
    check_refutation,
    export_trace,
    gen_random_kcnf,
    parse_trace,
    solve,
)

N_VARS = 30
N_CLAUSES = 150  # ratio 5: nearly every formula is unsatisfiable
SAMPLES = 20  # mutations of each kind per trace


@pytest.fixture(scope="module")
def real_traces():
    """(formula, trace records) of three UNSAT runs under sss+bcp."""
    runs = []
    for seed in range(1, 20):
        formula = gen_random_kcnf(N_VARS, N_CLAUSES, 3, seed)
        outcome = solve(formula, SolverConfig(bcp=True))
        if outcome.verdict == "UNSAT":
            lines = export_trace(outcome.proof).splitlines()
            runs.append((formula, lines[0], [line.split() for line in lines[1:]]))
        if len(runs) == 3:
            return runs
    raise AssertionError("fewer than three UNSAT formulas in the seed range")


def _literal_positions(record):
    first = 2 if record[0] == "o" else 5
    return range(first, len(record) - 1)


def flip_sign(records, rng):
    i = rng.choice([i for i, r in enumerate(records) if _literal_positions(r)])
    j = rng.choice(_literal_positions(records[i]))
    records[i][j] = str(-int(records[i][j]))


def drop_literal(records, rng):
    i = rng.choice([i for i, r in enumerate(records) if _literal_positions(r)])
    del records[i][rng.choice(_literal_positions(records[i]))]


def change_pivot(records, rng):
    i = rng.choice([i for i, r in enumerate(records) if r[0] == "r"])
    pivot = int(records[i][2])
    other = rng.choice([v for v in range(1, N_VARS + 2) if v != pivot])
    records[i][2] = str(rng.choice((0, -pivot, other, -other)))


def later_premise(records, rng):
    i = rng.choice([i for i, r in enumerate(records) if r[0] == "r"])
    records[i][rng.choice((3, 4))] = str(int(records[i][1]) + rng.randint(1, 5))


def reuse_id(records, rng):
    i = rng.randrange(1, len(records))
    records[i][1] = records[rng.randrange(i)][1]


def swap_premises(records, rng):
    i = rng.choice([i for i, r in enumerate(records) if r[0] == "r"])
    records[i][3], records[i][4] = records[i][4], records[i][3]


def _mutants(real_traces, mutate, seed):
    rng = random.Random(seed)
    for formula, header, records in real_traces:
        for _ in range(SAMPLES):
            mutant = [list(r) for r in records]
            mutate(mutant, rng)
            text = "\n".join([header] + [" ".join(r) for r in mutant]) + "\n"
            yield formula, text


@pytest.mark.parametrize(
    "mutate", [flip_sign, drop_literal, change_pivot, later_premise, reuse_id]
)
def test_broken_record_is_rejected(real_traces, mutate):
    wrong = []
    for formula, text in _mutants(real_traces, mutate, seed=mutate.__name__):
        try:
            parse_trace(text, formula)
        except ValueError:
            continue
        except Exception as exc:  # any other type is a checker crash
            wrong.append("%s: %r" % (mutate.__name__, exc))
        else:
            wrong.append("%s: accepted" % mutate.__name__)
    assert wrong == []


def test_swapped_premises_are_accepted(real_traces):
    for formula, text in _mutants(real_traces, swap_premises, seed=1):
        report = check_refutation(parse_trace(text, formula), formula)
        assert report.valid and report.complete
