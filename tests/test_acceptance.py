"""Acceptance checks.  Each test covers one headline behaviour of the
package, prints a single [PASS]/[FAIL] line to the terminal (outside
pytest's capture, so it is visible in a plain ``pytest -v`` run), and then
asserts.  Expected numbers are exact unless a bound is stated in the
assertion itself."""
import time

import pytest

from proofsat import (
    CdbSubstitute,
    Clause,
    ConflictFound,
    Decide,
    Flip,
    Formula,
    NcbJump,
    Record,
    Sat,
    Solver,
    SolverConfig,
    check_refutation,
    gen_bcp_separation,
    gen_contradiction,
    solve,
)
from proofsat.engine import MODE_DLL, MODE_SSS, MODE_TAE

from conftest import CORPUS_SIZE, make_base_formula


@pytest.fixture
def report(capsys):
    def _report(name, failures, detail=""):
        status = "PASS" if not failures else "FAIL"
        line = "[%s] %s" % (status, name)
        if failures:
            line += " — " + "; ".join(failures)
        elif detail:
            line += " — " + detail
        with capsys.disabled():
            print("\n%s" % line, flush=True)
        assert not failures, line

    return _report


def _solve_timed(formula, config, repeats=5):
    best = float("inf")
    outcome = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = solve(formula, config)
        best = min(best, time.perf_counter() - start)
    return outcome, best


def test_fixed_formula_refutation(report):
    failures = []
    out, seconds = _solve_timed(make_base_formula(), SolverConfig())
    if out.verdict != "UNSAT":
        failures.append("verdict %s, expected UNSAT" % out.verdict)
    checked = check_refutation(out.proof, out.instance) if out.proof else None
    if checked is None:
        failures.append("no refutation extracted")
    else:
        if not checked.valid:
            failures.append("checker rejects the refutation: %s" % checked.problems)
        if not checked.complete:
            failures.append("refutation lacks the empty clause")
        if not checked.tree_like:
            failures.append("refutation is not tree-like")
        if checked.size != 4:
            failures.append("refutation size %d, expected exactly 4" % checked.size)
    if seconds >= 1e-3:
        failures.append("solve took %.3f ms, budget 1 ms" % (seconds * 1e3))
    detail = (
        "UNSAT, size %d, %.3f ms" % (checked.size, seconds * 1e3) if checked else ""
    )
    report("fixed-formula-refutation", failures, detail)


def test_enumeration_blowup(report):
    failures = []
    start = time.perf_counter()
    observed = {}
    for n in (8, 10, 12):
        formula = gen_contradiction(n)
        tae = solve(formula, SolverConfig(mode=MODE_TAE)).stats.decisions
        sss = solve(formula, SolverConfig(mode=MODE_SSS)).stats.decisions
        dll = solve(formula, SolverConfig(mode=MODE_DLL)).stats.decisions
        observed[n] = (tae, sss, dll)
        if tae != 2**n - 1:
            failures.append("n=%d: tae decisions %d != %d" % (n, tae, 2**n - 1))
        if sss != 1:
            failures.append("n=%d: sss decisions %d != 1" % (n, sss))
        if dll != 1:
            failures.append("n=%d: dll_strict decisions %d != 1" % (n, dll))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append("took %.2f s, budget 1 s" % elapsed)
    report(
        "enumeration-blowup",
        failures,
        "tae %s vs constant 1, %.2f s"
        % ("/".join(str(observed[n][0]) for n in (8, 10, 12)), elapsed),
    )


def test_unit_cascade_separation(report):
    failures = []
    start = time.perf_counter()
    ks = (2, 5, 10, 20)
    plain, with_bcp = {}, {}
    for k in ks:
        formula = gen_bcp_separation(k)
        plain[k] = solve(formula, SolverConfig(mode=MODE_DLL)).stats.decisions
        with_bcp[k] = solve(
            formula, SolverConfig(mode=MODE_DLL, bcp=True)
        ).stats.decisions
        if plain[k] != 7:
            failures.append("k=%d: dll_strict decisions %d != 7" % (k, plain[k]))
        if with_bcp[k] < 3 + 6 * k:
            failures.append(
                "k=%d: dll_strict+bcp decisions %d < %d" % (k, with_bcp[k], 3 + 6 * k)
            )
    for lo, hi in zip(ks, ks[1:]):
        slope = (with_bcp[hi] - with_bcp[lo]) / (hi - lo)
        if slope < 6:
            failures.append("slope %.2f between k=%d and k=%d" % (slope, lo, hi))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append("took %.2f s, budget 1 s" % elapsed)
    report(
        "unit-cascade-separation",
        failures,
        "dll constant 7, with bcp %s, %.2f s"
        % ("/".join(str(with_bcp[k]) for k in ks), elapsed),
    )


def test_proof_size_bound(sweep, report):
    scope = [
        r
        for r in sweep["records"]
        if r["mode"] == MODE_SSS and not r["ccr"] and r.get("verdict") == "UNSAT"
    ]
    failures = []
    if not scope:
        failures.append("no unsatisfiable runs without clause recording")
    over = [r for r in scope if r["final_proof_size"] > r["decisions"]]
    for r in over[:5]:
        failures.append(
            "seed %d %s: proof %d > decisions %d"
            % (r["seed"], r["label"], r["final_proof_size"], r["decisions"])
        )
    if len(over) > 5:
        failures.append("and %d more" % (len(over) - 5))
    report(
        "proof-size-bound",
        failures,
        "%d runs, proof size never above decisions" % len(scope),
    )


def test_oracle_equivalence(sweep, report):
    records = sweep["records"]
    failures = []
    expected_runs = CORPUS_SIZE * 18
    if len(records) != expected_runs:
        failures.append("%d runs, expected %d" % (len(records), expected_runs))
    mismatched = [r for r in records if r.get("verdict") != r["oracle"]]
    for r in mismatched[:5]:
        failures.append(
            "seed %d %s: solver %s oracle %s"
            % (r["seed"], r["label"], r.get("verdict"), r["oracle"])
        )
    if len(mismatched) > 5:
        failures.append("and %d more" % (len(mismatched) - 5))
    bad_models = [r for r in records if r.get("verdict") == "SAT" and not r["model_ok"]]
    if bad_models:
        failures.append("%d satisfying assignments fail verification" % len(bad_models))
    unchecked = [
        r
        for r in records
        if r.get("verdict") == "UNSAT"
        and r["mode"] == MODE_SSS
        and r["check_exit"] != 0
    ]
    if unchecked:
        failures.append("%d refutations fail the CLI checker" % len(unchecked))
    if sweep["elapsed"] >= 120.0:
        failures.append("sweep took %.1f s, budget 120 s" % sweep["elapsed"])
    report(
        "oracle-equivalence",
        failures,
        "%d runs over %d formulas, 0 mismatches, sweep %.1f s"
        % (len(records), CORPUS_SIZE, sweep["elapsed"]),
    )


def test_invariant_suite(sweep, report):
    failures = list(sweep["violations"][:5])
    if len(sweep["violations"]) > 5:
        failures.append("and %d more" % (len(sweep["violations"]) - 5))
    report(
        "invariant-suite",
        failures,
        "debug checks silent across %d runs" % len(sweep["records"]),
    )


def test_hook_scenarios(report):
    failures = []

    # Re-seated flip: deciding 1, 3, 2 against the lone clause (1 2) must
    # jump the conflict past the unrelated middle level, flip variable 2 at
    # level 2, and leave variable 3 unassigned at that moment.
    solver = Solver(
        Formula(3, [(1, 2)]),
        SolverConfig(ncb=True, order=(1, 3, 2)),
    )
    stream = []
    unassigned_at_flip = None
    while True:
        event = solver.step()
        if event is None:
            break
        stream.append(event)
        if isinstance(event, Flip):
            unassigned_at_flip = solver.val[3] is None
    expected = [
        Decide(-1),
        Decide(-3),
        Decide(-2),
        ConflictFound(1),
        NcbJump(src=3, dst=2),
        Flip(2),
        Decide(-3),
        Sat(),
    ]
    if stream != expected:
        failures.append("re-seat stream %r" % (stream,))
    if unassigned_at_flip is not True:
        failures.append("variable 3 still assigned at the re-seated flip")

    # Block substitution: the run on the base formula must seat variable 2
    # at level 1 with the derived clause (-2) as its parent.
    solver = Solver(make_base_formula(), SolverConfig(cdb_1uip=True))
    substitution = None
    parent_clause = None
    while True:
        event = solver.step()
        if event is None:
            break
        if isinstance(event, CdbSubstitute):
            substitution = event
            parent_clause = solver.graph.node(solver.trail_parent[1]).clause
    if substitution != CdbSubstitute(level=1, var=2):
        failures.append("substitution event %r" % (substitution,))
    if parent_clause != Clause([-2]):
        failures.append("parent at level 1 is %r, expected (-2)" % (parent_clause,))

    # Clause recording: the same run with recording on must add (-2) to the
    # instance and report the conflict against the recorded clause id.
    solver = Solver(make_base_formula(), SolverConfig(cdb_1uip=True, ccr=True))
    events = list(iter(solver.step, None))
    out = solver.outcome
    clauses = [tuple(out.instance.clause(i)) for i in out.instance.ids()]
    if (-2,) not in clauses:
        failures.append("recorded clause (-2) missing from instance: %r" % clauses)
    if Record(clause_id=5) not in events:
        failures.append("no recording event for clause 5")
    if ConflictFound(clause_id=5) not in events:
        failures.append("conflict not re-reported against the recorded clause")

    report(
        "hook-scenarios",
        failures,
        "re-seat, substitution, and recording streams all exact",
    )


def test_trace_round_trip(sweep, report):
    records = [
        r
        for r in sweep["records"]
        if r.get("verdict") == "UNSAT" and r["mode"] == MODE_SSS
    ]
    failures = []
    if not records:
        failures.append("no unsatisfiable runs to round-trip")
    broken = [r for r in records if not r["roundtrip_equal"]]
    if broken:
        failures.append("%d traces do not parse back to the same graph" % len(broken))
    drifted = [r for r in records if not r["roundtrip_same_report"]]
    if drifted:
        failures.append("%d round-tripped graphs check differently" % len(drifted))
    report(
        "trace-round-trip",
        failures,
        "%d refutations round-trip exactly" % len(records),
    )
