"""One operation: DIMACS text in, checked certificate out.

``certify`` is the timed path a user runs.  ``certify_traced`` makes the
same public calls, drives the search through ``Solver.step()`` and times
every layer from outside: around each public call, and around the inner
public functions the solver reaches (``init_refutation``,
``RefutationGraph.add_node``, ``RefutationGraph.extract_derivation``),
which are wrapped for the duration of a traced pass only.
"""
from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Optional

from proofsat import (
    VERDICT_UNSAT,
    RefutationGraph,
    Solver,
    SolverConfig,
    check_refutation,
    export_dot,
    export_trace,
    parse_dimacs,
    parse_trace,
    verify_model,
)
from proofsat import engine as _engine

EVENT_KINDS = (
    "Decide",
    "BcpDecide",
    "ConflictFound",
    "Flip",
    "BacktrackResolve",
    "BacktrackSkipRight",
    "BacktrackSkipLeft",
    "NcbJump",
    "CdbSubstitute",
    "Record",
    "Sat",
    "Unsat",
)


@dataclass
class OpResult:
    setup_s: float
    solve_s: float
    certify_s: float
    verdict: str
    certified: bool  # model verifies, or refutation is valid and complete
    round_trip: bool  # export -> parse -> export is byte-exact
    trace_bytes: int
    decisions: int
    fingerprint: str  # SHA-256 over verdict, Stats.as_dict() and trace bytes


def fingerprint(verdict: str, stats: Dict[str, int], trace: str) -> str:
    h = hashlib.sha256()
    h.update(verdict.encode())
    h.update(json.dumps(stats, sort_keys=True).encode())
    h.update(trace.encode())
    return h.hexdigest()


def _finish(t0, t1, t2, t3, outcome, trace, graph, certified) -> OpResult:
    """Checks and digests made after the timed path has ended."""
    round_trip = graph is None or export_trace(graph) == trace
    return OpResult(
        setup_s=t1 - t0,
        solve_s=t2 - t0,
        certify_s=t3 - t0,
        verdict=outcome.verdict,
        certified=certified,
        round_trip=round_trip,
        trace_bytes=len(trace.encode()),
        decisions=outcome.stats.decisions,
        fingerprint=fingerprint(outcome.verdict, outcome.stats.as_dict(), trace),
    )


def certify(text: str, config: SolverConfig) -> OpResult:
    t0 = perf_counter()
    formula = parse_dimacs(text)
    solver = Solver(formula, config)
    t1 = perf_counter()
    outcome = solver.solve()
    t2 = perf_counter()
    graph = None
    trace = ""
    if outcome.verdict == VERDICT_UNSAT:
        trace = export_trace(outcome.proof)
        graph = parse_trace(trace, formula)
        report = check_refutation(graph, formula)
        certified = report.valid and report.complete
    else:
        certified = verify_model(formula, outcome.model)
    t3 = perf_counter()
    return _finish(t0, t1, t2, t3, outcome, trace, graph, certified)


class Tracer:
    """Per-pass accumulators and spans, kept in memory.

    Spans are recorded at layer boundaries of each operation; step events
    and resolution calls are aggregated per kind rather than stored one
    span per call, since a pass yields up to a million of them."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.phase = "search"  # where RefutationGraph.add_node is being called from
        self.totals: Dict[str, float] = defaultdict(float)

    def span(self, op: int, name: str, start: float, end: float, parent: Optional[str]) -> None:
        self.spans.append(
            {"op": op, "name": name, "start": start, "end": end, "parent": parent}
        )
        self.totals[name] += end - start

    def add(self, name: str, value: float) -> None:
        self.totals[name] += value

    def aggregate(self, op: int, kind: str, seconds: float, count: int) -> None:
        """All ``Solver.step()`` calls of one operation that yielded ``kind``."""
        name = "engine.step.%s_s" % kind
        self.spans.append(
            {"op": op, "name": name, "seconds": seconds, "count": count,
             "parent": "engine.search_s"}
        )
        self.totals[name] += seconds
        self.totals["engine.events." + kind] += count

    @contextmanager
    def wrapped(self) -> Iterator[None]:
        """Wrap the inner public functions the solver and parser call."""
        original_init = _engine.init_refutation
        original_add = RefutationGraph.add_node
        original_extract = RefutationGraph.extract_derivation
        totals = self.totals

        def init_refutation(formula):
            t = perf_counter()
            try:
                return original_init(formula)
            finally:
                totals["proofs.init_s"] += perf_counter() - t

        def add_node(graph, *args, **kwargs):
            t = perf_counter()
            try:
                return original_add(graph, *args, **kwargs)
            finally:
                totals["proofs.resolve.%s_s" % self.phase] += perf_counter() - t
                totals["proofs.resolve.%s_calls" % self.phase] += 1

        def extract_derivation(graph, node_id):
            t = perf_counter()
            try:
                return original_extract(graph, node_id)
            finally:
                totals["proofs.extract_s"] += perf_counter() - t

        _engine.init_refutation = init_refutation
        RefutationGraph.add_node = add_node
        RefutationGraph.extract_derivation = extract_derivation
        try:
            yield
        finally:
            _engine.init_refutation = original_init
            RefutationGraph.add_node = original_add
            RefutationGraph.extract_derivation = original_extract


def certify_traced(text: str, config: SolverConfig, op: int, tracer: Tracer) -> OpResult:
    """``certify`` with a span at every layer boundary.  Must run inside
    ``tracer.wrapped()``."""
    span = tracer.span
    t0 = perf_counter()
    formula = parse_dimacs(text)
    ta = perf_counter()
    solver = Solver(formula, config)
    t1 = perf_counter()
    span(op, "cnf.parse_s", t0, ta, "op")
    span(op, "engine.init_s", ta, t1, "op")

    tracer.phase = "search"
    step = solver.step
    step_s: Dict[str, float] = defaultdict(float)
    step_n: Dict[str, int] = defaultdict(int)
    while True:
        a = perf_counter()
        event = step()
        b = perf_counter()
        if event is None:
            break
        kind = type(event).__name__
        step_s[kind] += b - a
        step_n[kind] += 1
    outcome = solver.outcome
    t2 = perf_counter()
    span(op, "engine.search_s", t1, t2, "op")
    for kind, seconds in step_s.items():
        tracer.aggregate(op, kind, seconds, step_n[kind])

    graph = None
    trace = ""
    if outcome.verdict == VERDICT_UNSAT:
        a = perf_counter()
        trace = export_trace(outcome.proof)
        b = perf_counter()
        tracer.phase = "parse"
        graph = parse_trace(trace, formula)
        c = perf_counter()
        report = check_refutation(graph, formula)
        t3 = perf_counter()
        certified = report.valid and report.complete
        span(op, "proofs.export_trace_s", a, b, "op")
        span(op, "proofs.parse_trace_s", b, c, "op")
        span(op, "proofs.check_s", c, t3, "op")
        tracer.add("proofs.checked_resolvents", report.size)
        d = perf_counter()
        export_dot(outcome.proof)
        span(op, "proofs.export_dot_s", d, perf_counter(), None)
    else:
        a = perf_counter()
        certified = verify_model(formula, outcome.model)
        t3 = perf_counter()
        span(op, "engine.verify_model_s", a, t3, "op")
    span(op, "op", t0, t3, None)

    stats = outcome.stats.as_dict()
    for name, value in stats.items():
        tracer.add("engine." + name, value)
    tracer.add("engine.clauses_out", len(outcome.instance))
    tracer.add("engine.graph_nodes", len(outcome.graph) if outcome.graph is not None else 0)
    return _finish(t0, t1, t2, t3, outcome, trace, graph, certified)
