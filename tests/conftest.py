"""Shared fixtures: the four-clause example formula, a hand-built shared-node
refutation of it, a way to forge broken graphs, and the seeded random corpus
swept once per session."""
import time

import pytest

from proofsat import (
    Clause,
    Formula,
    InvariantViolation,
    RefutationGraph,
    SolverConfig,
    brute_force_sat,
    check_refutation,
    export_trace,
    gen_random_kcnf,
    init_refutation,
    parse_trace,
    solve,
    verify_model,
    write_dimacs,
)
from proofsat import cli as proofsat_cli
from proofsat.engine import MODE_DLL, MODE_TAE
from proofsat.proofs import CheckReport, _derive, _same_literals, _source


def make_base_formula() -> Formula:
    """(1 2)(-2 3)(-2 -3)(-1 2) over four declared variables; variable 4
    never occurs.  Unsatisfiable: clauses 2 and 3 force -2, clauses 1 and 4
    then clash on variable 1."""
    formula = Formula(4)
    for lits in [(1, 2), (-2, 3), (-2, -3), (-1, 2)]:
        formula.add_clause(Clause(lits))
    return formula


@pytest.fixture
def base_formula() -> Formula:
    return make_base_formula()


def make_shared_node_refutation(formula: Formula) -> RefutationGraph:
    """A four-resolvent refutation of the base formula in which the (-2)
    node is consumed twice, so the derivation is a DAG rather than a tree:
    5=(-2) from 2,3; 6=(1) from 1,5; 7=(-1) from 4,5; 8=() from 6,7."""
    graph = init_refutation(formula)
    graph.add_node(2, 3, 3)  # 5: (-2)
    graph.add_node(1, 5, 2)  # 6: (1)
    graph.add_node(4, 5, 2)  # 7: (-1)
    graph.add_node(6, 7, 1)  # 8: ()
    return graph


def forge_graph(nodes, graph=None) -> RefutationGraph:
    """``graph`` (a new plain graph by default) with the ``{id: ProofNode}``
    dict ``nodes`` filed in id order through ``add_source`` and
    ``add_resolvent``, which check neither a source against a formula nor
    a step's premises, pivot or literals: the way to build a graph that
    breaks the rules, for the checker to find."""
    graph = RefutationGraph() if graph is None else graph
    for nid in sorted(nodes):
        node = nodes[nid]
        if node.is_source:
            graph.add_source(node.clause, nid)
        else:
            graph.add_resolvent(node.left, node.right, node.pivot, node.clause.literals, nid)
    return graph


def nodes_of(graph: RefutationGraph):
    """The ``{id: ProofNode}`` dict of ``graph``'s filed nodes, in id order:
    what ``forge_graph`` files back."""
    return {nid: graph.node(nid) for nid in graph.node_ids()}


def reference_check_refutation(graph: RefutationGraph, formula: Formula) -> CheckReport:
    """The checker as it was before it judged tree-likeness and regularity
    with one map: a reachable set, a ``used`` set and an ``at_or_below``
    dict over sorted id lists.  ``check_refutation`` must give the same
    report for every graph, valid or not."""
    problems = []
    nodes = nodes_of(graph)
    size = 0
    empty_id = None
    for nid in sorted(nodes):
        node = nodes[nid]
        if empty_id is None and not node.clause:
            empty_id = nid
        try:
            if node.is_source:
                _source(formula, nid, set(node.clause))
                continue
            size += 1
            premises = [nodes[p].clause.literals if p in nodes else None
                        for p in (node.left, node.right)]
            derived = _derive(nid, node.left, node.right, node.pivot, *premises)
            if not _same_literals(derived, node.clause):
                raise ValueError("literals differ from recomputed resolvent")
        except ValueError as exc:
            problems.append("node %d: %s" % (nid, exc))
    valid = not problems
    complete = empty_id is not None
    if nodes:
        derivation = graph.extract_derivation(empty_id if complete else max(nodes)).node_ids()
    else:
        derivation = set()
    tree_like = regular = True
    used = set()
    bit_of = {}
    at_or_below = {}
    for nid in sorted(derivation):
        node = nodes[nid]
        if node.is_source:
            at_or_below[nid] = 0
            continue
        mask = 0
        for premise in (node.left, node.right):
            premise_node = nodes.get(premise)
            if premise_node is None:
                continue
            if not premise_node.is_source:
                if premise in used:
                    tree_like = False
                used.add(premise)
            mask |= at_or_below.get(premise, 0)
        bit = bit_of.setdefault(node.pivot, 1 << len(bit_of))
        if mask & bit:
            regular = False
        at_or_below[nid] = mask | bit
    return CheckReport(
        valid=valid,
        complete=complete,
        tree_like=tree_like,
        regular=regular,
        size=size,
        problems=problems,
    )


# ---------------------------------------------------------------------------
# Corpus sweep, computed once per session and shared by the property and
# acceptance tests.

CORPUS_SIZE = 500


def corpus_formula(seed: int) -> Formula:
    n = 4 + seed % 9  # 4..12
    return gen_random_kcnf(n, 4 * n, 3, seed)


class SweepRecord(dict):
    """Plain dict subclass so failures print the whole record."""


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """Run the whole corpus under every configuration, with debug checks on,
    and collect compact per-run records plus wall-clock totals.

    Per record: seed, label, mode, ccr flag, verdict, oracle verdict,
    decisions, final_proof_size, and for satisfiable runs whether the model
    verifies, for unsatisfiable solver-graph runs whether the exported trace
    passes the CLI checker and whether parsing the trace back reproduces the
    exact graph and check report, and whether ``check_refutation`` gives
    the report of ``reference_check_refutation`` on the refutation and on
    the solver's whole graph.
    """
    workdir = tmp_path_factory.mktemp("sweep")
    cnf_path = workdir / "formula.cnf"
    trace_path = workdir / "proof.trace"
    # The 16 sss configurations of the CLI's random sweep, then tae and
    # dll_strict, labelled as the CLI labels them.
    configs = [
        SolverConfig(bcp=bcp, ncb=ncb, cdb_1uip=cdb, ccr=ccr, debug_checks=True)
        for bcp, ncb, cdb, ccr in proofsat_cli._RANDOM_SWEEP_COMBOS
    ]
    configs.append(SolverConfig(mode=MODE_TAE, debug_checks=True))
    configs.append(SolverConfig(mode=MODE_DLL, debug_checks=True))
    configs = [(config.label, config) for config in configs]
    records = []
    violations = []
    start = time.perf_counter()
    for seed in range(CORPUS_SIZE):
        formula = corpus_formula(seed)
        oracle_verdict = "SAT" if brute_force_sat(formula) is not None else "UNSAT"
        cnf_written = False
        for label, config in configs:
            record = SweepRecord(
                seed=seed,
                label=label,
                mode=config.mode,
                ccr=config.ccr,
                oracle=oracle_verdict,
            )
            try:
                outcome = solve(formula, config)
            except InvariantViolation as exc:
                violations.append("seed %d %s: %s" % (seed, label, exc))
                records.append(record)
                continue
            record["verdict"] = outcome.verdict
            record["decisions"] = outcome.stats.decisions
            record["final_proof_size"] = outcome.stats.final_proof_size
            if outcome.verdict == "SAT":
                record["model_ok"] = verify_model(formula, outcome.model)
            elif outcome.proof is not None:
                report = check_refutation(outcome.proof, formula)
                record["valid"] = report.valid
                record["complete"] = report.complete
                record["tree_like"] = report.tree_like
                record["proof_size"] = report.size
                if not cnf_written:
                    cnf_path.write_text(write_dimacs(formula))
                    cnf_written = True
                trace = export_trace(outcome.proof)
                trace_path.write_text(trace)
                record["check_exit"] = proofsat_cli.main(
                    ["check", str(cnf_path), str(trace_path)]
                )
                reparsed = parse_trace(trace, formula)
                record["roundtrip_equal"] = reparsed == outcome.proof
                record["roundtrip_same_report"] = (
                    check_refutation(reparsed, formula) == report
                )
                record["reference_same_report"] = (
                    reference_check_refutation(outcome.proof, formula) == report
                    and reference_check_refutation(outcome.graph, formula)
                    == check_refutation(outcome.graph, formula)
                )
            records.append(record)
    elapsed = time.perf_counter() - start
    return {"records": records, "violations": violations, "elapsed": elapsed}
