"""Memory ceilings, measured with tracemalloc.

Each ceiling sits between the footprint of the current representation and
that of the one it replaced, so a regression to the old layout fails here:
a ``Clause`` that kept a frozenset beside its literal tuple took about
890 KB on the certify path below, occurrence lists built for every
declared literal took about 35 MB for the 200,000-variable header, and a
regularity mask indexed by variable id took about 39 MB to check a
337-resolvent refutation over variable ids near 10**6.  On the
1,435-resolvent refutation below, tree-likeness and regularity judged with
a reachable set, a ``used`` set and an ``at_or_below`` dict took about
410 KB of checker scratch, a trace parser holding every line at once
peaked about 140 KB above the graph it returned, and a finished solver
that kept its search state held about 150 KB beyond its outcome.  A
solver that filed a proof source for every input clause at set-up took
337 and 438 bytes per clause on the two set-up tests below.  A proof graph
that kept a dict of ``ProofNode`` objects, each with its ``Clause`` and
literal tuple, took about 318 bytes per resolvent in a solver's graph and
268 per node in a parsed one, and a plain ``sss`` run's graph kept every
resolvent it ever added; ``parse_dimacs`` reading its text through
``splitlines()`` peaked about 126 KB above the formula below.  Writers
that built one string per line and then joined them peaked about 143 KB
above the 54 KB trace and 409 KB above the 170 KB DOT text of the
1,435-resolvent refutation, and 123 KB above the 21 KB DIMACS text of
the unit chain below.  A ``Clause`` that wrapped its literal tuple in a
40-byte object made that unit chain's parsed formula 282 KB, and a solver
that grew a list of clause indices per literal by appending, and kept a
second list of the clause tuples beside a true-literal count and a
not-false count per clause, took 141 and 242 bytes per clause on the two
set-up tests below."""
import gc
import sys
import tracemalloc
from array import array

import pytest

from proofsat import (
    Formula,
    Solver,
    SolverConfig,
    check_refutation,
    export_dot,
    export_trace,
    gen_bcp_separation,
    gen_random_kcnf,
    init_refutation,
    parse_dimacs,
    parse_trace,
    write_dimacs,
)


def traced_peak(fn):
    """Peak bytes allocated while fn runs, above what was live before."""
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def peak_above_result(fn):
    """The value fn returns, the peak bytes above it while fn ran, and the
    bytes it keeps."""
    result = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result.append(fn())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result[0], peak - kept, kept - before


def test_certify_path_peak():
    # UNSAT, solved in about 0.15 s; its peak is about 480 KB.
    formula = gen_random_kcnf(40, 200, 3, 3)
    report = []

    def certify():
        outcome = Solver(formula, SolverConfig(bcp=True)).solve()
        graph = parse_trace(export_trace(outcome.proof), formula)
        report.append(check_refutation(graph, formula))

    peak = traced_peak(certify)
    assert report[0].valid and report[0].complete
    assert peak < 650 * 1024, "certify path peaked at %d KB" % (peak // 1024)


def test_unused_variables_cost_no_occurrence_lists():
    # About 49 bytes per declared variable: six pointer-sized slots, one
    # per per-variable list of the solver (values, levels, trail variables
    # and parents, occurrences), and one byte of the trail's flip flags.
    formula = Formula(200_000, [(1,), (2,)])
    peak = traced_peak(lambda: Solver(formula))
    assert peak < 20_000_000, "Solver(...) peaked at %.1f MB" % (peak / 1e6)


def setup_bytes_per_clause(formula):
    """Peak bytes per input clause of ``Solver(formula, bcp=True)``."""
    return traced_peak(lambda: Solver(formula, SolverConfig(bcp=True))) / len(formula)


def test_setup_on_random_3cnf_files_no_proof_sources():
    # About 121 bytes per input clause: clause state words and occurrence
    # tuples, and the lists an occurrence tuple is grown in.
    per_clause = setup_bytes_per_clause(gen_random_kcnf(2000, 8520, 3, 7))
    assert per_clause < 125, "Solver(...) took %d B per clause" % per_clause


def test_setup_on_unit_chains_files_no_proof_sources():
    # About 190 bytes per input clause.
    per_clause = setup_bytes_per_clause(gen_bcp_separation(300))
    assert per_clause < 215, "Solver(...) took %d B per clause" % per_clause


def test_checker_memory_does_not_grow_with_variable_ids():
    # The 337-resolvent sss+bcp refutation of gen_random_kcnf(30, 150, 3, 1)
    # with every variable v renamed to v + 10**6; checking it peaks at about
    # 100 KB, the same as with the original ids.
    formula = gen_random_kcnf(30, 150, 3, 1)
    proof = Solver(formula, SolverConfig(bcp=True)).solve().proof
    shift = 10**6
    renamed = Formula(
        formula.num_vars + shift,
        [[lit + shift if lit > 0 else lit - shift for lit in formula.clause(cid)]
         for cid in formula.ids()],
    )
    graph = init_refutation(renamed)
    for nid in proof.node_ids():
        node = proof.node(nid)
        if not node.is_source:
            graph.add_node(node.left, node.right, node.pivot + shift, node_id=nid)
    report = []
    peak = traced_peak(lambda: report.append(check_refutation(graph, renamed)))
    assert report[0].valid and report[0].complete and report[0].size == 337
    assert peak < 2 * 1024 * 1024, "check_refutation peaked at %d KB" % (peak // 1024)


@pytest.fixture(scope="module")
def large_refutation():
    """gen_random_kcnf(39, 195, 3, 1) and its 1,435-resolvent sss+bcp
    refutation, solved in about 0.2 s."""
    formula = gen_random_kcnf(39, 195, 3, 1)
    proof = Solver(formula, SolverConfig(bcp=True)).solve().proof
    assert proof.size == 1435
    return formula, proof


def test_checker_scratch_on_a_large_refutation(large_refutation):
    # About 19 KB: premise rows and a use count per row, and the pivot
    # masks not yet used; one map from node id to use count, then pivot
    # mask, took about 130 KB.
    formula, proof = large_refutation
    report = []
    peak = traced_peak(lambda: report.append(check_refutation(proof, formula)))
    assert report[0].valid and report[0].complete and report[0].tree_like
    assert peak < 80 * 1024, "check_refutation peaked at %d KB" % (peak // 1024)


def test_trace_parser_peak_above_its_graph(large_refutation):
    # About 14 KB above the 79 KB graph: one piece of the text and its
    # lines at a time.
    formula, proof = large_refutation
    text = export_trace(proof)
    graph, over, kept = peak_above_result(lambda: parse_trace(text, formula))
    assert graph == proof
    assert kept > 64 * 1024  # the graph itself is counted in kept
    assert over < 64 * 1024, "parse_trace peaked %d KB above its graph" % (over // 1024)


def test_trace_writer_peak_above_its_text(large_refutation):
    # About 53 KB above the 54 KB text: the list of its blocks, then the
    # text joined from them.
    _, over, kept = peak_above_result(lambda: export_trace(large_refutation[1]))
    assert kept > 48 * 1024
    assert over < 96 * 1024, "export_trace peaked %d KB above its text" % (over // 1024)


def test_dot_writer_peak_above_its_text(large_refutation):
    # About 160 KB above the 170 KB text.
    _, over, kept = peak_above_result(lambda: export_dot(large_refutation[1]))
    assert kept > 160 * 1024
    assert over < 256 * 1024, "export_dot peaked %d KB above its text" % (over // 1024)


def test_dimacs_writer_peak_above_its_text():
    # About 21 KB above the 21 KB text.
    formula = gen_bcp_separation(300)
    _, over, kept = peak_above_result(lambda: write_dimacs(formula))
    assert kept > 16 * 1024
    assert over < 64 * 1024, "write_dimacs peaked %d KB above its text" % (over // 1024)


def test_finished_solver_keeps_only_its_outcome():
    # The solver object, its dict and its spent run generator: about 1 KB.
    formula = gen_random_kcnf(39, 195, 3, 1)
    gc.collect()
    tracemalloc.start()
    try:
        solver = Solver(formula, SolverConfig(bcp=True))
        outcome = solver.solve()
        gc.collect()
        with_solver = tracemalloc.get_traced_memory()[0]
        del solver
        gc.collect()
        retained = with_solver - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert outcome.verdict == "UNSAT"
    assert retained < 16 * 1024, "finished solver holds %d KB" % (retained // 1024)


def test_solver_graph_bytes_per_resolvent():
    # About 72 bytes per resolvent left in the graph of a SAT run, dead
    # rows included.
    formula = gen_random_kcnf(50, 213, 3, 1)
    gc.collect()
    tracemalloc.start()
    try:
        solver = Solver(formula, SolverConfig(bcp=True))
        graph = solver.solve().graph
        del solver
        gc.collect()
        with_graph = tracemalloc.get_traced_memory()[0]
        resolvents = graph.size
        del graph
        gc.collect()
        freed = with_graph - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert resolvents == 1285
    per_resolvent = freed / resolvents
    assert per_resolvent < 160, "the graph took %d B per resolvent" % per_resolvent


def test_parsed_graph_bytes_per_node():
    # About 51 bytes per node: 1,941 nodes of mean width 5.6.
    formula = gen_random_kcnf(40, 170, 3, 1)
    text = export_trace(Solver(formula, SolverConfig(bcp=True)).solve().proof)
    graph = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph.append(parse_trace(text, formula))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(graph[0]) == 1941
    per_node = kept / len(graph[0])
    assert per_node < 128, "the parsed graph took %d B per node" % per_node


def store_bytes(graph):
    """Bytes of a graph's columns, arena and flags."""
    parts = [v for v in vars(graph).values() if isinstance(v, (array, bytearray))]
    return sum(map(sys.getsizeof, parts))


def test_store_follows_the_nodes_kept():
    # Plain sss adds 46,762 resolvents and keeps 11,304 (plus 136 sources);
    # compaction holds the store to about 74 bytes per node kept, where
    # keeping every row would take about 197.
    formula = gen_random_kcnf(40, 170, 3, 1)
    outcome = Solver(formula, SolverConfig()).solve()
    graph = outcome.graph
    assert (outcome.stats.nodes_added, graph.size) == (46762, 11304)
    assert len(graph._ids) < 2 * graph.size + 64
    per_node = store_bytes(graph) / len(graph)
    assert per_node < 150, "the store took %d B per node kept" % per_node


def test_sparse_trace_ids_cost_memory_by_record():
    # The 337-resolvent refutation of gen_random_kcnf(30, 150, 3, 1) with
    # resolvent id k renamed to k * 10**6: parsing it peaks at about
    # 38 KB, as with the original ids (40 KB), since rows are found by
    # bisection; memory follows the records, not the largest id.  Ids
    # near 10**12 are rejected as they are read.
    formula = gen_random_kcnf(30, 150, 3, 1)
    records = export_trace(Solver(formula, SolverConfig(bcp=True)).solve().proof).splitlines()
    m = len(formula)

    def renamed(shift):
        lines = []
        for record in records[1:]:
            tokens = record.split()
            if tokens[0] == "r":
                for k in (1, 3, 4):
                    if int(tokens[k]) > m:
                        tokens[k] = str(int(tokens[k]) * shift)
            lines.append(" ".join(tokens))
        return "p trace\n" + "\n".join(lines) + "\n"

    graph = []
    peak = traced_peak(lambda: graph.append(parse_trace(renamed(10**6), formula)))
    report = check_refutation(graph[0], formula)
    assert report.valid and report.complete and report.size == 337
    assert peak < 256 * 1024, "parse_trace peaked at %d KB" % (peak // 1024)
    with pytest.raises(ValueError, match=r"^line \d+: node id \d+ exceeds 2147483647$"):
        parse_trace(renamed(10**12), formula)


def test_dimacs_parser_peak_above_its_formula():
    # About 15 KB above the 225 KB formula: one piece of the text and its
    # lines at a time.
    text = write_dimacs(gen_bcp_separation(300))
    formula, over, kept = peak_above_result(lambda: parse_dimacs(text))
    assert len(formula) == 1808
    # The formula itself is counted in kept, one tuple per clause.
    assert 192 * 1024 < kept < 256 * 1024, "parse_dimacs kept %d KB" % (kept // 1024)
    assert over < 64 * 1024, "parse_dimacs peaked %d KB above its formula" % (over // 1024)
