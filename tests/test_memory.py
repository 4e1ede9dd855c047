"""Memory ceilings, measured with tracemalloc.

Each ceiling sits between the footprint of the current representation and
that of the one it replaced, so a regression to the old layout fails here:
a ``Clause`` that kept a frozenset beside its literal tuple took about
890 KB on the certify path below, and occurrence lists built for every
declared literal took about 35 MB for the 200,000-variable header."""
import gc
import tracemalloc

from proofsat import (
    Formula,
    Solver,
    SolverConfig,
    check_refutation,
    export_trace,
    gen_random_kcnf,
    parse_trace,
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
    # About 64 bytes per declared variable: eight pointer-sized slots, one
    # per per-variable list of the solver (trail, values, occurrences).
    formula = Formula(200_000, [(1,), (2,)])
    peak = traced_peak(lambda: Solver(formula))
    assert peak < 20_000_000, "Solver(...) peaked at %.1f MB" % (peak / 1e6)
