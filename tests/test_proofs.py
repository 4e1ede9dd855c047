"""Resolution graphs, the independent checker, and the trace/DOT formats."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from proofsat import (
    Clause,
    Formula,
    RefutationGraph,
    SolverConfig,
    check_refutation,
    export_dot,
    export_trace,
    gen_random_kcnf,
    init_refutation,
    parse_trace,
    solve,
)
from proofsat.cnf import _BLOCK, _lines
from proofsat.proofs import ProofNode, _oriented_set, _resolvent_set, _source

from conftest import (
    forge_graph,
    make_base_formula,
    make_shared_node_refutation,
    reference_check_refutation,
)

# Deterministic, bounded example runs, so tier-1 stays reproducible.
proof_settings = settings(
    max_examples=40, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SHARED_TRACE = """p trace
o 1 1 2 0
o 2 -2 3 0
o 3 -2 -3 0
o 4 -1 2 0
r 5 3 2 3 -2 0
r 6 2 1 5 1 0
r 7 2 4 5 -1 0
r 8 1 6 7 0
"""


def sources_of(formula):
    """Every formula clause as its source node, by id, for tests that forge
    resolvents over them (``init_refutation`` reserves those ids and files
    a source only when a step first uses it)."""
    return {cid: ProofNode(cid, formula.clause(cid)) for cid in formula.ids()}


class TestPivotAndResolve:
    def test_oriented_set_takes_either_premise_order(self):
        assert _oriented_set((1, 2), (-2, 3), 2) == {1, 3}
        assert _oriented_set((-2, 3), (1, 2), 2) == {1, 3}
        with pytest.raises(ValueError):
            _oriented_set((1, 2), (2, 3), 2)

    def test_resolve_unit_pair_gives_empty_clause(self):
        assert _resolvent_set((1,), (-1,), 1) == set()


class TestRefutationGraph:
    def test_init_refutation_mirrors_clause_ids(self):
        f = make_base_formula()
        g = init_refutation(f)
        assert g.node_ids() == [] and len(g) == 0  # no node before its use
        with pytest.raises(ValueError):
            g.add_node(1, 4, 3)  # a rejected step files no source
        assert g.node_ids() == []
        assert g.add_node(2, 3, 3) == 5  # resolvents start at m + 1
        assert g.node_ids() == [2, 3, 5]
        for cid in (2, 3):
            node = g.node(cid)
            assert node.is_source
            assert node.clause == f.clause(cid)
            assert node.id == cid
        for cid in f.ids():  # filed or not, ids 1..m stay reserved
            with pytest.raises(ValueError, match="node id %d already used" % cid):
                g.add_node(2, 3, 3, node_id=cid)
            with pytest.raises(ValueError, match="node id %d already used" % cid):
                g.add_source(f.clause(cid), cid)
        assert g.node_ids() == [2, 3, 5]

    def test_add_node_orients_either_premise_order(self):
        f = make_base_formula()
        g = init_refutation(f)
        a = g.add_node(2, 3, 3)
        h = init_refutation(f)
        b = h.add_node(3, 2, 3)
        assert g.node(a).clause == h.node(b).clause == Clause([-2])
        assert (h.node(b).left, h.node(b).right) == (3, 2)

    def test_add_node_rejects_tautological_resolvent(self):
        g = RefutationGraph()
        g.add_source(Clause([1, 2]), 1)
        g.add_source(Clause([-1, -2]), 2)
        for v in (1, 2):
            with pytest.raises(ValueError):
                g.add_node(1, 2, v)

    def test_add_node_rejects_nonclashing_pivot(self):
        g = RefutationGraph()
        g.add_source(Clause([1, 2]), 1)
        g.add_source(Clause([-2, 3]), 2)
        with pytest.raises(ValueError):
            g.add_node(1, 2, 3)

    def test_explicit_ids_must_exceed_premises(self):
        f = make_base_formula()
        g = init_refutation(f)
        with pytest.raises(ValueError):
            g.add_node(2, 3, 3, node_id=3)
        with pytest.raises(ValueError, match="node id must be positive"):
            g.add_node(2, 3, 3, node_id=0)

    def test_id_reuse_rejected(self):
        f = make_base_formula()
        g = init_refutation(f)
        g.add_node(2, 3, 3, node_id=9)
        with pytest.raises(ValueError):
            g.add_node(2, 3, 3, node_id=9)
        with pytest.raises(ValueError, match="node id 9 already used"):
            g.add_resolvent(2, 3, 3, [-2], node_id=9)
        assert g.add_node(2, 3, 3) == 10  # auto id continues past the gap

    def test_default_id_already_used_rejected(self):
        # A node filed at the next free id behind the constructor's back
        # must not be overwritten by an add_node call without an id.
        f = make_base_formula()
        g = init_refutation(f)
        g.add_source(Clause([9]), 5)
        assert g.add_node(2, 3, 3) == 6  # the default id is past every filed id
        assert g.nodes[5] == ProofNode(5, Clause([9]))

    def test_explicit_ids_below_a_filed_id_rejected(self):
        f = make_base_formula()
        g = init_refutation(f)
        g.add_node(2, 3, 3, node_id=9)
        with pytest.raises(ValueError) as info:
            g.add_node(2, 3, 3, node_id=7)
        assert str(info.value) == "node id 7 must exceed 9, the highest id filed before it"
        h = RefutationGraph()
        h.add_source(f.clause(3), 3)
        with pytest.raises(ValueError) as info:
            h.add_source(f.clause(2), 2)
        assert str(info.value) == "node id 2 must exceed 3, the highest id filed before it"
        assert g.node_ids() == [2, 3, 9] and h.node_ids() == [3]

    def test_size_counts_resolvents_only(self):
        g = make_shared_node_refutation(make_base_formula())
        assert len(g) == 8
        assert g.size == 4

    def test_reachable_and_extract(self):
        g = make_shared_node_refutation(make_base_formula())
        assert g.reachable_from(6) == {1, 2, 3, 5, 6}
        sub = g.extract_derivation(6)
        assert sub.node_ids() == [1, 2, 3, 5, 6]
        assert sub.size == 2
        assert all(sub.node(i) == g.node(i) for i in sub.node_ids())


class TestChecker:
    def test_shared_node_refutation_report(self):
        f = make_base_formula()
        report = check_refutation(make_shared_node_refutation(f), f)
        assert report.valid
        assert report.complete
        assert report.size == 4
        assert not report.tree_like  # node 5 feeds both 6 and 7
        assert report.regular
        assert report.problems == []

    def test_single_resolution_refutation(self):
        f = Formula(1, [(1,), (-1,)])
        g = init_refutation(f)
        g.add_node(1, 2, 1)
        report = check_refutation(g, f)
        assert report.valid and report.complete
        assert report.tree_like and report.regular
        assert report.size == 1

    def test_incomplete_derivation(self):
        f = make_base_formula()
        g = init_refutation(f)
        g.add_node(2, 3, 3)
        report = check_refutation(g, f)
        assert report.valid and not report.complete

    def test_irregular_path_detected(self):
        f = Formula(3, [(1, 2), (-2, 3), (-3, -2)])
        g = init_refutation(f)
        r1 = g.add_node(1, 2, 2)  # (1 3)
        r2 = g.add_node(r1, 3, 3)  # (1 -2)
        g.add_node(r2, 1, 2)  # (1): pivot 2 repeats along the path
        report = check_refutation(g, f)
        assert report.valid
        assert report.tree_like
        assert not report.regular

    def test_source_mismatch_reported(self):
        f = make_base_formula()
        g = RefutationGraph()
        g.add_source(Clause([1]), 1)  # formula clause 1 is (1 2)
        report = check_refutation(g, f)
        assert not report.valid
        assert report.problems == ["node 1: literals differ from formula clause 1"]

    def test_source_index_out_of_range_reported(self):
        f = make_base_formula()
        g = RefutationGraph()
        g.add_source(Clause([1, 2]), 99)
        report = check_refutation(g, f)
        assert not report.valid
        assert report.problems == ["node 99: no formula clause with id 99"]

    def test_forged_resolvent_clause_reported(self):
        # The checker must recompute resolvents rather than trust the graph,
        # so forge a node that add_node would reject.
        f = make_base_formula()
        g = forge_graph({**sources_of(f), 5: ProofNode(5, Clause([3]), left=2, right=3, pivot=3)})
        report = check_refutation(g, f)
        assert not report.valid
        assert any("recomputed resolvent" in p for p in report.problems)

    def test_missing_premise_reported(self):
        f = make_base_formula()
        g = forge_graph({5: ProofNode(5, Clause([-2]), left=2, right=77, pivot=3)}, init_refutation(f))
        report = check_refutation(g, f)
        assert not report.valid
        assert report.problems == ["node 5: premise id not defined earlier"]

    def test_premise_order_violation_reported(self):
        f = make_base_formula()
        g = forge_graph({
            **sources_of(f),
            4: ProofNode(4, Clause([-1, 2]), left=5, right=1, pivot=2),
            5: ProofNode(5, Clause([-2]), left=2, right=3, pivot=3),
        })
        report = check_refutation(g, f)
        assert not report.valid
        assert "node 4: resolvent id must exceed its premise ids" in report.problems

    def test_empty_graph(self):
        report = check_refutation(RefutationGraph(), make_base_formula())
        assert report.valid and not report.complete and report.size == 0

    @pytest.mark.parametrize("bad_pivot", [-3, 0])
    def test_pivot_that_is_not_a_variable_reported(self, bad_pivot):
        # (-2) does follow from clauses 2 and 3 on -3, so only the pivot is
        # wrong; the checker must report it rather than raise.
        f = make_base_formula()
        g = forge_graph({
            **sources_of(f),
            5: ProofNode(5, Clause([-2]), left=2, right=3, pivot=bad_pivot),
            6: ProofNode(6, Clause([-2]), left=5, right=5, pivot=3),
        })
        report = check_refutation(g, f)
        assert not report.valid
        assert "node 5: pivot must be a positive variable, got %r" % (bad_pivot,) in report.problems


# One faulty step per rule of _derive and _source.  Each case names the
# formula clauses present as sources, then the faulty record.
RULE_FORMULA = Formula(3, [(1, 2), (-1, -2), (-2, 3), (-2, -3)])
RULE_CASES = [
    ([3, 4], "r 5 3 3 77 -2 0", "premise id not defined earlier"),
    ([3, 4], "r 2 3 3 4 -2 0", "resolvent id must exceed its premise ids"),
    ([3, 4], "r 5 -3 3 4 -2 0", "pivot must be a positive variable, got -3"),
    ([3, 4], "r 5 0 3 4 -2 0", "pivot must be a positive variable, got 0"),
    ([3, 4], "r 5 2 3 4 -2 0", "pivot 2 does not occur with opposite polarities in the premises"),
    ([1, 2], "r 5 1 1 2 0", "resolvent of 1 and 2 on 1 is tautological"),
    ([3, 4], "r 5 3 3 4 -2 -1 0", "literals differ from recomputed resolvent"),
    ([3], "o 4 -2 0", "literals differ from formula clause 4"),
    ([3, 4], "o 9 1 2 0", "no formula clause with id 9"),
]


@pytest.mark.parametrize(
    "sources,record,message",
    RULE_CASES,
    ids=[
        "missing_premise",
        "later_premise",
        "negative_pivot",
        "zero_pivot",
        "nonclashing_pivot",
        "tautological_resolvent",
        "wrong_resolvent_literals",
        "source_mismatch",
        "source_outside_formula",
    ],
)
def test_each_fault_has_one_wording(sources, record, message):
    f = RULE_FORMULA
    kind, *numbers = record.split()
    numbers = [int(t) for t in numbers[:-1]]
    nid = numbers[0]

    def graph_of_sources():
        g = RefutationGraph()
        for cid in sources:
            g.add_source(f.clause(cid), cid)
        return g

    if kind == "o":
        with pytest.raises(ValueError) as info:
            _source(f, nid, set(numbers[1:]))
        assert str(info.value) == message
    elif not message.startswith("literals differ"):
        # add_node computes the literals itself, so only a record can
        # carry wrong ones.
        with pytest.raises(ValueError) as info:
            graph_of_sources().add_node(numbers[2], numbers[3], numbers[1], node_id=nid)
        assert str(info.value) == message

    text = "p trace\n" + "".join(
        "o %d %s 0\n" % (cid, " ".join(map(str, f.clause(cid)))) for cid in sources
    )
    with pytest.raises(ValueError) as info:
        parse_trace(text + record + "\n", f)
    assert str(info.value) == "line %d: %s" % (len(sources) + 2, message)

    # The graph is filed in id order, the faulty node among the sources.
    nodes = {cid: ProofNode(cid, f.clause(cid)) for cid in sources}
    if kind == "o":
        nodes[nid] = ProofNode(nid, Clause(numbers[1:]))
    else:
        nodes[nid] = ProofNode(nid, Clause(numbers[4:]), numbers[2], numbers[3], numbers[1])
    g = forge_graph(nodes)
    assert check_refutation(g, f).problems == ["node %d: %s" % (nid, message)]


# ---------------------------------------------------------------------------
# The checker against ``reference_check_refutation`` on graphs that break
# the rules.  Each fault rewrites one resolvent in a dict copy of a valid
# refutation's nodes, and the graph is forged from the dict; the
# refutations are extracted derivations, so every node is reachable from
# the empty clause.


def _refutations():
    bases = [(make_base_formula(), make_shared_node_refutation(make_base_formula()))]
    for seed in (1, 2, 3):
        formula = gen_random_kcnf(8, 40, 3, seed)
        for config in (SolverConfig(bcp=True), SolverConfig(cdb_1uip=True, ccr=True)):
            outcome = solve(formula, config)
            if outcome.proof is not None:
                bases.append((formula, outcome.proof))
    return bases


REFUTATIONS = _refutations()


def _resolvent_ids(nodes):
    return sorted(nid for nid, node in nodes.items() if not node.is_source)


def dangling_premise(nodes, draw):
    nid = draw(st.sampled_from(_resolvent_ids(nodes)))
    missing = draw(st.sampled_from([0, -1, max(nodes) + 1, max(nodes) + 7]))
    slot = draw(st.sampled_from(["left", "right"]))
    nodes[nid] = nodes[nid]._replace(**{slot: missing})


def later_premise(nodes, draw):
    nid = draw(st.sampled_from(_resolvent_ids(nodes)))
    later = draw(st.sampled_from([i for i in nodes if i >= nid]))
    slot = draw(st.sampled_from(["left", "right"]))
    nodes[nid] = nodes[nid]._replace(**{slot: later})


def premise_used_twice(nodes, draw):
    nid = draw(st.sampled_from(_resolvent_ids(nodes)))
    nodes[nid] = nodes[nid]._replace(right=nodes[nid].left)


def cycle(nodes, draw):
    # The sink reaches every node, so pointing below it at the sink closes
    # a cycle through the sink.
    sink = max(nodes)
    nid = draw(st.sampled_from(_resolvent_ids(nodes)))
    nodes[nid] = nodes[nid]._replace(left=sink)


def no_empty_clause(nodes, draw):
    for nid in _resolvent_ids(nodes):
        if not nodes[nid].clause:
            nodes[nid] = nodes[nid]._replace(clause=Clause([draw(st.integers(1, 3))]))


def repeated_pivot(nodes, draw):
    nid = draw(st.sampled_from(_resolvent_ids(nodes)))
    below = [nodes[p].pivot for p in (nodes[nid].left, nodes[nid].right)
             if p in nodes and not nodes[p].is_source]
    pivot = draw(st.sampled_from(below)) if below else nodes[nid].pivot
    nodes[nid] = nodes[nid]._replace(pivot=pivot)


FAULTS = [dangling_premise, later_premise, premise_used_twice, cycle,
          no_empty_clause, repeated_pivot]


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__)
@proof_settings
@given(data=st.data())
def test_checker_matches_reference_on_broken_graphs(fault, data):
    formula, base = data.draw(st.sampled_from(REFUTATIONS), label="refutation")
    nodes = dict(base.nodes)
    for extra in [fault] + data.draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        extra(nodes, data.draw)
    graph = forge_graph(nodes)
    assert check_refutation(graph, formula) == reference_check_refutation(graph, formula)


class TestProofNode:
    def test_fields_equality_and_immutability(self):
        source = ProofNode(1, Clause([1, 2]))
        resolvent = ProofNode(5, Clause([-2]), 2, 3, 3)
        assert source.is_source and not resolvent.is_source
        assert (source.left, source.right, source.pivot) == (None, None, None)
        assert (resolvent.left, resolvent.right, resolvent.pivot) == (2, 3, 3)
        assert resolvent == ProofNode(5, Clause([-2]), left=2, right=3, pivot=3)
        assert resolvent != ProofNode(5, Clause([-2]), left=3, right=2, pivot=3)
        with pytest.raises(AttributeError):
            resolvent.pivot = 2


class TestTraceFormat:
    def test_export_exact_text(self):
        g = make_shared_node_refutation(make_base_formula())
        assert export_trace(g) == SHARED_TRACE

    def test_parse_rebuilds_graph(self):
        f = make_base_formula()
        assert parse_trace(SHARED_TRACE, f) == make_shared_node_refutation(f)

    def test_round_trip_preserves_check_report(self):
        f = make_base_formula()
        g = make_shared_node_refutation(f)
        assert check_refutation(parse_trace(export_trace(g), f), f) == (
            check_refutation(g, f)
        )

    def test_records_are_literal_sets(self):
        # Literals out of canonical order or repeated still name the same
        # clause, in 'o' and 'r' records alike.
        f = Formula(3, [(1, 2, 3), (-1, 2, 3), (-2,), (-3,)])
        text = (
            "p trace\no 1 3 1 2 1 0\no 2 -1 2 3 0\no 3 -2 0\no 4 -3 -3 0\n"
            "r 5 1 1 2 3 2 3 0\nr 6 2 5 3 3 0\nr 7 3 6 4 0\n"
        )
        g = parse_trace(text, f)
        report = check_refutation(g, f)
        assert report.valid and report.complete
        assert g.nodes[5].clause.literals == (2, 3)
        assert export_trace(g).splitlines()[1] == "o 1 1 2 3 0"

    def test_comments_and_blank_lines_ignored(self):
        f = Formula(1, [(1,), (-1,)])
        text = "c note\np trace\n\no 1 1 0\nc mid\no 2 -1 0\nr 3 1 1 2 0\n"
        assert check_refutation(parse_trace(text, f), f).complete

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("o 1 1 2 0\n", "expected 'p trace'"),
            ("p trace\nq 1 0\n", "unknown record"),
            ("p trace\no 1 1 2\n", "not terminated"),
            ("p trace\no 1 1 x 0\n", "non-integer"),
            ("p trace\no 0\n", "line 2: source record needs an id"),
            ("p trace\no 1 0\n", "source clause is empty"),
            ("p trace\no 9 1 2 0\n", "no formula clause with id 9"),
            ("p trace\no 1 1 -2 0\n", "differ from formula clause 1"),
            ("p trace\no 1 1 2 0\no 1 1 2 0\n", "already used"),
            ("p trace\nr 5 3 2 3 -2 0\n", "premise id not defined"),
            (
                "p trace\no 2 -2 3 0\no 3 -2 -3 0\nr 5 3 2 3 -2 -9 0\n",
                "differ from recomputed resolvent",
            ),
            ("p trace\nr 5 3 0\n", "needs id, pivot and two premises"),
            ("", "missing 'p trace' header"),
        ],
    )
    def test_malformed_traces_rejected(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_trace(text, make_base_formula())

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_trace("p trace\no 1 1 2 0\nq 0\n", make_base_formula())

    @pytest.mark.parametrize(
        "record,fragment",
        [
            ("o 1 1 0 2 0", "line 4: literal must be a nonzero integer, got 0"),
            ("r 5 3 2 3 -2 0 0", "line 4: literal must be a nonzero integer, got 0"),
            ("r 5 2 2 3 -2 0", "line 4: pivot 2 does not occur with opposite polarities"),
            ("r 5 -3 2 3 -2 0", "line 4: pivot must be a positive variable, got -3"),
            ("r 5 0 2 3 -2 0", "line 4: pivot must be a positive variable, got 0"),
            ("r 3 3 2 3 -2 0", "line 4: node id 3 already used"),
            ("r 1 3 2 3 -2 0", "line 4: resolvent id must exceed its premise ids"),
        ],
    )
    def test_every_rejection_names_its_line(self, record, fragment):
        text = "p trace\no 2 -2 3 0\no 3 -2 -3 0\n%s\n" % record
        with pytest.raises(ValueError) as info:
            parse_trace(text, make_base_formula())
        assert str(info.value).startswith(fragment)

    def test_tautological_resolvent_names_its_line(self):
        f = Formula(2, [(1, 2), (-1, -2)])
        with pytest.raises(ValueError, match=r"^line 4: resolvent of 1 and 2 on 1 is tautological"):
            parse_trace("p trace\no 1 1 2 0\no 2 -1 -2 0\nr 3 1 1 2 0\n", f)


class TestNodeStore:
    """The graph keeps its nodes in 32-bit columns; ``nodes`` is a read-only view."""

    def test_view_reads_equal_nodes(self):
        g = make_shared_node_refutation(make_base_formula())
        assert g.nodes[5] == g.nodes[5] and g.nodes[5] is not g.nodes[5]
        assert g.nodes[5] == ProofNode(5, Clause([-2]), 2, 3, 3)
        assert 5 in g.nodes and 9 not in g.nodes and "5" not in g.nodes

    def test_view_is_read_only(self):
        # Nodes are filed only by the graph's own calls: writing or deleting
        # through the view, a filed node or not, changes nothing.
        f = make_base_formula()
        g = make_shared_node_refutation(f)
        for nid in (5, 9):
            with pytest.raises(TypeError):
                g.nodes[nid] = ProofNode(nid, Clause([-2]), 2, 3, 3)
        for nid in (2, 5, 9):
            with pytest.raises(TypeError):
                del g.nodes[nid]
        assert g == make_shared_node_refutation(f)
        assert check_refutation(g, f) == check_refutation(make_shared_node_refutation(f), f)

    def test_missing_ids_name_themselves(self):
        g = make_shared_node_refutation(make_base_formula())
        for read in (g.node, g.literals):
            with pytest.raises(KeyError) as info:
                read(9)
            assert info.value.args == ("no node with id 9",)

    def test_pruned_nodes_are_compacted_away(self):
        # 300 copies of (-2), most pruned: the rows left follow the nodes
        # kept, and every kept node reads and resolves as before.
        f = make_base_formula()
        g = init_refutation(f)
        copies = [g.add_node(2, 3, 3) for _ in range(300)]
        kept = copies[::10]
        for nid in copies:
            if nid not in kept:
                assert g.prune(nid) == (2, 3)
        assert g.prune(copies[1]) is None  # already pruned
        assert g.prune(2) is None  # a source is never pruned
        assert g.node_ids() == [2, 3] + kept
        assert len(g._ids) < 2 * len(kept) + 64
        assert all(g.node(nid) == ProofNode(nid, Clause([-2]), 2, 3, 3) for nid in kept)
        one = g.add_node(1, kept[7], 2)
        assert g.literals(one) == (1,) and g.literals(g.add_node(4, one, 1)) == (2,)

    def test_ids_out_of_order_are_rejected(self):
        f = make_base_formula()
        text = "p trace\no 1 1 2 0\no 2 -2 3 0\no 3 -2 -3 0\no 4 -1 2 0\n"
        text += "r 9 3 2 3 -2 0\nr 7 1 1 4 2 0\nr 10 2 7 9 0\n"
        with pytest.raises(ValueError) as info:
            parse_trace(text, f)
        assert str(info.value) == "line 7: node id 7 must exceed 9, the highest id filed before it"

    def test_descending_ids_are_rejected(self):
        # 40,000 resolvents of the same two sources: filed from the highest
        # id down, the trace fails at its second source; ascending, it
        # parses and checks.
        f = Formula(1, [(1,), (-1,)])
        n = 40000
        down = "p trace\no 2 -1 0\no 1 1 0\n" + "".join("r %d 1 1 2 0\n" % k for k in range(n + 2, 2, -1))
        up = "p trace\no 1 1 0\no 2 -1 0\n" + "".join("r %d 1 1 2 0\n" % k for k in range(3, n + 3))
        with pytest.raises(ValueError) as info:
            parse_trace(down, f)
        assert str(info.value) == "line 3: node id 1 must exceed 2, the highest id filed before it"
        g = parse_trace(up, f)
        assert export_trace(g) == up
        report = check_refutation(g, f)
        assert report.valid and report.complete and report.size == n

    def test_pruned_ids_are_never_filed_again(self):
        # The last row pruned, then 200 more, so that compaction drops
        # their rows: filing over the last fails the same way before and
        # after its row is gone.
        f = make_base_formula()
        g = init_refutation(f)
        copies = [g.add_node(2, 3, 3) for _ in range(300)]
        last = copies[-1]
        message = "node id %d must exceed %d, the highest id filed before it" % (last, last)
        assert g.prune(last) == (2, 3) and last not in g.nodes
        with pytest.raises(ValueError) as before:
            g.add_resolvent(2, 3, 3, [-2], last)
        rows = len(g._ids)
        for nid in copies[:200]:
            g.prune(nid)
        assert len(g._ids) < rows
        with pytest.raises(ValueError) as after:
            g.add_resolvent(2, 3, 3, [-2], last)
        assert str(before.value) == str(after.value) == message
        assert last not in g.nodes and g.add_node(2, 3, 3) == last + 1

    def test_sparse_ids_up_to_the_column_limit(self):
        f = make_base_formula()
        renamed = {5: 10**6, 6: 10**9, 7: 2**31 - 2, 8: 2**31 - 1}
        lines = []
        for line in SHARED_TRACE.splitlines():
            tokens = line.split()
            if tokens[0] == "r":
                tokens[1] = str(renamed[int(tokens[1])])
                tokens[3:5] = [str(renamed.get(int(t), int(t))) for t in tokens[3:5]]
            lines.append(" ".join(tokens))
        text = "\n".join(lines) + "\n"
        g = parse_trace(text, f)
        assert export_trace(g) == text
        assert check_refutation(g, f) == check_refutation(make_shared_node_refutation(f), f)
        with pytest.raises(ValueError, match="node id 2147483648 exceeds 2147483647"):
            g.add_node(2, 3, 3)


HUGE_IDS = [10**12, 2**63, 2**64 + 5]


@pytest.mark.parametrize("huge", HUGE_IDS)
def test_hostile_ids_are_rejected_or_missing(huge):
    f = make_base_formula()
    head = "p trace\no 2 -2 3 0\no 3 -2 -3 0\n"
    with pytest.raises(ValueError) as info:
        parse_trace(head + "r %d 3 2 3 -2 0\n" % huge, f)
    assert str(info.value) == "line 4: node id %d exceeds 2147483647" % huge
    with pytest.raises(ValueError) as info:
        parse_trace(head + "r 5 3 2 %d -2 0\n" % huge, f)
    assert str(info.value) == "line 4: premise id not defined earlier"
    with pytest.raises(ValueError) as info:
        parse_trace(head + "o %d 1 2 0\n" % huge, f)
    assert str(info.value) == "line 4: no formula clause with id %d" % huge
    g = init_refutation(f)
    with pytest.raises(ValueError, match="node id %d exceeds" % huge):
        g.add_node(2, 3, 3, node_id=huge)
    with pytest.raises(ValueError, match="premise id not defined earlier"):
        g.add_node(2, huge, 3)
    for premise in (None, "2", 2.0):
        with pytest.raises(ValueError, match="premise id not defined earlier"):
            g.add_node(premise, 3, 3)
    with pytest.raises(ValueError, match="node id %d exceeds" % huge):
        g.add_resolvent(2, 3, 3, [-2], huge)
    for fields in ((huge, 3, 3), (2, -huge, 3), (2, 3, huge)):
        with pytest.raises(ValueError, match="node 5 holds a value beyond"):
            g.add_resolvent(*fields, [-2])
    assert g.node_ids() == []


def test_add_resolvent_rejects_the_id_past_the_columns():
    # The next id after 2**31 - 1 is checked on add_resolvent's default
    # path too, and nothing of the step is stored.
    f = make_base_formula()
    g = init_refutation(f)
    assert g.add_node(2, 3, 3, node_id=2**31 - 1) == 2**31 - 1
    arena, rows = len(g._lits), len(g._ids)
    with pytest.raises(ValueError, match="node id 2147483648 exceeds 2147483647"):
        g.add_resolvent(2, 3, 3, [-2])
    assert len(g._lits) == arena and len(g._ids) == rows
    assert g.node_ids() == [2, 3, 2**31 - 1]
    with pytest.raises(ValueError, match="node id 2147483648 exceeds 2147483647"):
        g.add_node(2, 3, 3)


def test_hostile_literals_are_rejected():
    big = 2**40
    f = Formula(big, [(big,), (-big,)])
    with pytest.raises(ValueError) as info:
        parse_trace("p trace\no 1 %d 0\n" % big, f)
    assert str(info.value) == "line 2: node 1 holds a value beyond +-2147483647"
    g = init_refutation(f)
    with pytest.raises(ValueError, match="node 3 holds a value beyond"):
        g.add_node(1, 2, big)
    assert g.node_ids() == [] and len(g._lits) == 0
    with pytest.raises(ValueError, match="node 5 holds a value beyond"):
        RefutationGraph().add_source(Clause([big]), 5)


def test_add_resolvent_stores_nothing_the_columns_cannot_hold():
    # A premise or pivot beyond +-(2**31 - 1), -2**31 itself (the columns'
    # mark for None), or None leaves no part of the row behind: the next
    # two steps file as if the failed one had never been tried.
    f = RULE_FORMULA
    beyond = [(2**40, 4, 3), (3, 2**40, 3), (3, 4, 2**40), (3, -2**40, 3),
              (-2**31, 4, 3), (3, -2**31, 3), (3, 4, -2**31)]
    cases = [(fields, ValueError) for fields in beyond] + [
        ((None, 4, 3), TypeError), ((3, 4, None), TypeError)]
    for fields, error in cases:
        g = init_refutation(f)
        with pytest.raises(error) as info:
            g.add_resolvent(*fields, [-2])
        if error is ValueError:
            assert str(info.value) == "node 5 holds a value beyond +-2147483647"
        assert g.node_ids() == [] and len(g) == 0
        assert g.add_node(3, 4, 3) == 5 and g.add_node(1, 5, 2) == 6
        assert g.node_ids() == [1, 3, 4, 5, 6]
        assert g.node(5) == ProofNode(5, Clause([-2]), 3, 4, 3)
        assert g.node(6) == ProofNode(6, Clause([1]), 1, 5, 2)
        assert check_refutation(g, f).valid


def test_add_resolvent_files_no_source_for_a_premise_below_one():
    # Premises 0 and -1 name no node: a plain graph gains no node 0, and a
    # graph from init_refutation does not file its last clause for -1.
    f = RULE_FORMULA
    missing = ["node 5: premise id not defined earlier"]
    g = forge_graph(sources_of(f))
    g.add_resolvent(0, 4, 3, [-2])
    assert g.node_ids() == [1, 2, 3, 4, 5] and check_refutation(g, f).problems == missing
    h = init_refutation(f)
    h.add_resolvent(-1, 3, 3, [-2])
    assert h.node_ids() == [3, 5] and check_refutation(h, f).problems == missing


class TestDerivedMark:
    """``check_refutation`` re-derives no resolvent of a graph built only by
    ``add_node``, ``add_source`` or ``parse_trace``; ``add_resolvent``,
    ``prune`` and ``extract_derivation`` must make it re-derive them all, or
    a forged step would pass."""

    def test_forged_node_after_parse_is_reported(self):
        f = make_base_formula()
        g = parse_trace(SHARED_TRACE, f)
        assert check_refutation(g, f).valid
        forge_graph({9: ProofNode(9, Clause([-1]), 1, 5, 2)}, g)  # the resolvent is (1)
        problems = check_refutation(g, f).problems
        assert problems[0] == "node 9: literals differ from recomputed resolvent"

    def test_unfiled_premise_after_add_node_is_reported(self):
        f = make_base_formula()
        g = make_shared_node_refutation(f)
        assert check_refutation(g, f).valid
        assert g.prune(5) == (2, 3)
        assert "node 6: premise id not defined earlier" in check_refutation(g, f).problems

    def test_wrong_literals_through_add_resolvent_are_reported(self):
        # Filed unchecked, as the solver files its steps: the whole graph
        # and a sub-graph extracted from it are both re-derived.
        f = make_base_formula()
        g = init_refutation(f)
        g.add_resolvent(2, 3, 3, [-2])
        g.add_resolvent(1, 5, 2, [1])
        g.add_resolvent(4, 5, 2, [-1])
        root = g.add_resolvent(6, 7, 1, [3])
        message = "node 8: literals differ from recomputed resolvent"
        assert check_refutation(g, f).problems == [message]
        assert check_refutation(g.extract_derivation(root), f).problems == [message]


class TestDotExport:
    def test_shapes_labels_and_edge_polarity(self):
        g = make_shared_node_refutation(make_base_formula())
        dot = export_dot(g)
        assert dot.startswith("digraph refutation {")
        assert 'n1 [label="1 2", shape=box];' in dot
        assert 'n5 [label="-2", shape=ellipse];' in dot
        assert 'n8 [label="empty", shape=ellipse];' in dot
        # The edge from a premise is labelled with the pivot polarity that
        # premise lacks: node 6 carries (1), so its edge into 8 says -1.
        assert 'n6 -> n8 [label="-1"];' in dot
        assert 'n7 -> n8 [label="1"];' in dot
        assert dot.rstrip().endswith("}")


# ---------------------------------------------------------------------------
# The trace parser reads its text a piece at a time.

SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029"]

separated_texts = st.builds(
    lambda lines, tail: "".join(a + b for a, b in lines) + tail,
    st.lists(st.tuples(st.text("ab 0", max_size=5), st.sampled_from(SEPARATORS)), max_size=20),
    st.text("ab 0", max_size=3),
)


@settings(proof_settings, max_examples=300)
@given(text=separated_texts, chunk=st.integers(1, 8))
@example(text="", chunk=1)
@example(text="ab", chunk=1)
@example(text="a\r\nb\r\nc", chunk=1)  # a fixed cut at 2 would split the \r\n
@example(text="ab\rcd\re\n", chunk=2)  # lone \r, no \n until the end
@example(text="a\nb\r\nc", chunk=1)  # a cut after the \r would split the \r\n
@example(text="a\n\n\x85b\u2028\u2029c\x1c\x1d\x1e\x0b\x0cd", chunk=3)
def test_chunked_lines_equal_splitlines(text, chunk):
    assert list(_lines(text, chunk)) == text.splitlines()


LONG_FORMULA = gen_random_kcnf(30, 150, 3, 1)
LONG_TRACE_RECORDS = export_trace(solve(LONG_FORMULA, SolverConfig(bcp=True)).proof).splitlines()


@proof_settings
@given(data=st.data())
def test_parse_error_names_the_splitlines_line(data):
    # The trace runs to about 13 KB, several pieces of the reader.
    records = list(LONG_TRACE_RECORDS)
    bad = data.draw(st.integers(1, len(records) - 1), label="bad record")
    records[bad] = "q 0"
    seps = data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(records),
                              max_size=len(records)), label="separators")
    text = "".join(r + sep for r, sep in zip(records, seps))
    line_no = text.splitlines().index("q 0") + 1
    with pytest.raises(ValueError, match=r"^line %d: unknown record 'q'$" % line_no):
        parse_trace(text, LONG_FORMULA)


# ---------------------------------------------------------------------------
# The trace and DOT writers build their text in blocks of _BLOCK lines.  The
# per-line writers below pin every byte on both sides of a block boundary.

BLOCK_COUNTS = [0, 1, _BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


def reference_trace(graph):
    lines = ["p trace\n"]
    for nid in graph.nodes:
        node = graph.nodes[nid]
        if node.is_source:
            head = "o %d" % nid
        else:
            head = "r %d %d %d %d" % (nid, node.pivot, node.left, node.right)
        lines.append(" ".join([head, *map(str, node.clause), "0\n"]))
    return "".join(lines)


def reference_dot(graph):
    lines = ["digraph refutation {\n", "  rankdir=BT;\n"]
    for nid in graph.nodes:
        node = graph.nodes[nid]
        label = " ".join(map(str, node.clause)) or "empty"
        shape = "box" if node.is_source else "ellipse"
        lines.append('  n%d [label="%s", shape=%s];\n' % (nid, label, shape))
    for nid in graph.nodes:
        node = graph.nodes[nid]
        if node.is_source:
            continue
        for premise in (node.left, node.right):
            polarity = -1 if node.pivot in graph.nodes[premise].clause else 1
            lines.append('  n%d -> n%d [label="%d"];\n' % (premise, nid, polarity * node.pivot))
    lines.append("}\n")
    return "".join(lines)


@pytest.fixture(scope="module")
def wide_refutation():
    """gen_random_kcnf(39, 195, 3, 1) and the records of its 1,435-resolvent
    sss+bcp refutation, sources first: more than 2 * _BLOCK + 1 of them."""
    formula = gen_random_kcnf(39, 195, 3, 1)
    records = export_trace(solve(formula, SolverConfig(bcp=True)).proof).splitlines()[1:]
    assert len(records) > 2 * _BLOCK + 1
    return formula, records


@pytest.mark.parametrize("count", BLOCK_COUNTS + [None], ids=str)
def test_writers_equal_per_line_references(wide_refutation, count):
    # A prefix of the records (all of them for None, the empty clause
    # included) parses to a graph of exactly that many nodes.
    formula, records = wide_refutation
    kept = records[:count]
    graph = parse_trace("p trace\n" + "".join(r + "\n" for r in kept), formula)
    assert len(graph) == len(kept)
    assert export_trace(graph) == reference_trace(graph)
    assert export_dot(graph) == reference_dot(graph)
