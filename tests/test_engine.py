"""Search engine: frozen event streams, statistics, hook behaviour, and
configuration validation.  Expected traces were derived by hand for the small
formulas and pinned; any drift in the engine shows up as a diff here."""
import dataclasses
import random
import typing

import pytest

from proofsat import (
    BacktrackResolve,
    BacktrackSkipRight,
    BcpDecide,
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
    StepEvent,
    Unsat,
    brute_force_sat,
    check_refutation,
    export_trace,
    gen_random_kcnf,
    solve,
    verify_model,
)
from proofsat.cli import _RANDOM_SWEEP_COMBOS, _config_label
from proofsat.engine import MODE_DLL, MODE_SSS, MODE_TAE

from conftest import make_base_formula

# The 16 sss configurations of the CLI's random sweep, then tae and
# dll_strict.
SWEEP_CONFIGS = [
    SolverConfig(bcp=bcp, ncb=ncb, cdb_1uip=cdb, ccr=ccr)
    for bcp, ncb, cdb, ccr in _RANDOM_SWEEP_COMBOS
] + [SolverConfig(mode=MODE_TAE), SolverConfig(mode=MODE_DLL)]


def run(formula, **kw):
    """The outcome of a debug-checked run and the events step() yielded."""
    kw.setdefault("debug_checks", True)
    solver = Solver(formula, SolverConfig(**kw))
    events = list(iter(solver.step, None))
    return solver.outcome, events


class TestDefaultSearch:
    def test_direct_contradiction(self):
        out, events = run(Formula(1, [(1,), (-1,)]))
        assert out.verdict == "UNSAT"
        assert events == [
            Decide(-1),
            ConflictFound(1),
            Flip(1),
            ConflictFound(2),
            BacktrackResolve(3),
            Unsat(),
        ]
        assert out.stats.decisions == 1
        assert out.stats.flips == 1
        assert out.stats.conflicts == 2
        assert out.stats.final_proof_size == 1
        assert out.root == 3
        assert len(out.proof.node(3).clause) == 0

    def test_base_formula_full_stream(self):
        out, events = run(make_base_formula())
        assert out.verdict == "UNSAT"
        assert events == [
            Decide(-1),
            Decide(-2),
            ConflictFound(1),
            Flip(2),
            Decide(-3),
            ConflictFound(2),
            Flip(3),
            ConflictFound(3),
            BacktrackResolve(5),
            BacktrackResolve(6),
            ConflictFound(None),
            Flip(1),
            Decide(-2),
            ConflictFound(4),
            Flip(2),
            Decide(-3),
            ConflictFound(2),
            Flip(3),
            ConflictFound(3),
            BacktrackResolve(7),
            BacktrackResolve(8),
            BacktrackResolve(9),
            Unsat(),
        ]
        assert out.stats.decisions == 5
        assert out.stats.flips == 5
        assert out.stats.conflicts == 7
        assert out.stats.nodes_added == 5
        assert out.stats.final_proof_size == 5

    def test_base_formula_refutation_structure(self):
        out, _ = run(make_base_formula())
        proof = out.proof
        assert proof.node_ids() == list(range(1, 10))
        five, six = proof.node(5), proof.node(6)
        assert (five.clause, five.left, five.right, five.pivot) == (
            Clause([-2]), 2, 3, 3,
        )
        assert (six.clause, six.left, six.right, six.pivot) == (
            Clause([1]), 1, 5, 2,
        )
        assert proof.node(7).clause == Clause([-2])  # re-derived, not shared
        assert proof.node(8).clause == Clause([-1])
        root = proof.node(9)
        assert (len(root.clause), root.left, root.right, root.pivot) == (0, 6, 8, 1)
        report = check_refutation(proof, out.instance)
        assert report.valid and report.complete
        assert report.tree_like and report.regular
        assert report.size == 5

    def test_sat_stops_early_and_completes_model(self):
        out, events = run(Formula(3, [(1,)]))
        assert out.verdict == "SAT"
        assert events == [
            Decide(-1),
            ConflictFound(1),
            Flip(1),
            Decide(-2),
            Sat(),
        ]
        # variable 3 was never assigned; the model defaults it to False
        assert out.model == {1: True, 2: False, 3: False}
        assert verify_model(out.instance, out.model)

    def test_sat_by_flip(self):
        out, events = run(Formula(2, [(1, 2)]))
        assert out.verdict == "SAT"
        assert events == [
            Decide(-1),
            Decide(-2),
            ConflictFound(1),
            Flip(2),
            Sat(),
        ]
        assert out.model == {1: False, 2: True}

    def test_empty_formula(self):
        out, events = run(Formula(2))
        assert out.verdict == "SAT"
        assert events == [Decide(-1), Sat()]
        assert out.model == {1: False, 2: False}

    def test_zero_variables(self):
        out, events = run(Formula(0))
        assert out.verdict == "SAT"
        assert events == [Sat()]
        assert out.model == {}


class TestBcp:
    def test_base_formula_with_bcp(self):
        out, events = run(make_base_formula(), bcp=True)
        assert out.verdict == "UNSAT"
        assert events == [
            Decide(-1),
            BcpDecide(-2),
            ConflictFound(1),
            Flip(2),
            BcpDecide(-3),
            ConflictFound(2),
            Flip(3),
            ConflictFound(3),
            BacktrackResolve(5),
            BacktrackResolve(6),
            ConflictFound(None),
            Flip(1),
            BcpDecide(-2),
            ConflictFound(4),
            Flip(2),
            BcpDecide(-3),
            ConflictFound(2),
            Flip(3),
            ConflictFound(3),
            BacktrackResolve(7),
            BacktrackResolve(8),
            BacktrackResolve(9),
            Unsat(),
        ]
        assert out.stats.bcp_implications == 4
        assert out.stats.decisions == 5  # unit picks count as decisions too

    def test_unit_pick_falsifies_the_unit_clause(self):
        # (1) is unit from the start: the pick assigns 1=False so the clause
        # blocks at once and the flip establishes 1=True with clause 1 as
        # its parent.
        out, events = run(Formula(2, [(1,), (-1, 2)]), bcp=True)
        assert out.verdict == "SAT"
        assert events[:3] == [BcpDecide(-1), ConflictFound(1), Flip(1)]
        assert out.model == {1: True, 2: True}

    def test_unfalsified_recorded_clause_becomes_a_unit_pick(self):
        # A recorded clause starts out falsified and outside the unit heap;
        # popping one of its literals leaves it unit-open, and the next pick
        # must find it.  The search itself always satisfies or refalsifies a
        # fresh recording before picking again, so drive the solver by hand.
        solver = Solver(
            Formula(3, [(1, 2, 3)]), SolverConfig(bcp=True, ccr=True, debug_checks=True)
        )
        solver._push(1, False)
        solver._push(2, False)
        assert solver._ccr_record(0, (1, 2)) == 2
        solver._pop()
        assert solver._bcp_pick() == (2, False)  # falsify the unassigned literal 2


class TestNcb:
    def test_jump_skips_unrelated_level(self):
        # Order 1,3,2 puts the irrelevant variable 3 between the two
        # variables of the only clause; the conflict's parent mentions
        # variables 1 and 2 only, so backtracking re-seats the flip at
        # level 2 and variable 3 comes back unassigned.
        out, events = run(Formula(3, [(1, 2)]), ncb=True, order=(1, 3, 2))
        assert out.verdict == "SAT"
        assert events == [
            Decide(-1),
            Decide(-3),
            Decide(-2),
            ConflictFound(1),
            NcbJump(src=3, dst=2),
            Flip(2),
            Decide(-3),
            Sat(),
        ]
        assert out.stats.decisions == 4
        assert out.stats.flips == 1
        assert out.stats.ncb_jumps == 1
        assert out.stats.ncb_levels_skipped == 1

    def test_no_jump_when_parent_is_adjacent(self):
        # On the base formula every conflict parent mentions the level right
        # below, so enabling the hook changes nothing.
        plain, plain_events = run(make_base_formula())
        ncb, ncb_events = run(make_base_formula(), ncb=True)
        assert ncb_events == plain_events
        assert ncb.stats.ncb_jumps == 0
        assert ncb.stats.as_dict() == plain.stats.as_dict()

    def test_left_adjust_variant_solves_and_checks(self):
        out, _ = run(make_base_formula(), ncb=True, ncb_left_adjust=True)
        assert out.verdict == "UNSAT"
        report = check_refutation(out.proof, out.instance)
        assert report.valid and report.complete


class TestCdb:
    def test_substitution_stream(self):
        out, events = run(make_base_formula(), cdb_1uip=True)
        assert out.verdict == "UNSAT"
        assert events == [
            Decide(-1),
            Decide(-2),
            ConflictFound(1),
            Flip(2),
            Decide(-3),
            ConflictFound(2),
            Flip(3),
            ConflictFound(3),
            BacktrackResolve(5),
            CdbSubstitute(level=1, var=2),
            ConflictFound(None),
            Flip(1),
            Decide(-1),
            ConflictFound(1),
            Flip(2),
            ConflictFound(4),
            BacktrackResolve(6),
            BacktrackResolve(7),
            Unsat(),
        ]
        assert out.stats.decisions == 4
        assert out.stats.cdb_substitutions == 1
        assert out.stats.nodes_added == 3
        assert out.stats.final_proof_size == 3

    def test_substituted_refutation_structure(self):
        proof = run(make_base_formula(), cdb_1uip=True)[0].proof
        assert proof.node(5).clause == Clause([-2])
        six = proof.node(6)
        assert (six.clause, six.left, six.right, six.pivot) == (Clause([2]), 1, 4, 1)
        root = proof.node(7)
        assert (len(root.clause), root.left, root.right, root.pivot) == (0, 5, 6, 2)


class TestCcr:
    def test_recorded_clause_stream_and_instance(self):
        out, events = run(make_base_formula(), cdb_1uip=True, ccr=True)
        assert out.verdict == "UNSAT"
        assert Record(clause_id=5) in events
        assert ConflictFound(clause_id=5) in events
        assert ConflictFound(clause_id=None) not in events
        assert out.stats.recorded_clauses == 1
        assert [tuple(out.instance.clause(i)) for i in out.instance.ids()] == [
            (1, 2),
            (-2, 3),
            (-2, -3),
            (-1, 2),
            (-2,),
        ]

    def test_stream_matches_plain_cdb_except_recording(self):
        _, plain_events = run(make_base_formula(), cdb_1uip=True)
        _, ccr_events = run(make_base_formula(), cdb_1uip=True, ccr=True)
        expected = []
        for ev in plain_events:
            if ev == ConflictFound(None):
                expected.append(Record(clause_id=5))
                expected.append(ConflictFound(clause_id=5))
            else:
                expected.append(ev)
        assert ccr_events == expected

    def test_caller_formula_not_mutated(self):
        f = make_base_formula()
        out, _ = run(f, cdb_1uip=True, ccr=True)
        assert len(f) == 4
        assert len(out.instance) == 5

    def test_duplicate_clauses_not_recorded_twice(self):
        out, _ = run(make_base_formula(), ccr=True)
        recorded = [tuple(out.instance.clause(i)) for i in out.instance.ids()][4:]
        assert len(set(recorded)) == len(recorded)


class TestAllHooks:
    def test_combined_stream(self):
        out, events = run(
            make_base_formula(), bcp=True, ncb=True, cdb_1uip=True, ccr=True
        )
        assert out.verdict == "UNSAT"
        assert events == [
            Decide(-1),
            BcpDecide(-2),
            ConflictFound(1),
            Flip(2),
            BcpDecide(-3),
            ConflictFound(2),
            Flip(3),
            ConflictFound(3),
            BacktrackResolve(5),
            CdbSubstitute(level=1, var=2),
            Record(clause_id=5),
            ConflictFound(5),
            Flip(1),
            BcpDecide(-1),
            ConflictFound(1),
            Flip(2),
            ConflictFound(4),
            BacktrackResolve(6),
            BacktrackResolve(7),
            Unsat(),
        ]
        assert out.stats.decisions == 4
        assert out.stats.bcp_implications == 3
        assert out.stats.final_proof_size == 3


class TestOtherModes:
    def test_dll_direct_contradiction(self):
        out, events = run(Formula(3, [(1,), (-1,)]), mode=MODE_DLL)
        assert out.verdict == "UNSAT"
        assert events == [
            Decide(-1),
            ConflictFound(1),
            Flip(1),
            ConflictFound(2),
            BacktrackSkipRight(1),
            Unsat(),
        ]
        assert out.stats.decisions == 1
        assert out.proof is None and out.graph is None

    def test_tae_explores_everything(self):
        out, _ = run(Formula(3, [(1,), (-1,)]), mode=MODE_TAE)
        assert out.verdict == "UNSAT"
        assert out.stats.decisions == 2 ** 3 - 1
        assert out.stats.conflicts == 2 ** 3
        assert out.proof is None

    def test_tae_finds_models_only_at_leaves(self):
        out, events = run(Formula(2, [(1, 2)]), mode=MODE_TAE)
        assert out.verdict == "SAT"
        assert events == [
            Decide(-1),
            Decide(-2),
            ConflictFound(1),
            Flip(2),
            Sat(),
        ]

    def test_modes_agree_on_verdicts(self):
        for f in (make_base_formula(), Formula(2, [(1, 2)]), Formula(2)):
            verdicts = {
                run(f, mode=m)[0].verdict for m in (MODE_SSS, MODE_DLL, MODE_TAE)
            }
            assert len(verdicts) == 1


class TestHeuristics:
    def test_fixed_order_controls_decisions(self):
        _, events = run(Formula(3, [(1, 2)]), order=(2, 3, 1))
        assert events[0] == Decide(-2)

    def test_fixed_order_falls_back_to_ascending(self):
        _, events = run(Formula(3, [(3, 1)]), order=(3,))
        assert [e for e in events if isinstance(e, Decide)][:2] == [
            Decide(-3),
            Decide(-1),
        ]

    def test_seed_alone_picks_the_random_heuristic(self):
        rng = random.Random(5)
        var = rng.choice([1, 2, 3, 4])
        first = Decide(var if rng.random() < 0.5 else -var)
        _, events = run(make_base_formula(), seed=5)
        _, ascending = run(make_base_formula())
        assert events[0] == first != ascending[0]
        assert events != ascending

    def test_random_heuristic_deterministic_under_seed(self):
        f = make_base_formula()
        a, a_events = run(f, seed=11)
        b, b_events = run(f, seed=11)
        assert a_events == b_events
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_random_heuristic_still_refutes(self):
        for seed in range(5):
            out, _ = run(make_base_formula(), seed=seed)
            assert out.verdict == "UNSAT"
            report = check_refutation(out.proof, out.instance)
            assert report.valid and report.complete


class TestStepApi:
    def test_step_yields_the_event_stream(self):
        solver = Solver(make_base_formula(), SolverConfig())
        seen = []
        while True:
            ev = solver.step()
            if ev is None:
                break
            seen.append(ev)
        assert seen == run(make_base_formula())[1]
        assert (len(seen), seen[-1]) == (23, Unsat())
        solved = solve(make_base_formula())
        assert solver.outcome.stats == solved.stats
        assert solver.outcome.proof == solved.proof

    def test_solve_after_steps_finishes_the_same_run(self):
        stream = run(make_base_formula())[1]
        solved = solve(make_base_formula())
        for k in (0, 1, 3, 7, 22, 23):
            solver = Solver(make_base_formula())
            first = [solver.step() for _ in range(k)]
            out = solver.solve()
            assert first == stream[:k]
            assert out.stats == solved.stats
            assert out.proof == solved.proof
            assert export_trace(out.proof) == export_trace(solved.proof)
            assert solver.step() is None

    @pytest.mark.parametrize("config", SWEEP_CONFIGS, ids=_config_label)
    def test_step_yields_event_objects_in_every_configuration(self, config):
        events = list(iter(Solver(make_base_formula(), config).step, None))
        assert events
        for event in events:
            assert not isinstance(event, tuple)
            assert isinstance(event, typing.get_args(StepEvent))

    def test_drained_solver_keeps_returning_none(self):
        solver = Solver(Formula(1, [(1,)]))
        solver.solve()
        assert solver.step() is None
        assert solver.solve().verdict == "SAT"  # idempotent after draining


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"mode": "cdcl"},
            {"mode": MODE_TAE, "bcp": True},
            {"mode": MODE_TAE, "ncb": True},
            {"mode": MODE_TAE, "cdb_1uip": True},
            {"mode": MODE_TAE, "ccr": True},
            {"mode": MODE_DLL, "ncb": True},
            {"mode": MODE_DLL, "ncb": True, "ncb_left_adjust": True},
            {"mode": MODE_DLL, "cdb_1uip": True},
            {"mode": MODE_DLL, "ccr": True},
            {"ncb_left_adjust": True},
            {"order": (1, 1)},
            {"order": (0, 1)},
            {"order": (1, 2.5)},
            {"order": (True, 2)},
            {"order": (1, 2), "seed": 5},
            {"seed": [1]},
            {"seed": 2.5},
            {"seed": True},
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)

    def test_dll_allows_bcp(self):
        out, _ = run(make_base_formula(), mode=MODE_DLL, bcp=True)
        assert out.verdict == "UNSAT"

    def test_order_must_fit_formula(self):
        config = SolverConfig(order=(1, 9))
        with pytest.raises(ValueError):
            Solver(Formula(3, [(1,)]), config)


class TestStatsAndModel:
    def test_as_dict_keys(self):
        assert sorted(run(Formula(1, [(1,)]))[0].stats.as_dict()) == sorted(
            [
                "decisions",
                "flips",
                "conflicts",
                "bcp_implications",
                "ncb_jumps",
                "ncb_levels_skipped",
                "cdb_substitutions",
                "recorded_clauses",
                "nodes_added",
                "final_proof_size",
                "pruned_resolution",
                "pruned_ncb",
                "pruned_uip",
            ]
        )

    def test_graph_keeps_the_resolvents_not_credited_as_pruned(self):
        # Without recording, the graph an UNSAT run leaves is a valid,
        # complete derivation of every resolvent it made minus those it
        # credited as pruned.
        runs = credited = 0
        for seed in (0, 1, 2, 4):  # the UNSAT ones among seeds 0-4
            f = gen_random_kcnf(12, 72, 3, seed)
            for cfg in SWEEP_CONFIGS:
                if cfg.mode != MODE_SSS or cfg.ccr:
                    continue
                out = solve(f, cfg)
                assert out.verdict == "UNSAT"
                stats = out.stats
                credits = stats.pruned_resolution + stats.pruned_ncb + stats.pruned_uip
                report = check_refutation(out.graph, f)
                assert report.valid and report.complete
                assert report.size == stats.nodes_added - credits
                runs += 1
                credited += credits > 0
        assert runs == 32 and credited > 0

    def test_verify_model(self):
        f = make_base_formula()
        assert verify_model(f, {1: False, 2: True, 3: True, 4: False}) is False
        sat = Formula(2, [(1, -2)])
        assert verify_model(sat, {1: True, 2: True})
        assert verify_model(sat, {1: False, 2: True}) is False
        assert verify_model(sat, {2: True}) is False  # unassigned var 1


class TestCounters:
    def test_clauses_holding_both_literals_of_a_variable(self):
        # A Formula keeps a clause with v and -v, so it sits in both of v's
        # occurrence lists and a flip of v moves a true literal from one to
        # the other.  The debug checks recount every flipped variable's
        # clauses from the assignment; the runs stay clean, and each
        # verdict is the oracle's.
        verdicts = set()
        for seed in range(1, 6):
            clauses = [c.literals for c in gen_random_kcnf(10, 43, 3, seed).clauses]
            clauses[3:3] = [(1, -1), (2, -2, 7)]
            clauses.append((-4, 4, -9))
            formula = Formula(10, clauses)
            expected = "SAT" if brute_force_sat(formula) is not None else "UNSAT"
            for config in SWEEP_CONFIGS[:16]:
                config = dataclasses.replace(config, debug_checks=True)
                out = solve(formula, config)
                assert out.verdict == expected, (seed, _config_label(config))
                assert out.stats.flips > 0
            verdicts.add(expected)
        assert verdicts == {"SAT", "UNSAT"}
