"""Corpus-wide properties: every configuration agrees with the oracle, every
refutation checks out, and the bookkeeping identities hold.  The heavy
lifting happens once in the session-scoped sweep fixture."""
import pytest

from proofsat import Solver, SolverConfig, solve
from proofsat.engine import MODE_SSS

from conftest import corpus_formula


def sss_records(sweep):
    return [r for r in sweep["records"] if r["mode"] == MODE_SSS]


def unsat_sss_records(sweep):
    return [r for r in sss_records(sweep) if r.get("verdict") == "UNSAT"]


class TestOracleAgreement:
    def test_every_run_matches_the_oracle(self, sweep):
        wrong = [r for r in sweep["records"] if r.get("verdict") != r["oracle"]]
        assert wrong == []

    def test_satisfying_assignments_verify(self, sweep):
        sat = [r for r in sweep["records"] if r.get("verdict") == "SAT"]
        assert sat, "corpus produced no satisfiable runs"
        assert [r for r in sat if not r["model_ok"]] == []

    def test_corpus_exercises_both_verdicts_and_every_config(self, sweep):
        verdicts = {r["oracle"] for r in sweep["records"]}
        assert verdicts == {"SAT", "UNSAT"}
        labels = {r["label"] for r in sweep["records"]}
        assert len(labels) == 18  # 16 hook combinations + tae + dll_strict


class TestRefutations:
    def test_every_refutation_is_valid_and_complete(self, sweep):
        bad = [
            r
            for r in unsat_sss_records(sweep)
            if not (r["valid"] and r["complete"])
        ]
        assert bad == []

    def test_every_refutation_passes_the_cli_checker(self, sweep):
        assert [r for r in unsat_sss_records(sweep) if r["check_exit"] != 0] == []

    def test_tree_like_whenever_nothing_is_recorded(self, sweep):
        bad = [
            r for r in unsat_sss_records(sweep) if not r["ccr"] and not r["tree_like"]
        ]
        assert bad == []

    def test_proof_size_bounded_by_decisions_without_recording(self, sweep):
        bad = [
            r
            for r in unsat_sss_records(sweep)
            if not r["ccr"] and r["final_proof_size"] > r["decisions"]
        ]
        assert bad == []

    def test_extracted_size_matches_reported_stat(self, sweep):
        bad = [
            r
            for r in unsat_sss_records(sweep)
            if r["proof_size"] != r["final_proof_size"]
        ]
        assert bad == []


class TestInternalInvariants:
    def test_debug_checks_never_fired(self, sweep):
        assert sweep["violations"] == []

    def test_trace_round_trip_is_exact(self, sweep):
        records = unsat_sss_records(sweep)
        assert records, "corpus produced no unsatisfiable runs"
        assert [r for r in records if not r["roundtrip_equal"]] == []
        assert [r for r in records if not r["roundtrip_same_report"]] == []

    def test_checker_matches_reference_on_every_refutation(self, sweep):
        records = unsat_sss_records(sweep)
        assert [r for r in records if not r["reference_same_report"]] == []


class TestDeterminism:
    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"bcp": True, "ncb": True, "cdb_1uip": True, "ccr": True},
            {"seed": 5},
        ],
        ids=["defaults", "all_hooks", "random_heuristic"],
    )
    def test_identical_runs_produce_identical_streams(self, kw):
        for seed in range(0, 60, 7):
            f = corpus_formula(seed)
            config = SolverConfig(**kw)
            a, b = Solver(f, config), Solver(f, config)
            assert list(iter(a.step, None)) == list(iter(b.step, None))
            assert a.outcome.stats.as_dict() == b.outcome.stats.as_dict()
            assert a.outcome.verdict == b.outcome.verdict


class TestPruningAccounting:
    @pytest.mark.parametrize(
        "kw",
        [
            {"ncb": True},
            {"cdb_1uip": True},
            {"ncb": True, "ncb_left_adjust": True, "cdb_1uip": True},
            {"bcp": True, "ncb": True, "cdb_1uip": True},
        ],
        ids=["ncb", "cdb", "ncb_adjust_cdb", "bcp_ncb_cdb"],
    )
    def test_pruned_nodes_never_exceed_those_left_out_of_the_proof(self, kw):
        for seed in range(60):
            out = solve(corpus_formula(seed), SolverConfig(debug_checks=True, **kw))
            stats = out.stats
            credited = (
                stats.pruned_resolution + stats.pruned_ncb + stats.pruned_uip
            )
            left_out = stats.nodes_added - stats.final_proof_size
            assert 0 <= credited <= left_out

    def test_ncb_jump_distance_accounting(self):
        for seed in range(60):
            out = solve(corpus_formula(seed), SolverConfig(ncb=True))
            assert out.stats.ncb_levels_skipped >= out.stats.ncb_jumps


class TestModelShape:
    def test_models_assign_every_declared_variable(self):
        found = 0
        for seed in range(40):
            f = corpus_formula(seed)
            out = solve(f, SolverConfig())
            if out.verdict == "SAT":
                found += 1
                assert set(out.model) == set(range(1, f.num_vars + 1))
        assert found, "no satisfiable formulas among the sampled seeds"

    def test_instance_grows_only_under_recording(self):
        for seed in range(20):
            f = corpus_formula(seed)
            plain = solve(f, SolverConfig())
            assert len(plain.instance) == len(f)
            recording = solve(f, SolverConfig(ccr=True))
            assert len(recording.instance) >= len(f)
