"""The public API: every exported name resolves, and the set is pinned, so an
addition or a removal shows up in a diff of this file."""
import dataclasses

import proofsat

PUBLIC_NAMES = {
    "BacktrackResolve",
    "BacktrackSkipLeft",
    "BacktrackSkipRight",
    "BcpDecide",
    "CdbSubstitute",
    "CheckReport",
    "Clause",
    "ConflictFound",
    "Decide",
    "Flip",
    "Formula",
    "InvariantViolation",
    "MAX_ORACLE_VARS",
    "NcbJump",
    "ProofNode",
    "Record",
    "RefutationGraph",
    "Sat",
    "SolveOutcome",
    "Solver",
    "SolverConfig",
    "Stats",
    "StepEvent",
    "Unsat",
    "VERDICT_SAT",
    "VERDICT_UNSAT",
    "brute_force_sat",
    "check_refutation",
    "export_dot",
    "export_trace",
    "gen_bcp_separation",
    "gen_contradiction",
    "gen_random_kcnf",
    "init_refutation",
    "parse_dimacs",
    "parse_trace",
    "solve",
    "verify_model",
    "write_dimacs",
}


def test_all_matches_the_pinned_names():
    assert len(proofsat.__all__) == len(set(proofsat.__all__))
    assert set(proofsat.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in proofsat.__all__:
        assert getattr(proofsat, name) is not None, name


def test_proof_node_layout_is_pinned():
    assert proofsat.ProofNode._fields == ("id", "clause", "left", "right", "pivot")


def test_solver_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(proofsat.SolverConfig)] == [
        "mode",
        "bcp",
        "ncb",
        "ncb_left_adjust",
        "cdb_1uip",
        "ccr",
        "order",
        "seed",
        "debug_checks",
    ]
