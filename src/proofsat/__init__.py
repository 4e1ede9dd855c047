"""proofsat: a modular backtracking CNF solver that maintains, on the fly,
a resolution refutation of the formulas it rejects.

The solver keeps a parent clause for every flipped decision and resolves
parents together while backtracking; unit-driven decisions, flip
re-seating, block-variable substitution, and clause recording can each be
switched on independently.  An independent proof checker, formula
generators, a brute-force oracle, and a benchmark CLI round out the
package.
"""

from .cnf import (
    Clause,
    Formula,
    parse_dimacs,
    write_dimacs,
)
from .engine import (
    BacktrackResolve,
    BacktrackSkipLeft,
    BacktrackSkipRight,
    BcpDecide,
    CdbSubstitute,
    ConflictFound,
    Decide,
    Flip,
    InvariantViolation,
    NcbJump,
    Record,
    Sat,
    SolveOutcome,
    Solver,
    SolverConfig,
    Stats,
    StepEvent,
    Unsat,
    VERDICT_SAT,
    VERDICT_UNSAT,
    solve,
    verify_model,
)
from .families import (
    gen_bcp_separation,
    gen_contradiction,
    gen_random_kcnf,
)
from .oracle import MAX_ORACLE_VARS, brute_force_sat
from .proofs import (
    CheckReport,
    ProofNode,
    RefutationGraph,
    check_refutation,
    export_dot,
    export_trace,
    init_refutation,
    parse_trace,
)

__version__ = "0.1.0"

__all__ = [
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
]
