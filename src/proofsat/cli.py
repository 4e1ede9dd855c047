"""Command-line front end: solve formulas, check proof traces, generate
benchmark families, and run benchmark matrices.

Exit codes follow solver conventions: 10 satisfiable, 20 unsatisfiable,
0 proof check passed, 1 proof check failed, 2 usage, parse, or I/O error.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, fields
from itertools import chain, product
from typing import List, Optional, Sequence, TextIO, Tuple

from .cnf import Formula, _blocks, _dimacs_blocks, parse_dimacs
from .engine import (
    MODE_DLL,
    MODE_SSS,
    MODE_TAE,
    SolverConfig,
    VERDICT_SAT,
    solve,
)
from .families import gen_bcp_separation, gen_contradiction, gen_random_kcnf
from .oracle import brute_force_sat
from .proofs import _dot_blocks, _trace_blocks, check_refutation, parse_trace

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_CHECK_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_USAGE = 2

_MODES = {"sss": MODE_SSS, "dll": MODE_DLL, "tae": MODE_TAE}

_RANDOM_SWEEP_COMBOS = list(product((False, True), repeat=4))

# The flag and help text of each SolverConfig feature field, in label order.
_FEATURE_FLAGS = {
    "bcp": ("--bcp", "unit-driven decisions"),
    "ncb": ("--ncb", "non-chronological re-seating"),
    "ncb_left_adjust": ("--ncb-left-adjust", "raise the re-seat target to the next unflipped level"),
    "cdb_1uip": ("--cdb", "substitute the block variable after a pop"),
    "ccr": ("--ccr", "record backtracking clauses"),
}


@dataclass
class BenchRow:
    family: str
    config: str
    verdict: str
    decisions: int
    flips: int
    conflicts: int
    final_proof_size: int
    wall_ms: float


_COLUMNS = tuple(f.name for f in fields(BenchRow))
# Wall time stays out of the CSV so identical seeds reproduce the file byte
# for byte.
_CSV_COLUMNS = tuple(col for col in _COLUMNS if col != "wall_ms")


def _fail(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return EXIT_USAGE


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for "-".  Input is ASCII: a byte
    outside it raises ValueError, from a file or from stdin alike."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    if not text.isascii():
        raise ValueError("input is not ASCII")
    return text


def _read_formula(path: str) -> Formula:
    return parse_dimacs(_read_text(path))


def _build_config(args: argparse.Namespace) -> SolverConfig:
    order: tuple = ()
    if args.order is not None:
        try:
            order = tuple(int(tok) for tok in args.order.split(",") if tok.strip())
        except ValueError:
            raise ValueError("--order expects a comma-separated list of variables")
        if not order:
            raise ValueError("--order expects at least one variable")
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise ValueError("--seed must fit in 64 bits")
    if args.mode != "sss":
        for flag in ("proof", "dot"):
            if getattr(args, flag, None):
                raise ValueError("--%s needs mode sss" % flag)
    return SolverConfig(
        mode=_MODES[args.mode],
        **{name: getattr(args, name) for name in _FEATURE_FLAGS},
        order=order,
        seed=args.seed,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        config = _build_config(args)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        formula = _read_formula(args.cnf)
    except OSError as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail("cannot parse %s: %s" % (args.cnf, exc))
    try:
        outcome = solve(formula, config)
    except ValueError as exc:
        return _fail(str(exc))
    if outcome.verdict == VERDICT_SAT:
        print("s SATISFIABLE")
        # The model's keys ascend: the solver fills it variable by variable.
        lits = (" %d" % (v if value else -v) for v, value in outcome.model.items())
        sys.stdout.writelines(_blocks(chain(("v",), lits, (" 0\n",))))
        if args.proof:
            print("c satisfiable: no refutation trace written")
        if args.dot:
            print("c satisfiable: no refutation graph written")
    else:
        print("s UNSATISFIABLE")
        for path, blocks in ((args.proof, _trace_blocks), (args.dot, _dot_blocks)):
            if path:
                try:
                    with open(path, "w", encoding="ascii") as handle:
                        handle.writelines(blocks(outcome.proof))
                except OSError as exc:
                    return _fail(str(exc))
    if args.stats:
        for name, value in outcome.stats.as_dict().items():
            print("c %s %d" % (name, value))
    return EXIT_SAT if outcome.verdict == VERDICT_SAT else EXIT_UNSAT


def cmd_check(args: argparse.Namespace) -> int:
    if args.cnf == args.trace == "-":
        return _fail("the CNF and the trace cannot both be read from stdin")
    try:
        formula = _read_formula(args.cnf)
    except OSError as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail("cannot parse %s: %s" % (args.cnf, exc))
    try:
        graph = parse_trace(_read_text(args.trace), formula)
    except OSError as exc:
        return _fail(str(exc))
    except ValueError as exc:  # a UnicodeDecodeError included
        print("c trace rejected: %s" % exc)
        print("s PROOF FAIL")
        return EXIT_CHECK_FAIL
    report = check_refutation(graph, formula)
    print("c valid %s" % str(report.valid).lower())
    print("c complete %s" % str(report.complete).lower())
    print("c tree_like %s" % str(report.tree_like).lower())
    print("c regular %s" % str(report.regular).lower())
    print("c size %d" % report.size)
    for problem in report.problems:
        print("c problem: %s" % problem)
    if report.valid and report.complete:
        print("s PROOF OK")
        return EXIT_CHECK_OK
    print("s PROOF FAIL")
    return EXIT_CHECK_FAIL


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.family == "contradiction":
            formula = gen_contradiction(args.n)
        elif args.family == "bcp_separation":
            formula = gen_bcp_separation(args.k)
        else:
            formula = gen_random_kcnf(args.n, args.m, args.k, args.seed)
    except (TypeError, ValueError) as exc:
        return _fail(str(exc))
    blocks = _dimacs_blocks(formula)
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="ascii") as handle:
                handle.writelines(blocks)
        except OSError as exc:
            return _fail(str(exc))
    else:
        sys.stdout.writelines(blocks)
    return 0


def _bench_run(formula: Formula, config: SolverConfig, family: str) -> BenchRow:
    start = time.perf_counter()
    outcome = solve(formula, config)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return BenchRow(
        family=family,
        config=config.label,
        verdict=outcome.verdict,
        decisions=outcome.stats.decisions,
        flips=outcome.stats.flips,
        conflicts=outcome.stats.conflicts,
        final_proof_size=outcome.stats.final_proof_size,
        wall_ms=wall_ms,
    )


def _bench_contradiction() -> List[BenchRow]:
    rows = []
    for n in (8, 10, 12):
        formula = gen_contradiction(n)
        family = "contradiction(n=%d)" % n
        rows.append(_bench_run(formula, SolverConfig(), family))
        rows.append(_bench_run(formula, SolverConfig(mode=MODE_TAE), family))
    return rows


def _bench_bcp_separation() -> List[BenchRow]:
    rows = []
    for k in (2, 5, 10, 20):
        formula = gen_bcp_separation(k)
        family = "bcp_separation(k=%d)" % k
        rows.append(_bench_run(formula, SolverConfig(mode=MODE_DLL), family))
        rows.append(_bench_run(formula, SolverConfig(mode=MODE_DLL, bcp=True), family))
    return rows


def _bench_random(count: int) -> Tuple[List[BenchRow], int]:
    rows: List[BenchRow] = []
    disagreements = 0
    for seed in range(count):
        n = 4 + seed % 9
        formula = gen_random_kcnf(n, 4 * n, 3, seed)
        family = "random(n=%d,m=%d,k=3,seed=%d)" % (n, 4 * n, seed)
        oracle_verdict = "SAT" if brute_force_sat(formula) is not None else "UNSAT"
        for bcp, ncb, cdb, ccr in _RANDOM_SWEEP_COMBOS:
            config = SolverConfig(bcp=bcp, ncb=ncb, cdb_1uip=cdb, ccr=ccr)
            row = _bench_run(formula, config, family)
            rows.append(row)
            if row.verdict != oracle_verdict:
                disagreements += 1
                print(
                    "c MISMATCH %s %s: solver %s oracle %s"
                    % (family, row.config, row.verdict, oracle_verdict)
                )
    return rows, disagreements


def _print_rows(rows: Sequence[BenchRow], out: TextIO) -> None:
    table = [_COLUMNS] + [
        tuple(
            "%.3f" % row.wall_ms if col == "wall_ms" else str(getattr(row, col))
            for col in _COLUMNS
        )
        for row in rows
    ]
    widths = [max(len(line[col]) for line in table) for col in range(len(_COLUMNS))]
    for line in table:
        out.write(
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
            + "\n"
        )


def _write_csv(rows: Sequence[BenchRow], path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        writer.writerows([getattr(row, col) for col in _CSV_COLUMNS] for row in rows)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.count < 0:
        return _fail("--count must be non-negative")
    rows: List[BenchRow] = []
    disagreements = 0
    if args.suite in ("contradiction", "all"):
        rows.extend(_bench_contradiction())
    if args.suite in ("bcp_separation", "all"):
        rows.extend(_bench_bcp_separation())
    if args.suite in ("random", "all"):
        random_rows, disagreements = _bench_random(args.count)
        rows.extend(random_rows)
        if args.suite == "random":
            print("c formulas %d, runs %d" % (args.count, len(random_rows)))
        print("c verdict disagreements: %d" % disagreements)
    if args.suite != "random":
        _print_rows([r for r in rows if not r.family.startswith("random(")], sys.stdout)
    if args.csv:
        try:
            _write_csv(rows, args.csv)
        except OSError as exc:
            return _fail(str(exc))
    return EXIT_CHECK_FAIL if disagreements else 0


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=sorted(_MODES), default="sss")
    for name, (flag, text) in _FEATURE_FLAGS.items():
        parser.add_argument(flag, action="store_true", dest=name, help=text)
    parser.add_argument("--order", help="comma-separated fixed variable order")
    parser.add_argument("--seed", type=int, help="random decision heuristic seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofsat",
        description="Backtracking CNF solver with machine-checkable refutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a DIMACS CNF file")
    p_solve.add_argument("cnf", help="path to a DIMACS file, or - for stdin")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--proof", help="write the refutation trace here")
    p_solve.add_argument("--dot", help="write the refutation as Graphviz DOT here")
    p_solve.add_argument("--stats", action="store_true", help="print run statistics")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="check a refutation trace against a CNF")
    p_check.add_argument("cnf", help="path to the DIMACS file, or - for stdin")
    p_check.add_argument("trace", help="path to the trace file, or - for stdin")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a benchmark formula")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_con = gen_sub.add_parser("contradiction", help="(x1) and (not x1) over n variables")
    g_con.add_argument("--n", type=int, required=True)
    g_bcp = gen_sub.add_parser("bcp_separation", help="unit-cascade family")
    g_bcp.add_argument("--k", type=int, required=True, help="cascade length")
    g_rand = gen_sub.add_parser("random", help="uniform random k-CNF")
    g_rand.add_argument("--n", type=int, required=True)
    g_rand.add_argument("--m", type=int, required=True)
    g_rand.add_argument("--k", type=int, default=3)
    g_rand.add_argument("--seed", type=int, default=0)
    for g in (g_con, g_bcp, g_rand):
        g.add_argument("-o", "--output", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a benchmark matrix")
    p_bench.add_argument(
        "suite",
        choices=("contradiction", "bcp_separation", "random", "all"),
    )
    p_bench.add_argument(
        "--count", type=int, default=500, help="seeds for the random suite"
    )
    p_bench.add_argument("--csv", help="also write rows as CSV (wall time omitted)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
