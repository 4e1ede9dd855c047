"""Command-line interface: exit codes, output conventions, file handling."""
import hashlib
import io
import os
import subprocess
import sys

import pytest

import proofsat
from proofsat import (
    SolverConfig,
    export_dot,
    export_trace,
    gen_random_kcnf,
    parse_dimacs,
    solve,
    write_dimacs,
)
from proofsat.cli import main

from conftest import make_base_formula
from test_proofs import LONG_FORMULA, SHARED_TRACE

BASE_DIMACS = "p cnf 4 4\n1 2 0\n-2 3 0\n-2 -3 0\n-1 2 0\n"


@pytest.fixture
def base_cnf(tmp_path):
    path = tmp_path / "base.cnf"
    path.write_text(BASE_DIMACS)
    return path


class TestSolve:
    def test_sat_exit_and_value_line(self, tmp_path, capsys):
        cnf = tmp_path / "unit.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        assert main(["solve", str(cnf)]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert "v 1 0" in out

    def test_sat_value_line_lists_every_variable(self, tmp_path, capsys):
        cnf = tmp_path / "wide.cnf"
        cnf.write_text("p cnf 3 1\n1 0\n")
        main(["solve", str(cnf)])
        assert "v 1 -2 -3 0" in capsys.readouterr().out

    def test_unsat_exit(self, base_cnf, capsys):
        assert main(["solve", str(base_cnf)]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_zero_variable_sat_prints_bare_value_line(self, tmp_path, capsys):
        cnf = tmp_path / "empty.cnf"
        cnf.write_text("p cnf 0 0\n")
        assert main(["solve", str(cnf)]) == 10
        assert "v 0" in capsys.readouterr().out

    def test_bare_value_line_is_the_whole_output(self, tmp_path, capsys):
        cnf = tmp_path / "empty.cnf"
        cnf.write_text("p cnf 0 0\n")
        assert main(["solve", str(cnf)]) == 10
        assert capsys.readouterr().out == "s SATISFIABLE\nv 0\n"

    def test_long_value_line_equals_the_model(self, tmp_path, capsys):
        # 600 literals, written a block at a time.
        cnf = tmp_path / "wide.cnf"
        cnf.write_text("p cnf 600 2\n1 0\n-600 0\n")
        assert main(["solve", str(cnf)]) == 10
        model = solve(parse_dimacs(cnf.read_text())).model
        lits = [str(v if model[v] else -v) for v in sorted(model)]
        assert capsys.readouterr().out == "s SATISFIABLE\nv %s 0\n" % " ".join(lits)

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO("p cnf 1 1\n1 0\n"))
        assert main(["solve", "-"]) == 10

    def test_stats_lines(self, base_cnf, capsys):
        assert main(["solve", str(base_cnf), "--stats"]) == 20
        out = capsys.readouterr().out
        assert "c decisions 5" in out
        assert "c flips 5" in out
        assert "c conflicts 7" in out
        assert "c final_proof_size 5" in out

    def test_proof_written_and_checkable(self, base_cnf, tmp_path, capsys):
        trace = tmp_path / "out.trace"
        assert main(["solve", str(base_cnf), "--proof", str(trace)]) == 20
        assert trace.read_text().startswith("p trace\n")
        assert main(["check", str(base_cnf), str(trace)]) == 0
        out = capsys.readouterr().out
        assert "c valid true" in out
        assert "c complete true" in out
        assert "c tree_like true" in out
        assert "c size 5" in out
        assert "s PROOF OK" in out

    def test_dot_written(self, base_cnf, tmp_path):
        dot = tmp_path / "out.dot"
        assert main(["solve", str(base_cnf), "--dot", str(dot)]) == 20
        text = dot.read_text()
        assert text.startswith("digraph refutation {")
        assert 'label="empty"' in text

    def test_written_files_equal_the_library_strings(self, tmp_path, capsys):
        # A refutation of several hundred records: trace and DOT files span
        # more than one block.
        cnf = tmp_path / "long.cnf"
        cnf.write_text(write_dimacs(LONG_FORMULA))
        trace, dot = tmp_path / "out.trace", tmp_path / "out.dot"
        args = ["solve", str(cnf), "--bcp", "--proof", str(trace), "--dot", str(dot)]
        assert main(args) == 20
        assert capsys.readouterr().out == "s UNSATISFIABLE\n"
        proof = solve(LONG_FORMULA, SolverConfig(bcp=True)).proof
        assert trace.read_bytes() == export_trace(proof).encode()
        assert dot.read_bytes() == export_dot(proof).encode()

    def test_sat_run_writes_no_proof(self, tmp_path, capsys):
        cnf = tmp_path / "unit.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        trace = tmp_path / "out.trace"
        assert main(["solve", str(cnf), "--proof", str(trace)]) == 10
        assert not trace.exists()
        assert "no refutation trace" in capsys.readouterr().out
        dot = tmp_path / "out.dot"
        assert main(["solve", str(cnf), "--dot", str(dot)]) == 10
        assert not dot.exists()
        assert "c satisfiable: no refutation graph written" in capsys.readouterr().out

    def test_modes_and_flags(self, base_cnf, capsys):
        assert main(["solve", str(base_cnf), "--mode", "dll"]) == 20
        assert main(["solve", str(base_cnf), "--mode", "tae"]) == 20
        assert main(["solve", str(base_cnf), "--bcp", "--ncb", "--cdb", "--ccr"]) == 20
        capsys.readouterr()

    def test_hook_flags_rejected_outside_graph_mode(self, base_cnf, tmp_path, capsys):
        trace = tmp_path / "t"
        assert main(["solve", str(base_cnf), "--mode", "dll", "--proof", str(trace)]) == 2
        assert main(["solve", str(base_cnf), "--mode", "tae", "--bcp"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_order_flag(self, tmp_path, capsys):
        cnf = tmp_path / "pair.cnf"
        cnf.write_text("p cnf 3 1\n1 2 0\n")
        assert main(["solve", str(cnf), "--order", "1,3,2", "--ncb"]) == 10
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--order", "1,2", "--seed", "3"],  # mutually exclusive
            ["--order", "nope"],
            ["--order", ""],
            ["--order", "1,1"],
            ["--seed", "-1"],
            ["--seed", str(2**64)],
        ],
    )
    def test_bad_solver_flags(self, base_cnf, capsys, extra):
        assert main(["solve", str(base_cnf)] + extra) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.cnf")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unparsable_cnf(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 1 1\n2 0\n")
        assert main(["solve", str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err


class TestCheck:
    def test_accepts_shared_node_trace(self, base_cnf, tmp_path, capsys):
        trace = tmp_path / "shared.trace"
        trace.write_text(SHARED_TRACE)
        assert main(["check", str(base_cnf), str(trace)]) == 0
        out = capsys.readouterr().out
        assert "c valid true" in out
        assert "c tree_like false" in out
        assert "c regular true" in out
        assert "c size 4" in out
        assert "s PROOF OK" in out

    def test_incomplete_trace_fails(self, base_cnf, tmp_path, capsys):
        trace = tmp_path / "partial.trace"
        trace.write_text("p trace\no 2 -2 3 0\no 3 -2 -3 0\nr 5 3 2 3 -2 0\n")
        assert main(["check", str(base_cnf), str(trace)]) == 1
        out = capsys.readouterr().out
        assert "c complete false" in out
        assert "s PROOF FAIL" in out

    def test_malformed_trace_fails_with_reason(self, base_cnf, tmp_path, capsys):
        trace = tmp_path / "broken.trace"
        trace.write_text("p trace\nr 5 3 2 3 -2 0\n")
        assert main(["check", str(base_cnf), str(trace)]) == 1
        out = capsys.readouterr().out
        assert "c trace rejected:" in out
        assert "s PROOF FAIL" in out

    def test_forged_resolvent_fails(self, base_cnf, tmp_path, capsys):
        trace = tmp_path / "forged.trace"
        trace.write_text("p trace\no 2 -2 3 0\no 3 -2 -3 0\nr 5 3 2 3 -3 0\n")
        assert main(["check", str(base_cnf), str(trace)]) == 1
        assert "c trace rejected:" in capsys.readouterr().out

    def test_negative_pivot_fails_without_traceback(self, base_cnf, tmp_path, capsys):
        # (-2) does follow from clauses 2 and 3, but only on pivot 3.
        trace = tmp_path / "negpivot.trace"
        trace.write_text("p trace\no 2 -2 3 0\no 3 -2 -3 0\nr 5 -3 2 3 -2 0\n")
        assert main(["check", str(base_cnf), str(trace)]) == 1
        out = capsys.readouterr().out
        assert "c trace rejected: line 4: pivot must be a positive variable" in out
        assert "s PROOF FAIL" in out

    @pytest.mark.parametrize("source", ["file", "stdin", "stdin_surrogateescape"])
    def test_non_ascii_trace_rejected(self, base_cnf, tmp_path, capsys, monkeypatch, source):
        data = SHARED_TRACE.encode("ascii") + b"\xff\n"
        if source == "file":
            trace = tmp_path / "binary.trace"
            trace.write_bytes(data)
            arg = str(trace)
        else:
            errors = "surrogateescape" if source == "stdin_surrogateescape" else "strict"
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
            monkeypatch.setattr("sys.stdin", stdin)
            arg = "-"
        assert main(["check", str(base_cnf), arg]) == 1
        out = capsys.readouterr().out
        assert "c trace rejected:" in out
        assert "s PROOF FAIL" in out

    def test_cnf_errors_are_usage_errors(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text("p trace\n")
        missing = tmp_path / "absent.cnf"
        assert main(["check", str(missing), str(trace)]) == 2
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 0 0\njunk\n")
        assert main(["check", str(bad), str(trace)]) == 2
        capsys.readouterr()


class TestGen:
    def test_contradiction_to_stdout(self, capsys):
        assert main(["gen", "contradiction", "--n", "8"]) == 0
        assert capsys.readouterr().out == "p cnf 8 2\n1 0\n-1 0\n"

    def test_bcp_separation_header(self, capsys):
        assert main(["gen", "bcp_separation", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p cnf 15 20\n")
        assert len(parse_dimacs(out)) == 20

    def test_random_with_output_file(self, tmp_path):
        path = tmp_path / "rand.cnf"
        args = ["gen", "random", "--n", "5", "--m", "10", "--seed", "3"]
        assert main(args + ["-o", str(path)]) == 0
        f = parse_dimacs(path.read_text())
        assert f.num_vars == 5 and len(f) == 10

    def test_file_and_stdout_equal_write_dimacs(self, tmp_path, capsys):
        # 600 clauses, written a block at a time.
        text = write_dimacs(gen_random_kcnf(200, 600, 3, 1))
        args = ["gen", "random", "--n", "200", "--m", "600", "--seed", "1"]
        path = tmp_path / "wide.cnf"
        assert main(args + ["-o", str(path)]) == 0
        assert path.read_bytes() == text.encode()
        assert main(args) == 0
        assert capsys.readouterr().out == text

    def test_gen_output_round_trips_through_solve(self, tmp_path, capsys):
        path = tmp_path / "k1.cnf"
        assert main(["gen", "bcp_separation", "--k", "1", "-o", str(path)]) == 0
        assert main(["solve", str(path)]) == 20
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "contradiction", "--n", "0"],
            ["gen", "bcp_separation", "--k", "0"],
            ["gen", "random", "--n", "2", "--m", "5", "--k", "3"],
            ["bench", "random", "--count", "-3"],
        ],
    )
    def test_invalid_parameters(self, args, capsys):
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err


class TestBench:
    def _rows(self, out):
        lines = [l for l in out.splitlines() if l and not l.startswith("c ")]
        header = lines[0].split()
        return header, [dict(zip(header, l.split())) for l in lines[1:]]

    def test_contradiction_suite(self, capsys):
        assert main(["bench", "contradiction"]) == 0
        header, rows = self._rows(capsys.readouterr().out)
        assert header[:3] == ["family", "config", "verdict"]
        assert len(rows) == 6
        by_key = {(r["family"], r["config"]): r for r in rows}
        for n in (8, 10, 12):
            fam = "contradiction(n=%d)" % n
            assert by_key[(fam, "sss")]["decisions"] == "1"
            assert by_key[(fam, "tae")]["decisions"] == str(2**n - 1)
            assert by_key[(fam, "sss")]["verdict"] == "UNSAT"

    def test_bcp_separation_suite(self, capsys):
        assert main(["bench", "bcp_separation"]) == 0
        _, rows = self._rows(capsys.readouterr().out)
        assert len(rows) == 8
        by_key = {(r["family"], r["config"]): r for r in rows}
        for k in (2, 5, 10, 20):
            fam = "bcp_separation(k=%d)" % k
            assert by_key[(fam, "dll_strict")]["decisions"] == "7"
            assert by_key[(fam, "dll_strict+bcp")]["decisions"] == str(7 + 6 * k)

    def test_random_suite_summary_only(self, capsys):
        assert main(["bench", "random", "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "c formulas 3, runs 48" in out
        assert "c verdict disagreements: 0" in out
        assert "family" not in out  # no table for the random suite

    def test_csv_deterministic_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "all", "--count", "2", "--csv", str(a)]) == 0
        assert main(["bench", "all", "--count", "2", "--csv", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "family,config,verdict,decisions,flips,conflicts,final_proof_size"
        assert len(lines) == 1 + 6 + 8 + 2 * 16
        assert "wall" not in lines[0]
        # Taken while the CSV columns were still spelled out by hand.
        assert hashlib.sha256(a.read_bytes()).hexdigest() == (
            "7ca2a577a712b7e95930dcb06ade931a31f843f9aed8f08167a7ee85d14fa43e"
        )


def test_console_script_installed():
    # The child imports the package the suite imports, which pytest may have
    # found through its own pythonpath setting rather than PYTHONPATH.
    package_root = os.path.dirname(os.path.dirname(proofsat.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "proofsat.cli", "gen", "contradiction", "--n", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout == "p cnf 2 2\n1 0\n-1 0\n"
