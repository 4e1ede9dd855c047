"""Clause/Formula containers and DIMACS round trips."""
import pickle

import pytest

from proofsat import Clause, Formula, gen_random_kcnf, parse_dimacs, write_dimacs
from proofsat.cnf import _BLOCK, _tautological


class TestClause:
    def test_literals_sorted_by_variable_positive_first(self):
        assert Clause([3, -1, 2, -3]).literals == (-1, 2, 3, -3)

    def test_duplicates_collapse(self):
        c = Clause([2, 2, -5, -5])
        assert c.literals == (2, -5)
        assert len(c) == 2

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Clause([1, 0])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            Clause(["1"])

    def test_bool_literal_rejected(self):
        # bool is an int subclass; accepting it would print "True" in
        # DIMACS and trace output.
        with pytest.raises(ValueError, match="nonzero integer, got True"):
            Clause([True, -2])

    def test_tautology_detection(self):
        assert _tautological(set(Clause([1, -1, 2]).literals))
        assert not _tautological(set(Clause([1, 2]).literals))

    def test_membership_and_variables(self):
        c = Clause([-4, 2])
        assert 2 in c and -4 in c and 4 not in c

    def test_equality_is_set_equality(self):
        assert Clause([1, 2]) == Clause([2, 1, 1])
        assert Clause([1, 2]) != Clause([1, -2])
        assert hash(Clause([1, 2])) == hash(Clause([2, 1]))

    def test_a_clause_is_the_tuple_of_its_sorted_literals(self):
        c = Clause([2, -3, 1, 2])
        assert isinstance(c, tuple) and not hasattr(c, "__dict__")
        assert c.literals is c
        assert c == (1, 2, -3) and hash(c) == hash((1, 2, -3))
        assert Clause([-3, 2, 1]) == c and hash(Clause([-3, 2, 1])) == hash(c)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(c, protocol))
            assert type(back) is Clause and back == c
        assert repr(c) == "Clause(1 2 -3)" and repr(Clause([])) == "Clause(empty)"
        assert Clause._trusted({3, -1, 2}) == Clause([3, -1, 2]) == (-1, 2, 3)


class TestFormula:
    def test_ids_are_one_based_and_stable(self):
        f = Formula(3, [(1, 2), (-2, 3)])
        assert list(f.ids()) == [1, 2]
        assert f.clause(1) == Clause([1, 2])
        assert f.clause(2) == Clause([-2, 3])

    def test_clause_id_out_of_range(self):
        f = Formula(2, [(1,)])
        with pytest.raises(KeyError):
            f.clause(0)
        with pytest.raises(KeyError):
            f.clause(2)

    def test_add_clause_returns_new_id(self):
        f = Formula(2)
        assert f.add_clause((1,)) == 1
        assert f.add_clause(Clause([-1, 2])) == 2

    def test_literal_beyond_declared_vars_rejected(self):
        f = Formula(2)
        with pytest.raises(ValueError):
            f.add_clause((3,))

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            Formula(1, [()])

    def test_copy_is_independent(self):
        f = Formula(2, [(1,)])
        g = f.copy()
        g.add_clause((2,))
        assert len(f) == 1 and len(g) == 2
        assert f == Formula(2, [(1,)])


def reference_dimacs(formula):
    lines = ["p cnf %d %d\n" % (formula.num_vars, len(formula))]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause)) + " 0\n")
    return "".join(lines)


class TestDimacs:
    def test_round_trip(self):
        f = Formula(4, [(1, -3), (2,), (-1, -2, 4)])
        assert parse_dimacs(write_dimacs(f)) == f

    @pytest.mark.parametrize(
        "count", [0, 1, _BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
    )
    def test_blocks_equal_per_line_reference(self, count):
        # The header and the clauses are written _BLOCK lines at a time.
        wide = gen_random_kcnf(200, 600, 3, 1)
        f = Formula(wide.num_vars, wide.clauses[:count])
        assert len(f) == count
        assert write_dimacs(f) == reference_dimacs(f)

    def test_comments_and_blank_lines_ignored(self):
        f = parse_dimacs("c hello\n\np cnf 2 1\nc mid\n1 -2 0\n")
        assert f == Formula(2, [(1, -2)])

    def test_clause_may_span_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clause(1) == Clause([1, 2, 3])

    def test_tautologies_dropped_but_counted(self):
        f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
        assert len(f) == 1
        assert f.tautologies_dropped == 1

    @pytest.mark.parametrize(
        "text",
        [
            "1 0\n",  # clause before header
            "p cnf 1 1\n",  # missing clause
            "p cnf 1 2\n1 0\n",  # fewer clauses than declared
            "p cnf 1 1\n1 0\n-1 0\n",  # more clauses than declared
            "p cnf 1 1\n2 0\n",  # literal beyond declared vars
            "p cnf 1 1\n0\n",  # empty clause
            "p cnf 1 1\n1\n",  # unterminated clause
            "p cnf 1 1\nx 0\n",  # bad token
            "p cnf 1\n1 0\n",  # malformed header
            "p cnf 1 1\np cnf 1 1\n1 0\n",  # duplicate header
        ],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_dimacs(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            # Two faults on one line: the first in line order is reported.
            ("p cnf 1 1\n5 x 0\n", "line 2: literal 5 exceeds"),
            ("p cnf 1 1\nx 5 0\n", "line 2: bad token 'x'"),
            ("p cnf 2 1\n1 0 2 0 x\n", "line 2: more clauses than the 1 declared"),
            ("p cnf 2 2\n1 0 0 x\n", "line 2: empty clause"),
            ("p cnf 2 2\n1 0 3 0\n", "line 2: literal 3 exceeds"),
        ],
    )
    def test_first_fault_on_a_line_is_reported(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_dimacs(text)

    def test_clause_layouts_parse_to_the_same_formula(self):
        # A clause split over lines, several clauses on one line and a
        # tautology (dropped, still counted) give the formula the
        # clause-by-clause reading gives.
        text = "p cnf 4 5\n1 -2\n3 0 -1 2 0 4 -4 2 0\n-3\n\n-4 0 2 0\n"
        f = parse_dimacs(text)
        assert f == Formula(4, [(1, -2, 3), (-1, 2), (-3, -4), (2,)])
        assert [c.literals for c in f.clauses] == [(1, -2, 3), (-1, 2), (-3, -4), (2,)]
        assert f.tautologies_dropped == 1

    def test_error_messages_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_dimacs("c x\np cnf 1 1\nbad 0\n")
