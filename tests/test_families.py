"""Formula generators: structure, determinism, and small-size truth."""
import itertools

import pytest

from proofsat import (
    Clause,
    brute_force_sat,
    gen_bcp_separation,
    gen_contradiction,
    gen_random_kcnf,
)
from proofsat.cnf import _tautological


class TestContradiction:
    def test_structure(self):
        f = gen_contradiction(8)
        assert f.num_vars == 8
        assert [f.clause(i) for i in f.ids()] == [Clause([1]), Clause([-1])]

    def test_unsat_for_all_small_n(self):
        for n in range(1, 7):
            assert brute_force_sat(gen_contradiction(n)) is None

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            gen_contradiction(0)


class TestBcpSeparation:
    def test_counts(self):
        for k in (1, 2, 5):
            f = gen_bcp_separation(k)
            assert f.num_vars == 3 + 6 * k
            assert len(f) == 6 * k + 8

    def test_chain_blocks_precede_ternary_block(self):
        k = 3
        f = gen_bcp_separation(k)
        expected = []
        next_var = 4
        for p in (1, -1, 2, -2, 3, -3):
            chain = list(range(next_var, next_var + k))
            next_var += k
            expected.append(Clause([p, chain[0]]))
            for i in range(k - 1):
                expected.append(Clause([-chain[i], chain[i + 1]]))
        for signs in itertools.product((1, -1), repeat=3):
            expected.append(Clause([signs[0], signs[1] * 2, signs[2] * 3]))
        assert [f.clause(i) for i in f.ids()] == expected

    def test_ternary_block_excludes_every_core_assignment(self):
        f = gen_bcp_separation(1)
        ternaries = {f.clause(i) for i in f.ids() if len(f.clause(i)) == 3}
        assert len(ternaries) == 8
        for bits in itertools.product([False, True], repeat=3):
            model = {v: bits[v - 1] for v in (1, 2, 3)}
            assert any(
                all(model[abs(l)] != (l > 0) for l in c) for c in ternaries
            ), "some core assignment falsifies no ternary clause"

    def test_unsat(self):
        for k in (1, 2, 3):
            assert brute_force_sat(gen_bcp_separation(k)) is None

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            gen_bcp_separation(0)


class TestRandomKcnf:
    def test_shape(self):
        f = gen_random_kcnf(9, 30, 3, seed=7)
        assert f.num_vars == 9
        assert len(f) == 30
        for cid in f.ids():
            clause = f.clause(cid)
            assert len(clause) == 3  # k distinct variables, so no collapse
            assert all(1 <= abs(l) <= 9 for l in clause)

    def test_deterministic_under_seed(self):
        assert gen_random_kcnf(8, 24, 3, 42) == gen_random_kcnf(8, 24, 3, 42)

    def test_seed_changes_output(self):
        outputs = {
            tuple(gen_random_kcnf(8, 24, 3, s).clauses) for s in range(6)
        }
        assert len(outputs) > 1

    def test_no_tautologies(self):
        for seed in range(10):
            f = gen_random_kcnf(6, 40, 3, seed)
            assert not any(_tautological(set(f.clause(i).literals)) for i in f.ids())

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_random_kcnf(2, 5, 3, 0)  # k > n
        with pytest.raises(ValueError):
            gen_random_kcnf(0, 5, 1, 0)
        with pytest.raises(ValueError):
            gen_random_kcnf(3, -1, 2, 0)
