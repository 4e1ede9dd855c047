"""The resolution kernel against the list-based formulas it replaced.

``Clause`` keeps only its literals, ordered with two builtin sorts, and
``_resolvent_set`` / ``_oriented_set`` compute resolvents on literal sets.  The
reference versions below are the earlier ones: a sort keyed by
``_literal_key`` and resolvents built from literal lists; ``frozenset`` is
the reference for clause equality, hashing and membership.  Literals are
drawn from few variables so that tautological premises, premises holding
both v and -v, and duplicate literals come up often."""
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proofsat import Clause
from proofsat.cnf import _tautological
from proofsat.proofs import _oriented_set, _resolvent_set

VARS = 5

literals = st.integers(min_value=1, max_value=VARS).flatmap(
    lambda v: st.sampled_from((v, -v))
)
literal_lists = st.lists(literals, max_size=8)
pivots = st.integers(min_value=1, max_value=VARS)

kernel_settings = settings(
    max_examples=200, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _literal_key(lit):
    return (abs(lit), lit < 0)


def reference_order(lits):
    return tuple(sorted(set(lits), key=_literal_key))


def reference_resolve(d1, d2, v):
    """Literal order of the resolvent of d1 and d2 on v, +v in d1 and -v in
    d2; None where the pivot does not fit."""
    if v not in d1 or -v not in d2:
        return None
    return reference_order([lit for lit in d1 if lit != v] + [lit for lit in d2 if lit != -v])


def reference_oriented(left, right, v):
    if v in left and -v in right:
        return reference_resolve(left, right, v)
    if -v in left and v in right:
        return reference_resolve(right, left, v)
    return None


def _resolvent(d1, d2, v):
    """The resolvent of d1 (holding +v) and d2 (holding -v) on v; a
    tautological one is kept, so ``Clause`` orders it."""
    return Clause(_resolvent_set(d1.literals, d2.literals, v))


def _oriented_resolvent(left, right, v):
    """The resolvent of two clauses on v, taking either premise order."""
    return Clause(_oriented_set(left.literals, right.literals, v))


def rearranged(lits):
    """lits permuted, with some of its literals repeated."""
    if not lits:
        return st.just([])
    return st.lists(st.sampled_from(lits), max_size=4).flatmap(
        lambda extra: st.permutations(lits + extra)
    )


def outcome(fn, *args):
    """The literal tuple fn returns, or None where it raises ValueError."""
    try:
        return fn(*args).literals
    except ValueError:
        return None


@kernel_settings
@given(literal_lists)
def test_clause_order_matches_the_keyed_sort(lits):
    clause = Clause(lits)
    assert clause.literals == reference_order(lits)
    assert _tautological(set(clause.literals)) == any(-lit in lits for lit in lits)


@kernel_settings
@given(literal_lists)
def test_trusted_clause_matches_clause_without_tautologies(lits):
    # Clause._trusted orders by variable alone, which is only the full
    # order when no literal comes with its negation.
    distinct = set(lits)
    if _tautological(distinct):
        return
    trusted = Clause._trusted(distinct)
    assert trusted.literals == Clause(lits).literals == reference_order(lits)


@kernel_settings
@given(literal_lists.flatmap(lambda a: st.tuples(st.just(a), rearranged(a))), literal_lists)
def test_clause_agrees_with_frozenset_semantics(pair, other):
    a, same = pair
    for xs, ys in ((a, same), (a, other)):
        cx, cy = Clause(xs), Clause(ys)
        sx, sy = frozenset(xs), frozenset(ys)
        assert (cx == cy) == (sx == sy)
        if sx == sy:
            assert hash(cx) == hash(cy)
        assert (cy in {cx}) == (sx == sy)
    clause, lits = Clause(a), frozenset(a)
    assert len(clause) == len(lits)
    for lit in range(-VARS - 1, VARS + 2):
        assert (lit in clause) == (lit in lits)
    assert _tautological(set(clause.literals)) == (not lits.isdisjoint(-lit for lit in lits))


@kernel_settings
@given(literal_lists, literal_lists, pivots)
def test_resolve_matches_the_list_formula(a, b, v):
    d1, d2 = Clause(a + [v]), Clause(b + [-v])
    assert _resolvent(d1, d2, v).literals == reference_resolve(d1.literals, d2.literals, v)


@kernel_settings
@given(literal_lists, literal_lists, pivots, st.sampled_from((0, 1, -1)))
def test_oriented_resolvent_matches_the_list_formula(a, b, v, sign):
    # sign 1 puts +v on the left, -1 on the right, 0 leaves the premises as
    # drawn.
    if sign:
        a, b = a + [sign * v], b + [-sign * v]
    left, right = Clause(a), Clause(b)
    expected = reference_oriented(left.literals, right.literals, v)
    assert outcome(_oriented_resolvent, left, right, v) == expected


@pytest.mark.parametrize(
    "d1,d2,v",
    [
        ((1, -1, 2), (-1, 3), 1),  # first premise holds both v and -v
        ((1, 2), (-1, 1, 3), 1),  # second premise holds both v and -v
        ((1, -1), (-1, 1), 1),  # both do: the resolvent is (v -v)
        ((1, 2), (-1, -2), 1),  # a second clash: tautological resolvent
        ((1, 2, 3), (-1, 3, 2), 1),  # shared literals collapse
        ((1,), (-1,), 1),  # the empty clause
    ],
)
def test_edge_cases_match_the_list_formula(d1, d2, v):
    got = _resolvent(Clause(d1), Clause(d2), v)
    assert got.literals == reference_resolve(d1, d2, v)
    assert got == Clause(reference_resolve(d1, d2, v))
    assert hash(got) == hash(Clause(got.literals))
    assert _oriented_resolvent(Clause(d2), Clause(d1), v).literals == got.literals
