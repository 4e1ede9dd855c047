"""CNF formulas, DIMACS I/O, and evaluation under partial assignments.

Literals are DIMACS-style signed integers: +v is the positive literal of
variable v, -v its negation.  Clause objects are immutable sets of literals
with a deterministic iteration order; Formula holds a clause list addressed
by 1-based clause ids.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import neg
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Variable = int
Literal = int

# Clause evaluation statuses.
SATISFIED = "satisfied"
FALSIFIED = "falsified"
UNIT = "unit"
UNRESOLVED = "unresolved"

# Formula evaluation statuses.
FORMULA_SATISFIED = "satisfied"
FORMULA_CONFLICT = "conflict"
FORMULA_UNDETERMINED = "undetermined"


def _ordered(lits: Iterable[Literal]) -> Tuple[Literal, ...]:
    """Literals sorted by variable index, the positive literal first: the
    descending sort puts +v ahead of -v and the stable sort by variable
    keeps it there."""
    return tuple(sorted(sorted(lits, reverse=True), key=abs))


def _tautological(lits: AbstractSet[Literal]) -> bool:
    """True when the set holds some literal together with its negation."""
    return not lits.isdisjoint(map(neg, lits))


class Clause:
    """An immutable disjunction of literals.

    Duplicate literals collapse; iteration is sorted by variable index with
    the positive literal first, so repr/trace output is deterministic.
    Equality, hashing and membership work on that sorted tuple.
    """

    __slots__ = ("_lits",)

    def __init__(self, literals: Iterable[Literal]):
        lits = set()
        for lit in literals:
            if isinstance(lit, bool) or not isinstance(lit, int) or lit == 0:
                raise ValueError("literal must be a nonzero integer, got %r" % (lit,))
            lits.add(lit)
        self._lits = _ordered(lits)

    @classmethod
    def _trusted(cls, lits: Iterable[Literal]) -> "Clause":
        """The clause over ``lits``, distinct literals already known to be
        nonzero ints, built without checking each literal again."""
        clause = object.__new__(cls)
        clause._lits = _ordered(lits)
        return clause

    @property
    def literals(self) -> Tuple[Literal, ...]:
        return self._lits

    @property
    def is_tautology(self) -> bool:
        return _tautological(set(self._lits))

    def variables(self) -> Tuple[Variable, ...]:
        return tuple(sorted({abs(lit) for lit in self._lits}))

    def __contains__(self, lit: Literal) -> bool:
        return lit in self._lits

    def __iter__(self) -> Iterator[Literal]:
        return iter(self._lits)

    def __len__(self) -> int:
        return len(self._lits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        return self._lits == other._lits

    def __hash__(self) -> int:
        return hash(self._lits)

    def __repr__(self) -> str:
        return "Clause(%s)" % (" ".join(str(l) for l in self._lits) or "empty")


class Formula:
    """A CNF formula: a declared variable count plus a list of clauses.

    Clause ids are 1-based and stable; clauses can only be appended, never
    removed.  Empty clauses are rejected (an input containing one is already
    refuted and outside this representation's contract).
    """

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[Literal] | Clause] = ()):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: List[Clause] = []
        self.tautologies_dropped = 0
        for c in clauses:
            self.add_clause(c)

    def add_clause(self, literals: Sequence[Literal] | Clause) -> int:
        clause = literals if isinstance(literals, Clause) else Clause(literals)
        if len(clause) == 0:
            raise ValueError("empty clause not representable in a Formula")
        for lit in clause:
            if abs(lit) > self.num_vars:
                raise ValueError(
                    "literal %d exceeds declared variable count %d" % (lit, self.num_vars)
                )
        self.clauses.append(clause)
        return len(self.clauses)

    def clause(self, cid: int) -> Clause:
        if not 1 <= cid <= len(self.clauses):
            raise KeyError("clause id %r out of range 1..%d" % (cid, len(self.clauses)))
        return self.clauses[cid - 1]

    def ids(self) -> range:
        return range(1, len(self.clauses) + 1)

    def __len__(self) -> int:
        return len(self.clauses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self.num_vars == other.num_vars and self.clauses == other.clauses

    def copy(self) -> "Formula":
        dup = Formula(self.num_vars)
        dup.clauses = list(self.clauses)
        dup.tautologies_dropped = self.tautologies_dropped
        return dup

    def __repr__(self) -> str:
        return "Formula(num_vars=%d, clauses=%d)" % (self.num_vars, len(self.clauses))


class PartialAssignment:
    """A partial mapping from variables to truth values."""

    def __init__(self, values: Optional[Dict[Variable, bool]] = None):
        self.values: Dict[Variable, bool] = dict(values) if values else {}

    @classmethod
    def from_literals(cls, literals: Iterable[Literal]) -> "PartialAssignment":
        asg = cls()
        for lit in literals:
            asg.assign(abs(lit), lit > 0)
        return asg

    def assign(self, var: Variable, value: bool) -> None:
        if var in self.values and self.values[var] != value:
            raise ValueError("variable %d already assigned the opposite value" % var)
        self.values[var] = value

    def unassign(self, var: Variable) -> None:
        del self.values[var]

    def value(self, var: Variable) -> Optional[bool]:
        return self.values.get(var)

    def lit_value(self, lit: Literal) -> Optional[bool]:
        v = self.values.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def __contains__(self, var: Variable) -> bool:
        return var in self.values

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(
            "%d=%d" % (v, int(b)) for v, b in sorted(self.values.items())
        )
        return "PartialAssignment(%s)" % inner


@dataclass(frozen=True)
class ClauseEval:
    """Result of evaluating one clause: a status, plus the sole unassigned
    literal when the status is "unit"."""

    status: str
    unit: Optional[Literal] = None


@dataclass(frozen=True)
class FormulaEval:
    """Result of evaluating a formula (plus optional extra clauses).

    conflict_clause carries the 1-based id of a falsified formula clause;
    conflict_extra carries the 0-based index into `extra` instead when an
    extra clause is the falsified one.  Extra clauses take priority over
    formula clauses when both are falsified; among formula clauses the
    lowest id wins.
    """

    status: str
    conflict_clause: Optional[int] = None
    conflict_extra: Optional[int] = None


def evaluate_clause(clause: Clause, assignment: PartialAssignment) -> ClauseEval:
    unassigned: Optional[Literal] = None
    unassigned_count = 0
    for lit in clause:
        v = assignment.lit_value(lit)
        if v is True:
            return ClauseEval(SATISFIED)
        if v is None:
            unassigned_count += 1
            if unassigned is None:
                unassigned = lit
    if unassigned_count == 0:
        return ClauseEval(FALSIFIED)
    if unassigned_count == 1:
        return ClauseEval(UNIT, unassigned)
    return ClauseEval(UNRESOLVED)


def evaluate_formula(
    formula: Formula,
    assignment: PartialAssignment,
    extra: Sequence[Clause] = (),
) -> FormulaEval:
    for i, clause in enumerate(extra):
        if evaluate_clause(clause, assignment).status == FALSIFIED:
            return FormulaEval(FORMULA_CONFLICT, conflict_extra=i)
    all_satisfied = True
    for cid in formula.ids():
        status = evaluate_clause(formula.clause(cid), assignment).status
        if status == FALSIFIED:
            return FormulaEval(FORMULA_CONFLICT, conflict_clause=cid)
        if status != SATISFIED:
            all_satisfied = False
    if all_satisfied:
        return FormulaEval(FORMULA_SATISFIED)
    return FormulaEval(FORMULA_UNDETERMINED)


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Comment lines start with 'c'.  The 'p cnf <vars> <clauses>' header is
    mandatory and validated against the body: every literal must fit the
    declared variable count and the clause count must match exactly.
    Tautological clauses are dropped (but still count against the declared
    clause total); the number dropped is reported on the returned Formula.
    An empty clause is an error: a formula containing one has no model and
    no meaningful search behaviour.
    """
    num_vars = -1
    num_clauses = -1
    formula: Optional[Formula] = None
    seen_clauses = 0
    current: List[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if formula is not None:
                raise ValueError("line %d: duplicate header" % line_no)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ValueError("line %d: malformed header %r" % (line_no, line))
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ValueError("line %d: malformed header %r" % (line_no, line))
            if num_vars < 0 or num_clauses < 0:
                raise ValueError("line %d: negative counts in header" % line_no)
            formula = Formula(num_vars)
            continue
        if formula is None:
            raise ValueError("line %d: clause data before header" % line_no)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError("line %d: bad token %r" % (line_no, tok))
            if lit == 0:
                if not current:
                    raise ValueError("line %d: empty clause" % line_no)
                lits = set(current)
                current = []
                seen_clauses += 1
                if seen_clauses > num_clauses:
                    raise ValueError(
                        "more clauses than the %d declared" % num_clauses
                    )
                if _tautological(lits):
                    formula.tautologies_dropped += 1
                else:
                    formula.add_clause(Clause._trusted(lits))  # parsed, nonzero
            else:
                if abs(lit) > num_vars:
                    raise ValueError(
                        "line %d: literal %d exceeds declared %d variables"
                        % (line_no, lit, num_vars)
                    )
                current.append(lit)
    if formula is None:
        raise ValueError("missing 'p cnf' header")
    if current:
        raise ValueError("unterminated clause at end of input")
    if seen_clauses != num_clauses:
        raise ValueError(
            "header declares %d clauses but %d given" % (num_clauses, seen_clauses)
        )
    return formula


def write_dimacs(formula: Formula) -> str:
    lines = ["p cnf %d %d" % (formula.num_vars, len(formula))]
    for cid in formula.ids():
        clause = formula.clause(cid)
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
