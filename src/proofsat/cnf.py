"""CNF formulas and DIMACS I/O.

Literals are DIMACS-style signed integers: +v is the positive literal of
variable v, -v its negation.  A Clause is a tuple: its distinct literals,
sorted by variable with the positive literal first, so it equals the plain
tuple of those literals.  Formula holds a clause list addressed by 1-based
clause ids.
"""
from __future__ import annotations

from itertools import chain, islice
from operator import neg
from typing import AbstractSet, Iterable, Iterator, List, Optional, Sequence, Tuple

Variable = int
Literal = int

_BLOCK = 256  # pieces of output text joined into one block


def _tautological(lits: AbstractSet[Literal]) -> bool:
    """True when the set holds some literal together with its negation."""
    return not lits.isdisjoint(map(neg, lits))


class Clause(tuple):
    """An immutable disjunction of literals: the tuple of its literals.

    Duplicate literals collapse, and the literals are sorted by variable
    index with the positive literal first, so repr/trace output is
    deterministic.  Equality, hashing and membership are the tuple's, so a
    clause equals the plain tuple of its sorted literals.
    """

    __slots__ = ()

    def __new__(cls, literals: Iterable[Literal]) -> "Clause":
        lits = set()
        for lit in literals:
            if isinstance(lit, bool) or not isinstance(lit, int) or lit == 0:
                raise ValueError("literal must be a nonzero integer, got %r" % (lit,))
            lits.add(lit)
        # The descending sort puts +v ahead of -v; the stable sort by
        # variable keeps it there.
        return tuple.__new__(cls, sorted(sorted(lits, reverse=True), key=abs))

    @classmethod
    def _trusted(cls, lits: Iterable[Literal]) -> "Clause":
        """The clause over ``lits``: distinct nonzero ints, none with its
        negation, so sorting by variable alone gives the clause's order."""
        return tuple.__new__(cls, sorted(lits, key=abs))

    @property
    def literals(self) -> Tuple[Literal, ...]:
        return self

    def __repr__(self) -> str:
        return "Clause(%s)" % (" ".join(map(str, self)) or "empty")


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


def _lines(text: str, chunk: int = 4096) -> Iterator[str]:
    """``text.splitlines()``, split a piece at a time: each piece ends just
    after the first newline ``chunk`` or more characters in, and no line
    boundary straddles a newline, so the pieces give the same lines."""

    def pieces() -> Iterator[str]:
        start = 0
        while start < len(text):
            end = text.find("\n", start + chunk) + 1 or len(text)
            yield text[start:end]
            start = end

    return chain.from_iterable(map(str.splitlines, pieces()))


def _blocks(pieces: Iterable[str]) -> Iterator[str]:
    """The concatenation of ``pieces``, none of them empty, yielded
    ``_BLOCK`` pieces at a time: a writer holds one block of its text, not
    one string per line."""
    pieces = iter(pieces)
    while True:
        block = "".join(islice(pieces, _BLOCK))
        if not block:
            return
        yield block


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
    for line_no, raw in enumerate(_lines(text), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "c":
            continue
        if tokens[0][0] == "p":
            if formula is not None:
                raise ValueError("line %d: duplicate header" % line_no)
            if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "cnf":
                raise ValueError("line %d: malformed header %r" % (line_no, raw.strip()))
            try:
                num_vars, num_clauses = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ValueError("line %d: malformed header %r" % (line_no, raw.strip()))
            if num_vars < 0 or num_clauses < 0:
                raise ValueError("line %d: negative counts in header" % line_no)
            formula = Formula(num_vars)
            continue
        if formula is None:
            raise ValueError("line %d: clause data before header" % line_no)
        try:
            values, bad = list(map(int, tokens)), None
        except ValueError:
            # Process the tokens before the bad one first, so that an
            # earlier fault on the line is the one reported.
            values = []
            for tok in tokens:
                try:
                    values.append(int(tok))
                except ValueError:
                    bad = tok
                    break
        for lit in values:
            if lit == 0:
                if not current:
                    raise ValueError("line %d: empty clause" % line_no)
                lits = set(current)
                current = []
                seen_clauses += 1
                if seen_clauses > num_clauses:
                    raise ValueError(
                        "line %d: more clauses than the %d declared" % (line_no, num_clauses)
                    )
                if lits.isdisjoint(map(neg, lits)):  # nonzero, in range, not tautological
                    formula.clauses.append(Clause._trusted(lits))
                else:
                    formula.tautologies_dropped += 1
            else:
                if abs(lit) > num_vars:
                    raise ValueError(
                        "line %d: literal %d exceeds declared %d variables"
                        % (line_no, lit, num_vars)
                    )
                current.append(lit)
        if bad is not None:
            raise ValueError("line %d: bad token %r" % (line_no, bad))
    if formula is None:
        raise ValueError("missing 'p cnf' header")
    if current:
        raise ValueError("unterminated clause at end of input")
    if seen_clauses != num_clauses:
        raise ValueError(
            "header declares %d clauses but %d given" % (num_clauses, seen_clauses)
        )
    return formula


def _dimacs_blocks(formula: Formula) -> Iterator[str]:
    header = "p cnf %d %d\n" % (formula.num_vars, len(formula))
    lines = ("%s 0\n" % " ".join(map(str, clause)) for clause in formula.clauses)
    return _blocks(chain((header,), lines))


def write_dimacs(formula: Formula) -> str:
    return "".join(_dimacs_blocks(formula))
