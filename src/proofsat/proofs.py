"""Resolution derivations: construction, checking, and interchange formats.

A RefutationGraph is a DAG.  Source nodes mirror the clauses of a formula
(node id = 1-based clause id; a graph from ``init_refutation`` files each on
its first use); every other node is a resolvent with two premise links and a
pivot variable.  Node ids only grow, so a premise always has a smaller id
than the node using it, and a graph rejects a new id below one it has
filed.

Trace format (line oriented):

    p trace
    o <id> <lit> ... <lit> 0            source clause
    r <id> <pivot> <left> <right> <lit> ... <lit> 0   resolvent

<pivot> is a positive variable.  A derivation is complete when it contains
an 'r' record with an empty literal list (the empty clause).  A graph keeps
its nodes in 32-bit columns, so a node id lies in 1..2**31 - 1 and a stored
literal or pivot within +-(2**31 - 1).
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count
from operator import add
from typing import Collection, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .cnf import Clause, Formula, Literal, Variable, _blocks, _lines, _tautological

_MAX = 2**31 - 1  # the largest id, literal or pivot a column holds
_NONE = -_MAX - 1  # a source's premises and pivot, and any None, in a column
_COMPACT_MIN = 64  # dead rows below this many are never compacted


class ProofNode(NamedTuple):
    """One node of a RefutationGraph: a source (no premises), whose id is
    the id of the formula clause it mirrors, or the resolvent of nodes
    ``left`` and ``right`` on ``pivot``."""

    id: int
    clause: Clause
    left: Optional[int] = None
    right: Optional[int] = None
    pivot: Optional[Variable] = None

    @property
    def is_source(self) -> bool:
        return self.left is None


@dataclass
class CheckReport:
    valid: bool
    complete: bool
    tree_like: bool
    regular: bool
    size: int
    problems: List[str] = field(default_factory=list)


def _resolvent_set(plus: Sequence[Literal], minus: Sequence[Literal], v: Variable) -> Set[Literal]:
    """The resolution kernel: the literal set of the resolvent of ``plus``
    (holding +v) and ``minus`` (holding -v) on v, that is
    ``(plus - {v}) | (minus - {-v})``.  The union drops v and -v unless the
    other premise holds them as well.  The set itself is never stored."""
    lits = {*plus, *minus}
    if v not in minus:
        lits.remove(v)
    if -v not in plus:
        lits.remove(-v)
    return lits


def _oriented_set(left: Sequence[Literal], right: Sequence[Literal], v: Variable) -> Set[Literal]:
    """The kernel applied with whichever premise holds +v as the positive
    side."""
    if v in left and -v in right:
        return _resolvent_set(left, right, v)
    if -v in left and v in right:
        return _resolvent_set(right, left, v)
    raise ValueError(
        "pivot %d does not occur with opposite polarities in the premises" % v
    )


def _same_literals(lits: Set[Literal], clause: Sequence[Literal]) -> bool:
    """True when a set of literals holds exactly the clause's literals."""
    return len(lits) == len(clause) and lits.issuperset(clause)


def _derive(
    nid: int,
    left: int,
    right: int,
    pivot: Variable,
    left_lits: Optional[Sequence[Literal]],
    right_lits: Optional[Sequence[Literal]],
) -> Set[Literal]:
    """The literal set of resolvent ``nid`` of ``left`` and ``right`` on
    ``pivot``, given the premises' literals (None for a premise that is not
    filed): the one rule set for a resolution step, shared by ``add_node``,
    ``parse_trace`` and ``check_refutation``.  Raises ValueError naming the
    first rule the step breaks."""
    if left_lits is None or right_lits is None:
        raise ValueError("premise id not defined earlier")
    if not isinstance(pivot, int) or pivot < 1:
        raise ValueError("pivot must be a positive variable, got %r" % (pivot,))
    lits = _oriented_set(left_lits, right_lits, pivot)
    if _tautological(lits):
        raise ValueError("resolvent of %d and %d on %d is tautological" % (left, right, pivot))
    if nid <= max(left, right):
        raise ValueError("resolvent id must exceed its premise ids")
    return lits


def _source(formula: Formula, nid: int, lits: Set[Literal]) -> Clause:
    """The formula clause that source ``nid`` with literals ``lits``
    mirrors.  Raises ValueError when there is none or its literals differ."""
    try:
        clause = formula.clause(nid)
    except KeyError:
        raise ValueError("no formula clause with id %d" % nid) from None
    if not _same_literals(lits, clause):
        raise ValueError("literals differ from formula clause %d" % nid)
    return clause


class RefutationGraph:
    """Resolution DAG with 1-based node ids, held in typed columns.

    Each filed node is a row, except a source reserved by
    ``init_refutation``: its id, premises, pivot, and the start and length
    of its literals in one flat arena, each an ``array('i')``, and a byte
    saying whether the row is still filed.  The arena keeps literals in the
    order they were filed, a resolvent's as the kernel gave them; every
    read (``node``, ``literals``, the trace and DOT writers) gives them in
    ``Clause`` order.  Ids only grow, so rows are
    appended in id order and a filed id finds its row by bisection.  The
    graph is append-only: ``_file`` appends every row, and a filed row is
    never written again.  Unfiling a row leaves it dead;
    once dead rows outnumber live ones, the columns are rebuilt from the
    live rows, so the store follows the nodes filed, not every node ever
    added.  Ids 1..``_reserved`` belong to the clauses of the formula given
    to ``init_refutation``: such a source is filed by a flag and reads its
    literals from the clause it mirrors.  ``node``, ``literals`` and
    ``in`` read one filed node, and ``node_ids`` lists them all.

    ``_derived`` marks a graph whose every resolvent row holds the literals
    ``_derive`` computed from premises that are still filed: ``add_node``,
    ``add_source`` and ``parse_trace`` keep it, and ``add_resolvent`` and
    ``prune`` clear it for good, as does extracting a sub-graph.
    ``check_refutation`` re-derives no resolvent of a marked graph.
    """

    def __init__(self) -> None:
        self._ids = array("i")
        self._left = array("i")
        self._right = array("i")
        self._pivot = array("i")
        self._start = array("i")
        self._len = array("i")
        self._lits = array("i")
        self._live = bytearray()
        self._dead = 0
        self._next_id = 1  # above every id ever given a row, and every reserved id
        self._sources: Sequence[Clause] = ()
        self._reserved = 0  # ids 1.._reserved: _sources' clauses, filed on first use
        self._src_filed = bytearray(1)  # byte k is 1 while source k is filed
        self._derived = True

    def _columns(self) -> Tuple[array, ...]:
        return self._ids, self._left, self._right, self._pivot, self._start, self._len

    # -- rows -------------------------------------------------------------

    def _row(self, nid: int) -> int:
        """The row of filed node ``nid``, or -1; a reserved source has none."""
        ids = self._ids
        r = bisect_left(ids, nid)
        return r if r < len(ids) and ids[r] == nid and self._live[r] else -1

    def _records(self) -> Iterator[Tuple[int, int, int, int, int, Sequence[Literal]]]:
        """(row, id, left, right, pivot, literals) of every filed node, by
        id, with None stored as ``_NONE`` and row -1 for a reserved source."""
        sources = self._sources
        reserved = (
            (-1, nid, _NONE, _NONE, _NONE, sources[nid - 1])
            for nid in compress(range(self._reserved + 1), self._src_filed)
        )
        live = self._live
        starts = compress(self._start, live)
        ends = map(add, compress(self._start, live), compress(self._len, live))
        runs = map(self._lits.__getitem__, map(slice, starts, ends))
        fields = (compress(column, live) for column in (count(), *self._columns()[:4]))
        return chain(reserved, zip(*fields, runs))

    def _locate(self, nid: int) -> Tuple[int, Optional[Sequence[Literal]]]:
        """(row, literals) of node ``nid``: row -1 for a reserved source,
        and (-1, None) when ``nid`` is not filed."""
        if 0 < nid <= self._reserved:
            return -1, (self._sources[nid - 1] if self._src_filed[nid] else None)
        r = self._row(nid)
        if r < 0:
            return r, None
        start = self._start[r]
        return r, self._lits[start : start + self._len[r]]

    def _file(self, nid: int, left: int, right: int, pivot: int, lits: Collection[Literal]) -> None:
        """Append a row for node ``nid``, an id ``_claim_id`` has passed,
        with ``lits`` in the order given, and file the reserved sources
        among its premises.  The one place that refuses an id below the
        highest id filed.  A literal, premise or pivot the columns cannot
        hold raises ValueError, and one that is not an int TypeError;
        either way the columns drop what they took of the row."""
        if nid < self._next_id:
            raise ValueError(
                "node id %d must exceed %d, the highest id filed before it" % (nid, self._next_id - 1)
            )
        arena = self._lits
        end = len(arena)
        try:
            if _NONE in lits:  # the arena takes -2**31 itself
                raise OverflowError
            arena.extend(lits)
            self._ids.append(nid)
            self._left.append(left)
            self._right.append(right)
            self._pivot.append(pivot)
        except (OverflowError, TypeError) as exc:
            del arena[end:]
            rows = len(self._start)  # appended to only after the four above
            for column in self._columns()[:4]:
                del column[rows:]
            if isinstance(exc, TypeError):
                raise
            raise ValueError("node %d holds a value beyond +-%d" % (nid, _MAX)) from None
        self._start.append(end)
        self._len.append(len(arena) - end)
        self._live.append(1)
        self._next_id = nid + 1
        if self._reserved >= left > 0:  # file the step's new sources
            self._src_filed[left] = 1
        if self._reserved >= right > 0:
            self._src_filed[right] = 1

    def _unfile_row(self, r: int) -> None:
        self._derived = False
        self._live[r] = 0
        self._dead += 1
        if self._dead >= _COMPACT_MIN and 2 * self._dead > len(self._live):
            self._keep_rows(self, self._live, pack=True)

    def _keep_rows(self, graph: "RefutationGraph", mask: bytearray, pack: bool) -> None:
        """Replace this graph's rows with the rows of ``graph`` that ``mask``
        selects.  With ``pack``, as when a graph compacts itself the way a
        clause allocator reclaims deleted clauses, their literals move to a
        new arena.  Without, the two graphs share ``graph``'s arena, which
        is safe because a graph only ever appends to its arena."""
        ids, left, right, pivot, starts, lens = (
            array("i", compress(column, mask)) for column in graph._columns()
        )
        arena = graph._lits
        if pack:
            old, arena = arena, array("i")
            for start, n in zip(starts, lens):
                arena += old[start : start + n]
            starts = array("i", accumulate(lens, initial=0))
            del starts[-1]
        self._ids, self._left, self._right, self._pivot = ids, left, right, pivot
        self._start, self._len, self._lits = starts, lens, arena
        self._live = bytearray(b"\x01") * len(ids)
        self._dead = 0

    # -- construction -----------------------------------------------------

    def _claim_id(self, wanted: Optional[int]) -> int:
        """``wanted`` (the next id for None) as a new node's id, refused when
        it is not positive, already used or beyond the columns.  An unused
        id below the highest id filed passes here and is refused by
        ``_file``, so that ``add_node`` and ``parse_trace`` name a faulty
        step's own rule first."""
        if wanted is None:
            wanted = self._next_id
        elif wanted < 1:
            raise ValueError("node id must be positive")
        elif wanted < self._next_id and (wanted <= self._reserved or self._row(wanted) >= 0):
            raise ValueError("node id %d already used" % wanted)
        if wanted > _MAX:
            raise ValueError("node id %d exceeds %d" % (wanted, _MAX))
        return wanted

    def add_source(self, clause: Clause, node_id: Optional[int] = None) -> int:
        """Append a source node; its id is the id of the formula clause it
        mirrors.  Raises ValueError if the id is taken, out of range, or
        below an id already filed."""
        nid = self._claim_id(node_id)
        self._file(nid, _NONE, _NONE, _NONE, clause)
        return nid

    def _file_derived(
        self, left_id: int, right_id: int, pivot_var: Variable, node_id: Optional[int]
    ) -> Tuple[int, Set[Literal]]:
        """The checked filing step of ``add_node`` and ``parse_trace``: claim
        the id, read the premises, derive the resolvent by the rules of
        ``_derive`` and file it, keeping the ``_derived`` mark.  Returns the
        id and the derived literal set."""
        nid = self._claim_id(node_id)
        reserved, sources, locate = self._reserved, self._sources, self._locate
        try:  # a reserved source is read even before it is filed
            left = sources[left_id - 1] if 0 < left_id <= reserved else locate(left_id)[1]
            right = sources[right_id - 1] if 0 < right_id <= reserved else locate(right_id)[1]
        except TypeError:  # an id that is not an int names no node
            left = right = None
        lits = _derive(nid, left_id, right_id, pivot_var, left, right)
        self._file(nid, left_id, right_id, pivot_var, lits)
        return nid, lits

    def add_node(
        self,
        left_id: int,
        right_id: int,
        pivot_var: Variable,
        node_id: Optional[int] = None,
    ) -> int:
        """Append the resolvent of two existing or reserved nodes on pivot_var.

        The premises may be passed in either polarity order; the clause with
        the positive pivot occurrence is used as the positive side.  Raises
        ValueError if the id is taken or out of range, the step breaks a
        rule of ``_derive``, or the id is below an id already filed.
        """
        return self._file_derived(left_id, right_id, pivot_var, node_id)[0]

    def add_resolvent(
        self, left_id: int, right_id: int, pivot_var: Variable, lits: Collection[Literal],
        node_id: Optional[int] = None,
    ) -> int:
        """``add_node`` for a caller that has computed the resolvent's
        literals ``lits`` itself, as a solver holding both premises' does:
        the rules of ``_derive`` are not checked, only the id and the
        columns' range, which excludes ``_NONE``.  Returns the id."""
        if node_id is None and self._next_id <= _MAX:
            nid = self._next_id  # above every id filed, so free
        else:
            nid = self._claim_id(node_id)
        if left_id == _NONE or right_id == _NONE or pivot_var == _NONE:  # the columns' mark for None
            lits = (_NONE,)  # so _file refuses the row as beyond range, after the id
        self._file(nid, left_id, right_id, pivot_var, lits)
        self._derived = False
        return nid

    def prune(self, node_id: int) -> Optional[Tuple[int, int]]:
        """Unfile resolvent ``node_id`` and return its premises; None, and
        no change, when ``node_id`` is not a filed resolvent."""
        try:
            r = self._row(node_id) if node_id > self._reserved else -1
        except TypeError:  # an id that is not an int names no node
            return None
        if r < 0 or self._left[r] == _NONE:
            return None
        premises = self._left[r], self._right[r]
        self._unfile_row(r)
        return premises

    # -- access -----------------------------------------------------------

    def _read(self, node_id: object) -> Tuple[int, Sequence[Literal]]:
        """``_locate`` for a filed node: raises KeyError naming ``node_id``
        when it is not one, or not an int."""
        r, lits = self._locate(node_id) if isinstance(node_id, int) else (-1, None)
        if lits is None:
            raise KeyError("no node with id %r" % (node_id,))
        return r, lits

    def node(self, node_id: int) -> ProofNode:
        """Node ``node_id``, built from the columns on each read."""
        r, lits = self._read(node_id)
        if r < 0:
            return ProofNode(node_id, self._sources[node_id - 1])
        left, right, pivot = (
            None if v == _NONE else v for v in (self._left[r], self._right[r], self._pivot[r])
        )
        return ProofNode(node_id, Clause._trusted(lits), left, right, pivot)

    def literals(self, node_id: int) -> Tuple[Literal, ...]:
        """The literals of node ``node_id``, in ``Clause`` order."""
        return tuple(sorted(self._read(node_id)[1], key=abs))

    def __contains__(self, node_id: object) -> bool:
        try:
            self._read(node_id)
        except KeyError:
            return False
        return True

    def node_ids(self) -> List[int]:
        """The filed ids, ascending."""
        return [*compress(range(self._reserved + 1), self._src_filed), *compress(self._ids, self._live)]

    def __len__(self) -> int:
        return self._src_filed.count(1) + len(self._live) - self._dead

    @property
    def size(self) -> int:
        """Number of resolvent (non-source) nodes."""
        return sum(compress(map(_NONE.__ne__, self._left), self._live))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefutationGraph):
            return NotImplemented
        ids = self.node_ids()
        return ids == other.node_ids() and all(self.node(k) == other.node(k) for k in ids)

    # -- derivations ------------------------------------------------------

    def extract_derivation(self, node_id: int) -> "RefutationGraph":
        """Subgraph of everything reachable from node_id, ids preserved.
        It shares this graph's reserved sources and literal arena.  A
        malformed graph can reference premises that were never added; the
        checker reports those, so the walk just skips them."""
        self.node(node_id)
        sub = RefutationGraph()
        sub._sources, sub._reserved = self._sources, self._reserved
        sub._src_filed = bytearray(len(self._src_filed))
        rows = bytearray(len(self._live))
        stack = [node_id]
        while stack:
            nid = stack.pop()
            if 0 < nid <= self._reserved:
                sub._src_filed[nid] = self._src_filed[nid]
                continue
            r = self._row(nid)
            if r < 0 or rows[r]:
                continue
            rows[r] = 1
            if self._left[r] != _NONE:
                stack += (self._left[r], self._right[r])
        sub._keep_rows(self, rows, pack=False)
        sub._derived = False
        sub._next_id = max(sub._ids[-1] if sub._ids else 0, sub._reserved) + 1
        return sub


def init_refutation(formula: Formula) -> RefutationGraph:
    """An empty graph reserving ids 1..m for the formula's m clauses, each
    filed as its source when ``add_node`` or ``add_resolvent`` first uses
    it as a premise; resolvent ids start at m + 1."""
    graph = RefutationGraph()
    graph._sources, graph._reserved = formula.clauses, len(formula.clauses)
    graph._src_filed = bytearray(graph._reserved + 1)
    graph._next_id = graph._reserved + 1
    return graph


def check_refutation(graph: RefutationGraph, formula: Formula) -> CheckReport:
    """Validate a derivation against its formula.

    valid: every source obeys the rules of ``_source`` and every resolvent
    those of ``_derive``, with its stored literals equal to the recomputed
    resolvent; each broken rule is recorded as ``node N: <message>``, in
    the wording ``parse_trace`` raises.  A graph still marked ``_derived``
    had every resolvent derived by those rules as it was filed, so only its
    sources are checked; one that ``add_resolvent`` filed unchecked (the
    solver's, or a broken graph forged through it) is re-derived in full.
    complete: the empty clause is present.  tree_like / regular are judged
    within the derivation of the sink -- the lowest empty-clause node when
    complete, else the highest-id node.  size counts resolvent nodes in the
    whole graph.
    """
    problems: List[str] = []
    size = 0
    empty_id: Optional[int] = None
    last: Optional[int] = None
    locate, lefts, ids, reserved = graph._locate, graph._left, graph._ids, graph._reserved
    trusted = graph._derived  # then no row is dead, and premises precede
    # The rows of the premises of each resolvent row, or -1; a reserved
    # source premise reads -1.
    left_rows = array("i", [-1]) * len(lefts)
    right_rows = array("i", left_rows)
    for r, nid, left, right, pivot, lits in graph._records():
        last = nid
        if empty_id is None and not lits:
            empty_id = nid
        try:
            if left == _NONE:
                _source(formula, nid, set(lits))
                continue
            size += 1
            if trusted:
                left_rows[r] = bisect_left(ids, left, 0, r) if left > reserved else -1
                right_rows[r] = bisect_left(ids, right, 0, r) if right > reserved else -1
                continue
            (left_rows[r], left_lits), (right_rows[r], right_lits) = locate(left), locate(right)
            derived = _derive(nid, left, right, pivot, left_lits, right_lits)
            if not _same_literals(derived, lits):
                raise ValueError("literals differ from recomputed resolvent")
        except ValueError as exc:
            problems.append("node %d: %s" % (nid, exc))
    valid = not problems
    complete = empty_id is not None

    # The derivation is every resolvent reachable from the sink, found by
    # a walk over the rows; ``uses`` counts the premise slots of derivation
    # nodes each fills (1 marks the sink, 2 one slot, 3 more), and a
    # resolvent filling two breaks tree-likeness.  The ascending pass then
    # gives each resolvent the pivots at or below it, a bitmask with one
    # bit per distinct pivot, numbered in first-seen order; a pivot already
    # at or below a premise puts the same pivot twice on a path.  Rows are
    # in id order, which is topological, so a premise contributes its mask
    # only when its row is lower than the node's; a mask used once is
    # dropped when used.  Sources fill no bit and are skipped.
    uses = bytearray(len(lefts))
    sink = locate(empty_id if complete else last)[0] if last is not None else -1
    stack = [sink] if sink >= 0 and lefts[sink] != _NONE else []
    if stack:
        uses[sink] = 1
    while stack:
        r = stack.pop()
        for premise in (left_rows[r], right_rows[r]):
            if premise < 0 or lefts[premise] == _NONE:
                continue
            if not uses[premise]:
                uses[premise] = 2
                stack.append(premise)
            elif uses[premise] < 3:
                uses[premise] += 1
    tree_like = regular = True
    bit_of: Dict[int, int] = {}
    mask_of: Dict[int, int] = {}
    pivots = graph._pivot
    for r in compress(range(len(uses)), uses):
        if uses[r] == 3:
            tree_like = False
        mask = 0
        for premise in (left_rows[r], right_rows[r]):
            if 0 <= premise < r and uses[premise]:
                mask |= mask_of[premise] if uses[premise] == 3 else mask_of.pop(premise)
        bit = bit_of.setdefault(pivots[r], 1 << len(bit_of))
        if mask & bit:
            regular = False
        mask_of[r] = mask | bit
    return CheckReport(
        valid=valid,
        complete=complete,
        tree_like=tree_like,
        regular=regular,
        size=size,
        problems=problems,
    )


def _trace_blocks(graph: RefutationGraph) -> Iterator[str]:
    def lines() -> Iterator[str]:
        yield "p trace\n"
        for _, nid, left, right, pivot, lits in graph._records():
            # A source row is filed in Clause order already.
            text = " ".join(map(str, lits if left == _NONE else sorted(lits, key=abs)))
            if left == _NONE:
                head = "o %d" % nid
            else:
                head = "r %d %d %d %d" % (nid, pivot, left, right)
            yield ("%s %s 0\n" % (head, text)) if text else ("%s 0\n" % head)

    return _blocks(lines())


def export_trace(graph: RefutationGraph) -> str:
    return "".join(_trace_blocks(graph))


def parse_trace(text: str, formula: Formula) -> RefutationGraph:
    """Parse a trace and revalidate every record.

    Errors, each prefixed with ``line N: ``: a missing header, an unknown
    or unterminated record, a non-integer token, a record too short for its
    kind, a zero literal, an 'o' record that breaks a rule of ``_source``,
    reuses an id or comes below an id already filed, an 'r' record that
    ``add_node`` rejects, a value the graph's columns cannot hold, and an
    'r' record whose literals differ from the recomputed resolvent.  Each
    'r' record is derived and filed once, by ``add_node``'s own step, and
    the graph stays marked ``_derived``.
    """
    graph = RefutationGraph()
    file_derived = graph._file_derived
    header_seen = False
    for line_no, raw in enumerate(_lines(text), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "c":
            continue
        try:
            if not header_seen:
                if raw.strip() != "p trace":
                    raise ValueError("expected 'p trace' header")
                header_seen = True
                continue
            kind = tokens[0]
            if kind not in ("o", "r"):
                raise ValueError("unknown record %r" % kind)
            if tokens[-1] != "0":
                raise ValueError("record not terminated by 0")
            try:
                numbers = list(map(int, tokens[1:-1]))
            except ValueError:
                raise ValueError("non-integer token") from None
            if kind == "o":
                if len(numbers) < 1:
                    raise ValueError("source record needs an id")
                if len(numbers) == 1:
                    raise ValueError("source clause is empty")
                lits = set(numbers[1:])
            else:
                if len(numbers) < 4:
                    raise ValueError("resolvent record needs id, pivot and two premises")
                lits = set(numbers[4:])
            if 0 in lits:
                raise ValueError("literal must be a nonzero integer, got 0")
            if kind == "o":
                graph.add_source(_source(formula, numbers[0], lits), numbers[0])
                continue
            nid, pivot_var, left_id, right_id = numbers[:4]
            if file_derived(left_id, right_id, pivot_var, nid)[1] != lits:
                raise ValueError("literals differ from recomputed resolvent")
        except ValueError as exc:
            raise ValueError("line %d: %s" % (line_no, exc)) from None
    if not header_seen:
        raise ValueError("missing 'p trace' header")
    return graph


def _dot_blocks(graph: RefutationGraph) -> Iterator[str]:
    def lines() -> Iterator[str]:
        read = graph._read
        yield "digraph refutation {\n  rankdir=BT;\n"
        for _, nid, left, _, _, lits in graph._records():
            source = left == _NONE  # a source row is filed in Clause order already
            label = " ".join(map(str, lits if source else sorted(lits, key=abs))) or "empty"
            shape = "box" if source else "ellipse"
            yield '  n%d [label="%s", shape=%s];\n' % (nid, label, shape)
        for _, nid, left, right, pivot, _ in graph._records():
            if left == _NONE:
                continue
            for premise in (left, right):
                lits = read(premise)[1]  # KeyError if not filed
                edge_lit = -pivot if pivot in lits else pivot
                yield '  n%d -> n%d [label="%d"];\n' % (premise, nid, edge_lit)
        yield "}\n"

    return _blocks(lines())


def export_dot(graph: RefutationGraph) -> str:
    """Graphviz rendering: premise-to-resolvent edges, each labelled with
    the pivot literal as it occurs in the *other* premise (the polarity the
    edge's source clause lacks)."""
    return "".join(_dot_blocks(graph))
