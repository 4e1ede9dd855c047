"""Resolution derivations: construction, checking, and interchange formats.

A RefutationGraph is a DAG.  Source nodes mirror the clauses of a formula
(node id = 1-based clause id; a graph from ``init_refutation`` files each on
its first use); every other node is a resolvent with two premise links and a
pivot variable.  Node ids only grow, so a premise always has a smaller id
than the node using it.

Trace format (line oriented):

    p trace
    o <id> <lit> ... <lit> 0            source clause
    r <id> <pivot> <left> <right> <lit> ... <lit> 0   resolvent

<pivot> is a positive variable.  A derivation is complete when it contains
an 'r' record with an empty literal list (the empty clause).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set

from .cnf import Clause, Formula, Literal, Variable, _tautological


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


def _same_literals(lits: Set[Literal], clause: Clause) -> bool:
    """True when a set of literals holds exactly the clause's literals."""
    return len(lits) == len(clause._lits) and lits.issuperset(clause._lits)


def _derive(
    nodes: Dict[int, ProofNode], nid: int, left: int, right: int, pivot: Variable
) -> Set[Literal]:
    """The literal set of resolvent ``nid`` of ``left`` and ``right`` on
    ``pivot``: the one rule set for a resolution step, shared by
    ``add_node``, ``parse_trace`` and ``check_refutation``.  Raises
    ValueError naming the first rule the step breaks."""
    if left not in nodes or right not in nodes:
        raise ValueError("premise id not defined earlier")
    if not isinstance(pivot, int) or pivot < 1:
        raise ValueError("pivot must be a positive variable, got %r" % (pivot,))
    lits = _oriented_set(nodes[left].clause._lits, nodes[right].clause._lits, pivot)
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
    """Resolution DAG with 1-based node ids."""

    def __init__(self) -> None:
        self.nodes: Dict[int, ProofNode] = {}
        self._next_id = 1
        self._sources: Sequence[Clause] = ()
        self._reserved = 0  # ids 1.._reserved: _sources' clauses, filed on first use

    # -- construction -----------------------------------------------------

    def _claim_id(self, wanted: Optional[int]) -> int:
        if wanted is None:
            wanted = self._next_id
        elif wanted < 1:
            raise ValueError("node id must be positive")
        if wanted in self.nodes or wanted <= self._reserved:
            raise ValueError("node id %d already used" % wanted)
        return wanted

    def _premise(self, nid: int) -> Optional[ProofNode]:
        """Node ``nid``, or the unfiled source reserved for it."""
        node = self.nodes.get(nid)
        if node is None and isinstance(nid, int) and 0 < nid <= self._reserved:
            node = ProofNode(nid, self._sources[nid - 1])
        return node

    def _store(self, node: ProofNode) -> int:
        self.nodes[node.id] = node
        self._next_id = max(self._next_id, node.id + 1)
        return node.id

    def add_source(self, clause: Clause, node_id: Optional[int] = None) -> int:
        """Append a source node; its id is the id of the formula clause it
        mirrors."""
        return self._store(ProofNode(self._claim_id(node_id), clause))

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
        ValueError if the id is taken or the step breaks a rule of
        ``_derive``.
        """
        nid = self._claim_id(node_id)
        nodes = self.nodes
        if left_id not in nodes or right_id not in nodes:
            nodes = {p: node for p in (left_id, right_id) if (node := self._premise(p))}
        lits = _derive(nodes, nid, left_id, right_id, pivot_var)
        if nodes is not self.nodes:
            self.nodes.update(nodes)  # the step holds: file its new sources
        # File the premises' own id objects, not the caller's copies.
        left, right = nodes[left_id].id, nodes[right_id].id
        return self._store(ProofNode(nid, Clause._trusted(lits), left, right, pivot_var))

    # -- access -----------------------------------------------------------

    def node(self, node_id: int) -> ProofNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError("no node with id %r" % (node_id,)) from None

    def node_ids(self) -> List[int]:
        return sorted(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def size(self) -> int:
        """Number of resolvent (non-source) nodes."""
        return sum(1 for n in self.nodes.values() if not n.is_source)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefutationGraph):
            return NotImplemented
        return self.nodes == other.nodes

    # -- derivations ------------------------------------------------------

    def reachable_from(self, node_id: int) -> Set[int]:
        self.node(node_id)
        seen: Set[int] = set()
        stack = [node_id]
        while stack:
            nid = stack.pop()
            # A malformed graph can reference premises that were never
            # added; the checker reports those, so the walk just skips them.
            if nid in seen or nid not in self.nodes:
                continue
            seen.add(nid)
            node = self.nodes[nid]
            if not node.is_source:
                stack.append(node.left)
                stack.append(node.right)
        return seen

    def extract_derivation(self, node_id: int) -> "RefutationGraph":
        """Subgraph of everything reachable from node_id, ids preserved."""
        sub = RefutationGraph()
        for nid in sorted(self.reachable_from(node_id)):
            sub._store(self.nodes[nid])
        return sub


def init_refutation(formula: Formula) -> RefutationGraph:
    """An empty graph reserving ids 1..m for the formula's m clauses, each
    filed as its source when ``add_node`` first uses it; resolvent ids start at m + 1."""
    graph = RefutationGraph()
    graph._sources, graph._reserved = formula.clauses, len(formula.clauses)
    graph._next_id = graph._reserved + 1
    return graph


def check_refutation(graph: RefutationGraph, formula: Formula) -> CheckReport:
    """Validate a derivation against its formula.

    valid: every source obeys the rules of ``_source`` and every resolvent
    those of ``_derive``, with its stored literals equal to the recomputed
    resolvent; each broken rule is recorded as ``node N: <message>``, in
    the wording ``parse_trace`` raises.  complete: the empty clause is
    present.  tree_like / regular are judged within the derivation of the
    sink -- the lowest empty-clause node when complete, else the highest-id
    node.  size counts resolvent nodes in the whole graph.
    """
    problems: List[str] = []
    nodes = graph.nodes
    order = sorted(nodes)
    size = 0
    empty_id: Optional[int] = None
    for nid in order:
        node = nodes[nid]
        if empty_id is None and not node.clause:
            empty_id = nid
        try:
            if node.is_source:
                _source(formula, nid, set(node.clause._lits))
                continue
            size += 1
            derived = _derive(nodes, nid, node.left, node.right, node.pivot)
            if not _same_literals(derived, node.clause):
                raise ValueError("literals differ from recomputed resolvent")
        except ValueError as exc:
            problems.append("node %d: %s" % (nid, exc))
    valid = not problems
    complete = empty_id is not None

    # The derivation is every node reachable from the sink; ``info`` maps
    # each of its ids to the number of premise slots of derivation nodes it
    # fills, and a resolvent filling two breaks tree-likeness.  The
    # ascending pass then replaces each count with the pivots at or below
    # the node, a bitmask with one bit per distinct pivot, numbered in
    # first-seen order; a pivot already at or below a premise puts the same
    # pivot twice on a path.  Ids are topologically ordered, so a premise
    # contributes its mask only when its id is lower than the node's.
    info: Dict[int, int] = {empty_id if complete else order[-1]: 0} if order else {}
    stack = list(info)
    while stack:
        node = nodes[stack.pop()]
        if not node.is_source:
            for premise in (node.left, node.right):
                if premise in info:
                    info[premise] += 1
                elif premise in nodes:  # dangling ids were reported above
                    info[premise] = 1
                    stack.append(premise)
    tree_like = regular = True
    bit_of: Dict[Variable, int] = {}
    for nid in order:
        if nid not in info:
            continue
        node = nodes[nid]
        if node.is_source:
            info[nid] = 0
            continue
        if info[nid] > 1:
            tree_like = False
        mask = 0
        for premise in (node.left, node.right):
            if premise in info and premise < nid:
                mask |= info[premise]
        bit = bit_of.setdefault(node.pivot, 1 << len(bit_of))
        if mask & bit:
            regular = False
        info[nid] = mask | bit
    return CheckReport(
        valid=valid,
        complete=complete,
        tree_like=tree_like,
        regular=regular,
        size=size,
        problems=problems,
    )


def export_trace(graph: RefutationGraph) -> str:
    lines = ["p trace\n"]
    nodes = graph.nodes
    for nid in sorted(nodes):
        node = nodes[nid]
        lits = " ".join(map(str, node.clause))
        if node.is_source:
            head = "o %d" % nid
        else:
            head = "r %d %d %d %d" % (nid, node.pivot, node.left, node.right)
        lines.append(("%s %s 0\n" % (head, lits)) if lits else ("%s 0\n" % head))
    return "".join(lines)


def _lines(text: str, chunk: int = 4096) -> Iterator[str]:
    """``text.splitlines()``, split a piece at a time: each piece ends just
    after the first newline ``chunk`` or more characters in, and no line
    boundary straddles a newline, so the pieces give the same lines."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + chunk) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def parse_trace(text: str, formula: Formula) -> RefutationGraph:
    """Parse a trace and revalidate every record.

    Errors, each prefixed with ``line N: ``: a missing header, an unknown
    or unterminated record, a non-integer token, a record too short for its
    kind, a zero literal, an 'o' record that breaks a rule of ``_source``
    or reuses an id, an 'r' record that ``add_node`` rejects, and an 'r'
    record whose literals differ from the recomputed resolvent.
    """
    graph = RefutationGraph()
    header_seen = False
    for line_no, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            if not header_seen:
                if line != "p trace":
                    raise ValueError("expected 'p trace' header")
                header_seen = True
                continue
            tokens = line.split()
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
            else:
                nid, pivot_var, left_id, right_id = numbers[:4]
                graph.add_node(left_id, right_id, pivot_var, node_id=nid)
                if not _same_literals(lits, graph.nodes[nid].clause):
                    raise ValueError("literals differ from recomputed resolvent")
        except ValueError as exc:
            raise ValueError("line %d: %s" % (line_no, exc)) from None
    if not header_seen:
        raise ValueError("missing 'p trace' header")
    return graph


def export_dot(graph: RefutationGraph) -> str:
    """Graphviz rendering: premise-to-resolvent edges, each labelled with
    the pivot literal as it occurs in the *other* premise (the polarity the
    edge's source clause lacks)."""
    lines = ["digraph refutation {\n", "  rankdir=BT;\n"]
    order = graph.node_ids()
    for nid in order:
        node = graph.nodes[nid]
        label = " ".join(map(str, node.clause)) or "empty"
        shape = "box" if node.is_source else "ellipse"
        lines.append('  n%d [label="%s", shape=%s];\n' % (nid, label, shape))
    for nid in order:
        node = graph.nodes[nid]
        if node.is_source:
            continue
        for premise in (node.left, node.right):
            premise_clause = graph.nodes[premise].clause
            edge_lit = -node.pivot if node.pivot in premise_clause else node.pivot
            lines.append('  n%d -> n%d [label="%d"];\n' % (premise, nid, edge_lit))
    lines.append("}\n")
    return "".join(lines)
