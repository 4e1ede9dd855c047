"""Resolution derivations: construction, checking, and interchange formats.

A RefutationGraph is an append-only DAG.  Source nodes mirror the clauses
of a formula (node id = 1-based clause id); every other node is a resolvent
with two premise links and a pivot variable.  Node ids only grow, so a
premise always has a smaller id than the node using it.

Trace format (line oriented):

    p trace
    o <id> <lit> ... <lit> 0            source clause
    r <id> <pivot> <left> <right> <lit> ... <lit> 0   resolvent

<pivot> is a positive variable.  A derivation is complete when it contains
an 'r' record with an empty literal list (the empty clause).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set

from .cnf import Clause, Formula, Literal, Variable, _tautological


class ProofNode(NamedTuple):
    """One node of a RefutationGraph: a source clause (no premises) or the
    resolvent of nodes ``left`` and ``right`` on ``pivot``."""

    id: int
    clause: Clause
    left: Optional[int] = None
    right: Optional[int] = None
    pivot: Optional[Variable] = None
    source_index: Optional[int] = None

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


def resolve(d1: Clause, d2: Clause, v: Variable) -> Clause:
    """Resolvent of d1 and d2 on pivot v, requiring +v in d1 and -v in d2."""
    if v not in d1._lits or -v not in d2._lits:
        raise ValueError(
            "pivot %d must occur positively in the first clause and negatively"
            " in the second" % v
        )
    return Clause._trusted(_resolvent_set(d1._lits, d2._lits, v))


class RefutationGraph:
    """Append-only resolution DAG with 1-based node ids."""

    def __init__(self) -> None:
        self.nodes: Dict[int, ProofNode] = {}
        self._next_id = 1

    # -- construction -----------------------------------------------------

    def _claim_id(self, wanted: Optional[int] = None) -> int:
        if wanted is None:
            nid = self._next_id
        else:
            if wanted < 1:
                raise ValueError("node id must be positive")
            if wanted in self.nodes:
                raise ValueError("node id %d already in use" % wanted)
            nid = wanted
        self._next_id = max(self._next_id, nid + 1)
        return nid

    def add_source(self, clause: Clause, source_index: int, node_id: Optional[int] = None) -> int:
        nid = self._claim_id(node_id)
        self.nodes[nid] = ProofNode(nid, clause, source_index=source_index)
        return nid

    def add_node(
        self,
        left_id: int,
        right_id: int,
        pivot_var: Variable,
        node_id: Optional[int] = None,
    ) -> int:
        """Append the resolvent of two existing nodes on pivot_var.

        The premises may be passed in either polarity order; the clause with
        the positive pivot occurrence is used as the positive side.  Raises
        if the pivot is not a positive variable, does not clash or gives a
        tautological resolvent.
        """
        nodes = self.nodes
        try:
            left = nodes[left_id]
            right = nodes[right_id]
        except KeyError as exc:
            raise KeyError("no node with id %r" % (exc.args[0],)) from None
        if pivot_var < 1:
            raise ValueError("pivot must be a positive variable, got %d" % pivot_var)
        lits = _oriented_set(left.clause._lits, right.clause._lits, pivot_var)
        if _tautological(lits):
            raise ValueError(
                "resolvent of %d and %d on %d is tautological"
                % (left_id, right_id, pivot_var)
            )
        if node_id is not None and node_id <= max(left_id, right_id):
            raise ValueError("resolvent id must exceed its premise ids")
        nid = self._claim_id(node_id)
        self.nodes[nid] = ProofNode(nid, Clause._trusted(lits), left_id, right_id, pivot_var)
        return nid

    # -- access -----------------------------------------------------------

    def node(self, node_id: int) -> ProofNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError("no node with id %r" % (node_id,)) from None

    def node_ids(self) -> List[int]:
        return sorted(self.nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def size(self) -> int:
        """Number of resolvent (non-source) nodes."""
        return sum(1 for n in self.nodes.values() if not n.is_source)

    def empty_clause_id(self) -> Optional[int]:
        empties = [nid for nid, n in self.nodes.items() if len(n.clause) == 0]
        return min(empties) if empties else None

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
            sub.nodes[nid] = self.nodes[nid]
            sub._next_id = max(sub._next_id, nid + 1)
        return sub


def init_refutation(formula: Formula) -> RefutationGraph:
    """One source node per formula clause, ids matching clause ids."""
    graph = RefutationGraph()
    for cid in formula.ids():
        graph.add_source(formula.clause(cid), cid, node_id=cid)
    return graph


def check_refutation(graph: RefutationGraph, formula: Formula) -> CheckReport:
    """Validate a derivation against its formula.

    valid: every source matches its formula clause and every resolvent
    re-derives (non-tautologically) from its premises on a pivot that is a
    positive variable.  complete: the empty clause is present.  tree_like /
    regular are judged within the derivation of the sink -- the lowest
    empty-clause node when complete, else the highest-id node.  size counts
    resolvent nodes in the whole graph.
    """
    problems: List[str] = []
    nodes = graph.nodes
    size = 0
    empty_id: Optional[int] = None
    for nid in sorted(nodes):
        node = nodes[nid]
        if empty_id is None and not node.clause:
            empty_id = nid
        if node.is_source:
            if node.source_index is None:
                problems.append("node %d: source without clause index" % nid)
                continue
            try:
                expected = formula.clause(node.source_index)
            except KeyError:
                problems.append(
                    "node %d: source index %d not in formula" % (nid, node.source_index)
                )
                continue
            if expected != node.clause:
                problems.append(
                    "node %d: clause differs from formula clause %d"
                    % (nid, node.source_index)
                )
            continue
        size += 1
        if node.left not in nodes or node.right not in nodes:
            problems.append("node %d: missing premise" % nid)
            continue
        if node.left >= nid or node.right >= nid:
            problems.append("node %d: premise does not precede it" % nid)
            continue
        if not _pivot_bit(node):
            problems.append(
                "node %d: pivot %r is not a positive variable" % (nid, node.pivot)
            )
            continue
        try:
            derived = _oriented_set(
                nodes[node.left].clause._lits, nodes[node.right].clause._lits, node.pivot
            )
        except ValueError as exc:
            problems.append("node %d: %s" % (nid, exc))
            continue
        if _tautological(derived):
            problems.append("node %d: tautological resolvent" % nid)
            continue
        if not _same_literals(derived, node.clause):
            problems.append(
                "node %d: stored clause differs from recomputed resolvent" % nid
            )
    valid = not problems
    complete = empty_id is not None
    if nodes:
        derivation = graph.reachable_from(empty_id if complete else max(nodes))
    else:
        derivation = set()

    # Within the derivation, a resolvent used as a premise twice breaks
    # tree-likeness.  A node's "pivots below" is the set of pivots reachable
    # through its premises; repeating one of them at the node itself puts
    # the same pivot twice on a path.  Ids are topologically ordered, so one
    # ascending pass suffices; the sets are kept as variable-indexed
    # bitmasks.
    tree_like = regular = True
    used: Set[int] = set()
    below: Dict[int, int] = {}
    for nid in sorted(derivation):
        node = nodes[nid]
        if node.is_source:
            below[nid] = 0
            continue
        mask = 0
        for premise in (node.left, node.right):
            premise_node = nodes.get(premise)
            if premise_node is None:  # dangling ids were reported above
                continue
            if not premise_node.is_source:
                if premise in used:
                    tree_like = False
                used.add(premise)
            mask |= below.get(premise, 0) | _pivot_bit(premise_node)
        if mask & _pivot_bit(node):
            regular = False
        below[nid] = mask
    return CheckReport(
        valid=valid,
        complete=complete,
        tree_like=tree_like,
        regular=regular,
        size=size,
        problems=problems,
    )


def _pivot_bit(node: ProofNode) -> int:
    """The node's pivot as a variable-indexed bit; 0 for a source, and for a
    pivot that is not a positive variable."""
    p = node.pivot
    return (1 << p) if isinstance(p, int) and p > 0 else 0


def export_trace(graph: RefutationGraph) -> str:
    lines = ["p trace"]
    nodes = graph.nodes
    for nid in sorted(nodes):
        node = nodes[nid]
        lits = " ".join(map(str, node.clause))
        if node.is_source:
            body = ("o %d %s 0" % (nid, lits)) if lits else ("o %d 0" % nid)
        else:
            head = "r %d %d %d %d" % (nid, node.pivot, node.left, node.right)
            body = ("%s %s 0" % (head, lits)) if lits else ("%s 0" % head)
        lines.append(body)
    return "\n".join(lines) + "\n"


def parse_trace(text: str, formula: Formula) -> RefutationGraph:
    """Parse a trace and revalidate every record.

    Errors, each naming its line: missing header, id reuse, a premise id
    that has not appeared yet, a record without its terminating 0, a zero
    or tautological literal list, an 'o' record whose literals differ from
    the formula clause of the same id, an 'r' record whose pivot is not a
    positive variable or does not clash, and an 'r' record whose literals
    differ from the recomputed resolvent.
    """
    graph = RefutationGraph()
    nodes = graph.nodes
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if not header_seen:
            if line != "p trace":
                raise ValueError("line %d: expected 'p trace' header" % line_no)
            header_seen = True
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind not in ("o", "r"):
            raise ValueError("line %d: unknown record %r" % (line_no, kind))
        if tokens[-1] != "0":
            raise ValueError("line %d: record not terminated by 0" % line_no)
        try:
            numbers = list(map(int, tokens[1:-1]))
        except ValueError:
            raise ValueError("line %d: non-integer token" % line_no)
        if kind == "o":
            if len(numbers) < 1:
                raise ValueError("line %d: source record needs an id" % line_no)
            if len(numbers) == 1:
                raise ValueError("line %d: source clause is empty" % line_no)
            nid = numbers[0]
            lits = set(numbers[1:])
        else:
            if len(numbers) < 4:
                raise ValueError(
                    "line %d: resolvent record needs id, pivot and two premises"
                    % line_no
                )
            nid, pivot_var, left_id, right_id = numbers[:4]
            lits = set(numbers[4:])
        if 0 in lits:
            raise ValueError(
                "line %d: literal must be a nonzero integer, got 0" % line_no
            )
        if _tautological(lits):
            raise ValueError("line %d: tautological clause" % line_no)
        if kind == "o":
            try:
                expected = formula.clause(nid)
            except KeyError:
                raise ValueError(
                    "line %d: no formula clause with id %d" % (line_no, nid)
                )
            if not _same_literals(lits, expected):
                raise ValueError(
                    "line %d: literals differ from formula clause %d" % (line_no, nid)
                )
            if nid in nodes:
                raise ValueError("line %d: node id %d already used" % (line_no, nid))
            graph.add_source(expected, nid, node_id=nid)
        else:
            if left_id not in nodes or right_id not in nodes:
                raise ValueError(
                    "line %d: premise id not defined earlier" % line_no
                )
            if nid in nodes:
                raise ValueError("line %d: node id %d already used" % (line_no, nid))
            try:
                new_id = graph.add_node(left_id, right_id, pivot_var, node_id=nid)
            except ValueError as exc:
                raise ValueError("line %d: %s" % (line_no, exc)) from None
            if not _same_literals(lits, nodes[new_id].clause):
                raise ValueError(
                    "line %d: literals differ from recomputed resolvent" % line_no
                )
    if not header_seen:
        raise ValueError("missing 'p trace' header")
    return graph


def export_dot(graph: RefutationGraph) -> str:
    """Graphviz rendering: premise-to-resolvent edges, each labelled with
    the pivot literal as it occurs in the *other* premise (the polarity the
    edge's source clause lacks)."""
    lines = ["digraph refutation {", "  rankdir=BT;"]
    for nid in graph.node_ids():
        node = graph.nodes[nid]
        label = " ".join(map(str, node.clause)) or "empty"
        shape = "box" if node.is_source else "ellipse"
        lines.append('  n%d [label="%s", shape=%s];' % (nid, label, shape))
    for nid in graph.node_ids():
        node = graph.nodes[nid]
        if node.is_source:
            continue
        for premise in (node.left, node.right):
            premise_clause = graph.nodes[premise].clause
            edge_lit = -node.pivot if node.pivot in premise_clause else node.pivot
            lines.append('  n%d -> n%d [label="%d"];' % (premise, nid, edge_lit))
    lines.append("}")
    return "\n".join(lines) + "\n"
