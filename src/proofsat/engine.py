"""Backtracking search engine with on-the-fly resolution bookkeeping.

Three modes share one trail:

* ``sss`` (default): a backtracking search that tags every flipped decision
  with a parent clause and resolves those parents together while
  backtracking, so an unsatisfiable run terminates holding a machine
  checkable refutation of the input.  Four optional features: ``bcp``
  (unit-driven decisions), ``ncb`` (re-seating a flip at the lowest level
  where its parent clause stays viable), ``cdb_1uip`` (substituting the
  unique block variable of the backtracking clause for the block's
  decision), and ``ccr`` (recording backtracking clauses into the
  instance).
* ``dll_strict``: plain chronological backtracking with per-assignment
  clause checking and no proof bookkeeping; ``bcp`` is the only feature
  it supports.
* ``tae``: depth-first enumeration of total assignments, evaluating
  clauses only when every variable is assigned; supports no features.

Verdicts agree across modes; only the work done, and the proof artifacts,
differ.  Decisions count fresh assignments (unit-driven ones included);
flips are never decisions.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

from .cnf import Clause, Formula, Literal, Variable
from .proofs import RefutationGraph, check_refutation, init_refutation

MODE_SSS = "sss"
MODE_DLL = "dll_strict"
MODE_TAE = "tae"
MODES = (MODE_SSS, MODE_DLL, MODE_TAE)

HEUR_ASCENDING = "ascending_false"
HEUR_FIXED = "fixed_order"
HEUR_RANDOM = "random"
HEURISTICS = (HEUR_ASCENDING, HEUR_FIXED, HEUR_RANDOM)

VERDICT_SAT = "SAT"
VERDICT_UNSAT = "UNSAT"


class InvariantViolation(RuntimeError):
    """A debug-mode runtime invariant failed."""


# --------------------------------------------------------------------------
# Step events


@dataclass(frozen=True)
class Decide:
    lit: Literal


@dataclass(frozen=True)
class BcpDecide:
    lit: Literal


@dataclass(frozen=True)
class ConflictFound:
    clause_id: Optional[int]  # None: the pending backtracking clause


@dataclass(frozen=True)
class Flip:
    level: int


@dataclass(frozen=True)
class BacktrackResolve:
    node_id: int


@dataclass(frozen=True)
class BacktrackSkipRight:
    level: int


@dataclass(frozen=True)
class BacktrackSkipLeft:
    level: int


@dataclass(frozen=True)
class NcbJump:
    src: int
    dst: int


@dataclass(frozen=True)
class CdbSubstitute:
    level: int
    var: Variable


@dataclass(frozen=True)
class Record:
    clause_id: int


@dataclass(frozen=True)
class Sat:
    pass


@dataclass(frozen=True)
class Unsat:
    pass


StepEvent = Union[
    Decide,
    BcpDecide,
    ConflictFound,
    Flip,
    BacktrackResolve,
    BacktrackSkipRight,
    BacktrackSkipLeft,
    NcbJump,
    CdbSubstitute,
    Record,
    Sat,
    Unsat,
]


# --------------------------------------------------------------------------
# Configuration, statistics, outcome


@dataclass(frozen=True)
class SolverConfig:
    mode: str = MODE_SSS
    bcp: bool = False
    ncb: bool = False
    ncb_left_adjust: bool = False
    cdb_1uip: bool = False
    ccr: bool = False
    heuristic: str = HEUR_ASCENDING
    order: Tuple[Variable, ...] = ()
    seed: int = 0
    proof_logging: bool = False
    collect_events: bool = False
    debug_checks: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % (self.mode,))
        if self.heuristic not in HEURISTICS:
            raise ValueError("unknown heuristic %r" % (self.heuristic,))
        if self.mode == MODE_TAE:
            for name in ("bcp", "ncb", "ncb_left_adjust", "cdb_1uip", "ccr", "proof_logging"):
                if getattr(self, name):
                    raise ValueError("mode tae does not support %s" % name)
        if self.mode == MODE_DLL:
            for name in ("ncb", "ncb_left_adjust", "cdb_1uip", "ccr", "proof_logging"):
                if getattr(self, name):
                    raise ValueError("mode dll_strict does not support %s" % name)
        if self.ncb_left_adjust and not self.ncb:
            raise ValueError("ncb_left_adjust requires ncb")
        if self.heuristic == HEUR_FIXED:
            if not self.order:
                raise ValueError("fixed_order heuristic needs a variable order")
            if len(set(self.order)) != len(self.order):
                raise ValueError("fixed_order list contains duplicates")
            if any(v < 1 for v in self.order):
                raise ValueError("fixed_order entries must be positive variables")
        elif self.order:
            raise ValueError("order list only makes sense with fixed_order")


@dataclass
class Stats:
    decisions: int = 0
    flips: int = 0
    conflicts: int = 0
    bcp_implications: int = 0
    ncb_jumps: int = 0
    ncb_levels_skipped: int = 0
    cdb_substitutions: int = 0
    recorded_clauses: int = 0
    nodes_added: int = 0
    final_proof_size: int = 0
    pruned_resolution: int = 0
    pruned_ncb: int = 0
    pruned_uip: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class SolveOutcome:
    verdict: str
    stats: Stats
    model: Optional[Dict[Variable, bool]] = None
    proof: Optional[RefutationGraph] = None
    graph: Optional[RefutationGraph] = None
    root: Optional[int] = None
    instance: Optional[Formula] = None
    events: Optional[List[StepEvent]] = None


def verify_model(formula: Formula, model: Dict[Variable, bool]) -> bool:
    """True when every clause holds a literal the model makes true."""
    for cid in formula.ids():
        for lit in formula.clause(cid):
            if model.get(abs(lit)) == (lit > 0):
                break
        else:
            return False
    return True


_NP_BLOCK = -1  # sentinel from _blocking: the backtracking clause itself


class Solver:
    """Single-use solver: construct, then solve() or step() to completion.

    The input formula is copied; with clause recording enabled the copy
    grows and is returned as ``outcome.instance``.
    """

    def __init__(self, formula: Formula, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig()
        self.formula = formula.copy()
        self.n = self.formula.num_vars
        if self.config.heuristic == HEUR_FIXED:
            for v in self.config.order:
                if v > self.n:
                    raise ValueError(
                        "order entry %d exceeds variable count %d" % (v, self.n)
                    )
        self.stats = Stats()
        self.outcome: Optional[SolveOutcome] = None

        # Clause state, indexed by clause id - 1.
        self.clause_lits: List[Tuple[Literal, ...]] = [
            self.formula.clause(cid).literals for cid in self.formula.ids()
        ]
        # The instance's clauses, which hash and compare as literal sets, so
        # recording skips a duplicate in O(1); nothing else reads it.
        self.clause_set: set = set(self.formula.clauses) if self.config.ccr else set()
        self.clause_len: List[int] = [len(lits) for lits in self.clause_lits]
        self.sat_count: List[int] = [0] * len(self.clause_lits)
        self.false_count: List[int] = [0] * len(self.clause_lits)
        # occ_pos[v] / occ_neg[v]: indices of the clauses holding v / -v.
        occ_pos: List[List[int]] = [[] for _ in range(self.n + 1)]
        occ_neg: List[List[int]] = [[] for _ in range(self.n + 1)]
        for i, lits in enumerate(self.clause_lits):
            for lit in lits:
                if lit > 0:
                    occ_pos[lit].append(i)
                else:
                    occ_neg[-lit].append(i)
        self.occ_pos, self.occ_neg = occ_pos, occ_neg
        self.falsified: set = set()  # clause ids
        self.num_sat = 0
        # Candidates for bcp: a min-heap of clause indices with lazy
        # deletion.  A clause is unit-open when it has no true literal and
        # exactly one unassigned one.  Invariant: every unit-open clause is
        # queued (unit_queued[i] set and i in unit_heap).  A queued clause
        # that stops being unit-open stays in the heap until it reaches the
        # top, where _bcp_pick drops it; the flag keeps each clause in the
        # heap at most once.  Clauses become unit-open only in _assign and
        # _unassign, which queue them; input unit clauses start out queued
        # (listed in ascending order, which is already a heap).
        self.unit_heap: List[int] = [i for i, k in enumerate(self.clause_len) if k == 1]
        self.unit_queued = bytearray(len(self.clause_lits))
        for i in self.unit_heap:
            self.unit_queued[i] = 1

        # Trail, indexed by decision level 1..n.
        self.val: List[Optional[bool]] = [None] * (self.n + 1)
        self.level_of: List[int] = [0] * (self.n + 1)
        self.trail_var: List[int] = [0] * (self.n + 1)
        self.trail_val: List[bool] = [False] * (self.n + 1)
        self.trail_flipped: List[bool] = [False] * (self.n + 1)
        self.trail_parent: List[int] = [0] * (self.n + 1)
        self.d = 0

        # Proof bookkeeping (sss only).
        if self.config.mode == MODE_SSS:
            self.graph: Optional[RefutationGraph] = init_refutation(self.formula)
            self.clause_node: List[int] = list(self.formula.ids())
        else:
            self.graph = None
            self.clause_node = []
        self.recorded_nodes: set = set()
        self.pruned_marks: set = set()
        # Resolvents already consumed as a premise.  Each resolvent is
        # consumed at most once, which keeps every backtracking clause
        # derivation a tree as long as no clause is recorded; the debug
        # checks verify the discipline.
        self.consumed: set = set()

        self._rng = (
            random.Random(self.config.seed)
            if self.config.heuristic == HEUR_RANDOM
            else None
        )
        self._events: Optional[Iterator[StepEvent]] = None
        self._collected: List[StepEvent] = []

    # -- public API -------------------------------------------------------

    def solve(self) -> SolveOutcome:
        while self.step() is not None:
            pass
        assert self.outcome is not None
        return self.outcome

    def step(self) -> Optional[StepEvent]:
        """Advance by one event; None once the run has finished."""
        if self._events is None:
            runner = {
                MODE_SSS: self._run_sss,
                MODE_DLL: self._run_dll,
                MODE_TAE: self._run_tae,
            }[self.config.mode]
            self._events = runner()
        try:
            event = next(self._events)
        except StopIteration:
            return None
        if self.config.collect_events:
            self._collected.append(event)
        return event

    # -- assignment machinery --------------------------------------------

    def _assign(self, var: Variable, value: bool, level: int) -> None:
        if self.val[var] is not None:
            raise RuntimeError("variable %d assigned twice" % var)
        self.val[var] = value
        self.level_of[var] = level
        if value:
            true_occ, false_occ = self.occ_pos[var], self.occ_neg[var]
        else:
            true_occ, false_occ = self.occ_neg[var], self.occ_pos[var]
        sat_count = self.sat_count
        newly_sat = 0
        for i in true_occ:
            if not sat_count[i]:
                newly_sat += 1
            sat_count[i] += 1
        self.num_sat += newly_sat
        # After the true occurrences, so a clause holding both v and -v is
        # tested against its final sat count.
        false_count, clause_len = self.false_count, self.clause_len
        queued = self.unit_queued
        for i in false_occ:
            f = false_count[i] + 1
            false_count[i] = f
            rest = clause_len[i] - f
            if not rest:
                self.falsified.add(i + 1)
            elif rest == 1 and not sat_count[i] and not queued[i]:
                queued[i] = 1
                heappush(self.unit_heap, i)

    def _unassign(self, var: Variable) -> None:
        value = self.val[var]
        if value:
            true_occ, false_occ = self.occ_pos[var], self.occ_neg[var]
        else:
            true_occ, false_occ = self.occ_neg[var], self.occ_pos[var]
        sat_count, false_count, clause_len = self.sat_count, self.false_count, self.clause_len
        queued = self.unit_queued
        for i in false_occ:
            f = false_count[i]
            false_count[i] = f - 1
            if f == clause_len[i]:
                # A falsified clause has no true literal, so it is now unit-open.
                self.falsified.discard(i + 1)
                if not queued[i]:
                    queued[i] = 1
                    heappush(self.unit_heap, i)
        # After the false occurrences, so a clause holding both v and -v is
        # tested against its final false count.
        newly_unsat = 0
        for i in true_occ:
            left = sat_count[i] - 1
            sat_count[i] = left
            if not left:
                newly_unsat += 1
                if false_count[i] == clause_len[i] - 1 and not queued[i]:
                    queued[i] = 1
                    heappush(self.unit_heap, i)
        self.num_sat -= newly_unsat
        self.val[var] = None
        self.level_of[var] = 0

    def _push(self, var: Variable, value: bool) -> None:
        self.d += 1
        d = self.d
        self.trail_var[d] = var
        self.trail_val[d] = value
        self.trail_flipped[d] = False
        self.trail_parent[d] = 0
        self._assign(var, value, d)

    def _pop(self) -> None:
        self._unassign(self.trail_var[self.d])
        self.trail_parent[self.d] = 0
        self.d -= 1

    def _flip_top(self) -> None:
        d = self.d
        var = self.trail_var[d]
        new_value = not self.trail_val[d]
        self._unassign(var)
        self._assign(var, new_value, d)
        self.trail_val[d] = new_value
        self.trail_flipped[d] = True

    # -- literal/choice helpers ------------------------------------------

    def _lit_false(self, lit: Literal) -> bool:
        value = self.val[abs(lit)]
        return value is not None and value != (lit > 0)

    def _bcp_pick(self) -> Optional[Tuple[Variable, bool]]:
        """Lowest-id unit-open clause (exactly one unassigned literal and no
        satisfied literal); returns the assignment that falsifies that
        literal, so the clause immediately blocks and becomes the parent
        of the ensuing flip.

        Every unit-open clause is queued in ``unit_heap`` (see __init__), so
        once the stale entries above it are dropped, the heap's top is the
        lowest-id unit-open clause.  The top itself stays queued."""
        heap, queued = self.unit_heap, self.unit_queued
        sat_count, false_count, clause_len = self.sat_count, self.false_count, self.clause_len
        while heap:
            i = heap[0]
            if not sat_count[i] and false_count[i] == clause_len[i] - 1:
                break
            heappop(heap)
            queued[i] = 0
        pick = self._unit_assignment(self.clause_lits[heap[0]]) if heap else None
        if self.config.debug_checks:
            self._check_bcp_pick(pick)
        return pick

    def _unit_assignment(self, lits: Sequence[Literal]) -> Tuple[Variable, bool]:
        """The assignment falsifying the unassigned literal of a unit-open
        clause."""
        for lit in lits:
            if self.val[abs(lit)] is None:
                return (abs(lit), lit < 0)
        raise RuntimeError("unit-open clause has no unassigned literal")

    def _choose_new_literal(self) -> Tuple[Variable, bool, bool]:
        if self.config.bcp:
            pick = self._bcp_pick()
            if pick is not None:
                return (pick[0], pick[1], True)
        heuristic = self.config.heuristic
        if heuristic == HEUR_FIXED:
            for v in self.config.order:
                if self.val[v] is None:
                    return (v, False, False)
        if heuristic == HEUR_RANDOM:
            unassigned = [v for v in range(1, self.n + 1) if self.val[v] is None]
            var = self._rng.choice(unassigned)
            return (var, self._rng.random() < 0.5, False)
        for v in range(1, self.n + 1):
            if self.val[v] is None:
                return (v, False, False)
        raise RuntimeError("no unassigned variable to decide")

    def _blocking(self, np_set: Optional[FrozenSet[Literal]]) -> Optional[int]:
        """The clause falsified by the current prefix, if any: the pending
        backtracking clause takes priority, then the lowest clause id."""
        if np_set is not None and all(self._lit_false(l) for l in np_set):
            return _NP_BLOCK
        if self.falsified:
            return min(self.falsified)
        return None

    # -- mode drivers -----------------------------------------------------

    def _decide(self) -> Iterator[StepEvent]:
        var, value, via_bcp = self._choose_new_literal()
        self._push(var, value)
        lit = var if value else -var
        self.stats.decisions += 1
        if via_bcp:
            self.stats.bcp_implications += 1
            yield BcpDecide(lit)
        else:
            yield Decide(lit)

    def _run_tae(self) -> Iterator[StepEvent]:
        while True:
            if self.d == self.n:
                if not self.falsified:
                    yield from self._finish_sat()
                    return
                yield ConflictFound(min(self.falsified))
                self.stats.conflicts += 1
                while self.d > 0 and self.trail_flipped[self.d]:
                    yield BacktrackSkipRight(self.d)
                    self._pop()
                if self.d == 0:
                    yield from self._finish_unsat(None)
                    return
                self._flip_top()
                self.stats.flips += 1
                yield Flip(self.d)
            else:
                yield from self._decide()

    def _run_dll(self) -> Iterator[StepEvent]:
        total = len(self.clause_lits)
        while True:
            if self.num_sat == total:
                yield from self._finish_sat()
                return
            yield from self._decide()
            while self.falsified:
                yield ConflictFound(min(self.falsified))
                self.stats.conflicts += 1
                while self.d > 0 and self.trail_flipped[self.d]:
                    yield BacktrackSkipRight(self.d)
                    self._pop()
                if self.d == 0:
                    yield from self._finish_unsat(None)
                    return
                self._flip_top()
                self.stats.flips += 1
                yield Flip(self.d)

    def _run_sss(self) -> Iterator[StepEvent]:
        cfg = self.config
        np_node = 0
        np_lits: Optional[Tuple[Literal, ...]] = None
        np_set: Optional[FrozenSet[Literal]] = None
        np_clause_id: Optional[int] = None  # instance id when np is an instance clause
        while True:
            if self.d == self.n:
                # Every variable is assigned and nothing is falsified (a
                # falsified clause would have kept the analysis loop going),
                # so every clause is satisfied and there is nothing left to
                # decide.
                yield from self._finish_sat()
                return
            np_node, np_lits, np_set, np_clause_id = 0, None, None, None
            yield from self._decide()
            if self.num_sat == len(self.clause_lits):
                yield from self._finish_sat()
                return
            # conflict-analysis loop: pin a parent, flip, then either return
            # to new decisions or backtrack on an instance conflict
            while True:
                blocking = self._blocking(np_set)
                if blocking is None:
                    break
                if blocking == _NP_BLOCK:
                    parent_node, parent_lits = np_node, np_lits
                    yield ConflictFound(np_clause_id)
                else:
                    parent_node = self.clause_node[blocking - 1]
                    parent_lits = self.clause_lits[blocking - 1]
                    yield ConflictFound(blocking)
                self.stats.conflicts += 1
                if cfg.ncb:
                    move = self._ncb_target(parent_lits)
                    if move is not None:
                        yield NcbJump(move[0], move[1])
                d = self.d
                if cfg.debug_checks and self.trail_parent[d] not in (0, parent_node):
                    raise InvariantViolation(
                        "level %d parent pre-set to node %d but pinned to %d"
                        % (d, self.trail_parent[d], parent_node)
                    )
                self.trail_parent[d] = parent_node
                self._flip_top()
                self.stats.flips += 1
                yield Flip(d)
                if cfg.debug_checks:
                    self._check_flip_parent(d, parent_lits)
                if self.falsified:
                    r = min(self.falsified)
                    yield ConflictFound(r)
                    self.stats.conflicts += 1
                    np_node = self.clause_node[r - 1]
                    np_lits = self.clause_lits[r - 1]
                    np_set = frozenset(np_lits)
                    np_clause_id = r
                    state = yield from self._backtrack(np_node, np_lits, np_set, np_clause_id)
                    np_node, np_lits, np_set, np_clause_id, unsat = state
                    if unsat:
                        yield from self._finish_unsat(np_node)
                        return
                # otherwise the flip satisfied the parent clause; the
                # analysis loop condition no longer holds and search resumes

    def _backtrack(
        self,
        np_node: int,
        np_lits: Tuple[Literal, ...],
        np_set: FrozenSet[Literal],
        np_clause_id: Optional[int],
    ):
        cfg = self.config
        while self.d > 0:
            d = self.d
            var = self.trail_var[d]
            lit = -var if self.trail_val[d] else var  # literal a flip would satisfy
            if cfg.debug_checks:
                self._check_backtracking_invariant(np_node, np_lits, lit)
            in_np = lit in np_set
            flipped = self.trail_flipped[d]
            if not flipped and in_np:
                break
            if flipped and in_np:
                if cfg.debug_checks:
                    self._check_premises_fresh(self.trail_parent[d], np_node)
                new_id = self.graph.add_node(self.trail_parent[d], np_node, var)
                for premise in (self.trail_parent[d], np_node):
                    if not self.graph.nodes[premise].is_source:
                        self.consumed.add(premise)
                self.stats.nodes_added += 1
                np_node = new_id
                np_lits = self.graph.nodes[new_id].clause.literals
                np_set = frozenset(np_lits)
                np_clause_id = None
                yield BacktrackResolve(new_id)
            elif flipped:
                self.stats.pruned_resolution += self._abandon(self.trail_parent[d])
                yield BacktrackSkipRight(d)
            else:
                if self.trail_parent[d]:
                    # a substituted level being popped: its pre-set parent
                    # derivation is lost with it
                    self.stats.pruned_resolution += self._abandon(self.trail_parent[d])
                yield BacktrackSkipLeft(d)
            self._pop()
            if cfg.cdb_1uip:
                sub = self._cdb_try(np_node, np_set)
                if sub is not None:
                    self.stats.cdb_substitutions += 1
                    yield CdbSubstitute(sub[0], sub[1])
        if cfg.ccr and self.d > 0:
            recorded = self._ccr_record(np_node, np_lits)
            if recorded is not None:
                np_clause_id = recorded
                self.stats.recorded_clauses += 1
                yield Record(recorded)
        return (np_node, np_lits, np_set, np_clause_id, self.d == 0)

    # -- feature hooks ----------------------------------------------------

    def _ncb_target(self, parent_lits: Sequence[Literal]) -> Optional[Tuple[int, int]]:
        """Re-seat the impending flip of the current level as low as its
        parent clause allows: just above the deepest level its other
        literals live on (optionally raised so that level becomes the next
        unflipped one).  Pops everything in between; returns (from, to)
        when a move happened.

        The seat is always an unflipped level.  Seating on a flipped level
        would discard that flip only to restore a flipped level at the same
        depth, which voids the progress measure that makes backtracking
        terminate (the sum of 2^(n - level) over flipped levels must grow
        with every flip) and lets runs cycle; seating on an unflipped level
        turns that bit on, which outweighs every bit lost above it.
        """
        d = self.d
        var = self.trail_var[d]
        g = 0
        for q in parent_lits:
            qv = abs(q)
            if qv == var:
                continue
            lvl = self.level_of[qv]
            if lvl > g:
                g = lvl
        if self.config.ncb_left_adjust:
            adj = g if g >= 1 else 1
            while adj < d and self.trail_flipped[adj]:
                adj += 1
            g = adj if adj < d else d - 1
        seat = g + 1
        while seat < d and self.trail_flipped[seat]:
            seat += 1
        if seat >= d:
            return None
        value = self.trail_val[d]
        for lvl in range(seat, d):
            if self.trail_parent[lvl]:
                self.stats.pruned_ncb += self._abandon(self.trail_parent[lvl])
        while self.d >= seat:
            self._pop()
        self._push(var, value)
        self.stats.ncb_jumps += 1
        self.stats.ncb_levels_skipped += d - seat
        return (d, seat)

    def _cdb_try(
        self, np_node: int, np_set: FrozenSet[Literal]
    ) -> Optional[Tuple[int, Variable]]:
        """After a pop: when the current level is flipped, its flip literal
        sits in the backtracking clause, and every other literal of that
        clause lies strictly below the enclosing block's decision level g,
        substitute this variable for the decision at g (unflipped, parent
        pre-set to the backtracking clause's node).  Returns (g, var) when
        a substitution happened."""
        d = self.d
        if d == 0 or not self.trail_flipped[d]:
            return None
        var = self.trail_var[d]
        value = self.trail_val[d]
        lit = -var if value else var
        if lit not in np_set:
            return None
        g = d - 1
        while g >= 1 and self.trail_flipped[g]:
            g -= 1
        if g < 1:
            return None
        for q in np_set:
            if q == lit:
                continue
            q_level = self.level_of[abs(q)]
            if q_level == 0 or q_level >= g:
                return None
        for lvl in range(g, d + 1):
            if self.trail_parent[lvl]:
                self.stats.pruned_uip += self._abandon(self.trail_parent[lvl])
        while self.d >= g:
            self._pop()
        self._push(var, value)
        self.trail_parent[self.d] = np_node
        return (g, var)

    def _ccr_record(self, np_node: int, np_lits: Tuple[Literal, ...]) -> Optional[int]:
        """Append the backtracking clause to the instance unless an equal
        clause is already there.  The new clause is falsified by the current
        prefix by construction; its counters are initialised accordingly.
        Being falsified, it is not unit-open, so it joins the bcp heap only
        once _unassign un-falsifies it."""
        if not np_lits:
            return None
        clause = Clause(np_lits)
        if clause in self.clause_set:
            return None
        self.clause_set.add(clause)
        i = len(self.clause_lits)
        cid = i + 1
        self.clause_lits.append(tuple(np_lits))
        self.clause_len.append(len(np_lits))
        self.unit_queued.append(0)
        sat = false = 0
        for lit in np_lits:
            var = abs(lit)
            (self.occ_pos if lit > 0 else self.occ_neg)[var].append(i)
            value = self.val[var]
            if value is None:
                continue
            if (lit > 0) == value:
                sat += 1
            else:
                false += 1
        self.sat_count.append(sat)
        self.false_count.append(false)
        if sat:
            self.num_sat += 1
        if false == len(np_lits):
            self.falsified.add(cid)
        elif self.config.debug_checks:
            raise InvariantViolation("recorded clause is not falsified")
        self.clause_node.append(np_node)
        self.recorded_nodes.add(np_node)
        self.formula.add_clause(clause)
        return cid

    # -- pruning accounting ----------------------------------------------

    def _abandon(self, node_id: int) -> int:
        """Count the resolvent nodes of an abandoned parent derivation.

        Stops at sources and at recorded-clause nodes (both stay live).
        Every node is credited to exactly one abandonment; meeting one
        twice would double-count and is flagged in debug runs.
        """
        if not node_id:
            return 0
        count = 0
        stack = [node_id]
        while stack:
            nid = stack.pop()
            node = self.graph.nodes[nid]
            if node.is_source or nid in self.recorded_nodes:
                continue
            if nid in self.pruned_marks:
                if self.config.debug_checks:
                    raise InvariantViolation(
                        "derivation node %d credited to two prunings" % nid
                    )
                continue
            self.pruned_marks.add(nid)
            count += 1
            stack.append(node.left)
            stack.append(node.right)
        return count

    # -- termination ------------------------------------------------------

    def _finish_sat(self) -> Iterator[StepEvent]:
        model = {
            v: (self.val[v] if self.val[v] is not None else False)
            for v in range(1, self.n + 1)
        }
        if self.config.debug_checks and not verify_model(self.formula, model):
            raise InvariantViolation("satisfying assignment fails verification")
        self.outcome = SolveOutcome(
            verdict=VERDICT_SAT,
            stats=self.stats,
            model=model,
            graph=self.graph,
            instance=self.formula,
            events=self._collected if self.config.collect_events else None,
        )
        yield Sat()

    def _finish_unsat(self, root: Optional[int]) -> Iterator[StepEvent]:
        proof = None
        if self.graph is not None and root is not None:
            if self.config.debug_checks and len(self.graph.nodes[root].clause) != 0:
                raise InvariantViolation("refutation root is not the empty clause")
            proof = self.graph.extract_derivation(root)
            self.stats.final_proof_size = proof.size
            if self.config.debug_checks:
                self._check_pruning_partition(proof)
                report = check_refutation(proof, self.formula)
                if not (report.valid and report.complete):
                    raise InvariantViolation(
                        "extracted refutation fails checking: %s" % report.problems
                    )
                if not self.config.ccr and not report.tree_like:
                    raise InvariantViolation(
                        "refutation is not tree-like without clause recording"
                    )
        self.outcome = SolveOutcome(
            verdict=VERDICT_UNSAT,
            stats=self.stats,
            proof=proof,
            graph=self.graph,
            root=root,
            instance=self.formula,
            events=self._collected if self.config.collect_events else None,
        )
        yield Unsat()

    # -- debug invariants -------------------------------------------------

    def _check_flip_parent(self, level: int, parent_lits: Sequence[Literal]) -> None:
        """After a flip, the level's parent clause must contain the literal
        the flip made true, with every other literal false strictly below
        the level."""
        var = self.trail_var[level]
        satisfied_lit = var if self.trail_val[level] else -var
        if satisfied_lit not in parent_lits:
            raise InvariantViolation(
                "flip at level %d not supported by its parent clause" % level
            )
        for q in parent_lits:
            if q == satisfied_lit:
                continue
            qv = abs(q)
            if qv == var:
                raise InvariantViolation(
                    "parent clause mentions the flip variable twice"
                )
            if not self._lit_false(q) or self.level_of[qv] >= level:
                raise InvariantViolation(
                    "parent clause literal %d not falsified below level %d"
                    % (q, level)
                )

    def _check_bcp_pick(self, pick: Optional[Tuple[Variable, bool]]) -> None:
        """The heap's pick must equal a scan of every clause for the
        lowest-id unit-open one, and the heap never holds a clause twice."""
        if len(self.unit_heap) > len(self.clause_lits):
            raise InvariantViolation(
                "bcp heap holds %d entries for %d clauses"
                % (len(self.unit_heap), len(self.clause_lits))
            )
        expected = None
        for i, lits in enumerate(self.clause_lits):
            if self.sat_count[i] == 0 and self.false_count[i] == self.clause_len[i] - 1:
                expected = self._unit_assignment(lits)
                break
        if pick != expected:
            raise InvariantViolation(
                "bcp heap picked %r but the lowest-id scan gives %r" % (pick, expected)
            )

    def _check_backtracking_invariant(
        self, np_node: int, np_lits: Sequence[Literal], flip_lit: Literal
    ) -> None:
        """At each backtracking iteration, the backtracking clause minus the
        current level's flip literal is falsified strictly below the current
        level.  Its derivation staying a tree is enforced separately: no
        resolvent is ever consumed as a premise twice
        (:meth:`_check_premises_fresh`), so the derivation hanging off any
        live node is a tree by construction."""
        d = self.d
        for q in np_lits:
            if q == flip_lit:
                continue
            if not self._lit_false(q) or self.level_of[abs(q)] >= d:
                raise InvariantViolation(
                    "backtracking clause literal %d not falsified below level %d"
                    % (q, d)
                )
        if (
            np_node
            and np_node in self.consumed
            and np_node not in self.recorded_nodes
        ):
            raise InvariantViolation(
                "backtracking clause node %d was already consumed" % np_node
            )

    def _check_premises_fresh(self, left: int, right: int) -> None:
        """A recorded-clause node stays live in the instance and may be
        consumed repeatedly (its derivation becomes shared); any other
        resolvent must be consumed at most once."""
        for premise in (left, right):
            if premise in self.recorded_nodes:
                continue
            if premise in self.consumed:
                raise InvariantViolation(
                    "resolvent %d consumed as a premise twice; the "
                    "backtracking clause derivation would stop being a tree"
                    % premise
                )
            if premise in self.pruned_marks:
                raise InvariantViolation(
                    "resolvent %d resolved after being pruned" % premise
                )

    def _check_pruning_partition(self, proof: RefutationGraph) -> None:
        proof_resolvents = {
            nid for nid, node in proof.nodes.items() if not node.is_source
        }
        overlap = proof_resolvents & self.pruned_marks
        if overlap:
            raise InvariantViolation(
                "pruned nodes %s appear in the final refutation" % sorted(overlap)
            )
        stats = self.stats
        credited = (
            stats.pruned_resolution + stats.pruned_ncb + stats.pruned_uip
        )
        if credited != len(self.pruned_marks):
            raise InvariantViolation("pruning counters disagree with marks")
        abandoned = stats.nodes_added - stats.final_proof_size - credited
        if abandoned < 0:
            raise InvariantViolation("pruning accounting went negative")


def solve(formula: Formula, config: Optional[SolverConfig] = None) -> SolveOutcome:
    return Solver(formula, config).solve()
