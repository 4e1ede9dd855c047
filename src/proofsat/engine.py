"""Backtracking search engine with on-the-fly resolution bookkeeping.

Three modes share one trail and two drivers:

* ``sss`` (default, its own driver): a backtracking search that tags every
  flipped decision with a parent clause and resolves those parents
  together while backtracking, so an unsatisfiable run terminates holding
  a machine checkable refutation of the input.  It resolves on the
  literals it holds and files each resolvent unchecked
  (``RefutationGraph.add_resolvent``); ``debug_checks`` re-derives every
  step by the graph's rules.  Four optional features:
  ``bcp`` (unit-driven decisions), ``ncb`` (re-seating a flip at the lowest
  level where its parent clause stays viable), ``cdb_1uip`` (substituting
  the unique block variable of the backtracking clause for the block's
  decision), and ``ccr`` (recording backtracking clauses into the
  instance).
* ``dll_strict`` and ``tae`` share one chronological driver with no proof
  bookkeeping: a conflict flips the deepest unflipped decision.
  ``dll_strict`` tests the clause states after every decision and
  supports ``bcp`` alone; ``tae`` enumerates total assignments depth
  first, testing the states only once every variable is assigned, and
  supports no features.

Verdicts agree across modes; only the work done, and the proof artifacts,
differ.  Decisions count fresh assignments (unit-driven ones included);
flips are never decisions.  A decision that no feature forces follows
``SolverConfig.order`` when it is set, a generator seeded with
``SolverConfig.seed`` when that is set, and otherwise assigns the lowest
unassigned variable false.

Each driver is one generator of ``(EventClass, *args)`` tuples;
``Solver.step()`` builds the event of the next one on demand, and
``Solver.solve()`` runs the rest of them without building any event.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .cnf import Clause, Formula, Literal, Variable, _tautological
from .proofs import RefutationGraph, _derive, _resolvent_set, check_refutation, init_refutation

MODE_SSS = "sss"
MODE_DLL = "dll_strict"
MODE_TAE = "tae"
MODES = (MODE_SSS, MODE_DLL, MODE_TAE)

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

# The features, in label order: each one's SolverConfig field, its tag in
# SolverConfig.label and the modes that support it.
FEATURES = (
    ("bcp", "bcp", (MODE_SSS, MODE_DLL)),
    ("ncb", "ncb", (MODE_SSS,)),
    ("ncb_left_adjust", "ncbla", (MODE_SSS,)),
    ("cdb_1uip", "cdb", (MODE_SSS,)),
    ("ccr", "ccr", (MODE_SSS,)),
)


@dataclass(frozen=True)
class SolverConfig:
    """How a run searches.  ``mode`` picks the driver, and ``bcp``,
    ``ncb`` (refined by ``ncb_left_adjust``), ``cdb_1uip`` and ``ccr``
    switch on the features.  The decisions they leave open follow the
    heuristic that ``order`` and ``seed`` pick: a non-empty ``order``
    decides its variables first and the rest ascending, a ``seed`` picks
    variable and value at random from ``random.Random(seed)``, and with
    neither the lowest unassigned variable is set false.  ``order`` and
    ``seed`` exclude each other.  ``debug_checks`` verifies the engine's
    invariants as it runs."""

    mode: str = MODE_SSS
    bcp: bool = False
    ncb: bool = False
    ncb_left_adjust: bool = False
    cdb_1uip: bool = False
    ccr: bool = False
    order: Tuple[Variable, ...] = ()
    seed: Optional[int] = None
    debug_checks: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % (self.mode,))
        for name, _, modes in (*FEATURES, ("debug_checks", "", MODES)):
            if getattr(self, name).__class__ is not bool:
                raise ValueError("%s must be a bool, got %r" % (name, getattr(self, name)))
            if getattr(self, name) and self.mode not in modes:
                raise ValueError("mode %s does not support %s" % (self.mode, name))
        if self.ncb_left_adjust and not self.ncb:
            raise ValueError("ncb_left_adjust requires ncb")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, type(None))):
            raise ValueError("seed must be an int or None, got %r" % (self.seed,))
        if self.order and self.seed is not None:
            raise ValueError("order and seed are mutually exclusive")
        for v in self.order:
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(
                    "order entries must be positive variables, got %r" % (v,)
                )
        if len(set(self.order)) != len(self.order):
            raise ValueError("order list contains duplicates")

    @property
    def label(self) -> str:
        """The mode and the tags of the features on, joined by "+", as in
        ``sss+bcp+cdb``."""
        return "+".join([self.mode, *(tag for name, tag, _ in FEATURES if getattr(self, name))])


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


def verify_model(formula: Formula, model: Dict[Variable, bool]) -> bool:
    """True when every clause holds a literal the model makes true."""
    for cid in formula.ids():
        for lit in formula.clause(cid):
            if model.get(abs(lit)) == (lit > 0):
                break
        else:
            return False
    return True


class Solver:
    """Single-use solver: construct, then solve() or step() to completion;
    ``list(iter(solver.step, None))`` is the run's event stream.

    ``outcome.instance`` is the input formula itself, unless clause
    recording is on: then it is a copy, which the recorded clauses grow.
    """

    def __init__(self, formula: Formula, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig()
        self.formula = formula.copy() if self.config.ccr else formula
        self.n = self.formula.num_vars
        for v in self.config.order:
            if v > self.n:
                raise ValueError(
                    "order entry %d exceeds variable count %d" % (v, self.n)
                )
        self.stats = Stats()
        self.outcome: Optional[SolveOutcome] = None

        # Clause state, indexed by clause id - 1; the clauses are the
        # formula's own list, which clause recording appends to.
        self.clauses: List[Clause] = self.formula.clauses
        # state[i] = (not-false literals) + W * (true literals) of clause i,
        # where W exceeds the length of every clause held: the clause is
        # falsified when state[i] is 0, unit-open (no true literal, one
        # unassigned) when it is 1, and satisfied when it is W or more.  W
        # grows only with a longer recorded clause: a W of n + 1 pushed the
        # words past CPython's cached small ints, 20% slower at n = 100.
        self.state: List[int] = list(map(len, self.clauses))
        self.W = 1 + max(self.state, default=0)
        # occ[lit]: the indices of the clauses holding lit, an exact-size
        # tuple that is replaced, never grown (occ[-v] counts from the end):
        # literals that clause i holds first share one (i,), and unheld ones ().
        self.occ: List[Tuple[int, ...]] = [()] * (2 * self.n + 1)
        occ, grown = self.occ, []  # literals held more than once: their lists become tuples
        for i, clause in enumerate(self.clauses):
            first = (i,)
            for lit in clause:
                held = occ[lit]
                if not held:
                    occ[lit] = first
                elif held.__class__ is list:
                    held.append(i)
                else:
                    occ[lit] = [*held, i]
                    grown.append(lit)
        for lit in grown:
            occ[lit] = tuple(occ[lit])
        self.falsified: set = set()  # clause ids
        self.num_sat = 0
        # Candidates for bcp: a min-heap of clause indices with lazy
        # deletion.  A clause is unit-open when it has no true literal and
        # exactly one unassigned one.  Invariant: every unit-open clause is
        # queued (unit_queued[i] set and i in unit_heap).  A queued clause
        # that stops being unit-open stays in the heap until it reaches the
        # top, where _bcp_pick drops it; the flag keeps each clause in the
        # heap at most once.  Clauses become unit-open only in _push, _pop
        # and _flip_top, which queue them; input unit clauses start out
        # queued (listed in ascending order, which is already a heap).
        self.unit_heap: List[int] = [i for i, k in enumerate(self.state) if k == 1]
        self.unit_queued = bytearray(len(self.clauses))
        for i in self.unit_heap:
            self.unit_queued[i] = 1

        # Trail, indexed by decision level 1..n.
        self.val: List[Optional[bool]] = [None] * (self.n + 1)
        self.level_of: List[int] = [0] * (self.n + 1)
        self.trail_var: List[int] = [0] * (self.n + 1)
        self.trail_flipped = bytearray(self.n + 1)  # 1 where the level is flipped
        self.trail_parent: List[int] = [0] * (self.n + 1)
        self.parent_lits: Dict[int, Tuple[Literal, ...]] = {}  # level -> its parent's literals
        self.d = 0
        self.low = 1  # every variable below it is assigned

        # Proof bookkeeping (sss only): input clause k is proof node k, and
        # recorded_node maps a recorded clause's id to its derivation's node.
        self.graph = init_refutation(self.formula) if self.config.mode == MODE_SSS else None
        self.num_inputs = len(self.clauses)  # nodes 1..num_inputs are sources
        self.recorded_node: Dict[int, int] = {}
        self.recorded_nodes: set = set()
        # Resolvents credited as pruned, and those already consumed as a
        # premise, both filled under debug_checks only.  Each resolvent is
        # consumed at most once, which keeps every backtracking clause
        # derivation a tree as long as no clause is recorded; the debug
        # checks verify the discipline.
        self.pruned_marks: set = set()
        self.consumed: set = set()

        self._rng = (
            random.Random(self.config.seed)
            if self.config.seed is not None
            else None
        )
        # The run's (EventClass, *args) tuples, from the first step on.
        run = self._run_sss if self.config.mode == MODE_SSS else self._run_chronological
        self._events: Iterator[tuple] = run()

    # -- public API -------------------------------------------------------

    def solve(self) -> SolveOutcome:
        """Run the remaining steps to completion."""
        deque(self._events, maxlen=0)
        assert self.outcome is not None
        return self.outcome

    def step(self) -> Optional[StepEvent]:
        """Advance by one event; None once the run has finished."""
        item = next(self._events, None)
        return None if item is None else item[0](*item[1:])

    # -- assignment machinery --------------------------------------------

    def _push(self, var: Variable, value: bool, flipped: int = 0) -> None:
        """Assign unassigned ``var`` at a new level."""
        d = self.d = self.d + 1
        self.trail_var[d] = var
        self.trail_flipped[d] = flipped
        self.val[var] = value
        self.level_of[var] = d
        lit = var if value else -var
        state, W = self.state, self.W
        newly_sat = 0
        for i in self.occ[lit]:
            s = state[i]
            if s < W:
                newly_sat += 1
            state[i] = s + W
        self.num_sat += newly_sat
        # After the true occurrences, so a clause holding v and -v is tested
        # against its final state.
        queued, falsified = self.unit_queued, self.falsified
        for i in self.occ[-lit]:
            s = state[i] - 1
            state[i] = s
            if not s:
                falsified.add(i + 1)
            elif s == 1 and not queued[i]:
                queued[i] = 1
                heappush(self.unit_heap, i)

    def _pop(self) -> None:
        """Unassign the current level's variable and drop the level."""
        d = self.d
        var = self.trail_var[d]
        lit = var if self.val[var] else -var
        state, W, queued = self.state, self.W, self.unit_queued
        for i in self.occ[-lit]:
            s = state[i]
            state[i] = s + 1
            if not s:  # falsified, now unit-open
                self.falsified.discard(i + 1)
                if not queued[i]:
                    queued[i] = 1
                    heappush(self.unit_heap, i)
        # After the false occurrences, so a clause holding v and -v is tested
        # against its final state.
        newly_unsat = 0
        for i in self.occ[lit]:
            s = state[i] - W
            state[i] = s
            if s < W:
                newly_unsat += 1
                if s == 1 and not queued[i]:
                    queued[i] = 1
                    heappush(self.unit_heap, i)
        self.num_sat -= newly_unsat
        self.val[var] = None
        self.level_of[var] = 0
        self.trail_parent[d] = 0
        self.d = d - 1
        if var < self.low:
            self.low = var

    def _flip_top(self) -> None:
        """Flip the current level's variable in one pass over its two
        occurrence lists.  The clauses its literal turns true come first,
        so the state of a clause holding v and -v never dips mid-flip."""
        d = self.d
        var = self.trail_var[d]
        lit = -var if self.val[var] else var  # the literal the flip makes true
        state, W, falsified = self.state, self.W, self.falsified
        up = W + 1  # one more true literal and one more not-false one
        newly_sat = 0
        for i in self.occ[lit]:
            s = state[i]
            if s < W:
                newly_sat += 1
                if not s:
                    falsified.discard(i + 1)
            state[i] = s + up
        queued = self.unit_queued
        for i in self.occ[-lit]:
            s = state[i] - up
            state[i] = s
            if s < W:
                newly_sat -= 1
                if not s:
                    falsified.add(i + 1)
                elif s == 1 and not queued[i]:
                    queued[i] = 1
                    heappush(self.unit_heap, i)
        self.num_sat += newly_sat
        self.val[var] = lit > 0
        self.trail_flipped[d] = 1

    def _flip(self, var: Variable, value: bool, level: int) -> None:
        """Set ``var`` to ``value`` as the flipped assignment of ``level``:
        in place when ``level`` is the current level, which holds ``var``
        the other way; pushed, already flipped, when it is the next level.
        A push leaves the state that deciding the other value and flipping
        it would leave, in one pass over the occurrence lists."""
        if level > self.d:
            self._push(var, value, 1)
        else:
            self._flip_top()
        if self.config.debug_checks:
            self._check_counts((*self.occ[var], *self.occ[-var]))

    # -- literal/choice helpers ------------------------------------------

    def _bcp_pick(self) -> Optional[Tuple[Variable, bool]]:
        """Lowest-id unit-open clause (exactly one unassigned literal and no
        satisfied literal); returns the assignment that falsifies that
        literal, so the clause immediately blocks and becomes the parent
        of the ensuing flip.

        Every unit-open clause is queued in ``unit_heap`` (see __init__), so
        once the stale entries above it are dropped, the heap's top is the
        lowest-id unit-open clause.  The top itself stays queued."""
        heap, queued, state = self.unit_heap, self.unit_queued, self.state
        while heap:
            i = heap[0]
            if state[i] == 1:
                break
            heappop(heap)
            queued[i] = 0
        pick = self._unit_assignment(self.clauses[heap[0]]) if heap else None
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

    def _choose_free(self) -> Tuple[Variable, bool]:
        for v in self.config.order:
            if self.val[v] is None:
                return (v, False)
        if self._rng is not None:
            unassigned = [v for v in range(1, self.n + 1) if self.val[v] is None]
            var = self._rng.choice(unassigned)
            return (var, self._rng.random() < 0.5)
        for v in range(self.low, self.n + 1):
            if self.val[v] is None:
                self.low = v
                return (v, False)
        raise RuntimeError("no unassigned variable to decide")

    # -- mode drivers -----------------------------------------------------

    def _decide(self) -> Tuple[type, Variable, bool, int]:
        """The next decision as (event class, variable, value, unit clause
        id).  A bcp decision falsifies the unassigned literal of the
        lowest-id unit-open clause, and the driver follows it with that
        clause as the conflict and the variable's flip, at the next level.
        It assigns nothing: nothing was falsified before it and that clause
        is the lowest-id one it would falsify, so the decision and the flip
        together are one push of the unit literal (``_flip``).  Any other
        decision is pushed, with unit clause id 0."""
        self.stats.decisions += 1
        if self.config.bcp:
            pick = self._bcp_pick()
            if pick is not None:  # the unit clause is the heap's top
                self.stats.bcp_implications += 1
                return (BcpDecide, *pick, self.unit_heap[0] + 1)
        var, value = self._choose_free()
        self._push(var, value)
        return (Decide, var, value, 0)

    def _run_chronological(self) -> Iterator[tuple]:
        """tae and dll_strict: decide, and while a clause is falsified,
        flip the deepest unflipped level after popping the flipped ones
        above it.  dll_strict tests the clauses after every decision, tae
        only at total assignments (d == n), where every clause is either
        satisfied or falsified, so the SAT test and the conflict test
        agree.  A bcp decision conflicts on its unit clause at once, and the
        level it opens is the deepest unflipped one."""
        leaves_only = self.config.mode == MODE_TAE
        total = len(self.clauses)
        while True:
            if self.num_sat == total and (not leaves_only or self.d == self.n):
                yield self._finish_sat()
                return
            kind, var, value, unit = self._decide()
            yield (kind, var if value else -var)
            if unit:
                yield (ConflictFound, unit)
                self.stats.conflicts += 1
                self._flip(var, not value, self.d + 1)
                self.stats.flips += 1
                yield (Flip, self.d)
            while self.falsified and (not leaves_only or self.d == self.n):
                yield (ConflictFound, min(self.falsified))
                self.stats.conflicts += 1
                while self.d > 0 and self.trail_flipped[self.d]:
                    yield (BacktrackSkipRight, self.d)
                    self._pop()
                if self.d == 0:
                    yield self._finish_unsat(None)
                    return
                var = self.trail_var[self.d]
                self._flip(var, not self.val[var], self.d)
                self.stats.flips += 1
                yield (Flip, self.d)

    def _run_sss(self) -> Iterator[tuple]:
        cfg = self.config
        while True:
            if self.d == self.n:
                # Every variable is assigned and nothing is falsified (a
                # falsified clause starts the analysis loop): all satisfied.
                yield self._finish_sat()
                return
            kind, var, value, clause_id = self._decide()
            yield (kind, var if value else -var)
            top = self.d + 1  # the level of the flip, a bcp decision's not pushed yet
            if not clause_id:
                if self.num_sat == len(self.clauses):
                    yield self._finish_sat()
                    return
                if not self.falsified:
                    continue
                clause_id, top = min(self.falsified), self.d
            value = not value  # the flip's
            # conflict-analysis loop: pin the blocking clause (the lowest
            # falsified one or the bcp decision's unit clause, later the
            # clause _backtrack returns) as the parent and flip; search
            # resumes once a flip falsifies nothing.
            parent_node = self.recorded_node.get(clause_id, clause_id)
            parent_lits = self.clauses[clause_id - 1]
            while True:
                yield (ConflictFound, clause_id)
                self.stats.conflicts += 1
                d = top
                # A bcp decision's flip (top == self.d + 1) stays at top, so
                # ncb skips it: every level above its unit clause's other
                # literals is flipped, as a free decision is made only when
                # no clause is unit-open and the levels below it stay put.
                if cfg.ncb and top <= self.d:
                    move = self._ncb_target(parent_lits, var, top)
                    if move is not None:
                        yield (NcbJump, *move)
                        d = move[1]
                elif cfg.ncb and cfg.debug_checks:
                    others = (abs(q) for q in parent_lits if abs(q) != var)
                    g = max(map(self.level_of.__getitem__, others), default=0)
                    if not all(self.trail_flipped[g + 1 : top]):
                        raise InvariantViolation("unflipped level below bcp flip at %d" % top)
                if cfg.debug_checks and self.trail_parent[d] not in (0, parent_node):
                    raise InvariantViolation(
                        "level %d parent pre-set to node %d but pinned to %d"
                        % (d, self.trail_parent[d], parent_node)
                    )
                self._flip(var, value, d)
                self.trail_parent[d], self.parent_lits[d] = parent_node, parent_lits
                self.stats.flips += 1
                yield (Flip, d)
                if cfg.debug_checks:
                    self._check_flip_parent(d, parent_lits)
                if not self.falsified:
                    break
                r = min(self.falsified)
                yield (ConflictFound, r)
                self.stats.conflicts += 1
                parent_node, parent_lits, clause_id = yield from self._backtrack(r)
                if self.d == 0:
                    yield self._finish_unsat(parent_node)
                    return
                top = self.d
                var = self.trail_var[top]
                value = not self.val[var]

    def _backtrack(self, np_clause_id: int):
        """From instance clause ``np_clause_id``, which a flip falsified,
        resolve the backtracking clause with the parent of each flipped level
        whose flip literal it holds, popping levels until it holds the flip
        literal of an unflipped level d, or d is 0; return the clause as
        (node, literals, instance id or None).

        At a stop d > 0 the prefix falsifies it and no instance clause.  The
        levels up to d are unchanged since a decision set d (the driver then
        found nothing falsified) or a cdb re-seat did (of a variable whose
        flip above d falsified nothing), and a clause recorded since holds
        the flip literal of its own stop, above d.  A cdb-preset level stops
        backtracking at once, to be pinned and flipped before any pop
        reaches it, so no unflipped level is popped holding a parent."""
        cfg = self.config
        np_node = self.recorded_node.get(np_clause_id, np_clause_id)
        np_lits = self.clauses[np_clause_id - 1]
        while self.d > 0:
            d = self.d
            var = self.trail_var[d]
            lit = -var if self.val[var] else var  # literal a flip would satisfy
            if cfg.debug_checks:
                self._check_backtracking_invariant(np_node, np_lits, lit)
            in_np = lit in np_lits
            flipped = self.trail_flipped[d]
            if not flipped and in_np:
                break
            if flipped and in_np:
                left, left_lits = self.trail_parent[d], self.parent_lits[d]  # it holds -lit
                plus, minus = (left_lits, np_lits) if lit < 0 else (np_lits, left_lits)
                lits = _resolvent_set(plus, minus, var)
                new_id = self.graph.add_resolvent(left, np_node, var, lits)
                if cfg.debug_checks:
                    self._check_resolution(new_id, left, np_node, var, (left_lits, np_lits), lits)
                self.stats.nodes_added += 1
                np_node, np_lits, np_clause_id = new_id, lits, None
                yield (BacktrackResolve, new_id)
            elif flipped:
                if self.trail_parent[d] > self.num_inputs:  # an input clause credits nothing
                    self.stats.pruned_resolution += self._abandon(self.trail_parent[d])
                yield (BacktrackSkipRight, d)
            else:
                if cfg.debug_checks and self.trail_parent[d]:
                    raise InvariantViolation("unflipped level %d popped holding a parent" % d)
                yield (BacktrackSkipLeft, d)
            self._pop()
            if cfg.cdb_1uip:
                sub = self._cdb_try(np_node, np_lits)
                if sub is not None:
                    self.stats.cdb_substitutions += 1
                    yield (CdbSubstitute, *sub)
        np_lits = tuple(np_lits)  # as a parent it stays pinned: a tuple is smaller than a set
        if self.d > 0:
            if cfg.debug_checks and self.falsified:
                raise InvariantViolation(
                    "clause %d falsified where backtracking stops" % min(self.falsified)
                )
            if cfg.ccr:
                np_clause_id = self._ccr_record(np_node, np_lits)
                self.stats.recorded_clauses += 1
                yield (Record, np_clause_id)
        return (np_node, np_lits, np_clause_id)

    # -- feature hooks ----------------------------------------------------

    def _ncb_target(
        self, parent_lits: Sequence[Literal], var: Variable, top: int
    ) -> Optional[Tuple[int, int]]:
        """Re-seat the impending flip of ``var`` at level ``top`` (the
        current level, or the next one for a bcp decision, which is not
        pushed) as low as its parent clause allows: just above the deepest
        level its other literals live on (optionally raised so that level
        becomes the next unflipped one).  Pops every level from the seat up;
        returns (top, seat) when a move happened, and the driver then
        pushes the flip at the seat.

        The seat is always an unflipped level.  Seating on a flipped level
        would discard that flip only to restore a flipped level at the same
        depth, which voids the progress measure that makes backtracking
        terminate (the sum of 2^(n - level) over flipped levels must grow
        with every flip) and lets runs cycle; seating on an unflipped level
        turns that bit on, which outweighs every bit lost above it.
        """
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
            while adj < top and self.trail_flipped[adj]:
                adj += 1
            g = adj if adj < top else top - 1
        seat = g + 1
        while seat < top and self.trail_flipped[seat]:
            seat += 1
        if seat >= top:
            return None
        self.stats.pruned_ncb += self._reseat(seat, top)
        self.stats.ncb_jumps += 1
        self.stats.ncb_levels_skipped += top - seat
        return (top, seat)

    def _cdb_try(
        self, np_node: int, np_lits: Collection[Literal]
    ) -> Optional[Tuple[int, Variable]]:
        """After a pop: when the current level is flipped, its flip literal
        sits in the backtracking clause, and every other literal of that
        clause lies strictly below the enclosing block's decision level g,
        substitute this variable for the decision at g (unflipped, parent
        pre-set to the backtracking clause's node; the driver pins that node
        again, with its literals, before it flips g).  Returns (g, var) when
        a substitution happened."""
        d = self.d
        if not self.trail_flipped[d]:  # level 0 is never flipped
            return None
        var = self.trail_var[d]
        lit = -var if self.val[var] else var
        if lit not in np_lits:
            return None
        g = d - 1
        while g >= 1 and self.trail_flipped[g]:
            g -= 1
        if g < 1:
            return None
        for q in np_lits:
            if q == lit:
                continue
            if self.level_of[abs(q)] >= g:
                return None
        value = self.val[var]
        self.stats.pruned_uip += self._reseat(g, d + 1)
        self._push(var, value)
        self.trail_parent[g] = np_node
        return (g, var)

    def _reseat(self, seat: int, top: int) -> int:
        """Clear the way to move a variable down to level ``seat``: credit
        the parent derivations of levels seat..top-1 as pruned and pop every
        level from ``seat`` up.  Returns the number of resolvents credited."""
        pruned = 0
        for lvl in range(seat, top):
            if self.trail_parent[lvl]:
                pruned += self._abandon(self.trail_parent[lvl])
        while self.d >= seat:
            self._pop()
        return pruned

    def _ccr_record(self, np_node: int, np_lits: Tuple[Literal, ...]) -> int:
        """Append the clause where _backtrack stopped at d > 0; return its
        id.  The prefix falsifies it there and no instance clause, so it is
        new, holds distinct literals of in-range variables, none with its
        negation, and starts falsified, which keeps it out of the bcp heap
        until _pop or _flip_top un-falsifies it."""
        i = len(self.clauses)
        clause = Clause._trusted(np_lits)
        if self.config.debug_checks and (  # Formula raises ValueError on a bad literal
            Formula(self.n, [np_lits]).clauses != [clause]
            or _tautological(set(clause))
        ):
            raise InvariantViolation("recorded clause %d is %r" % (i + 1, np_lits))
        if len(clause) >= self.W:  # widen the base of every state word
            old, self.W = self.W, len(clause) + 1
            self.state[:] = [s % old + self.W * (s // old) for s in self.state]
        self.clauses.append(clause)
        self.state.append(0)
        self.unit_queued.append(0)
        for lit in clause:
            self.occ[lit] += (i,)
        self.falsified.add(i + 1)
        self.recorded_node[i + 1] = np_node
        self.recorded_nodes.add(np_node)
        return i + 1

    # -- pruning accounting ----------------------------------------------

    def _abandon(self, node_id: int) -> int:
        """Count the resolvent nodes of an abandoned parent derivation and
        delete them from the graph.  Stops at sources and recorded-clause
        nodes (both stay live) and at ids the graph lacks: sources not yet
        filed and nodes already credited.  Crediting a node twice would
        double-count and is flagged in debug runs."""
        graph, debug = self.graph, self.config.debug_checks
        count = 0
        stack = [node_id]
        while stack:
            nid = stack.pop()
            if debug and nid in self.pruned_marks:
                raise InvariantViolation("derivation node %d credited to two prunings" % nid)
            if nid in self.recorded_nodes:
                continue
            premises = graph.prune(nid)
            if premises is None:
                continue
            if debug:
                self.pruned_marks.add(nid)
            count += 1
            stack += premises
        return count

    # -- termination ------------------------------------------------------

    def _finish_sat(self) -> tuple:
        model = {v: bool(self.val[v]) for v in range(1, self.n + 1)}  # unassigned: False
        if self.config.debug_checks and not verify_model(self.formula, model):
            raise InvariantViolation("satisfying assignment fails verification")
        return self._finish(SolveOutcome(VERDICT_SAT, self.stats, model=model))

    def _finish_unsat(self, root: Optional[int]) -> tuple:
        proof = None
        if self.graph is not None and root is not None:
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
                    raise InvariantViolation("refutation is not tree-like without clause recording")
        return self._finish(SolveOutcome(VERDICT_UNSAT, self.stats, proof=proof, root=root))

    def _finish(self, outcome: SolveOutcome) -> tuple:
        """Run the checks every finished run shares, keep ``outcome`` with the
        graph and the instance, drop the search state and return the end event."""
        if self.config.debug_checks:
            self._check_counts(range(len(self.clauses)))
            self._check_graph_closed()
        outcome.graph, outcome.instance = self.graph, self.formula
        self.outcome = outcome
        self._release()
        return (Sat if outcome.verdict == VERDICT_SAT else Unsat,)

    def _release(self) -> None:
        """Drop the search state; keep the configuration and the outcome."""
        kept = ("config", "_events", "outcome", "stats", "formula", "graph")
        self.__dict__ = {name: self.__dict__[name] for name in kept}

    # -- debug invariants -------------------------------------------------

    def _check_flip_parent(self, level: int, parent_lits: Sequence[Literal]) -> None:
        """After a flip, the level's parent clause must contain the literal
        the flip made true, with every other literal false strictly below
        the level."""
        var = self.trail_var[level]
        satisfied_lit = var if self.val[var] else -var
        if satisfied_lit not in parent_lits:
            raise InvariantViolation("flip at level %d not supported by its parent clause" % level)
        self._check_falsified_below(parent_lits, satisfied_lit, level, "parent clause")

    def _check_falsified_below(
        self, lits: Collection[Literal], kept: Literal, level: int, what: str
    ) -> None:
        """Every literal of ``lits`` but ``kept`` is false, set below ``level``."""
        for q in lits:
            value = self.val[abs(q)]
            if q != kept and (value is None or value == (q > 0) or self.level_of[abs(q)] >= level):
                raise InvariantViolation(
                    "%s literal %d not falsified below level %d" % (what, q, level)
                )

    def _check_bcp_pick(self, pick: Optional[Tuple[Variable, bool]]) -> None:
        """The heap's pick must equal a scan of every clause for the
        lowest-id unit-open one, and the heap never holds a clause twice."""
        if len(self.unit_heap) > len(self.clauses):
            raise InvariantViolation(
                "bcp heap holds %d entries for %d clauses"
                % (len(self.unit_heap), len(self.clauses))
            )
        expected = None
        for i, lits in enumerate(self.clauses):
            if self.state[i] == 1:
                expected = self._unit_assignment(lits)
                break
        if pick != expected:
            raise InvariantViolation(
                "bcp heap picked %r but the lowest-id scan gives %r" % (pick, expected)
            )

    def _check_backtracking_invariant(
        self, np_node: int, np_lits: Collection[Literal], flip_lit: Literal
    ) -> None:
        """At each backtracking iteration, the backtracking clause minus the
        current level's flip literal is falsified strictly below the current
        level.  Its derivation staying a tree is enforced separately: no
        resolvent is ever consumed as a premise twice
        (:meth:`_check_resolution`), so the derivation hanging off any
        live node is a tree by construction."""
        self._check_falsified_below(np_lits, flip_lit, self.d, "backtracking clause")
        if (
            np_node
            and np_node in self.consumed
            and np_node not in self.recorded_nodes
        ):
            raise InvariantViolation(
                "backtracking clause node %d was already consumed" % np_node
            )

    def _check_resolution(
        self, nid: int, left: int, right: int, pivot: Variable, premise_lits: tuple, lits: set
    ) -> None:
        """Resolvent ``nid``, filed unchecked, obeys the rules of ``_derive``
        and holds ``lits``.  A recorded-clause node stays live in the
        instance and may be consumed repeatedly (its derivation becomes
        shared); any other resolvent is consumed at most once, and marked."""
        try:
            if _derive(nid, left, right, pivot, *premise_lits) != lits:
                raise ValueError("literals differ from the premises' resolvent")
        except ValueError as exc:
            raise InvariantViolation("resolvent %d: %s" % (nid, exc)) from None
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
            if premise in self.graph and not self.graph.node(premise).is_source:
                self.consumed.add(premise)

    def _check_graph_closed(self) -> None:
        """No credited resolvent is left in the graph, and every premise of
        a resolvent in it is in it too, so no deletion stranded a node."""
        graph = self.graph if self.graph is not None else RefutationGraph()
        ids = graph.node_ids()
        if not self.pruned_marks.isdisjoint(ids):
            raise InvariantViolation("a credited node is still in the graph")
        for node in map(graph.node, ids):
            if not node.is_source and not (node.left in graph and node.right in graph):
                raise InvariantViolation("node %d lost a premise" % node.id)

    def _check_pruning_partition(self, proof: RefutationGraph) -> None:
        overlap = {nid for nid in proof.node_ids() if not proof.node(nid).is_source}
        overlap &= self.pruned_marks
        if overlap:
            raise InvariantViolation("pruned nodes %s in the final refutation" % sorted(overlap))
        stats = self.stats
        if stats.pruned_resolution + stats.pruned_ncb + stats.pruned_uip != len(self.pruned_marks):
            raise InvariantViolation("pruning counters disagree with marks")

    def _check_counts(self, indices: Iterable[int]) -> None:
        """Recount from ``val`` the true and not-false literals of the
        clauses at ``indices`` against their state words, and from the
        words of every clause the satisfied and the falsified ones.  Runs
        after each flip, which follows every conflict, and at the finish."""
        val, state, W = self.val, self.state, self.W
        for i in indices:
            true = left = 0
            for q in self.clauses[i]:
                value = val[abs(q)]
                if value is None or value == (q > 0):
                    left += 1
                    true += value is not None
            if state[i] != left + W * true or left >= W:
                held, recount = state[i], "%d + %d * %d" % (left, W, true)
                raise InvariantViolation("clause %d state %d, recount %s" % (i + 1, held, recount))
        if (
            sum(s >= W for s in state) != self.num_sat
            or state.count(0) != len(self.falsified)
            or any(state[i - 1] for i in self.falsified)
        ):
            raise InvariantViolation("satisfied or falsified clauses miscounted")


def solve(formula: Formula, config: Optional[SolverConfig] = None) -> SolveOutcome:
    return Solver(formula, config).solve()
