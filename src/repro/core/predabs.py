"""Cartesian predicate abstraction and abstract reachability (Section 4.1).

The abstract-reachability phase of CEGAR unwinds the CFG into an abstract
reachability tree (ART).  Each node carries a location and an abstract state,
which here is the set of tracked predicates (from the location-indexed
precision ``Pi``) that are known to hold.  The abstract post operator is
Cartesian: each predicate of the target location is kept iff it is implied by
the source state and the transition relation, decided by the exact VC
checker.  Transitions whose source state contradicts their guard are pruned.

The ART is a *persistent* structure (:class:`Art`): it survives refinement
rounds.  After a refinement adds predicates at locations ``L`` (the pivot
locations of the infeasible path), :meth:`Art.apply_refinement` repairs the
tree in place instead of rebuilding it:

* every live node at a pivot location (a location that gained predicates) is
  *delta-rechecked*: only the newly added predicates are decided against the
  node's (unchanged) parent state — the old positive and negative verdicts
  are precision-independent and carry over for free;
* a node that gains no new predicate keeps its entire subtree untouched;
* a node that gains a predicate is *strengthened*, which starts a
  down-the-tree wave exploiting the monotonicity of the Cartesian post: a
  stronger source state keeps infeasible edges infeasible and old positive
  verdicts positive, so for each child only the edge check, the
  previously-negative predicates and the delta are re-decided; a child whose
  state comes out unchanged stops the wave and keeps its whole subtree;
* the coverage index is repaired along the way — a strengthened node is
  re-keyed (or folded under an existing weaker state outside its own
  subtree, discarding its now-redundant subtree), and nodes covered by
  removed or re-keyed representatives are un-covered and re-checked against
  the settled index;
* the error node of the refuted counterexample is always removed and its
  incoming edge re-enqueued, so the next round re-derives it against the
  strengthened source state (usually refuting it).

The repaired tree is state-for-state what a from-scratch rebuild under the
new precision would compute: the wave decides exactly the obligations whose
verdicts monotonicity cannot supply, and every carried-over verdict is
precision-independent.  What the engine saves is every abstract-post
decision in untouched regions plus every old-positive re-derivation in
strengthened ones.

The predicates produced by path-invariant refinement are conjunctive per
location, so Cartesian abstraction is precise enough to reconstruct the
safety proofs of the paper's examples.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from ..lang.cfg import Location, Program, Transition
from ..lang.commands import touched_names, written_names
from ..logic.formulas import FALSE, Formula, TRUE
from ..smt.budget import BudgetExhausted
from ..smt.vcgen import VcChecker

__all__ = [
    "Precision",
    "ArtNode",
    "Art",
    "ReachabilityOutcome",
    "Frontier",
    "BfsFrontier",
    "DfsFrontier",
    "ErrorDistanceFrontier",
    "make_frontier",
    "FRONTIER_NAMES",
    "split_frame_predicates",
]


class Precision:
    """Location-indexed predicate sets (the abstraction ``Pi`` of the paper).

    Besides the predicate sets themselves, the precision keeps an append-only
    journal of successful additions so that the incremental engine can ask
    "which locations changed since the last reachability round?" without the
    refiners having to report anything (``mark()`` / ``added_since()``).
    """

    def __init__(self) -> None:
        self._predicates: dict[Location, set[Formula]] = {}
        self._journal: list[tuple[Location, Formula]] = []

    def predicates_at(self, location: Location) -> frozenset[Formula]:
        return frozenset(self._predicates.get(location, set()))

    def add(self, location: Location, predicate: Formula) -> bool:
        """Add a predicate; returns True when it is new."""
        if predicate in (TRUE, FALSE):
            return False
        existing = self._predicates.setdefault(location, set())
        if predicate in existing:
            return False
        existing.add(predicate)
        self._journal.append((location, predicate))
        return True

    def mark(self) -> int:
        """An opaque journal position for later :meth:`added_since` calls."""
        return len(self._journal)

    def added_since(self, mark: int) -> dict[Location, tuple[Formula, ...]]:
        """Predicates added after ``mark``, grouped by location."""
        delta: dict[Location, list[Formula]] = {}
        for location, predicate in self._journal[mark:]:
            delta.setdefault(location, []).append(predicate)
        return {location: tuple(preds) for location, preds in delta.items()}

    def total_predicates(self) -> int:
        return sum(len(preds) for preds in self._predicates.values())

    def locations(self) -> list[Location]:
        return sorted(self._predicates, key=lambda l: l.name)

    def snapshot(self) -> dict[Location, frozenset[Formula]]:
        """An immutable per-location view (used by equivalence tests)."""
        return {
            location: frozenset(preds)
            for location, preds in self._predicates.items()
            if preds
        }

    def by_location_name(self) -> dict[str, tuple[Formula, ...]]:
        """The predicate sets keyed by location *name* (deterministic order).

        Location names are stable across independent parses of the same
        source (the CFG builder is deterministic), so this is the portable
        form a precision travels in — across process pools and between
        sessions (see :class:`repro.core.api.PrecisionStore`).  Formulas are
        picklable and re-intern on load.
        """
        return {
            location.name: tuple(sorted(predicates, key=str))
            for location, predicates in self._predicates.items()
            if predicates
        }

    @classmethod
    def from_location_names(
        cls,
        program: Program,
        payload: dict[str, Iterable[Formula]],
    ) -> "Precision":
        """Rebind a :meth:`by_location_name` payload onto ``program``.

        Names with no matching location in ``program`` are ignored (the
        payload may come from a store keyed by fingerprint, but defensive
        matching keeps a stale entry from crashing a run).
        """
        precision = cls()
        locations = {location.name: location for location in program.locations}
        for name, predicates in payload.items():
            location = locations.get(name)
            if location is None:
                continue
            for predicate in sorted(predicates, key=str):
                precision.add(location, predicate)
        return precision

    def copy(self) -> "Precision":
        clone = Precision()
        for location, predicates in self._predicates.items():
            clone._predicates[location] = set(predicates)
        clone._journal = list(self._journal)
        return clone

    def __str__(self) -> str:
        lines = []
        for location in self.locations():
            rendered = ", ".join(sorted(str(p) for p in self._predicates[location]))
            lines.append(f"  Pi({location}) = {{ {rendered} }}")
        return "\n".join(lines) or "  (no predicates)"


@dataclass(eq=False)
class ArtNode:
    """A node of the abstract reachability tree.

    ``eq=False`` keeps identity semantics: nodes live in hash-based indices
    (coverage, per-location) and carry parent/child references, so structural
    equality would both recurse and conflate distinct tree positions.
    """

    location: Location
    state: frozenset[Formula]
    parent: Optional["ArtNode"] = None
    incoming: Optional[Transition] = None
    node_id: int = 0
    covered_by: Optional["ArtNode"] = None
    depth: int = 0
    children: list["ArtNode"] = field(default_factory=list)
    #: Nodes whose coverage this node is responsible for (it is their
    #: representative in the coverage index).
    covers: list["ArtNode"] = field(default_factory=list)
    removed: bool = False
    #: Bumped when the node's pending obligations are retired (cover folds,
    #: orphan re-opens); frontier entries carry the epoch at push time so
    #: stale obligations are skipped on pop.
    epoch: int = 0

    def path_from_root(self) -> list[Transition]:
        transitions: list[Transition] = []
        node: Optional[ArtNode] = self
        while node is not None and node.incoming is not None:
            transitions.append(node.incoming)
            node = node.parent
        transitions.reverse()
        return transitions


@dataclass
class ReachabilityOutcome:
    """Result of one abstract-reachability run."""

    #: None when the error location is unreachable in the abstraction.
    counterexample: Optional[list[Transition]]
    exhausted: bool = False  # True when a node/solver/time budget was hit
    #: Why the exploration was cut short (only set when ``exhausted``).
    exhausted_reason: str = ""

    @property
    def is_safe(self) -> bool:
        return self.counterexample is None and not self.exhausted


# ----------------------------------------------------------------------
# Frontier disciplines (pluggable exploration strategies)
# ----------------------------------------------------------------------
#: A frontier entry: expand ``node`` along ``transition`` (the epoch pins the
#: obligation to the node's state at push time).
_Obligation = tuple[ArtNode, Transition, int]


class Frontier:
    """Interface of exploration orders over per-edge obligations."""

    name = "abstract"

    def push(self, node: ArtNode, transition: Transition) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[_Obligation]:
        raise NotImplementedError

    def pending(self) -> list[_Obligation]:
        """The queued obligations, in no particular order (introspection)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class BfsFrontier(Frontier):
    """First-in first-out: breadth-first over the tree (the paper's order)."""

    name = "bfs"

    def __init__(self) -> None:
        self._queue: deque[_Obligation] = deque()

    def push(self, node: ArtNode, transition: Transition) -> None:
        self._queue.append((node, transition, node.epoch))

    def pop(self) -> Optional[_Obligation]:
        return self._queue.popleft() if self._queue else None

    def pending(self) -> list[_Obligation]:
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


class DfsFrontier(Frontier):
    """Last-in first-out: depth-first plunges (finds deep bugs early)."""

    name = "dfs"

    def __init__(self) -> None:
        self._stack: list[_Obligation] = []

    def push(self, node: ArtNode, transition: Transition) -> None:
        self._stack.append((node, transition, node.epoch))

    def pop(self) -> Optional[_Obligation]:
        return self._stack.pop() if self._stack else None

    def pending(self) -> list[_Obligation]:
        return list(self._stack)

    def __len__(self) -> int:
        return len(self._stack)


class ErrorDistanceFrontier(Frontier):
    """Best-first by static distance to the error location.

    The distance map is a reverse BFS over the CFG; obligations whose target
    is closer to the error location are expanded first.  Equal-rank
    obligations are ordered by the *stable node id* of their source — not by
    insertion order — so which obligation pops first, and with it the
    refined pivot, does not depend on when it was queued (ART repair and
    budget stops re-queue obligations out of creation order).  The
    insertion counter remains only as the final tie-break among multiple
    outgoing transitions of one node, where push order is deterministic
    (CFG declaration order).
    """

    name = "error-distance"

    def __init__(self, program: Program) -> None:
        self._distance = self._distances(program)
        self._heap: list[tuple[int, int, int, _Obligation]] = []
        self._counter = 0

    @staticmethod
    def _distances(program: Program) -> dict[Location, int]:
        incoming: dict[Location, list[Transition]] = {}
        for transition in program.transitions:
            incoming.setdefault(transition.target, []).append(transition)
        distance = {program.error: 0}
        queue = deque([program.error])
        while queue:
            location = queue.popleft()
            for transition in incoming.get(location, []):
                if transition.source not in distance:
                    distance[transition.source] = distance[location] + 1
                    queue.append(transition.source)
        return distance

    def push(self, node: ArtNode, transition: Transition) -> None:
        rank = self._distance.get(transition.target, len(self._distance) + 1)
        self._counter += 1
        heapq.heappush(
            self._heap,
            (rank, node.node_id, self._counter, (node, transition, node.epoch)),
        )

    def pop(self) -> Optional[_Obligation]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[3]

    def pending(self) -> list[_Obligation]:
        return [entry for _, _, _, entry in self._heap]

    def __len__(self) -> int:
        return len(self._heap)


FRONTIER_NAMES = ("bfs", "dfs", "error-distance")


def make_frontier(name: str, program: Program) -> Frontier:
    """Construct an exploration strategy by name."""
    if name == "bfs":
        return BfsFrontier()
    if name == "dfs":
        return DfsFrontier()
    if name == "error-distance":
        return ErrorDistanceFrontier(program)
    raise ValueError(f"unknown exploration strategy {name!r}; expected one of {FRONTIER_NAMES}")


# ----------------------------------------------------------------------
# The Cartesian-post frame rule
# ----------------------------------------------------------------------
def split_frame_predicates(
    state: frozenset[Formula],
    transition: Transition,
    predicates: Iterable[Formula],
) -> tuple[list[Formula], list[Formula]]:
    """Split ``predicates`` into ``(carried, undecided)`` across ``transition``.

    ``carried`` are the predicates the frame rule settles for free: they
    already hold in ``state`` and none of their variables or arrays is
    written by the transition, so they keep holding.  ``undecided`` is
    everything else — the part that needs the abstract-post oracle (what
    :meth:`Art._cartesian_post` sends to the solver).  Pure and
    deterministic: the same inputs always yield the same split, in
    predicate order.
    """
    written: Optional[set[str]] = None
    carried: list[Formula] = []
    undecided: list[Formula] = []
    for predicate in predicates:
        if predicate in state:
            if written is None:
                written = written_names(transition.commands)
            if not touched_names(predicate) & written:
                carried.append(predicate)
                continue
        undecided.append(predicate)
    return carried, undecided


# ----------------------------------------------------------------------
# The persistent abstract reachability tree
# ----------------------------------------------------------------------
class Art:
    """A persistent abstract reachability tree.

    The tree, its frontier and its coverage index live across refinement
    rounds.  :meth:`explore` advances the frontier under the current
    precision until the error location is reached, the frontier drains, or a
    budget trips; :meth:`apply_refinement` repairs the tree after the
    precision grew instead of discarding it.
    """

    def __init__(
        self,
        program: Program,
        checker: Optional[VcChecker] = None,
        frontier: Optional[Frontier] = None,
    ) -> None:
        self.program = program
        self.checker = checker or VcChecker()
        # Not `frontier or ...`: an empty frontier is falsy via __len__.
        self.frontier = frontier if frontier is not None else BfsFrontier()
        self._outgoing: dict[Location, list[Transition]] = {}
        for transition in program.transitions:
            self._outgoing.setdefault(transition.source, []).append(transition)

        self.root = ArtNode(program.initial, frozenset(), node_id=0)
        self._by_location: dict[Location, list[ArtNode]] = {program.initial: [self.root]}
        #: Coverage index: per location, the distinct abstract states already
        #: reached, each owned by the (live, uncovered) representative node
        #: that first reached it.
        self._reached: dict[Location, dict[frozenset[Formula], ArtNode]] = {
            program.initial: {self.root.state: self.root}
        }
        self._error_node: Optional[ArtNode] = None

        # Lifetime counters (monotone; per-round deltas are taken by callers).
        self.nodes_created = 1
        self.edges_expanded = 0
        #: Abstract-post decisions requested from the checker: edge
        #: feasibility checks plus per-predicate post checks.  Frame-rule
        #: shortcuts are not counted (neither engine pays for them); memo
        #: hits are — a restart engine re-requests them, this one does not.
        self.post_decisions = 0
        self.nodes_invalidated = 0
        self.nodes_reused = 0
        self.nodes_strengthened = 0

        self._enqueue_all(self.root)

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def explore(
        self, precision: Precision, max_nodes: Optional[int] = None
    ) -> ReachabilityOutcome:
        """Advance the frontier until an error path, a fixpoint, or a budget.

        ``max_nodes`` bounds the *cumulative* nodes created over the tree's
        lifetime (matching the restart engine, which counts per run — a
        persistent tree creates strictly fewer).  The wall-clock and
        solver-call budgets trip inside the checker
        (:class:`~repro.smt.budget.BudgetExhausted`) before an expansion
        changes the tree.
        """
        while True:
            entry = self.frontier.pop()
            if entry is None:
                break
            node, transition, epoch = entry
            if node.removed or node.covered_by is not None or epoch != node.epoch:
                continue
            try:
                if max_nodes is not None and self.nodes_created > max_nodes:
                    raise BudgetExhausted(f"node budget of {max_nodes} exhausted")
                child = self._expand_edge(node, transition, precision)
            except BudgetExhausted as trip:
                # Re-queue the untouched obligation so a later round with a
                # larger budget can resume exactly where this one stopped.
                self.frontier.push(node, transition)
                return ReachabilityOutcome(
                    None, exhausted=True, exhausted_reason=trip.reason
                )
            if child is not None and child.location == self.program.error:
                self._error_node = child
                return ReachabilityOutcome(child.path_from_root())
        return ReachabilityOutcome(None)

    def _expand_edge(
        self, node: ArtNode, transition: Transition, precision: Precision
    ) -> Optional[ArtNode]:
        """Compute the Cartesian post along one edge; attach and index the child."""
        self.edges_expanded += 1
        self.post_decisions += 1
        if not self.checker.edge_feasible(node.state, transition):
            return None
        successor_state = self._cartesian_post(node.state, transition, precision)
        child = ArtNode(
            transition.target,
            successor_state,
            parent=node,
            incoming=transition,
            node_id=self.nodes_created,
            depth=node.depth + 1,
        )
        self.nodes_created += 1
        node.children.append(child)
        self._by_location.setdefault(child.location, []).append(child)
        if child.location == self.program.error:
            return child
        representative = self._find_cover(child)
        if representative is not None:
            child.covered_by = representative
            representative.covers.append(child)
            return child
        self._reached.setdefault(child.location, {})[child.state] = child
        self._enqueue_all(child)
        return child

    def _cartesian_post(
        self,
        state: frozenset[Formula],
        transition: Transition,
        precision: Precision,
        predicates: Optional[Iterable[Formula]] = None,
    ) -> frozenset[Formula]:
        """The set of target-location predicates implied across the edge.

        ``predicates`` restricts the decision to a subset (the delta recheck
        path); by default every predicate of the target's precision is
        decided.
        """
        if predicates is None:
            predicates = precision.predicates_at(transition.target)
        # Frame rule shortcut: a predicate that already holds and whose
        # variables/arrays are untouched by the transition keeps holding.
        carried, undecided = split_frame_predicates(state, transition, predicates)
        successors: set[Formula] = set(carried)
        if undecided:
            # One batched query for the whole edge: the checker answers memo
            # hits from the post cache and decides the rest inside a single
            # incremental solver context (the edge is translated and its
            # ``pre ∧ trans`` core asserted once, each predicate costing one
            # push/check/pop of its negated renamed form).
            self.post_decisions += len(undecided)
            verdicts = self.checker.post_all_predicates(state, transition, undecided)
            successors.update(p for p, holds in verdicts.items() if holds)
        return frozenset(successors)

    def _find_cover(
        self, node: ArtNode, exclude_subtree: bool = False
    ) -> Optional[ArtNode]:
        """The representative of a weaker abstract state, if one is reached.

        An exact membership test catches the common duplicate-state case
        before the subset scan.  ``exclude_subtree`` rejects representatives
        that are descendants of ``node`` itself: when an *internal* node is
        re-covered after strengthening, covering it by its own subtree would
        be circular (the coverer is deleted with the folded subtree) — a
        freshly created leaf can never hit this, so expansion skips the walk.
        """
        states = self._reached.get(node.location)
        if not states:
            return None
        exact = states.get(node.state)
        if exact is not None and not (exclude_subtree and self._is_descendant(exact, node)):
            return exact
        for state, representative in states.items():
            if state.issubset(node.state):
                if exclude_subtree and self._is_descendant(representative, node):
                    continue
                return representative
        return None

    @staticmethod
    def _is_descendant(node: ArtNode, ancestor: ArtNode) -> bool:
        if node.depth <= ancestor.depth:
            return False
        current: Optional[ArtNode] = node
        while current is not None and current.depth > ancestor.depth:
            current = current.parent
        return current is ancestor

    def _enqueue_all(self, node: ArtNode) -> None:
        for transition in self._outgoing.get(node.location, []):
            self.frontier.push(node, transition)

    # ------------------------------------------------------------------
    # Refinement repair (pivot invalidation + delta recheck)
    # ------------------------------------------------------------------
    def apply_refinement(
        self, precision: Precision, delta: dict[Location, tuple[Formula, ...]]
    ) -> dict[str, int]:
        """Repair the tree after predicates ``delta`` were added to ``precision``.

        Returns per-call counters: ``rechecked`` (pivot nodes
        delta-rechecked), ``reused`` (nodes whose state came out unchanged,
        stopping the repair wave and keeping their subtrees), ``strengthened``
        (nodes whose state gained a predicate), ``invalidated`` (nodes
        removed because their incoming edge became infeasible or their
        subtree folded under a cover), ``retained`` (live nodes surviving the
        repair — work a restart engine would re-derive from scratch).
        """
        invalidated_before = self.nodes_invalidated
        reused_before = self.nodes_reused
        strengthened_before = self.nodes_strengthened

        orphans: list[ArtNode] = []
        # The refuted counterexample's error node always goes: its abstract
        # path was infeasible, and the repaired ancestors re-derive (or
        # refute) the edge when its obligation comes back up.
        self.drop_error_node()

        candidates = [
            node
            for location in delta
            for node in self._by_location.get(location, [])
            if not node.removed and node.parent is not None
        ]
        # Top-down: a wave started at a shallower pivot settles every node it
        # reaches (marking it visited), so deeper candidates inside an
        # already-repaired subtree are skipped.
        candidates.sort(key=lambda node: (node.depth, node.node_id))
        visited: set[int] = set()
        rechecked = 0
        for node in candidates:
            if node.removed or id(node) in visited:
                continue
            rechecked += 1
            parent = node.parent
            assert parent is not None and not parent.removed
            gained = self._cartesian_post(
                parent.state,
                node.incoming,
                precision,
                predicates=[p for p in delta[node.location] if p not in node.state],
            )
            if not gained:
                # The node's state is already complete under the new
                # precision: the whole subtree below it is reused as is.
                visited.add(id(node))
                self.nodes_reused += 1
                continue
            self._strengthen_wave(node, node.state | gained, precision, visited, orphans)

        self._repair_orphans(orphans)
        return {
            "rechecked": rechecked,
            "reused": self.nodes_reused - reused_before,
            "strengthened": self.nodes_strengthened - strengthened_before,
            "invalidated": self.nodes_invalidated - invalidated_before,
            "retained": self.num_live_nodes(),
        }

    def drop_error_node(self) -> None:
        """Remove the current error node and re-enqueue its incoming edge.

        Called by refinement repair, and by the engine when it returns
        *without* refining an infeasible counterexample (refinement budget
        tripped, refiner made no progress).  Leaving the error node in the
        tree would be unsound under resumption: its concrete-infeasibility
        verdict holds for its own path only, yet coverage would let deeper
        paths fold onto its ancestors and drain the frontier into a SAFE
        verdict nobody checked.  Re-enqueueing the edge makes a resumed
        round re-derive the counterexample and actually refine (or refute)
        it.
        """
        if self._error_node is not None and not self._error_node.removed:
            error = self._error_node
            self._detach_leaf(error)
            if error.parent is not None and not error.parent.removed:
                self.frontier.push(error.parent, error.incoming)
        self._error_node = None

    def _strengthen_wave(
        self,
        node: ArtNode,
        new_state: frozenset[Formula],
        precision: Precision,
        visited: set[int],
        orphans: list[ArtNode],
    ) -> None:
        """Propagate a strictly stronger state down the tree.

        Monotonicity of the Cartesian post (a stronger source implies every
        old positive verdict and keeps infeasible edges infeasible) lets each
        child be repaired by re-deciding only its incoming-edge feasibility
        and its previously-negative predicates; a child whose state comes out
        unchanged stops the wave and keeps its subtree.
        """
        stack: list[tuple[ArtNode, frozenset[Formula]]] = [(node, new_state)]
        while stack:
            current, state = stack.pop()
            visited.add(id(current))
            self.nodes_strengthened += 1
            self._drop_representative(current, orphans)
            current.state = state
            if current.covered_by is not None:
                # Still covered: the covering state is a subset of the old
                # state, hence of the strictly larger new one.
                continue
            representative = self._find_cover(current, exclude_subtree=True)
            if representative is not None:
                # The stronger state falls under an existing weaker one
                # outside the node's own subtree, so the subtree is
                # redundant — fold it away.  Register the coverage first: if
                # the representative is itself removed later in this repair,
                # the orphan pass re-homes this node.
                current.covered_by = representative
                representative.covers.append(current)
                for child in current.children:
                    self._remove_subtree(child, orphans)
                current.children = []
                current.epoch += 1  # retire any pending expansion obligations
                continue
            self._reached.setdefault(current.location, {})[current.state] = current

            for child in list(current.children):
                self.post_decisions += 1
                if not self.checker.edge_feasible(current.state, child.incoming):
                    # The edge closed under the stronger state.  Monotonicity
                    # makes this final — no re-expansion obligation needed.
                    current.children.remove(child)
                    self._remove_subtree(child, orphans)
                    continue
                grown = self._cartesian_post(
                    current.state,
                    child.incoming,
                    precision,
                    predicates=[
                        p
                        for p in precision.predicates_at(child.location)
                        if p not in child.state
                    ],
                )
                if grown:
                    stack.append((child, child.state | grown))
                else:
                    visited.add(id(child))
                    self.nodes_reused += 1

    def _remove_subtree(self, node: ArtNode, orphans: list[ArtNode]) -> None:
        stack = [node]
        while stack:
            current = stack.pop()
            current.removed = True
            self.nodes_invalidated += 1
            if self._error_node is current:
                self._error_node = None
            self._by_location[current.location].remove(current)
            self._drop_representative(current, orphans)
            if current.covered_by is not None:
                current.covered_by = None  # the coverer need not track dead nodes
            stack.extend(current.children)
            current.children = []

    def _detach_leaf(self, node: ArtNode) -> None:
        node.removed = True
        self.nodes_invalidated += 1
        self._by_location[node.location].remove(node)
        if node.parent is not None:
            node.parent.children.remove(node)

    def _drop_representative(self, node: ArtNode, orphans: list[ArtNode]) -> None:
        """Un-index a node's state and orphan everything it covered."""
        states = self._reached.get(node.location)
        if states is not None and states.get(node.state) is node:
            del states[node.state]
        if node.covers:
            orphans.extend(node.covers)
            node.covers = []

    def _repair_orphans(self, orphans: list[ArtNode]) -> None:
        """Re-cover or re-open nodes whose representative went away.

        Deferred to the end of the repair pass so re-checks run against the
        settled coverage index.
        """
        for node in orphans:
            if node.removed:
                continue
            node.covered_by = None
            representative = self._find_cover(node)
            if representative is not None:
                node.covered_by = representative
                representative.covers.append(node)
                continue
            self._reached.setdefault(node.location, {})[node.state] = node
            node.epoch += 1
            self._enqueue_all(node)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_nodes(self) -> Iterator[ArtNode]:
        """All nodes currently in the tree (root first, pre-order)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def num_live_nodes(self) -> int:
        return sum(1 for _ in self.live_nodes())

    def statistics(self) -> dict[str, int]:
        return {
            "nodes_created": self.nodes_created,
            "nodes_live": self.num_live_nodes(),
            "nodes_invalidated": self.nodes_invalidated,
            "nodes_reused": self.nodes_reused,
            "nodes_strengthened": self.nodes_strengthened,
            "edges_expanded": self.edges_expanded,
            "post_decisions": self.post_decisions,
            "frontier": len(self.frontier),
        }

    def validate(self, precision: Precision) -> list[str]:
        """Structural soundness of the (repaired) tree; [] when consistent.

        Checks, for every live node: the recorded state is exactly the
        Cartesian post of its parent's state under the current precision
        (decided through the memoised checker, so validation is cheap after a
        run — this is the invariant the repair wave maintains); covered nodes
        point at live, uncovered representatives with weaker states;
        uncovered non-error nodes have a child, a queued obligation, or an
        infeasible edge for every outgoing transition.  Used by the
        incremental-vs-restart equivalence tests.
        """
        problems: list[str] = []
        pending: set[tuple[int, Transition]] = set()
        # Collect what is still queued so unexpanded edges are not flagged.
        for node, transition, epoch in self.frontier.pending():
            if epoch == node.epoch:
                pending.add((id(node), transition))

        for node in self.live_nodes():
            if node.removed:
                problems.append(f"live node {node.node_id} is marked removed")
            if node.parent is not None and node.location != self.program.error:
                expected = self._cartesian_post(node.parent.state, node.incoming, precision)
                if expected != node.state:
                    problems.append(
                        f"node {node.node_id}@{node.location} state mismatch: "
                        f"has {sorted(map(str, node.state))}, "
                        f"expected {sorted(map(str, expected))}"
                    )
            if node.covered_by is not None:
                rep = node.covered_by
                if rep.removed or rep.covered_by is not None:
                    problems.append(f"node {node.node_id} covered by a dead/covered node")
                elif not rep.state.issubset(node.state):
                    problems.append(f"node {node.node_id} covered by a non-weaker state")
                continue
            if node.location == self.program.error:
                continue
            for transition in self._outgoing.get(node.location, []):
                if (id(node), transition) in pending:
                    continue
                if any(child.incoming is transition for child in node.children):
                    continue
                if self.checker.edge_feasible(node.state, transition):
                    problems.append(
                        f"node {node.node_id}@{node.location} misses the feasible edge {transition}"
                    )
        return problems

