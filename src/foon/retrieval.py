"""Task tree retrieval: backward chaining from a goal object over a FOON.

Producing an object is an OR over its candidate units; executing a unit is an
AND over its inputs. One engine, :func:`_backtrack`, walks this AND-OR
structure backward from the goal with chronological backtracking, over an
explicit stack, so no graph depth reaches Python's recursion limit. Each
driver hands it an ``options(key, path)`` generator that yields the
candidate units to try for a needed key, in order:

* :func:`retrieve_ids` yields candidates in ascending unit order under a
  depth bound measured in functional-unit hops, restarting with bound + 1
  until a full resolution fits.
* :func:`retrieve_gbfs` yields them best-first by a heuristic (motion
  success rate, maximized, or input-object + ingredient count, minimized),
  logging each choice, with no bound. Input counts are memoised per graph
  as candidates are scored (:func:`_input_counts`); a failed goal scores
  nothing.

Both take the kitchen as a ``frozenset`` of keys and motion success rates as
a mapping of motion name to rate, so this module needs only :mod:`foon.core`.
What they derive from a graph lives in the graph's own memo
(:func:`_per_graph`), so no module-level state holds a graph or a kitchen.

Both prune any candidate whose inputs include a key already on the active
resolution path, which guarantees termination on cyclic graphs. A needed key
is produced by at most one unit per resolution, so shared intermediates are
computed once. Once a key resolves, its alternatives are dropped: a later
failure backtracks to the enclosing choice, never back into a finished key.

Before either searches, it looks the goal up in :func:`derivation_depths`,
one forward pass per ``(graph, kitchen)`` that gives every key the kitchen
can derive its fewest unit hops (Knuth's generalisation of Dijkstra's
algorithm to AND-OR graphs). Two facts make that lookup decide failures
without changing any outcome:

* *Completeness.* A search without a bound resolves every derivable goal,
  and so does a bounded one that cut no branch, since it ran as the
  unbounded one does. By induction on derivation depth, a needed key whose
  ancestors on the path are all deeper than it resolves: its frame
  eventually tries the unit that derives it fastest, whose inputs are
  shallower than the key, so none is on the path, and each input is in the
  kitchen, reused, or resolved by the induction hypothesis. So GBFS fails
  exactly on the goals the pass cannot derive, and IDS fails a bound on a
  derivable goal only when the bound cut a branch. What IDS finds at bound
  b has depth at most b, so a goal deeper than ``depth_cap`` fails every
  bound up to it.
* *Monotone bounds.* A search at bound b that cut no branch runs the same
  way at b + 1, because every bound check it passed still passes. So on a
  goal that cannot be derived, the bounds 0 ... ``depth_cap`` give
  ``no-candidates`` iff the search at ``depth_cap`` cuts nothing, and one
  search there decides the reason. Once it cuts, the reason is
  ``depth-cap-exhausted``, so that search stops at its first cut.

Most of those searches need not run at all. Take the *needs* graph, with an
edge from each key not in the kitchen to every input not in the kitchen of
each of its producers. The search at bound b cuts a branch in two places
only, and each cut follows a simple chain of at least b + 1 keys in it from
the goal:

* *A needed key at level l >= b.* The keys on the path from the goal to it
  have open frames, so none is in the kitchen, and path pruning keeps them
  and the key itself distinct: a chain of l + 1 keys.
* *A reuse at level l of a finished key whose subtree has height h, with
  l + h > b.* The subtree holds a chain of h keys not in the kitchen down
  from the reused key, which path pruning keeps off the path. No key of the
  subtree is on the path either. Each of them had finished when the reused
  key did, so a frame that was open then is not one of theirs, and a frame
  opened later for one of them needed a rollback to drop it. But a rollback
  after the reused key finished goes back to the mark of a frame that
  encloses the reused key, which drops that key too, or of a frame opened
  later, which drops nothing of its subtree. So the path and that chain
  form a chain of l + h keys.

:func:`_chain_bounds` bounds the keys of every simple chain from a key
from above, in linear time, by condensing the needs graph into strongly
connected components (Tarjan 1972): a simple chain leaves a component for
good once it leaves it, so it holds at most the sizes of the components on
one path of the condensation. When the goal's bound is at most
``depth_cap``, the search at the cap cuts nothing, and the reason is
``no-candidates`` without a search.
"""

from __future__ import annotations

import heapq
from enum import Enum
from functools import wraps
from types import MappingProxyType
from typing import Iterable, Mapping

from .core import (
    Algorithm,
    Decision,
    FoonError,
    FoonGraph,
    FunctionalUnit,
    GoalSpec,
    ObjectKey,
    SearchStats,
    TaskTree,
)

DEFAULT_DEPTH_CAP = 100
_KITCHENS = 4  # kitchens per graph whose derived data the graph keeps


class HeuristicId(Enum):
    SUCCESS_RATE = "success-rate"  # maximized
    INPUT_COUNT = "input-count"  # minimized


class UnresolvableGoal(FoonError):
    """The goal cannot be produced from the kitchen; ``reason`` says how.

    * :func:`retrieve_gbfs` gives ``"no-candidates"`` when no unit produces
      the goal, and ``"dead-end"`` when some unit does but the kitchen cannot
      derive the goal through any of them.
    * :func:`retrieve_ids` gives ``"depth-cap-exhausted"`` when the goal's
      derivation depth exceeds ``depth_cap``, or when the goal cannot be
      derived and the search at bound ``depth_cap`` cut a branch off. It
      gives ``"no-candidates"`` when the goal cannot be derived and that
      search cut nothing: the goal has no producers, or every chain under it
      within the cap ends in a key with no producers or closes a cycle.

    The failed retrieval's ``SearchStats`` counters are 0 when no search ran:
    always for GBFS, and for IDS when the derivation depth exceeds the cap or
    the goal's chain bound fits it. Otherwise IDS searched at the cap only
    until its first cut, so its counters are partial.
    """

    def __init__(self, goal: ObjectKey, reason: str):
        super().__init__(f"cannot resolve {goal}: {reason}")
        self.goal = goal
        self.reason = reason


class CyclicResolution(FoonError):
    """The chosen units admit no executable linear order."""


def heuristic_input_count(unit: FunctionalUnit) -> int:
    """Number of input objects plus their ingredient counts."""
    return len(unit.inputs) + sum(len(key.ingredients) for key in unit.inputs)


def execution_order(
    graph: FoonGraph,
    kitchen: frozenset[ObjectKey],
    chosen: Iterable[int],
) -> tuple[int, ...]:
    """Linearize a complete resolution into an executable step order.

    Repeatedly emits the lowest-index unit whose inputs are all available;
    raises :class:`CyclicResolution` when it gets stuck. This is Kahn's
    algorithm with a min-heap of ready units: each unit counts its distinct
    inputs not yet available and waits on them, and emitting a unit releases
    the units waiting on its outputs. A ready unit stays ready, so the heap
    emits the same order as rescanning for the lowest ready index, in
    O(E log V) time for E input edges over V chosen units.
    """
    units = graph.units
    missing: dict[int, int] = {}  # unit -> distinct inputs not yet available
    waiting: dict[ObjectKey, list[int]] = {}  # key -> units missing it
    ready: list[int] = []
    for pos in set(chosen):
        needs = {key for key in units[pos].inputs if key not in kitchen}
        if needs:
            missing[pos] = len(needs)
            for key in needs:
                waiting.setdefault(key, []).append(pos)
        else:
            ready.append(pos)
    heapq.heapify(ready)
    steps: list[int] = []
    while ready:
        pos = heapq.heappop(ready)
        steps.append(pos)
        for key in units[pos].outputs:
            # popped, so a key produced twice releases its waiters once
            for waiter in waiting.pop(key, ()):
                missing[waiter] -= 1
                if not missing[waiter]:
                    heapq.heappush(ready, waiter)
    remaining = sorted(pos for pos, count in missing.items() if count)
    if remaining:
        raise CyclicResolution(
            f"units {remaining} have no executable order (cycle or missing producer)"
        )
    return tuple(steps)


def _per_graph(build):
    """``build(graph, *args)``, kept in ``graph``'s memo for the ``_KITCHENS``
    most recently built ``args`` (a kitchen, or none) in a dict that is
    swapped in whole and never changed, so readers take no lock."""

    @wraps(build)
    def derived(graph: FoonGraph, *args):
        entries = graph._derived.get(build.__name__, {})
        value = entries.get(args)
        if value is None:
            value = derived.__wrapped__(graph, *args)  # read per call, so a test can count builds
            graph._derived[build.__name__] = dict([(args, value), *list(entries.items())[: _KITCHENS - 1]])
        return value

    return derived


@_per_graph
def derivation_depths(graph: FoonGraph, kitchen: frozenset[ObjectKey]) -> Mapping[ObjectKey, int]:
    """Fewest unit hops that derive each key from the ``kitchen`` keys, which
    are at 0; a key the kitchen cannot derive is absent.

    This is :func:`execution_order`'s Kahn loop over every unit, run level by
    level: each unit waits on its inputs not in the kitchen, the units that
    wait on nothing form the first frontier, a frontier settles its units'
    unsettled outputs at the current level, and the units those outputs
    release form the next frontier. Keys settle in nondecreasing depth, so a
    unit released at level d has depth d + 1, in O(E) time for E input
    edges. The result is kept in the graph's memo, so retrievals over the same
    graph and kitchen share it, read-only.
    """
    units = graph.units
    depth = dict.fromkeys(kitchen, 0)
    missing: list[int] = []  # unit -> input slots not yet derived
    # key -> one entry per slot waiting on it; a key settles once and pops
    # all of them, so a unit listing a key twice needs no set to count it
    waiting: dict[ObjectKey, list[int]] = {}
    frontier: list[int] = []
    for pos, unit in enumerate(units):
        count = 0
        for key in unit.inputs:
            if key not in kitchen:
                count += 1
                waiting.setdefault(key, []).append(pos)
        missing.append(count)
        if not count:
            frontier.append(pos)
    level = 0
    while frontier:
        level += 1
        released: list[int] = []
        for pos in frontier:
            for key in units[pos].outputs:
                if key not in depth:
                    depth[key] = level
                    for waiter in waiting.pop(key, ()):
                        missing[waiter] -= 1
                        if not missing[waiter]:
                            released.append(waiter)
        frontier = released
    return MappingProxyType(depth)


@_per_graph
def _input_counts(graph: FoonGraph) -> dict[int, float]:
    """The h2 scores of ``graph``'s units by position, which
    :func:`retrieve_gbfs` fills as it scores candidates, so no unit is scored
    twice and none that no retrieval meets is scored at all. One map per
    graph, kept in its memo; threads that race on a unit write the same
    score."""
    return {}


@_per_graph
def _chain_bounds(graph: FoonGraph, kitchen: frozenset[ObjectKey]) -> Mapping[ObjectKey, int]:
    """An upper bound on the keys of a simple chain from each key in the
    needs graph (see the module docstring). The map holds every key not in
    the ``kitchen`` that a unit produces, and every input not in it of
    their producers; a key with no producers has bound 1.

    One iterative pass of Tarjan's algorithm condenses the needs graph into
    strongly connected components. It emits them in reverse topological
    order, so when a component is emitted, every edge that leaves it ends in
    a key whose bound is set, and its keys' bound is its size plus the
    largest of those. That is O(E) time for E input edges. The result is
    kept in the graph's memo, read-only, like :func:`derivation_depths`.
    """
    units = graph.units
    bound: dict[ObjectKey, int] = {}
    index: dict[ObjectKey, int] = {}  # visit order
    low: dict[ObjectKey, int] = {}  # lowest index reachable through keys still in `open_keys`
    edges: dict[ObjectKey, list[ObjectKey]] = {}
    open_keys: list[ObjectKey] = []  # visited keys whose component is not emitted yet
    work: list[tuple] = []  # the depth-first path, each key with the edges left to follow

    def visit(key: ObjectKey) -> None:
        index[key] = low[key] = len(index)
        open_keys.append(key)
        edges[key] = [
            ikey for pos in graph.output_index.get(key, ()) for ikey in units[pos].inputs if ikey not in kitchen
        ]
        work.append((key, iter(edges[key])))

    for root in graph.output_index:
        if root in kitchen or root in index:
            continue
        visit(root)
        while work:
            key, rest = work[-1]
            for nxt in rest:
                if nxt not in index:
                    visit(nxt)
                    break
                if nxt not in bound:  # still open, so in the component of `key`
                    low[key] = min(low[key], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[key])
                if low[key] == index[key]:  # `key` roots a component: emit it
                    start = len(open_keys) - 1
                    while open_keys[start] is not key:
                        start -= 1
                    component = open_keys[start:]
                    del open_keys[start:]
                    # edges into keys already bound leave the component
                    below = max((bound[n] for k in component for n in edges[k] if n in bound), default=0)
                    for k in component:
                        bound[k] = len(component) + below
    return MappingProxyType(bound)


def _backtrack(
    graph: FoonGraph,
    kitchen: frozenset,
    target: ObjectKey,
    options,
    stats: SearchStats,
    bound: int | None = None,
    stop_at_cut: bool = False,
) -> tuple[dict[ObjectKey, int] | None, bool]:
    """Resolve ``target`` from the ``kitchen`` keys, trying the units that
    ``options(key, path)`` yields for each needed key, where ``path`` is the
    set of keys being resolved, ``key`` included.

    Returns ``(producer, cut)``: ``producer`` maps each needed key to its
    unit, or is ``None`` on failure. With ``stop_at_cut``, the search gives
    up at the first branch that the depth ``bound`` (unit hops from the
    target; ``None`` for none) cuts off, and ``cut`` tells whether it did;
    otherwise ``cut`` is False. Each unit tried counts in
    ``stats.units_expanded``.
    """
    units = graph.units
    producer: dict[ObjectKey, int] = {}
    height: dict[ObjectKey, int] = {}  # unit hops down to the kitchen per resolved key; kitchen items are 0
    trail: list[ObjectKey] = []  # assigned keys, oldest first, for rollback
    path: set[ObjectKey] = set()
    stack: list[list] = []  # frames: [key, level, choices, trail mark, inputs left]
    key, level = target, 0
    while True:
        # settle the needed key, or open a frame for it
        if key in kitchen:
            ok = True
        elif key in producer:  # reuse a finished subtree if it fits the bound
            ok = bound is None or level + height[key] <= bound
            if not ok and stop_at_cut:
                return None, True
        elif bound is not None and level >= bound:
            if stop_at_cut:
                return None, True
            ok = False
        else:
            path.add(key)
            stack.append([key, level, options(key, path), len(trail), None])
            ok = False  # a fresh frame takes its first choice like a failed one
        # pass the outcome up until some frame needs another key
        while stack:
            frame = stack[-1]
            if not ok:
                while len(trail) > frame[3]:  # roll back to the frame's mark
                    del producer[trail.pop()]
                pos = next(frame[2], None)
                if pos is None:
                    stack.pop()
                    path.discard(frame[0])
                    continue
                stats.units_expanded += 1
                producer[frame[0]] = pos
                trail.append(frame[0])
                frame[4] = iter(units[pos].inputs)
            key = next(frame[4], None)
            if key is not None:
                level = frame[1] + 1
                break
            if bound is not None:  # only a bound reads heights
                inputs = units[producer[frame[0]]].inputs
                height[frame[0]] = 1 + max(height.get(ikey, 0) for ikey in inputs)
            stack.pop()
            path.discard(frame[0])
            ok = True
        else:
            return (producer if ok else None), False


def retrieve_ids(
    graph: FoonGraph,
    kitchen: frozenset[ObjectKey],
    goal: GoalSpec,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> TaskTree:
    """Iterative deepening retrieval.

    The bound counts functional-unit hops from the goal: bound 0 succeeds
    only if the goal is already in the kitchen. Each iteration restarts the
    depth-first search from scratch; ``stats.units_expanded`` accumulates
    across iterations and ``stats.final_depth_bound`` records the first bound
    at which the search finds a resolution. That bound can exceed the
    minimal resolution depth: a key resolved once is reused wherever else it
    is needed, and when a reuse sits too deep for the bound the search does
    not go back to resolve that key through a shallower producer.

    The goal's :func:`derivation_depths` entry decides a failure first (see
    the module docstring): a derivation depth above ``depth_cap`` fails
    without a search. A goal that cannot be derived fails with
    ``no-candidates`` without a search when its :func:`_chain_bounds` entry
    is at most ``depth_cap``. Otherwise it runs the one search at bound
    ``depth_cap``, up to its first cut, and that search's counters are the
    failure's.
    """
    if depth_cap < 0:
        raise ValueError("depth_cap must be >= 0")
    stats = SearchStats(Algorithm.IDS)
    target = goal.target
    depth = derivation_depths(graph, kitchen).get(target)
    if depth is None:
        # every bound fails; one that cuts nothing runs alike at all larger ones,
        # and a cut needs a chain longer than the cap
        if _chain_bounds(graph, kitchen).get(target, 1) <= depth_cap:
            raise UnresolvableGoal(target, "no-candidates")
    elif depth > depth_cap:
        raise UnresolvableGoal(target, "depth-cap-exhausted")
    units, producers = graph.units, graph.output_index.get

    def options(key: ObjectKey, path: set):
        for pos in producers(key, ()):
            stats.candidate_evaluations += 1
            if path.isdisjoint(units[pos].inputs):  # else it would revisit the path
                yield pos

    if depth is None:
        _, cut = _backtrack(graph, kitchen, target, options, stats, depth_cap, stop_at_cut=True)
        raise UnresolvableGoal(target, "depth-cap-exhausted" if cut else "no-candidates")
    for bound in range(depth_cap + 1):
        # a derivable goal fails a bound only where the bound cut a branch
        producer, _ = _backtrack(graph, kitchen, target, options, stats, bound)
        if producer is not None:
            stats.final_depth_bound = bound
            return TaskTree(execution_order(graph, kitchen, producer.values()), stats)
    raise UnresolvableGoal(target, "depth-cap-exhausted")


def retrieve_gbfs(
    graph: FoonGraph,
    kitchen: frozenset[ObjectKey],
    goal: GoalSpec,
    heuristic: HeuristicId,
    rates: Mapping[str, float] = MappingProxyType({}),
) -> TaskTree:
    """Greedy best-first retrieval with ordered backtracking.

    At every needed key the candidates are scored with the heuristic and
    tried best-first (highest success rate, or lowest input count; ties go to
    the lowest unit index). Each attempt is appended to
    ``stats.decision_log`` with the candidates still alive at that point.
    Input counts are read from, and added to, the graph's memo
    (:func:`_input_counts`).

    A goal that :func:`derivation_depths` cannot derive fails without a
    search, so its counters are 0, its log is empty and it scores nothing;
    any other goal resolves (see the module docstring).
    """
    minimize = heuristic is HeuristicId.INPUT_COUNT
    stats = SearchStats(
        Algorithm.GBFS_H2 if minimize else Algorithm.GBFS_H1
    )
    units = graph.units
    target = goal.target
    if target not in derivation_depths(graph, kitchen):
        raise UnresolvableGoal(target, "dead-end" if target in graph.output_index else "no-candidates")

    producers = graph.output_index.get
    best, counts = (min, _input_counts(graph)) if minimize else (max, None)

    def options(key: ObjectKey, path: set):
        alive = [pos for pos in producers(key, ()) if path.isdisjoint(units[pos].inputs)]
        if minimize:
            for pos in alive:
                if pos not in counts:
                    counts[pos] = float(heuristic_input_count(units[pos]))
            scores = [counts[pos] for pos in alive]
        else:
            scores = [rates.get(units[pos].motion, 0.0) for pos in alive]
        stats.candidate_evaluations += len(alive)
        while alive:
            # min and max return the first best score, and `alive` ascends, so
            # ties go to the lowest unit
            i = scores.index(best(scores))
            stats.decision_log.append(Decision(key, tuple(alive), alive[i], tuple(scores)))
            yield alive[i]
            del alive[i], scores[i]

    producer, _ = _backtrack(graph, kitchen, target, options, stats)
    return TaskTree(execution_order(graph, kitchen, producer.values()), stats)
