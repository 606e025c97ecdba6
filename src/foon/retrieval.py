"""Task tree retrieval: backward chaining from a goal object over a FOON.

Producing an object is an OR over its candidate units; executing a unit is an
AND over its inputs. Both algorithms walk this AND-OR structure backward from
the goal with chronological backtracking, differing only in how they order
candidates and whether a depth bound applies:

* :func:`retrieve_ids` runs depth-first search under a depth bound measured
  in functional-unit hops, restarting with bound + 1 until a full resolution
  fits. Candidates are tried in ascending unit order.
* :func:`retrieve_gbfs` orders candidates by a heuristic (motion success
  rate, maximized, or input-object + ingredient count, minimized) and falls
  back to the next-best candidate on dead ends.

Both prune any candidate whose inputs include a key already on the active
resolution path, which guarantees termination on cyclic graphs. A needed key
is produced by at most one unit per resolution, so shared intermediates are
computed once.
"""

from __future__ import annotations

import heapq
from enum import Enum

from .core import (
    Algorithm,
    Decision,
    FoonError,
    FoonGraph,
    FunctionalUnit,
    GoalSpec,
    Kitchen,
    ObjectKey,
    SearchStats,
    TaskTree,
    find_candidate_units,
)
from .parser import EMPTY_RATES, MotionRateTable

DEFAULT_DEPTH_CAP = 100


class HeuristicId(Enum):
    SUCCESS_RATE = "success-rate"  # maximized
    INPUT_COUNT = "input-count"  # minimized


class UnresolvableGoal(FoonError):
    """The goal cannot be produced from the kitchen.

    ``reason`` is ``"no-candidates"`` when the failure is structural (some
    unavoidable key has no producers), ``"depth-cap-exhausted"`` when IDS ran
    out of depth bound, or ``"dead-end"`` when every GBFS candidate chain
    failed.
    """

    def __init__(self, goal: ObjectKey, reason: str):
        super().__init__(f"cannot resolve {goal}: {reason}")
        self.goal = goal
        self.reason = reason


class CyclicResolution(FoonError):
    """The chosen units admit no executable linear order."""


def heuristic_success_rate(unit: FunctionalUnit, rates: MotionRateTable) -> float:
    """Success rate of the unit's motion; unknown motions default to 0.0 so
    they never beat a known rate."""
    return rates.get(unit.motion.name, 0.0)


def heuristic_input_count(unit: FunctionalUnit) -> int:
    """Number of input objects plus their ingredient counts."""
    return len(unit.inputs) + sum(len(key.ingredients) for key in unit.inputs)


def execution_order(
    graph: FoonGraph,
    kitchen: Kitchen,
    goal: GoalSpec,
    chosen: set[int],
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
    items = kitchen.items
    missing: dict[int, int] = {}  # unit -> distinct inputs not yet available
    waiting: dict[ObjectKey, list[int]] = {}  # key -> units missing it
    ready: list[int] = []
    for pos in set(chosen):
        needs = {key for key in units[pos].inputs if key not in items}
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


class _Resolution:
    """Mutable assignment of needed keys to producing units, with a trail so
    failed branches roll back cleanly."""

    def __init__(self):
        self.producer: dict[ObjectKey, int] = {}
        self.trail: list[ObjectKey] = []

    def mark(self) -> int:
        return len(self.trail)

    def assign(self, key: ObjectKey, unit_pos: int):
        self.producer[key] = unit_pos
        self.trail.append(key)

    def rollback(self, mark: int):
        while len(self.trail) > mark:
            del self.producer[self.trail.pop()]

    def chosen_units(self) -> set[int]:
        return set(self.producer.values())


def retrieve_ids(
    graph: FoonGraph,
    kitchen: Kitchen,
    goal: GoalSpec,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> TaskTree:
    """Iterative deepening retrieval.

    The bound counts functional-unit hops from the goal: bound 0 succeeds
    only if the goal is already in the kitchen. Each iteration restarts the
    depth-first search from scratch; ``stats.units_expanded`` accumulates
    across iterations and ``stats.final_depth_bound`` records the first bound
    at which a full resolution exists.
    """
    if depth_cap < 0:
        raise ValueError("depth_cap must be >= 0")
    stats = SearchStats(Algorithm.IDS)
    target = goal.target

    for bound in range(depth_cap + 1):
        resolution = _Resolution()
        hit_bound = False

        def verify(key: ObjectKey, level: int) -> bool:
            # re-check an already-assigned subtree against the bound from a
            # new occurrence level
            nonlocal hit_bound
            if key in kitchen:
                return True
            if level >= bound:
                hit_bound = True
                return False
            unit = graph.units[resolution.producer[key]]
            return all(verify(ikey, level + 1) for ikey in unit.inputs)

        def resolve(key: ObjectKey, level: int, path: frozenset) -> bool:
            nonlocal hit_bound
            if key in kitchen:
                return True
            if key in resolution.producer:
                return verify(key, level)
            if level >= bound:
                hit_bound = True
                return False
            candidates = find_candidate_units(graph, key)
            path = path | {key}
            for pos in candidates:
                stats.candidate_evaluations += 1
                inputs = graph.units[pos].inputs
                if any(ikey in path for ikey in inputs):
                    continue  # would revisit the active path
                stats.units_expanded += 1
                mark = resolution.mark()
                resolution.assign(key, pos)
                if all(resolve(ikey, level + 1, path) for ikey in inputs):
                    return True
                resolution.rollback(mark)
            return False

        if resolve(target, 0, frozenset()):
            stats.final_depth_bound = bound
            steps = execution_order(graph, kitchen, goal, resolution.chosen_units())
            return TaskTree(steps, stats)
        if not hit_bound:
            # the bound never cut anything off, so deeper iterations would
            # explore the identical tree and fail the same way
            raise UnresolvableGoal(target, "no-candidates")

    raise UnresolvableGoal(target, "depth-cap-exhausted")


def retrieve_gbfs(
    graph: FoonGraph,
    kitchen: Kitchen,
    goal: GoalSpec,
    heuristic: HeuristicId,
    rates: MotionRateTable = EMPTY_RATES,
) -> TaskTree:
    """Greedy best-first retrieval with ordered backtracking.

    At every needed key the candidates are scored with the heuristic and
    tried best-first (highest success rate, or lowest input count; ties go to
    the lowest unit index). Each attempt is appended to
    ``stats.decision_log`` with the candidates still alive at that point.
    """
    minimize = heuristic is HeuristicId.INPUT_COUNT
    stats = SearchStats(
        Algorithm.GBFS_H2 if minimize else Algorithm.GBFS_H1
    )
    resolution = _Resolution()
    target = goal.target

    def score(unit: FunctionalUnit) -> float:
        stats.candidate_evaluations += 1
        if minimize:
            return float(heuristic_input_count(unit))
        return heuristic_success_rate(unit, rates)

    def resolve(key: ObjectKey, path: frozenset) -> bool:
        if key in kitchen:
            return True
        if key in resolution.producer:
            return True  # already produced by this resolution
        path = path | {key}
        alive = [
            pos
            for pos in find_candidate_units(graph, key)
            if not any(ikey in path for ikey in graph.units[pos].inputs)
        ]
        scores = {pos: score(graph.units[pos]) for pos in alive}
        while alive:
            best = min(alive, key=lambda pos: (scores[pos] if minimize else -scores[pos], pos))
            stats.decision_log.append(
                Decision(
                    needed=key,
                    candidates=tuple(alive),
                    chosen=best,
                    scores=tuple(scores[pos] for pos in alive),
                )
            )
            stats.units_expanded += 1
            mark = resolution.mark()
            resolution.assign(key, best)
            if all(resolve(ikey, path) for ikey in graph.units[best].inputs):
                return True
            resolution.rollback(mark)
            alive.remove(best)
        return False

    if not resolve(target, frozenset()):
        if not find_candidate_units(graph, target):
            raise UnresolvableGoal(target, "no-candidates")
        raise UnresolvableGoal(target, "dead-end")
    steps = execution_order(graph, kitchen, goal, resolution.chosen_units())
    return TaskTree(steps, stats)
