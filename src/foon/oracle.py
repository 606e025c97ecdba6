"""Exhaustive enumeration of every valid task tree on small graphs.

Ground truth for testing the retrieval algorithms: enumerates all consistent
resolutions (one producer per needed key, kitchen always satisfies, acyclic
by path-pruning) instead of following any particular search order. Guarded
so it is only ever run on desk-scale graphs.
"""

from __future__ import annotations

from math import comb

from .core import (
    FoonError,
    FoonGraph,
    GoalSpec,
    Kitchen,
    ObjectKey,
    find_candidate_units,
)
from .retrieval import UnresolvableGoal


class TooLarge(FoonError):
    """The graph/bound combination implies too many subsets to enumerate."""


MAX_COMBINATIONS = 10**6


def _check_guard(n_units: int, max_units: int):
    total = sum(comb(n_units, k) for k in range(min(max_units, n_units) + 1))
    if total > MAX_COMBINATIONS:
        raise TooLarge(
            f"{n_units} units with bound {max_units} implies {total} subsets (> {MAX_COMBINATIONS})"
        )


def enumerate_resolutions(
    graph: FoonGraph,
    kitchen: Kitchen,
    goal: GoalSpec,
    max_units: int,
) -> list[tuple[frozenset, int]]:
    """All unit sets of size <= max_units that completely resolve the goal,
    each paired with its minimum resolution depth.

    A resolution assigns every needed key either to the kitchen or to exactly
    one chosen unit; every chosen unit is actually used. Depth is the longest
    chain of unit hops from the goal down to a kitchen item. The result is
    duplicate-free, sorted for determinism.
    """
    _check_guard(len(graph), max_units)

    found: dict[frozenset, int] = {}

    def depth_of(key: ObjectKey, producer: dict) -> int:
        if key in kitchen:
            return 0
        unit = graph.units[producer[key]]
        return 1 + max(depth_of(ikey, producer) for ikey in unit.inputs)

    def expand(pending: list[ObjectKey], producer: dict, path_stack: list[frozenset]):
        # pending holds (key, path) pairs flattened as parallel stacks
        if not pending:
            units = frozenset(producer.values())
            depth = depth_of(goal.target, producer)
            if units not in found or depth < found[units]:
                found[units] = depth
            return
        key = pending[-1]
        path = path_stack[-1]
        if key in kitchen or key in producer:
            expand(pending[:-1], producer, path_stack[:-1])
            return
        new_path = path | {key}
        for pos in find_candidate_units(graph, key):
            inputs = graph.units[pos].inputs
            if any(ikey in new_path for ikey in inputs):
                continue
            next_producer = dict(producer)
            next_producer[key] = pos
            if len(set(next_producer.values())) > max_units:
                continue
            next_pending = pending[:-1] + list(inputs)
            next_paths = path_stack[:-1] + [new_path] * len(inputs)
            expand(next_pending, next_producer, next_paths)

    if goal.target in kitchen:
        return [(frozenset(), 0)]
    expand([goal.target], {}, [frozenset()])
    return sorted(found.items(), key=lambda item: (len(item[0]), sorted(item[0]), item[1]))


def _minima(graph: FoonGraph, kitchen: Kitchen, goal: GoalSpec) -> tuple[int, int]:
    """Fewest units and smallest depth over all valid resolutions, from one
    enumeration; the two minima may come from different resolutions."""
    resolutions = enumerate_resolutions(graph, kitchen, goal, max_units=len(graph))
    if not resolutions:
        raise UnresolvableGoal(goal.target, "no-candidates")
    return min(len(units) for units, _ in resolutions), min(depth for _, depth in resolutions)


def minimal_units(graph: FoonGraph, kitchen: Kitchen, goal: GoalSpec) -> int:
    """Fewest units any valid resolution needs."""
    return _minima(graph, kitchen, goal)[0]


def minimal_depth(graph: FoonGraph, kitchen: Kitchen, goal: GoalSpec) -> int:
    """Smallest resolution depth over all valid resolutions."""
    return _minima(graph, kitchen, goal)[1]
