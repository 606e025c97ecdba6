"""Exhaustive enumeration of every valid task tree.

Ground truth for testing the retrieval algorithms: enumerates all consistent
resolutions (one producer per needed key, kitchen always satisfies, acyclic
by path-pruning) instead of following any particular search order. The
enumeration runs over an explicit stack, so graph depth never meets Python's
recursion limit, and it gives up with :class:`TooLarge` once it has visited
``MAX_STATES`` search states.
"""

from __future__ import annotations

from .core import FoonError, FoonGraph, GoalSpec, ObjectKey
from .retrieval import UnresolvableGoal


class TooLarge(FoonError):
    """The enumeration visited more than ``MAX_STATES`` search states."""


MAX_STATES = 10**4


def _depth(graph: FoonGraph, kitchen: frozenset[ObjectKey], producer: dict, goal_key: ObjectKey) -> int:
    """Longest chain of unit hops from the goal down to a kitchen item under
    one complete, acyclic producer assignment; each key is computed once."""
    depth: dict[ObjectKey, int] = {}
    stack = [goal_key]
    while stack:
        key = stack[-1]
        if key in kitchen:
            depth[key] = 0
        elif key not in depth:
            inputs = graph.units[producer[key]].inputs
            missing = [ikey for ikey in inputs if ikey not in depth]
            if missing:
                stack.extend(missing)
                continue
            depth[key] = 1 + max(depth[ikey] for ikey in inputs)
        stack.pop()
    return depth[goal_key]


def enumerate_resolutions(
    graph: FoonGraph, kitchen: frozenset[ObjectKey], goal: GoalSpec
) -> list[tuple[frozenset, int]]:
    """All unit sets that completely resolve the goal, each paired with its
    minimum resolution depth.

    A resolution assigns every needed key either to the kitchen or to exactly
    one chosen unit; every chosen unit is actually used. Depth is the longest
    chain of unit hops from the goal down to a kitchen item. The result is
    duplicate-free, sorted for determinism. Raises :class:`TooLarge` when the
    enumeration pops more than ``MAX_STATES`` states off its stack.
    """
    found: dict[frozenset, int] = {}
    # a state is (pending (key, path) pairs, producer map); neither is mutated once pushed
    stack = [(((goal.target, frozenset()),), {})]
    popped = 0
    while stack:
        popped += 1
        if popped > MAX_STATES:
            raise TooLarge(f"enumeration passed {MAX_STATES} states")
        pending, producer = stack.pop()
        top = len(pending)
        while top and (pending[top - 1][0] in kitchen or pending[top - 1][0] in producer):
            top -= 1
        if not top:
            units = frozenset(producer.values())
            depth = _depth(graph, kitchen, producer, goal.target)
            if units not in found or depth < found[units]:
                found[units] = depth
            continue
        key, path = pending[top - 1]
        path = path | {key}
        for pos in graph.output_index.get(key, ()):
            inputs = graph.units[pos].inputs
            if not path.isdisjoint(inputs):
                continue
            stack.append((pending[: top - 1] + tuple((ikey, path) for ikey in inputs), {**producer, key: pos}))
    return sorted(found.items(), key=lambda item: (len(item[0]), sorted(item[0]), item[1]))


def minima(graph: FoonGraph, kitchen: frozenset[ObjectKey], goal: GoalSpec) -> tuple[int, int]:
    """Fewest units and smallest depth over all valid resolutions, from one
    enumeration; the two minima may come from different resolutions. Raises
    :class:`UnresolvableGoal` when there is no resolution."""
    resolutions = enumerate_resolutions(graph, kitchen, goal)
    if not resolutions:
        raise UnresolvableGoal(goal.target, "no-candidates")
    return min(len(units) for units, _ in resolutions), min(depth for _, depth in resolutions)
