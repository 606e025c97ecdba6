"""Shared test utilities: graph builders, random generators, and the
independent brute-force resolution checker used to cross-examine both the
oracle and the search algorithms."""

from __future__ import annotations

import random
from itertools import combinations

from foon.core import (
    FoonGraph,
    FunctionalUnit,
    GoalSpec,
    Kitchen,
    MotionNode,
    ObjectKey,
    index_outputs,
)
from foon.parser import MotionRateTable
from foon.retrieval import CyclicResolution


def obj(name, states=(), ingredients=()):
    return ObjectKey(name, states, ingredients)


def key_of(name, states=(), ingredients=()):
    return obj(name, states, ingredients)


def unit(inputs, motion, outputs, ts=None):
    nodes_in = [o if isinstance(o, ObjectKey) else obj(o) for o in inputs]
    nodes_out = [o if isinstance(o, ObjectKey) else obj(o) for o in outputs]
    start, end = (ts or (None, None))
    return FunctionalUnit(nodes_in, MotionNode(motion, start, end), nodes_out)


def build_graph(unit_specs):
    """unit_specs: list of (inputs, motion, outputs) with bare names allowed."""
    return index_outputs([unit(i, m, o) for i, m, o in unit_specs])


def chain_graph(depth, with_decoys=True):
    """A goal at `depth` unit hops from the kitchen; each level optionally has
    a decoy producer whose input is unobtainable (branching factor 2)."""
    specs = []
    for i in range(depth):
        specs.append(([f"g{i + 1}"], f"m{i}", [f"g{i}"]))
        if with_decoys:
            specs.append(([f"dead{i}"], f"m{i}x", [f"g{i}"]))
    graph = build_graph(specs)
    kitchen = Kitchen.of({key_of(f"g{depth}")})
    return graph, kitchen, GoalSpec(key_of("g0"))


def random_instance(rng: random.Random, max_units=12, max_branching=3):
    """A random small retrieval instance: graph, kitchen, goal, rates.

    Cycles and unresolvable goals are both possible on purpose.
    """
    n_objects = rng.randint(4, 9)
    names = [f"obj{i}" for i in range(n_objects)]
    motions = ["chop", "stir", "bake", "pour", "mix"]
    units = []
    seen = set()
    for i, name in enumerate(names):
        for _ in range(rng.randint(0, max_branching)):
            if len(units) >= max_units:
                break
            n_inputs = rng.randint(1, 2)
            inputs = rng.sample([n for n in names if n != name], n_inputs)
            u = unit(inputs, rng.choice(motions), [name])
            if u not in seen:
                seen.add(u)
                units.append(u)
    graph = index_outputs(units)
    kitchen = Kitchen.of({key_of(n) for n in names if rng.random() < 0.35})
    goal = GoalSpec(key_of(names[0]))
    rates = MotionRateTable({m: round(rng.random(), 2) for m in motions if rng.random() < 0.8})
    return graph, kitchen, goal, rates


class _Cyclic(Exception):
    pass


def _assignment_depth(graph, kitchen, producer, goal_key):
    """Depth of the goal under one producer assignment, or None if cyclic."""

    def depth(key, on_stack):
        if key in kitchen:
            return 0
        if key in on_stack:
            raise _Cyclic
        unit_pos = producer[key]
        nested = on_stack | {key}
        return 1 + max(
            depth(ikey, nested) for ikey in graph.units[unit_pos].inputs
        )

    try:
        return depth(goal_key, frozenset())
    except _Cyclic:
        return None


def brute_force_resolutions(graph: FoonGraph, kitchen: Kitchen, goal: GoalSpec):
    """Power-set scan: every unit subset that is exactly the support of some
    acyclic consistent assignment resolving the goal, with its minimum depth.

    Deliberately structured nothing like the production oracle: subsets
    outermost, plain assignment enumeration inside.
    """
    if goal.target in kitchen:
        return [(frozenset(), 0)]
    n = len(graph.units)
    results = {}
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            for producer in _all_assignments(graph, kitchen, goal.target, chosen):
                if set(producer.values()) != chosen:
                    continue
                depth = _assignment_depth(graph, kitchen, producer, goal.target)
                if depth is None:
                    continue
                s = frozenset(chosen)
                if s not in results or depth < results[s]:
                    results[s] = depth
    return sorted(results.items(), key=lambda item: (len(item[0]), sorted(item[0]), item[1]))


def _all_assignments(graph, kitchen, goal_key, allowed):
    """Every complete producer assignment for the goal using only `allowed`
    units (may include cyclic ones; caller filters)."""
    out = []

    def rec(pending, producer):
        while pending and (pending[-1] in kitchen or pending[-1] in producer):
            pending = pending[:-1]
        if not pending:
            out.append(dict(producer))
            return
        key = pending[-1]
        for pos in allowed:
            if key in graph.units[pos].outputs:
                producer[key] = pos
                rec(pending[:-1] + list(graph.units[pos].inputs), producer)
                del producer[key]

    rec([goal_key], {})
    return out


def naive_execution_order(graph, kitchen, goal, chosen):
    """The scan-based ordering that ``execution_order`` replaced, kept as the
    reference it must agree with: rescans the remaining units after every
    step for the lowest-index one whose inputs are all available."""
    available = set(kitchen.items)
    remaining = sorted(set(chosen))
    steps: list[int] = []
    while remaining:
        ready = next(
            (
                pos
                for pos in remaining
                if all(key in available for key in graph.units[pos].inputs)
            ),
            None,
        )
        if ready is None:
            raise CyclicResolution(
                f"units {remaining} have no executable order (cycle or missing producer)"
            )
        steps.append(ready)
        remaining.remove(ready)
        available.update(graph.units[ready].outputs)
    return tuple(steps)


def audit_decision_log(stats, minimize: bool):
    """Check every logged choice picked the best score, ties to lowest index."""
    for decision in stats.decision_log:
        best_score = min(decision.scores) if minimize else max(decision.scores)
        winners = [
            pos
            for pos, score in zip(decision.candidates, decision.scores)
            if score == best_score
        ]
        assert decision.chosen == min(winners), (
            f"choice for {decision.needed}: chose {decision.chosen}, "
            f"expected {min(winners)} among {decision.candidates} scores {decision.scores}"
        )


def check_dot_syntax(text: str):
    """Grammar-level DOT sanity: a digraph wrapper whose body lines are each a
    node statement or an edge statement."""
    import re

    lines = text.splitlines()
    assert lines[0] == "digraph foon {"
    assert lines[-1] == "}"
    node_re = re.compile(r'^  \w+ \[label="(?:[^"\\]|\\.)*" shape=(ellipse|square) color=\w+\];$')
    edge_re = re.compile(r"^  \w+ -> \w+;$")
    for line in lines[1:-1]:
        assert node_re.match(line) or edge_re.match(line), f"bad DOT line: {line!r}"
