"""Shared test utilities: graph builders, random generators, the
independent brute-force resolution checker used to cross-examine both the
oracle and the search algorithms, the earlier implementations of
``execution_order``, of the subgraph parser and of the two searches, kept as
references, and an in-process runner for the ``foon`` CLI."""

from __future__ import annotations

import io
import os
import random
import sys
from itertools import combinations
from types import SimpleNamespace
from typing import Mapping

from foon.core import (
    Algorithm,
    Decision,
    FoonGraph,
    FunctionalUnit,
    GoalSpec,
    ObjectKey,
    SearchStats,
    TaskTree,
    index_outputs,
)
from foon.parser import ParseError
from foon.retrieval import (
    DEFAULT_DEPTH_CAP,
    CyclicResolution,
    HeuristicId,
    UnresolvableGoal,
    execution_order,
    heuristic_input_count,
)


def obj(name, states=(), ingredients=()):
    return ObjectKey(name, states, ingredients)


def key_of(name, states=(), ingredients=()):
    return obj(name, states, ingredients)


def unit(inputs, motion, outputs, ts=None):
    nodes_in = [o if isinstance(o, ObjectKey) else obj(o) for o in inputs]
    nodes_out = [o if isinstance(o, ObjectKey) else obj(o) for o in outputs]
    start, end = (ts or (None, None))
    return FunctionalUnit(nodes_in, motion, nodes_out, start, end)


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
    kitchen = frozenset({key_of(f"g{depth}")})
    return graph, kitchen, GoalSpec(key_of("g0"))


def ladder_graph(levels):
    """Keys ``a{i}`` and ``b{i}`` are each made from both ``a{i+1}`` and
    ``b{i+1}``: one resolution of depth `levels`, whose keys are reached along
    2**levels paths."""
    specs = []
    for i in range(levels):
        for name in (f"a{i}", f"b{i}"):
            specs.append(([f"a{i + 1}", f"b{i + 1}"], f"m{name}", [name]))
    kitchen = frozenset({key_of(f"a{levels}"), key_of(f"b{levels}")})
    return build_graph(specs), kitchen, GoalSpec(key_of("a0"))


def fan_graph(width):
    """Goal ``g0`` made from `width` keys that each have two producers from
    the kitchen: 2**width resolutions of depth 2."""
    specs = [([f"k{i}" for i in range(width)], "mix", ["g0"])]
    for i in range(width):
        specs += [(["x"], f"m{i}", [f"k{i}"]), (["x"], f"m{i}y", [f"k{i}"])]
    return build_graph(specs), frozenset({key_of("x")}), GoalSpec(key_of("g0"))


def random_instance(rng: random.Random, max_units=12, max_branching=3, max_ingredients=0):
    """A random small retrieval instance: graph, kitchen, goal, rates.

    Cycles and unresolvable goals are both possible on purpose. Each object
    carries 0 to ``max_ingredients`` ingredients; with the default 0 it has
    none and no draw is spent on them.
    """
    n_objects = rng.randint(4, 9)
    names = [f"obj{i}" for i in range(n_objects)]
    pantry = ["salt", "sugar", "egg", "flour", "oil"]
    keys = {
        name: key_of(name, ingredients=rng.sample(pantry, rng.randint(0, max_ingredients)) if max_ingredients else ())
        for name in names
    }
    motions = ["chop", "stir", "bake", "pour", "mix"]
    units = []
    seen = set()
    for i, name in enumerate(names):
        for _ in range(rng.randint(0, max_branching)):
            if len(units) >= max_units:
                break
            n_inputs = rng.randint(1, 2)
            inputs = rng.sample([n for n in names if n != name], n_inputs)
            u = unit([keys[n] for n in inputs], rng.choice(motions), [keys[name]])
            if u not in seen:
                seen.add(u)
                units.append(u)
    graph = index_outputs(units)
    kitchen = frozenset({keys[n] for n in names if rng.random() < 0.35})
    goal = GoalSpec(keys[names[0]])
    rates = {m: round(rng.random(), 2) for m in motions if rng.random() < 0.8}
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


def brute_force_resolutions(graph: FoonGraph, kitchen: frozenset[ObjectKey], goal: GoalSpec):
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


def naive_execution_order(graph, kitchen, chosen):
    """The scan-based ordering that ``execution_order`` replaced, kept as the
    reference it must agree with: rescans the remaining units after every
    step for the lowest-index one whose inputs are all available."""
    available = set(kitchen)
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


# The closure-based subgraph parser that ``foon.parser.parse_subgraph``
# replaced, kept verbatim as the reference it must agree with on units and
# on every ParseError's line and message.


def reference_parse_subgraph(text: str) -> list[FunctionalUnit]:
    """Parse a subgraph file into its functional units, in file order."""
    units: list[FunctionalUnit] = []

    # per-unit parse state
    inputs: list[ObjectKey] = []
    outputs: list[ObjectKey] = []
    motion: tuple[str, ...] | None = None  # the M line's name and timestamps
    name: str | None = None  # the open object, with its states and ingredients
    states: list[str] = []
    ingredients: list[str] = []
    unit_open = False
    last_line_no = 0

    def close_object():
        nonlocal name
        if name is not None:
            (outputs if motion is not None else inputs).append(ObjectKey(name, states, ingredients))
            name = None

    def close_unit(line_no: int):
        nonlocal inputs, outputs, motion, unit_open
        close_object()
        if motion is None:
            raise ParseError(line_no, "unit terminated without a motion line")
        if not inputs:
            raise ParseError(line_no, "unit has no input objects")
        if not outputs:
            raise ParseError(line_no, "unit has no output objects")
        units.append(FunctionalUnit(inputs, motion[0], outputs, *motion[1:]))
        inputs, outputs, motion, unit_open = [], [], None, False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line_no = line_no
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.strip() == "//":
            close_unit(line_no)
            continue
        fields = line.split("\t")
        tag = fields[0]
        if tag == "O":
            if len(fields) != 2 or not fields[1].strip():
                raise ParseError(line_no, "O line needs exactly one name field")
            close_object()
            unit_open = True
            name, states, ingredients = fields[1], [], []
        elif tag == "S":
            if name is None:
                raise ParseError(line_no, "S line without a preceding O line")
            if len(fields) != 2 or not fields[1].strip():
                raise ParseError(line_no, "S line needs exactly one state field")
            states.append(fields[1])
        elif tag == "I":
            if name is None:
                raise ParseError(line_no, "I line without a preceding O line")
            if len(fields) != 2 or not fields[1].strip():
                raise ParseError(line_no, "I line needs exactly one ingredient field")
            ingredients.append(fields[1])
        elif tag == "M":
            if not unit_open:
                raise ParseError(line_no, "M line before any object in the unit")
            if motion is not None:
                raise ParseError(line_no, "second M line in one unit")
            if len(fields) < 2 or len(fields) > 4 or not fields[1].strip():
                raise ParseError(line_no, "M line needs a motion name and at most two timestamps")
            close_object()
            if not inputs:
                raise ParseError(line_no, "unit has no input objects")
            motion = tuple(fields[1:])
        else:
            raise ParseError(line_no, f"unknown line tag {tag!r}")

    if unit_open or name is not None or motion is not None:
        raise ParseError(last_line_no + 1, "unexpected end of file: unit missing '//' terminator")
    return units


# The recursive IDS and GBFS that the iterative ``foon.retrieval`` engine
# replaced, kept verbatim as the reference it must agree with on trees,
# failure reasons, counters and decision logs. They recurse once per unit
# hop, so they only suit graphs well inside Python's recursion limit.


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


def recursive_retrieve_ids(
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
            candidates = graph.output_index.get(key, ())
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
            steps = execution_order(graph, kitchen, resolution.chosen_units())
            return TaskTree(steps, stats)
        if not hit_bound:
            # the bound never cut anything off, so deeper iterations would
            # explore the identical tree and fail the same way
            raise UnresolvableGoal(target, "no-candidates")

    raise UnresolvableGoal(target, "depth-cap-exhausted")


def recursive_retrieve_gbfs(
    graph: FoonGraph,
    kitchen: frozenset[ObjectKey],
    goal: GoalSpec,
    heuristic: HeuristicId,
    rates: Mapping[str, float] = {},
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
        return rates.get(unit.motion, 0.0)  # an unknown motion never beats a known rate

    def resolve(key: ObjectKey, path: frozenset) -> bool:
        if key in kitchen:
            return True
        if key in resolution.producer:
            return True  # already produced by this resolution
        path = path | {key}
        alive = [
            pos
            for pos in graph.output_index.get(key, ())
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
        if not graph.output_index.get(target, ()):
            raise UnresolvableGoal(target, "no-candidates")
        raise UnresolvableGoal(target, "dead-end")
    steps = execution_order(graph, kitchen, resolution.chosen_units())
    return TaskTree(steps, stats)


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


class _Capture(io.StringIO):
    """A text stream that also copies what it is given into ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


def _set_environ(values: Mapping[str, str | None]):
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


class CliRunner:
    """Runs a ``foon`` command in this process with its streams captured.
    ``invoke`` gives what ``click.testing.CliRunner`` gives: ``exit_code``,
    ``stdout``, ``stderr``, ``output`` (both streams, in the order written),
    ``stdout_bytes`` and ``exception`` (``None`` after an exit 0)."""

    def invoke(self, main, args, env: Mapping[str, str | None] | None = None):
        both = io.StringIO()
        stdout, stderr = _Capture(both), _Capture(both)
        env = env or {}
        saved_env = {name: os.environ.get(name) for name in env}
        saved_streams = sys.stdout, sys.stderr
        _set_environ(env)
        sys.stdout, sys.stderr = stdout, stderr
        exit_code, exception = 0, None
        try:
            main(args, prog_name="foon")
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            exception = exc if exit_code else None
        except Exception as exc:  # a bug: report it as click does, not raise it
            exit_code, exception = 1, exc
        finally:
            sys.stdout, sys.stderr = saved_streams
            _set_environ(saved_env)
        return SimpleNamespace(
            exit_code=exit_code,
            stdout=stdout.getvalue(),
            stderr=stderr.getvalue(),
            output=both.getvalue(),
            stdout_bytes=stdout.getvalue().encode("utf-8"),
            exception=exception,
        )
