"""Domain types for FOON graphs: objects, functional units, and the indexed
universal graph.

An object has one type, :class:`ObjectKey`, which canonicalizes its fields
and is its own identity: a unit's ``inputs`` and ``outputs`` are tuples of
keys, graph indexes hold the same keys, and a goal is its key. A kitchen, the
set of objects on hand before execution, is a plain ``frozenset`` of keys.
Keys are interned under a lock, so there is one instance per distinct key in
a process, and key equality and hashing are ``object``'s identity versions.
A motion has no type either: a unit holds its name and timestamps.

Everything here except :class:`SearchStats`, which a retrieval fills as it
runs, is immutable after construction and hashable where identity matters,
so graphs and kitchens can be shared freely between concurrent retrievals.
A graph also holds a private memo of what :mod:`foon.retrieval` derives from
it, maps of keys and unit positions that never refer back to the graph.
One guard, :class:`Frozen`, refuses every assignment and deletion, and
constructors store their fields through ``_set``. The record types (decisions,
stats, trees) are slotted classes that compare, hash, print and pickle by
their field values.

A graph keeps the first of equal units and derives its output index from them.
A key's producers are ``graph.output_index.get(key, ())``: the positions of
the units whose outputs hold it, ascending, each unit once.

No key, unit, graph, record or stats object forms a reference cycle: each
refers only to objects built before it (keys to strings, units to keys, a
graph to its units, index and memo, a tree to unit positions and its stats)
and never back, and the intern table holds its keys weakly. Reference counting
alone frees them, which is why :func:`foon.cli.main` can run a command with
the cyclic garbage collector off. A field that points back up (a unit naming
its graph, say) would break that.
"""

from __future__ import annotations

import threading
import weakref
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Optional, Sequence


class FoonError(Exception):
    """Base class for all errors raised by this package."""


class Record:
    """Value semantics for a slotted class whose ``__slots__`` are its fields,
    in constructor order: equality and hashing by the field values, a
    ``Cls(field=value, ...)`` repr, and pickling and copying through the
    constructor."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())


class Frozen:
    """A slotted class whose fields cannot be assigned or deleted once its
    constructor has stored them with ``_set``."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


_set = object.__setattr__  # how a frozen class's constructor stores its fields


class FrozenRecord(Record, Frozen):
    """A :class:`Record` that is :class:`Frozen`."""

    __slots__ = ()


class ObjectKey(Frozen):
    """An object: its name, state set and ingredient list, canonicalized.

    The constructor trims and lowercases every field, deduplicates and sorts
    the states, and sorts the ingredients (duplicates kept -- multiset
    semantics).

    Keys are interned: constructing a key with the fields of a live one
    returns that instance, also when threads construct it at once. Two
    objects therefore denote the same kitchen item iff their keys are the
    same instance, and equality and hashing are identity.
    """

    __slots__ = ("name", "states", "ingredients", "__weakref__")

    # canonical (name, states, ingredients) -> the live key for it; weak, so
    # a key nothing else references is dropped
    _interned: "weakref.WeakValueDictionary[tuple, ObjectKey]" = weakref.WeakValueDictionary()
    _intern_lock = threading.Lock()  # taken only on a table miss

    def __new__(
        cls,
        name: str,
        states: Iterable[str] = (),
        ingredients: Iterable[str] = (),
    ):
        name = name.strip().lower()
        if not name:
            raise ValueError("object name must be non-empty")
        states = [s.strip().lower() for s in states if s.strip()]
        ingredients = [i.strip().lower() for i in ingredients if i.strip()]
        return cls._intern(name, states, ingredients)

    @classmethod
    def _intern(cls, name: str, states: Iterable[str], ingredients: Iterable[str]) -> "ObjectKey":
        """The live key for trimmed and lowercased fields, in any order and
        with duplicates, made and entered in the table if there is none.

        This is where a key's fields take their canonical order: states
        deduplicated and sorted, ingredients sorted.
        """
        fields = (name, tuple(sorted(set(states))), tuple(sorted(ingredients)))
        key = cls._interned.get(fields)
        if key is None:
            with cls._intern_lock:
                key = cls._interned.get(fields)  # another thread may have won
                if key is None:
                    key = object.__new__(cls)
                    for slot, value in zip(("name", "states", "ingredients"), fields):
                        _set(key, slot, value)
                    cls._interned[fields] = key
        return key

    def __reduce__(self):
        return (ObjectKey, (self.name, self.states, self.ingredients))

    def __repr__(self) -> str:
        return f"ObjectKey({self.name!r}, states={list(self.states)}, ingredients={list(self.ingredients)})"

    def __str__(self) -> str:
        parts = self.name
        if self.states:
            parts += "{" + ",".join(self.states) + "}"
        if self.ingredients:
            parts += "[" + ",".join(self.ingredients) + "]"
        return parts

    @property
    def target(self) -> "ObjectKey":
        # the key itself, for the benchmark's two reads of a goal's target
        # (perfbench/child.py:160, run.py:231); ROADMAP item 12 deletes it
        # together with those reads, or item 6 if it changes them first
        return self


class FunctionalUnit(Frozen):
    """Input objects + one motion + output objects; the atom of FOON knowledge.

    ``motion`` is the motion's name, trimmed and lowercased, and
    ``start_time`` and ``end_time`` are its optional annotation timestamps
    (a lone timestamp is the start), which parsing and writing carry through.
    Equality compares input/output key multisets and the motion name;
    timestamps are ignored. The hash is computed once, at construction.
    """

    __slots__ = ("inputs", "motion", "outputs", "start_time", "end_time", "_hash")

    def __init__(
        self,
        inputs: Sequence[ObjectKey],
        motion: str,
        outputs: Sequence[ObjectKey],
        start_time: Optional[str] = None,
        end_time: Optional[str] = None,
    ):
        if not inputs:
            raise ValueError("functional unit needs at least one input")
        if not outputs:
            raise ValueError("functional unit needs at least one output")
        motion = motion.strip().lower()
        if not motion:
            raise ValueError("motion name must be non-empty")
        if start_time is None:
            start_time, end_time = end_time, None
        _set(self, "inputs", tuple(inputs))
        _set(self, "motion", motion)
        _set(self, "outputs", tuple(outputs))
        _set(self, "start_time", start_time)
        _set(self, "end_time", end_time)
        # only the hash is kept: storing the sorted identity as well costs
        # memory on every unit, and it is needed only on a hash match
        _set(self, "_hash", hash(self._identity()))

    def __reduce__(self):
        return (FunctionalUnit, (self.inputs, self.motion, self.outputs, self.start_time, self.end_time))

    def _identity(self) -> tuple:
        # keys are interned, so ordering them by id puts equal multisets in
        # one order
        return (tuple(sorted(self.inputs, key=id)), self.motion, tuple(sorted(self.outputs, key=id)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionalUnit):
            return NotImplemented
        return self._hash == other._hash and self._identity() == other._identity()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        ins = ", ".join(str(k) for k in self.inputs)
        outs = ", ".join(str(k) for k in self.outputs)
        return f"<FunctionalUnit [{ins}] -{self.motion}-> [{outs}]>"


class FoonGraph(Frozen):
    """Deduplicated, order-preserving collection of functional units with an
    index from output key to producing unit positions, each unit once.
    ``output_index`` is a read-only mapping, so it cannot disagree with
    ``units``.

    It is built from its units alone: the constructor keeps the first of
    equal units, timestamps included, and derives the index, and a pickle or
    copy carries the units and rebuilds the index. Unit positions in
    ``units`` are the stable identifiers used everywhere else (task tree
    steps, decision logs, DOT node ids).
    """

    __slots__ = ("units", "output_index", "_derived")

    def __init__(self, units: Sequence[FunctionalUnit]):
        units = tuple(dict.fromkeys(units))  # a dict keeps the first of equal keys
        index: dict[ObjectKey, list[int]] = {}
        for pos, unit in enumerate(units):
            for key in unit.outputs:
                positions = index.setdefault(key, [])
                if not positions or positions[-1] != pos:  # a unit may list a key twice
                    positions.append(pos)
        _set(self, "units", units)
        _set(self, "output_index", MappingProxyType({key: tuple(positions) for key, positions in index.items()}))
        _set(self, "_derived", {})  # foon.retrieval's memo

    def __reduce__(self):
        return (FoonGraph, (self.units,))

    def __len__(self) -> int:
        return len(self.units)


class Algorithm(Enum):
    IDS = "ids"
    GBFS_H1 = "gbfs1"
    GBFS_H2 = "gbfs2"


class Decision(FrozenRecord):
    """One GBFS choice point: which candidate was taken for a needed key,
    out of the candidates still alive at that point."""

    __slots__ = ("needed", "candidates", "chosen", "scores")

    def __init__(self, needed: ObjectKey, candidates: tuple[int, ...], chosen: int, scores: tuple[float, ...]):
        if chosen not in candidates:
            raise ValueError("chosen unit must be among the candidates")
        if len(scores) != len(candidates):
            raise ValueError("one score per candidate")
        _set(self, "needed", needed)
        _set(self, "candidates", candidates)
        _set(self, "chosen", chosen)
        _set(self, "scores", scores)


class SearchStats(Record):
    """Instrumentation gathered during one retrieval run; the search fills
    it in place, so it is mutable and unhashable."""

    __slots__ = ("algorithm", "units_expanded", "candidate_evaluations", "final_depth_bound", "decision_log")
    __hash__ = None

    def __init__(
        self, algorithm: Algorithm, units_expanded: int = 0, candidate_evaluations: int = 0,
        final_depth_bound: Optional[int] = None, decision_log: Optional[list[Decision]] = None,
    ):
        self.algorithm = algorithm
        self.units_expanded = units_expanded
        self.candidate_evaluations = candidate_evaluations
        self.final_depth_bound = final_depth_bound
        self.decision_log = [] if decision_log is None else decision_log


class TaskTree(FrozenRecord):
    """Execution-ordered unit positions extracted for a goal, plus stats.
    Hashing one raises ``TypeError``, since its stats are unhashable."""

    __slots__ = ("steps", "stats")

    def __init__(self, steps: tuple[int, ...], stats: SearchStats):
        _set(self, "steps", steps)
        _set(self, "stats", stats)


def validate_task_tree(
    graph: FoonGraph, kitchen: frozenset[ObjectKey], goal: ObjectKey, tree: TaskTree
) -> None:
    """Independent executability check; raises ValueError on any violation.

    Replays the steps in order, confirming that every step is a position in
    ``graph.units`` and none repeats, that every input of every step is in
    the kitchen or produced by an earlier step, and that the goal comes out
    of the final step (or was already in the kitchen for an empty tree).
    """
    if len(set(tree.steps)) != len(tree.steps):
        raise ValueError("task tree repeats a unit")
    available = set(kitchen)
    for pos in tree.steps:
        if not 0 <= pos < len(graph.units):
            raise ValueError(f"step {pos} is not a unit of the graph")
        unit = graph.units[pos]
        for key in unit.inputs:
            if key not in available:
                raise ValueError(f"step {pos} needs {key} which is not available")
        available.update(unit.outputs)
    if not tree.steps:
        if goal not in kitchen:
            raise ValueError("empty task tree but goal not in kitchen")
    else:
        final = graph.units[tree.steps[-1]]
        if goal not in final.outputs:
            raise ValueError("final step does not produce the goal")
