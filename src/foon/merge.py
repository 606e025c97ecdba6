"""Merging recipe subgraphs into a universal FOON, built through ``index_outputs``, which the benchmark wraps."""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from .core import FoonGraph, FrozenRecord, FunctionalUnit, _set

index_outputs = FoonGraph  # the traced benchmark (perfbench/child.py) wraps this name; ROADMAP item 12 deletes it


class MergeResult(FrozenRecord):
    """The merged graph, and how many units were kept and dropped."""

    __slots__ = ("graph", "kept", "dropped")

    def __init__(self, graph: FoonGraph, kept: int, dropped: int):
        _set(self, "graph", graph)
        _set(self, "kept", kept)
        _set(self, "dropped", dropped)


def merge_subgraphs(subgraphs: Iterable[Sequence[FunctionalUnit]]) -> MergeResult:
    """Union subgraphs into one graph: their units concatenated in the
    given order, built into a graph that keeps the first of equal units.
    Duplicates across recipes are expected, not errors.
    """
    units = list(chain.from_iterable(subgraphs))
    graph = index_outputs(units)
    kept = len(graph)
    return MergeResult(graph, kept, len(units) - kept)
