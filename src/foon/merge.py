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
    """Union subgraphs into one graph, first occurrence wins.

    Units are concatenated in the given order; any unit equal to an
    earlier-kept one is dropped, and the graph is built from the kept units,
    deriving its own index. Duplicates across recipes are expected, not errors.
    """
    units = list(chain.from_iterable(subgraphs))
    kept = list(dict.fromkeys(units))  # a dict keeps the first of equal keys
    return MergeResult(index_outputs(kept), len(kept), len(units) - len(kept))
