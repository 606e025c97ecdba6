"""Merging recipe subgraphs into a deduplicated universal FOON."""

from __future__ import annotations

from typing import Sequence

from .core import FoonGraph, FrozenRecord, FunctionalUnit, _set, index_outputs


class MergeResult(FrozenRecord):
    """The merged graph, and how many units were kept and dropped."""

    __slots__ = ("graph", "kept", "dropped")

    def __init__(self, graph: FoonGraph, kept: int, dropped: int):
        _set(self, "graph", graph)
        _set(self, "kept", kept)
        _set(self, "dropped", dropped)


def merge_subgraphs(subgraphs: Sequence[Sequence[FunctionalUnit]]) -> MergeResult:
    """Union subgraphs into one graph, first occurrence wins.

    Units are concatenated in the given order; any unit equal to an
    earlier-kept one is dropped. Duplicates across recipes are expected,
    not errors.
    """
    kept: list[FunctionalUnit] = []
    seen: set[FunctionalUnit] = set()
    dropped = 0
    for subgraph in subgraphs:
        for unit in subgraph:
            if unit in seen:
                dropped += 1
            else:
                seen.add(unit)
                kept.append(unit)
    return MergeResult(index_outputs(kept), len(kept), dropped)
