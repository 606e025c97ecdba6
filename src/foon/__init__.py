"""FOON task tree retrieval: recipe subgraph parsing, merging, and
goal-directed knowledge retrieval with IDS and GBFS.

The public names below are loaded on first use (PEP 562): ``import foon``
imports no submodule, and ``foon.retrieve_ids`` imports
:mod:`foon.retrieval` the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "core": (
        "Algorithm", "Decision", "FoonError", "FoonGraph", "FunctionalUnit", "ObjectKey",
        "SearchStats", "TaskTree", "validate_task_tree",
    ),
    "export": ("to_dot", "write_task_tree"),
    "merge": ("MergeResult", "merge_subgraphs"),
    "oracle": ("TooLarge", "enumerate_resolutions", "minima"),
    "parser": (
        "ParseError", "ParseWarning", "SchemaError", "parse_goal_nodes", "parse_kitchen",
        "parse_motion_rates", "parse_subgraph", "write_subgraph",
    ),
    "retrieval": (
        "CyclicResolution", "HeuristicId", "UnresolvableGoal", "derivation_depths", "execution_order",
        "heuristic_input_count", "retrieve_gbfs", "retrieve_ids",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # lets ``from foon import core`` fall back to importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | _MODULE_OF.keys())
