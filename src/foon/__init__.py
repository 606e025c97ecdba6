"""FOON task tree retrieval: recipe subgraph parsing, merging, and
goal-directed knowledge retrieval with IDS and GBFS."""

from .core import (
    Algorithm,
    Decision,
    DuplicateUnit,
    FoonError,
    FoonGraph,
    FunctionalUnit,
    GoalSpec,
    MotionNode,
    ObjectKey,
    SearchStats,
    TaskTree,
    find_candidate_units,
    index_outputs,
    validate_task_tree,
)
from .export import to_dot, write_task_tree
from .merge import MergeResult, merge_subgraphs
from .oracle import TooLarge, enumerate_resolutions, minima
from .parser import (
    ParseError,
    ParseWarning,
    SchemaError,
    parse_goal_nodes,
    parse_kitchen,
    parse_motion_rates,
    parse_subgraph,
    write_subgraph,
)
from .retrieval import (
    CyclicResolution,
    HeuristicId,
    UnresolvableGoal,
    derivation_depths,
    execution_order,
    heuristic_input_count,
    heuristic_success_rate,
    retrieve_gbfs,
    retrieve_ids,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "CyclicResolution",
    "Decision",
    "DuplicateUnit",
    "FoonError",
    "FoonGraph",
    "FunctionalUnit",
    "GoalSpec",
    "HeuristicId",
    "MergeResult",
    "MotionNode",
    "ObjectKey",
    "ParseError",
    "ParseWarning",
    "SchemaError",
    "SearchStats",
    "TaskTree",
    "TooLarge",
    "UnresolvableGoal",
    "derivation_depths",
    "enumerate_resolutions",
    "execution_order",
    "find_candidate_units",
    "heuristic_input_count",
    "heuristic_success_rate",
    "index_outputs",
    "merge_subgraphs",
    "minima",
    "parse_goal_nodes",
    "parse_kitchen",
    "parse_motion_rates",
    "parse_subgraph",
    "retrieve_gbfs",
    "retrieve_ids",
    "to_dot",
    "validate_task_tree",
    "write_subgraph",
    "write_task_tree",
]
