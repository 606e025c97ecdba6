"""Serialization of graphs and task trees: subgraph text and Graphviz DOT.

DOT rendering follows the usual FOON styling: object nodes are ellipses
(green for inputs, purple for outputs, blue when an object is both), motion
nodes are red squares. Node identifiers are content-derived so regenerated
figures diff cleanly.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from .core import FoonGraph, ObjectKey, TaskTree
from .parser import write_subgraph

INPUT_COLOR = "green"
OUTPUT_COLOR = "purple"
BOTH_COLOR = "blue"
MOTION_COLOR = "red"


def write_task_tree(graph: FoonGraph, tree: TaskTree) -> str:
    """Serialize a task tree as a subgraph file, units in execution order."""
    units = [graph.units[pos] for pos in tree.steps]
    header = f"# task tree: {len(units)} units\n"
    return header + write_subgraph(units)


def _key_id(key: ObjectKey) -> str:
    digest = hashlib.sha1(str(key).encode("utf-8")).hexdigest()[:10]
    return f"obj_{digest}"


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: FoonGraph, tree: Optional[TaskTree] = None) -> str:
    """Render the graph (or just the tree's units) as a DOT digraph."""
    if tree is not None:
        positions = list(tree.steps)
    else:
        positions = list(range(len(graph.units)))

    input_keys: set[ObjectKey] = set()
    output_keys: set[ObjectKey] = set()
    for pos in positions:
        unit = graph.units[pos]
        input_keys.update(unit.inputs)
        output_keys.update(unit.outputs)

    def object_color(key: ObjectKey) -> str:
        if key in input_keys and key in output_keys:
            return BOTH_COLOR
        if key in input_keys:
            return INPUT_COLOR
        return OUTPUT_COLOR

    lines = ["digraph foon {"]
    for key in sorted(input_keys | output_keys):
        lines.append(
            f"  {_key_id(key)} [label={_quote(str(key))} shape=ellipse color={object_color(key)}];"
        )
    for pos in positions:
        unit = graph.units[pos]
        motion_id = f"u{pos}_motion"
        lines.append(
            f"  {motion_id} [label={_quote(unit.motion.name)} shape=square color={MOTION_COLOR}];"
        )
        for key in unit.inputs:
            lines.append(f"  {_key_id(key)} -> {motion_id};")
        for key in unit.outputs:
            lines.append(f"  {motion_id} -> {_key_id(key)};")
    lines.append("}")
    return "".join(line + "\n" for line in lines)
