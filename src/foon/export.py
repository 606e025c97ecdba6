"""Serialization of graphs and task trees: subgraph text and Graphviz DOT.

DOT rendering follows the usual FOON styling: object nodes are ellipses
(green for inputs, purple for outputs, blue when an object is both), motion
nodes are red squares. Node identifiers are content-derived so regenerated
figures diff cleanly; keys whose labels print alike get ``_2``, ``_3`` and so
on after the first, in sort order.
"""

from __future__ import annotations

import operator
from typing import Optional

from .core import FoonGraph, ObjectKey, TaskTree
from .parser import write_subgraph

INPUT_COLOR = "green"
OUTPUT_COLOR = "purple"
BOTH_COLOR = "blue"
MOTION_COLOR = "red"
_OBJECT_COLORS = {1: INPUT_COLOR, 2: OUTPUT_COLOR, 3: BOTH_COLOR}  # by role bits


def write_task_tree(graph: FoonGraph, tree: TaskTree) -> str:
    """Serialize a task tree as a subgraph file, units in execution order."""
    units = [graph.units[pos] for pos in tree.steps]
    header = f"# task tree: {len(units)} units\n"
    return header + write_subgraph(units)


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: FoonGraph, tree: Optional[TaskTree] = None) -> str:
    """Render the graph (or just the tree's units) as a DOT digraph."""
    import hashlib  # loads OpenSSL, so only a command that draws pays for it

    positions = range(len(graph.units)) if tree is None else tree.steps

    roles: dict[ObjectKey, int] = {}  # bit 1: an input of some unit, bit 2: an output
    for pos in positions:
        unit = graph.units[pos]
        for key in unit.inputs:
            roles[key] = roles.get(key, 0) | 1
        for key in unit.outputs:
            roles[key] = roles.get(key, 0) | 2

    lines = ["digraph foon {"]
    ids: dict[ObjectKey, str] = {}
    uses: dict[str, int] = {}  # how many keys took each hash id so far
    # by name, then states, then ingredients, compared in C
    for key in sorted(roles, key=operator.attrgetter("name", "states", "ingredients")):
        label = str(key)  # two keys can print alike: "egg{boiled}" may be a name
        node_id = "obj_" + hashlib.sha1(label.encode("utf-8")).hexdigest()[:10]
        uses[node_id] = count = uses.get(node_id, 0) + 1
        ids[key] = node_id if count == 1 else f"{node_id}_{count}"  # longer than any unsuffixed id
        color = _OBJECT_COLORS[roles[key]]
        lines.append(f"  {ids[key]} [label={_quote(label)} shape=ellipse color={color}];")
    for pos in positions:
        unit = graph.units[pos]
        motion_id = f"u{pos}_motion"
        lines.append(
            f"  {motion_id} [label={_quote(unit.motion)} shape=square color={MOTION_COLOR}];"
        )
        for key in unit.inputs:
            lines.append(f"  {ids[key]} -> {motion_id};")
        for key in unit.outputs:
            lines.append(f"  {motion_id} -> {ids[key]};")
    lines.append("}")
    return "".join(line + "\n" for line in lines)
