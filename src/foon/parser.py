"""Parsers and writers for the on-disk formats.

Four formats live here:

* subgraph files (``.foon.txt``): line-oriented, tab-separated.
  ``O<TAB>name`` starts an object; ``S<TAB>state`` and ``I<TAB>ingredient``
  lines attach to it; ``M<TAB>motion[<TAB>start[<TAB>end]]`` closes the input
  section and starts the outputs; ``//`` on its own line ends the unit.
  ``#`` lines are comments, blank lines are ignored.
  No field may hold a tab or a line break.
* ``motion.txt``: one ``motion-name<TAB>rate`` per line, rate in [0, 1];
  read into a ``dict``.
* ``goal_nodes.json`` / ``kitchen.json``: a JSON array of objects with
  fields ``object`` (required), ``states`` and ``ingredients`` (optional);
  a kitchen is read into a ``frozenset`` of keys.

A subgraph file is read by one builder, the block reader, which takes text
in the form :func:`write_subgraph` writes: only ``O``, ``S``, ``I`` and ``M``
lines and bare ``//`` lines, ended by ``\n`` alone, the last one a ``//``
line. It splits the text in C into units at their ``//`` lines, each unit at
its ``M`` line and each section into object blocks at its ``O`` lines, and
maps each block (an ``O`` line with the ``S`` and ``I`` lines under it) to
its key through a memo, so each distinct block is checked and canonicalised
once. Merged files repeat most blocks byte for byte. Any other text --
comments, blank lines, padded tags, ``\r\n`` or any other break
``str.splitlines()`` honours, no final newline, or a malformed unit -- first
passes the line check. It reads the text line by line, raises every
:class:`ParseError` with its line number and message, and otherwise gives
the block reader the text in the writer's form: comments and blank lines
dropped, ``//`` unpadded, every other line kept as read. Text in the
writer's form skips the check. Task-tree files start with a ``#`` header
and so take it.
"""

from __future__ import annotations

import json
import re
import warnings
from typing import Sequence

from .core import (
    FoonError,
    FunctionalUnit,
    ObjectKey,
)


class ParseError(FoonError):
    """A malformed line in one of the text formats."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(FoonError):
    """A missing or ill-typed field in a JSON goal/kitchen file."""

    def __init__(self, field: str, message: str = ""):
        super().__init__(f"field '{field}'" + (f": {message}" if message else ""))
        self.field = field


class ParseWarning(UserWarning):
    """Non-fatal oddity in an input file (duplicate entries etc.)."""


# every line break str.splitlines() honours but "\n"
_OTHER_BREAKS = "\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"

# a tab or any line break: a field holding one would not parse back as one field
_UNWRITABLE = re.compile(f"[\t\n{_OTHER_BREAKS}]")

# the one field an O, S or I line carries, as its error message names it
_FIELD_NAMES = {"O": "name", "S": "state", "I": "ingredient"}


def _check_lines(text: str) -> str:
    """The line check: raise the :class:`ParseError` of the first bad line of
    any subgraph text, or return the text in the form :func:`write_subgraph`
    writes, for the block reader to build its units.

    Comments and blank lines are dropped, ``//`` is written unpadded, each
    ``O``, ``S``, ``I`` and ``M`` line is kept as read, and every line ends in
    a newline; text with no unit gives ``""``.
    """
    lines: list[str] = []
    # whether the section being read has an object (the unit's inputs before
    # its M line, its outputs after it), and whether the unit has its M line
    objects = motion = False
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tag, _, value = raw.partition("\t")
        if tag in _FIELD_NAMES:
            if tag != "O" and not objects:
                raise ParseError(line_no, f"{tag} line without a preceding O line")
            if "\t" in value or not value.strip():
                raise ParseError(line_no, f"{tag} line needs exactly one {_FIELD_NAMES[tag]} field")
            objects = True
            lines.append(raw)
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "//":
            if not motion:
                raise ParseError(line_no, "unit terminated without a motion line")
            if not objects:
                raise ParseError(line_no, "unit has no output objects")
            objects = motion = False
            lines.append("//")
            continue
        if tag != "M":
            raise ParseError(line_no, f"unknown line tag {tag!r}")
        if motion:
            raise ParseError(line_no, "second M line in one unit")
        if not objects:
            raise ParseError(line_no, "M line before any object in the unit")
        fields = raw.split("\t")
        if len(fields) < 2 or len(fields) > 4 or not fields[1].strip():
            raise ParseError(line_no, "M line needs a motion name and at most two timestamps")
        objects, motion = False, True
        lines.append(raw)

    if objects or motion:
        raise ParseError(line_no + 1, "unexpected end of file: unit missing '//' terminator")
    return "\n".join(lines) + "\n" if lines else ""


class _Irregular(Exception):
    """Raised by the block reader on text it leaves to the line check."""


def _block_key(block: str, blocks: dict, canon: dict[str, str]) -> ObjectKey:
    # the key of an object block (an O line's field, then the S and I lines
    # under it), entered in ``blocks`` under the block and under its canonical
    # fields in the order read; ``canon`` maps each raw S or I line to its
    # field, trimmed and lowercased
    name, newline, rest = block.partition("\n")
    lines = rest.split("\n") if newline else ()
    # each line starts with its tag and a tab (checked below); any other tab is in a field
    if block.count("\t") != len(lines):
        raise _Irregular
    states, ingredients = [], []
    for line in lines:
        field = canon.get(line)
        if field is None:
            tag, field = line[:2], line[2:].strip().lower()
            if not field or (tag != "S\t" and tag != "I\t"):
                raise _Irregular
            canon[line] = field
        if line[0] == "S":
            states.append(field)
        else:
            ingredients.append(field)
    name = name.strip().lower()
    if not name:
        raise _Irregular
    fields = (name, tuple(states), tuple(ingredients))
    key = blocks.get(fields)
    if key is None:
        key = blocks[fields] = ObjectKey._intern(*fields)
    blocks[block] = key
    return key


def _parse_blocks(text: str, blocks: dict) -> list[FunctionalUnit]:
    # the block reader: the text split into units at its // lines, each unit
    # at its M line and each section at its O lines, all in C; a block is
    # read line by line only the first time ``blocks`` meets it
    if not text.endswith("\n//\n") or any(brk in text for brk in _OTHER_BREAKS):
        raise _Irregular
    units = []
    get = blocks.get
    canon: dict[str, str] = {}
    for unit in text[:-4].split("\n//\n"):
        inputs, _, rest = unit.partition("\nM\t")
        motion, _, outputs = rest.partition("\n")
        fields = motion.split("\t")
        if inputs[:2] != "O\t" or outputs[:2] != "O\t" or len(fields) > 3 or not fields[0].strip():
            raise _Irregular
        units.append(
            FunctionalUnit(
                [get(block) or _block_key(block, blocks, canon) for block in inputs[2:].split("\nO\t")],
                fields[0],
                [get(block) or _block_key(block, blocks, canon) for block in outputs[2:].split("\nO\t")],
                *fields[1:],
            )
        )
    return units


def parse_subgraph(text: str, *, blocks: dict | None = None) -> list[FunctionalUnit]:
    """Parse a subgraph file into its functional units, in file order.

    Text in the form :func:`write_subgraph` writes goes straight to the block
    reader; any other text first passes the line check, which raises its
    :class:`ParseError` or rewrites it in that form (see the module docstring).

    ``blocks`` is the block reader's memo: it maps each block's text as read,
    and its canonical fields in the order read, to the block's key. Calls
    that read related files may share one, starting from an empty dict, so
    that a block repeated across the files is checked and canonicalised
    once; ``foon merge`` shares one across its inputs. Without it each call
    keeps its own. Either way the result is the same.
    """
    blocks = {} if blocks is None else blocks
    try:
        return _parse_blocks(text, blocks)
    except _Irregular:
        text = _check_lines(text)
    return _parse_blocks(text, blocks) if text else []


def _refuse_breaks(pos: int, fields: Sequence[str]) -> None:
    for field in fields:
        if _UNWRITABLE.search(field):
            raise ValueError(f"unit {pos}: field {field!r} holds a tab or line break")


def write_subgraph(units: Sequence[FunctionalUnit]) -> str:
    """Serialize units to the subgraph format; inverse of :func:`parse_subgraph`.

    Raises ``ValueError`` naming the unit when a field it would write holds a
    tab or a line break, since that text would not parse back to the unit.
    """
    chunks: list[str] = []
    objects: dict[ObjectKey, str] = {}  # each key's O, S and I lines, built once
    for pos, unit in enumerate(units):
        for key in unit.inputs + unit.outputs:
            if key not in objects:
                fields = (key.name, *key.states, *key.ingredients)
                _refuse_breaks(pos, fields)
                tags = "O" + "S" * len(key.states) + "I" * len(key.ingredients)
                objects[key] = "".join(f"{tag}\t{field}\n" for tag, field in zip(tags, fields))
        # a unit never has an end time without a start time
        motion_fields = [unit.motion, *(t for t in (unit.start_time, unit.end_time) if t is not None)]
        _refuse_breaks(pos, motion_fields)
        chunks += [objects[key] for key in unit.inputs]
        chunks.append("\t".join(["M", *motion_fields]) + "\n")
        chunks += [objects[key] for key in unit.outputs]
        chunks.append("//\n")
    return "".join(chunks)


def parse_motion_rates(text: str) -> dict[str, float]:
    """Parse a ``motion.txt`` success-rate table into motion name -> rate."""
    rates: dict[str, float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise ParseError(line_no, "expected motion-name<TAB>rate")
        name = fields[0].strip().lower()
        if not name:
            raise ParseError(line_no, "empty motion name")
        try:
            rate = float(fields[1])
        except ValueError:
            raise ParseError(line_no, f"non-numeric rate {fields[1]!r}") from None
        if not 0.0 <= rate <= 1.0:
            raise ParseError(line_no, f"rate {rate} outside [0, 1]")
        if name in rates:
            warnings.warn(ParseWarning(f"line {line_no}: duplicate rate for {name!r} overrides earlier value"))
        rates[name] = rate
    return rates


def _parse_object_entries(text: str) -> list[ObjectKey]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit; no position given
        raise ParseError(1, f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(1, "invalid JSON: nested too deeply") from None
    if not isinstance(data, list):
        raise SchemaError("<root>", "expected a JSON array")
    keys = []
    for pos, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise SchemaError(f"[{pos}]", "expected an object")
        if "object" not in entry:
            raise SchemaError("object", f"missing in entry {pos}")
        name = entry["object"]
        if not isinstance(name, str) or not name.strip():
            raise SchemaError("object", f"must be a non-empty string in entry {pos}")
        states = entry.get("states", [])
        ingredients = entry.get("ingredients", [])
        for field_name, value in (("states", states), ("ingredients", ingredients)):
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise SchemaError(field_name, f"must be a list of strings in entry {pos}")
        for field_name, values in (("object", [name]), ("states", states), ("ingredients", ingredients)):
            try:
                for value in values:
                    value.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate escape such as "\ud800"
                raise SchemaError(field_name, f"not encodable as UTF-8 in entry {pos}") from None
        keys.append(ObjectKey(name, states, ingredients))
    return keys


def parse_goal_nodes(text: str) -> list[ObjectKey]:
    """Parse ``goal_nodes.json`` into the goals' keys, in file order."""
    return _parse_object_entries(text)


def parse_kitchen(text: str) -> frozenset[ObjectKey]:
    """Parse ``kitchen.json`` into the set of keys on hand; duplicate items
    collapse with a warning."""
    seen = set()
    for key in _parse_object_entries(text):
        if key in seen:
            warnings.warn(ParseWarning(f"duplicate kitchen item {key} collapsed"))
        seen.add(key)
    return frozenset(seen)
