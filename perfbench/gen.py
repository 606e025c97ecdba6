"""Seeded generator of synthetic FOON inputs for the benchmark.

The graph is a layered DAG over objects ``o0 .. o{N-1}``. Every object from
``first_producer`` up to the kitchen window gets ``PRODUCERS`` units, each
drawing ``INPUTS_PER_UNIT`` distinct inputs from ``fan`` objects that start
at the next layer boundary. With ``layer=1`` that is the next ``fan``
objects: the banded graph the ROADMAP baseline was measured on. With
``layer=fan`` every layer draws only from the layer below it, so an object's
depth is fixed by its layer and the search work for a goal varies little
from seed to seed. The kitchen window is the last ``kitchen_window``
objects; ``kitchen_keep`` is the share of it put in the kitchen, and
``window_producers`` also gives window objects producers, so a missing
kitchen item sends the search deeper instead of failing at once.
``components`` repeats the graph that many times over disjoint objects.

Every object carries states and ingredients from small vocabularies, fixed
per object so its key matches across units; the files list them in a
shuffled order and mixed case, so the parser has to canonicalise them.
Motions carry timestamps. All randomness comes from one
``random.Random(seed)``; the same seed gives the same bytes.

The generator never imports ``foon``: the program under test receives only
the files written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

STATES = ("raw", "chopped", "sliced", "whole", "mixed", "melted", "cold", "hot", "peeled", "ground")
INGREDIENTS = ("salt", "sugar", "water", "oil", "egg", "flour", "milk", "pepper", "butter", "vinegar")
MOTIONS = (
    ("pick-and-place", 0.97),
    ("pour", 0.91),
    ("stir", 0.88),
    ("mix", 0.84),
    ("chop", 0.79),
    ("slice", 0.75),
    ("scoop", 0.71),
    ("spread", 0.62),
    ("whisk", 0.58),
    ("knead", 0.44),
    ("peel", 0.37),
    ("roll", 0.29),
)
# motions with no line in motion.txt, which gbfs1 scores 0.0
UNRATED_MOTIONS = ("flip", "grate")

UNBOUNDED = float("inf")
PRODUCERS = 3  # units per produced object, as in the ROADMAP graph
INPUTS_PER_UNIT = 3


@dataclass(frozen=True)
class GraphParams:
    n_objects: int
    first_producer: int = 50
    kitchen_window: int = 200
    fan: int = 199
    layer: int = 1
    window_producers: bool = False
    kitchen_keep: float = 1.0
    components: int = 1


@dataclass(frozen=True)
class Obj:
    name: str
    states: tuple[str, ...]
    ingredients: tuple[str, ...]


@dataclass(frozen=True)
class Unit:
    inputs: tuple[int, ...]
    motion: str
    output: int


@dataclass
class Instance:
    objects: list[Obj]
    units: list[Unit]
    kitchen: list[int]
    depth: list[float]  # minimal derivation depth per object; inf if unreachable


def make_instance(rng: random.Random, p: GraphParams) -> Instance:
    n_total = p.n_objects * p.components
    objects = []
    for i in range(n_total):
        states = tuple(sorted(rng.sample(STATES, rng.randrange(3))))
        ingredients = tuple(sorted(rng.sample(INGREDIENTS, rng.randrange(3))))
        objects.append(Obj(f"o{i}", states, ingredients))

    motions = [m for m, _ in MOTIONS] + list(UNRATED_MOTIONS)
    units = []
    kitchen = []
    seen = set()
    for base in range(0, n_total, p.n_objects):
        window_start = p.n_objects - p.kitchen_window
        last_producer = p.n_objects - 1 if p.window_producers else window_start
        for out in range(p.first_producer, last_producer):
            first = (out // p.layer + 1) * p.layer
            pool = range(base + first, base + min(first + p.fan, p.n_objects))
            k = min(INPUTS_PER_UNIT, len(pool))
            for _ in range(PRODUCERS if k else 0):
                unit = Unit(tuple(rng.sample(pool, k)), rng.choice(motions), base + out)
                identity = (tuple(sorted(unit.inputs)), unit.motion, unit.output)
                if identity not in seen:  # keep the universal graph free of duplicates
                    seen.add(identity)
                    units.append(unit)
        window = range(base + window_start, base + p.n_objects)
        kitchen += sorted(rng.sample(window, round(p.kitchen_keep * len(window))))
    return Instance(objects, units, kitchen, derivation_depths(n_total, units, kitchen))


def derivation_depths(n_objects: int, units: list[Unit], kitchen: list[int]) -> list[float]:
    """Minimal unit hops from the kitchen to each object.

    Every input has a higher index than the unit's output, so one pass in
    descending index order settles each object after all of its inputs.
    """
    depth = [UNBOUNDED] * n_objects
    for i in kitchen:
        depth[i] = 0
    producers: dict[int, list[Unit]] = {}
    for unit in units:
        producers.setdefault(unit.output, []).append(unit)
    for out in range(n_objects - 1, -1, -1):
        for unit in producers.get(out, ()):
            depth[out] = min(depth[out], 1 + max(depth[i] for i in unit.inputs))
    return depth


def _timestamp(rng: random.Random) -> tuple[str, str]:
    start = rng.randrange(3600)
    end = start + 1 + rng.randrange(120)
    return f"{start // 60}:{start % 60:02d}", f"{end // 60}:{end % 60:02d}"


def _object_lines(rng: random.Random, obj: Obj) -> list[str]:
    tagged = [("S", s) for s in obj.states] + [("I", i) for i in obj.ingredients]
    rng.shuffle(tagged)
    lines = [f"O\t{obj.name.upper() if rng.random() < 0.1 else obj.name}"]
    for tag, value in tagged:
        lines.append(f"{tag}\t{value.capitalize() if rng.random() < 0.2 else value}")
    return lines


def subgraph_text(rng: random.Random, inst: Instance, units: list[Unit]) -> str:
    lines = []
    for unit in units:
        for i in unit.inputs:
            lines += _object_lines(rng, inst.objects[i])
        lines.append("M\t" + "\t".join((unit.motion, *_timestamp(rng))))
        lines += _object_lines(rng, inst.objects[unit.output])
        lines.append("//")
    return "".join(line + "\n" for line in lines)


def objects_json(inst: Instance, indices: list[int]) -> str:
    entries = []
    for i in indices:
        obj = inst.objects[i]
        entries.append({"object": obj.name, "states": list(obj.states), "ingredients": list(obj.ingredients)})
    return json.dumps(entries, indent=1) + "\n"


def motion_rates_text() -> str:
    return "".join(f"{name}\t{rate}\n" for name, rate in MOTIONS)


def overlapping_recipes(rng: random.Random, units: list[Unit], n_recipes: int, overlap: float) -> list[list[Unit]]:
    """Split ``units`` into ``n_recipes`` runs of consecutive units that each
    also repeat units of their neighbours, so that ``overlap`` of all units
    written are duplicates. Units are shuffled first so a recipe mixes
    layers, and every unit lands in at least one recipe."""
    order = list(units)
    rng.shuffle(order)
    step = len(order) / n_recipes
    width = step / (1.0 - overlap)
    recipes = []
    for r in range(n_recipes):
        start = round(r * step)
        recipe = [order[(start + j) % len(order)] for j in range(round(width))]
        rng.shuffle(recipe)
        recipes.append(recipe)
    return recipes


def write_files(directory: Path, files: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
