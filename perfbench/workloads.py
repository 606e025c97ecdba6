"""The benchmark's workloads: their inputs, their command sequences and the
checks on every command's output.

Each workload is one closed-loop sequence of ``foon`` commands, run one
after another by a single client. Sizes are chosen so one pass over the
sequence takes a few seconds on a 2-core machine.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import gen

ALGOS = ("ids", "gbfs1", "gbfs2")
CSV_HEADER = ["goal", "algorithm", "units", "expanded", "depth_bound", "resolved"]


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    expect_exit: int
    outputs: tuple[str, ...] = ()  # files or directories it writes, digested
    algos: tuple[str, ...] = ()  # retrievals it runs per goal, in order


@dataclass
class Inputs:
    """Everything one workload and seed needs: its commands and what the
    generator knows about the answers."""

    commands: list[Command]
    goals: list[str]  # as ``str(ObjectKey)`` prints them, in file order
    resolvable: dict[str, bool]
    merged_units: int = 0  # units in the universal graph
    input_units: int = 0  # ingest: units over all recipe files
    files: dict[str, str] = field(default_factory=dict)

    def input_digest(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.files):
            digest.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return digest.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: gen.GraphParams
    goal_layers: dict[int, int]  # layer -> goals drawn from it (over all components)
    recipes: int = 0  # ingest only: number of overlapping recipe files
    overlap: float = 0.0


def _layered(width: int, layers: int, components: int, **kw) -> gen.GraphParams:
    return gen.GraphParams(
        n_objects=width * layers,
        first_producer=0,
        kitchen_window=kw.pop("kitchen_window", width),
        fan=width,
        layer=width,
        components=components,
        **kw,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest",
            "many overlapping recipe files: reading, identity hashing, merging, writing and DOT dominate; retrieval is light",
            _layered(60, 9, 8),
            {4: 60},
            recipes=60,
            overlap=0.25,
        ),
        Workload(
            "resolve",
            "deep and shallow resolvable goals on one graph: search and execution_order dominate, IDS outgrows GBFS",
            _layered(60, 9, 2),
            {1: 8, 4: 24},
        ),
        Workload(
            "unresolvable",
            "kitchen mostly missing: every search backtracks over the whole graph and fails; no tree is ordered or written",
            _layered(42, 7, 1, kitchen_window=84, window_producers=True, kitchen_keep=0.1),
            {0: 12},
        ),
    )
}


def key_str(obj: gen.Obj) -> str:
    """The object as ``foon`` prints a canonical key."""
    text = obj.name
    if obj.states:
        text += "{" + ",".join(obj.states) + "}"
    if obj.ingredients:
        text += "[" + ",".join(obj.ingredients) + "]"
    return text


def _pick_goals(rng: random.Random, w: Workload) -> list[int]:
    p = w.params
    goals = []
    for layer, count in w.goal_layers.items():
        pool = [
            base + layer * p.layer + j
            for base in range(0, p.n_objects * p.components, p.n_objects)
            for j in range(p.layer)
        ]
        goals += rng.sample(pool, count)
    return goals


def build(w: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the workload's files for ``seed`` into ``directory``."""
    rng = random.Random(seed)
    inst = gen.make_instance(rng, w.params)
    goal_ids = _pick_goals(rng, w)
    goals = [key_str(inst.objects[i]) for i in goal_ids]
    resolvable = {key_str(inst.objects[i]): inst.depth[i] != gen.UNBOUNDED for i in goal_ids}
    files = {
        "kitchen.json": gen.objects_json(inst, inst.kitchen),
        "goals.json": gen.objects_json(inst, goal_ids),
        "motion.txt": gen.motion_rates_text(),
    }
    rest = ("kitchen.json", "goals.json", "--motion-rates", "motion.txt")
    inputs = Inputs([], goals, resolvable, merged_units=len(inst.units), files=files)
    if w.recipes:
        recipes = gen.overlapping_recipes(rng, inst.units, w.recipes, w.overlap)
        names = [f"recipe_{r:02d}.foon.txt" for r in range(len(recipes))]
        for name, units in zip(names, recipes):
            files[name] = gen.subgraph_text(rng, inst, units)
        inputs.input_units = sum(len(units) for units in recipes)
        inputs.commands = [
            Command("merge", ("merge", *names, "-o", "universal.foon.txt"), 0, ("universal.foon.txt",)),
            Command("viz", ("viz", "universal.foon.txt", "-o", "universal.dot"), 0, ("universal.dot",)),
            Command(
                "retrieve",
                ("retrieve", "universal.foon.txt", *rest, "--algo", "gbfs2", "--out-dir", "trees"),
                0,
                ("trees",),
                ("gbfs2",),
            ),
        ]
    else:
        units = list(inst.units)
        rng.shuffle(units)  # candidate order is file order; do not hand it over sorted
        files["universal.foon.txt"] = gen.subgraph_text(rng, inst, units)
        expect = 0 if all(resolvable.values()) else 1
        inputs.commands = [
            Command("compare", ("compare", "universal.foon.txt", *rest, "--format", "csv"), expect, (), ALGOS)
        ]
        if all(resolvable.values()):
            inputs.commands.append(
                Command(
                    "retrieve",
                    ("retrieve", "universal.foon.txt", *rest, "--algo", "gbfs2", "--out-dir", "trees"),
                    0,
                    ("trees",),
                    ("gbfs2",),
                )
            )
    gen.write_files(directory, files)
    return inputs


# --- output checks -------------------------------------------------------------------


def command_digest(command: Command, exit_code: int, stdout: str, records: list, directory: Path) -> str:
    """Digest of everything a command is meant to produce: exit code, stdout,
    written files, and per retrieval its outcome, tree and paper counters.

    A failed retrieval contributes only its reason: the work it did before
    failing is not an output, and a pre-pass may legitimately skip it."""
    digest = hashlib.sha256()

    def add(*parts):
        for part in parts:
            digest.update(str(part).encode("utf-8") + b"\0")

    add(command.label, exit_code, stdout)
    for out in command.outputs:
        path = directory / out
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            add(file.relative_to(directory).as_posix(), file.read_bytes() if file.exists() else "<missing>")
    for r in records:
        if "reason" in r:
            add(r["algo"], r["goal"], r["reason"])
        else:
            add(
                r["algo"],
                r["goal"],
                r.get("steps"),
                r.get("units_expanded"),
                r.get("candidate_evaluations"),
                r.get("final_depth_bound"),
                r.get("decisions"),
            )
    return digest.hexdigest()


def check_command(inputs: Inputs, command: Command, stdout: str, records: list, directory: Path) -> list[str]:
    """Problems with one command's output; empty when it is correct.

    ``records`` are the per-retrieval records the command's process wrote.
    Trees are validated separately (``run.TreeValidator``), since that
    needs the program's own graph loader."""
    problems = []
    expected = [(goal, algo) for goal in inputs.goals for algo in command.algos]
    got = [(r.get("goal"), r.get("algo")) for r in records]
    if got != expected:
        return [f"ran retrievals {got[:3]}... ({len(got)}), expected {expected[:3]}... ({len(expected)})"]
    for r in records:
        if "end" not in r:
            problems.append(f"{r['algo']} on {r['goal']} did not finish")
        elif ("reason" not in r) != inputs.resolvable[r["goal"]]:
            problems.append(f"{r['algo']} on {r['goal']}: resolved={'reason' not in r}, generator says otherwise")
    outcome = {}
    for r in records:
        outcome.setdefault(r["goal"], set()).add("reason" not in r)
    disagree = [goal for goal, seen in outcome.items() if len(seen) > 1]
    if disagree:
        problems.append(f"algorithms disagree on whether {disagree[:3]} resolve")
    if command.label == "compare":
        problems += _check_csv(stdout, records)
    elif command.label == "retrieve":
        problems += _check_retrieve(stdout, records, directory / "trees")
    elif command.label == "merge":
        want = f"kept {inputs.merged_units} units, dropped {inputs.input_units - inputs.merged_units} duplicates"
        if not stdout.startswith(want):
            problems.append(f"merge said {stdout.strip()!r}, expected {want!r}")
    elif command.label == "viz":
        dot = (directory / "universal.dot").read_text(encoding="utf-8")
        motions = dot.count("shape=square")
        if not dot.startswith("digraph foon {") or motions != inputs.merged_units:
            problems.append(f"universal.dot has {motions} motion nodes, expected {inputs.merged_units}")
    return problems


def _check_csv(stdout: str, records: list) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != CSV_HEADER:
        return [f"compare CSV header is {rows[:1]}"]
    if len(rows) - 1 != len(records):
        return [f"compare CSV has {len(rows) - 1} rows for {len(records)} retrievals"]
    problems = []
    for row, r in zip(rows[1:], records):
        if "reason" in r:
            want = [r["goal"], r["algo"], "", "", "", "false"]
        else:
            bound = r["final_depth_bound"] if r["algo"] == "ids" else ""
            want = [r["goal"], r["algo"], str(len(r["steps"])), str(r["units_expanded"]), str(bound), "true"]
        if row != [str(x) for x in want]:
            problems.append(f"compare CSV row {row} does not match the retrieval ({want})")
    return problems


_RETRIEVE_LINE = re.compile(r"^(.*): (\d+) units -> (.+)\.foon\.txt$")


def _check_retrieve(stdout: str, records: list, trees: Path) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != len(records):
        return [f"retrieve printed {len(lines)} lines for {len(records)} goals"]
    problems = []
    for line, r in zip(lines, records):
        if "reason" in r:
            if line != f"{r['goal']}: unresolvable ({r['reason']})":
                problems.append(f"retrieve line {line!r} for a failed goal")
            continue
        match = _RETRIEVE_LINE.match(line)
        if not match or match[1] != r["goal"] or int(match[2]) != len(r["steps"]):
            problems.append(f"retrieve line {line!r} does not match {len(r['steps'])} steps")
            continue
        tree = trees / f"{match[3]}.foon.txt"
        dot = trees / f"{match[3]}.dot"
        if not tree.exists() or not dot.exists():
            problems.append(f"retrieve did not write {tree.name} and {dot.name}")
        elif tree.read_text(encoding="utf-8").splitlines()[0] != f"# task tree: {len(r['steps'])} units":
            problems.append(f"{tree.name} header does not match {len(r['steps'])} steps")
    return problems
