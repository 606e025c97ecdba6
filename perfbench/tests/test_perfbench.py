"""Tests of the benchmark itself: the generator, the output checks and a
clean run on a seed that played no part in sizing the workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

UNSEEN_SEED = 90417  # never used while the workloads were sized


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_bytes(name, tmp_path):
    w = wl.WORKLOADS[name]
    first = wl.build(w, 5, tmp_path / "a")
    second = wl.build(w, 5, tmp_path / "b")
    other = wl.build(w, 6, tmp_path / "c")
    for file in first.files:
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    assert first.input_digest() == second.input_digest() != other.input_digest()


def test_roadmap_graph_is_the_default_family():
    # each o_i from o50 up to the kitchen window has 3 producers drawing 3
    # inputs from o_{i+1}..o_{i+199}; the kitchen is the last 200 objects
    inst = gen.make_instance(random.Random(0), gen.GraphParams(n_objects=600))
    producers = {}
    for unit in inst.units:
        producers.setdefault(unit.output, []).append(unit)
        assert len(unit.inputs) == 3
        assert all(unit.output < i <= unit.output + 199 for i in unit.inputs)
    assert sorted(producers) == list(range(50, 400))
    assert all(len(units) <= 3 for units in producers.values())
    assert inst.kitchen == list(range(400, 600))


def test_layered_depth_is_fixed_by_layer():
    p = gen.GraphParams(n_objects=40 * 6, first_producer=0, kitchen_window=40, fan=40, layer=40, components=2)
    inst = gen.make_instance(random.Random(3), p)
    for i, depth in enumerate(inst.depth):
        assert depth == 5 - (i % p.n_objects) // 40


def test_unresolvable_workload_has_no_resolvable_goal(tmp_path):
    inputs = wl.build(wl.WORKLOADS["unresolvable"], 5, tmp_path)
    assert inputs.goals and not any(inputs.resolvable.values())


def test_reference_clock_scales_by_loop_speed_and_skips_the_loops():
    ref = run.REFERENCE_S
    # loops at 0, 1 and 2 s; the first two ran at the reference speed, the last at half of it
    clock = run.ReferenceClock([[0.0, ref], [1.0, ref], [2.0, 2 * ref]])
    assert clock.at(0.5) - clock.at(0.0) == pytest.approx(0.5 - ref)
    assert clock.at(1.0 + ref) - clock.at(1.0) == 0.0
    steady = run.ReferenceClock([[0.0, ref], [1.0, ref], [2.0, ref]])
    slow = run.ReferenceClock([[0.0, 2 * ref], [1.0, 2 * ref], [2.0, 2 * ref]])
    # from 0.5 to 2.9 s, two loops are left out; the slow process's count at half speed
    assert steady.at(2.9) - steady.at(0.5) == pytest.approx(2.4 - 2 * ref)
    assert slow.at(2.9) - slow.at(0.5) == pytest.approx((2.4 - 4 * ref) / 2)


@pytest.fixture()
def resolve_pass():
    bench = run.Bench(wl.WORKLOADS["resolve"], 11, time.perf_counter() + run.HARD_LIMIT_S)
    bench.recorded = {}
    bench.run_pass(traced=False)
    yield bench
    shutil.rmtree(bench.directory, ignore_errors=True)


def test_digest_catches_a_perturbed_tree(resolve_pass):
    bench = resolve_pass
    assert bench.failures == [] and not bench.wrong_output
    command = bench.inputs.commands[-1]
    assert command.label == "retrieve"
    tree = sorted((bench.directory / "trees").glob("*.foon.txt"))[0]
    lines = tree.read_text(encoding="utf-8").splitlines(keepends=True)
    first_unit = lines.index("//\n", 1) + 1
    second_unit = lines.index("//\n", first_unit) + 1
    # swap the first two units: still a tree for the goal, but not the one returned
    tree.write_text("".join(lines[:1] + lines[first_unit:second_unit] + lines[1:first_unit] + lines[second_unit:]))
    bench._check(command, bench.passes[-1].invocations[-1])
    assert any("output digest" in failure for failure in bench.failures)
    assert bench.wrong_output


def test_digest_catches_a_changed_counter(resolve_pass):
    bench = resolve_pass
    command = bench.inputs.commands[0]
    inv = bench.passes[-1].invocations[0]
    resolved = next(r for r in inv.record["retrievals"] if r["algo"] == "ids")
    resolved["units_expanded"] += 1
    bench._check(command, inv)
    assert any("compare CSV row" in failure and "output digest" in failure for failure in bench.failures)


def test_failed_retrieval_counters_are_compared():
    bench = run.Bench(wl.WORKLOADS["unresolvable"], 12, time.perf_counter() + run.HARD_LIMIT_S)
    try:
        bench.run_pass(traced=False)
        assert bench.failures == []
        command, inv = bench.inputs.commands[0], bench.passes[-1].invocations[0]
        failed = inv.record["retrievals"][0]
        assert "reason" in failed and failed["units_expanded"] > 0
        failed["candidate_evaluations"] += 1
        bench._check(command, inv)
        assert any("did work" in failure for failure in bench.failures)
    finally:
        shutil.rmtree(bench.directory, ignore_errors=True)


def test_unseen_seed_runs_clean(capsys):
    assert run.main(["--workload", "unresolvable", "--seed", str(UNSEEN_SEED), "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [name for name in result["metrics"]] == [name for name, _ in run.END_TO_END]


def test_traced_run_reports_every_layer(capsys):
    assert run.main(["--workload", "resolve", "--seed", str(UNSEEN_SEED), "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert [name for name in metrics] == [name for name, _ in run.PER_LAYER]
    assert metrics["retrieval.ids.calls"]["value"] > 0
    assert metrics["retrieval.execution_order.steps"]["value"] > 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert all(w["why"] == wl.WORKLOADS[w["name"]].why for w in spec["workloads"])
