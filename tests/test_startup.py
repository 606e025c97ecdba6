"""What importing the package and starting the CLI load.

Each check runs in a fresh interpreter, since this process has long since
imported every module of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foon
from foon.data import corpus_file
from foon.parser import write_subgraph

SRC = str(Path(foon.__file__).parent.parent)

# the package's public names, as listed by hand before they were loaded lazily
PUBLIC_NAMES = {
    "Algorithm", "CyclicResolution", "Decision", "FoonError", "FoonGraph",
    "FunctionalUnit", "HeuristicId", "MergeResult", "ObjectKey",
    "ParseError", "ParseWarning", "SchemaError", "SearchStats", "TaskTree", "TooLarge",
    "UnresolvableGoal", "derivation_depths", "enumerate_resolutions", "execution_order",
    "heuristic_input_count", "merge_subgraphs", "minima",
    "parse_goal_nodes", "parse_kitchen", "parse_motion_rates", "parse_subgraph", "retrieve_gbfs",
    "retrieve_ids", "to_dot", "validate_task_tree", "write_subgraph", "write_task_tree",
}


def run_fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter that imports this package's source
    and return what its last line of output decodes to as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_loads_no_dataclasses_hashlib_or_oracle():
    # diff against what the interpreter loaded at start-up, so the check
    # holds whatever the site packages import
    added = run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import foon.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert "foon.cli" in added
    assert {"click", "dataclasses", "hashlib", "foon.oracle"} & set(added) == set()


COMPARE = (
    "import json, sys\n"
    "from foon.cli import main\n"
    "try:\n"
    "    main(args=sys.argv[1:], prog_name='foon')\n"
    "except SystemExit:\n"
    "    pass\n"
    "print()\n"
    "print(json.dumps('foon.oracle' in sys.modules))\n"
)


def test_compare_loads_the_oracle_only_when_asked(corpus_graph, tmp_path):
    universal = tmp_path / "universal.foon.txt"
    universal.write_text(write_subgraph(corpus_graph.units), encoding="utf-8")
    args = ["compare", str(universal), str(corpus_file("kitchen.json")), str(corpus_file("goal_nodes.json"))]
    assert run_fresh(COMPARE, *args) is False
    assert run_fresh(COMPARE, *args, "--with-oracle") is True


def test_package_loads_its_names_on_first_use():
    facts = run_fresh(
        "import json, sys\n"
        "import foon\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('foon.'))\n"
        "from foon import core\n"
        "print(json.dumps([loaded, core.__name__]))\n"
    )
    assert facts == [[], "foon.core"]


def test_package_names_are_the_submodules_objects():
    assert set(foon.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(foon))
    for name in PUBLIC_NAMES:
        value = getattr(foon, name)
        module = sys.modules[value.__module__]
        assert value.__module__.startswith("foon.") and value.__name__ == name
        assert getattr(module, name) is value


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        foon.no_such_name
