"""The benchmark's tracer names library functions by module and attribute
path; a rename in `cdrings` must fail here rather than in a traced run. Its
output checks must pass on the library's own output here too, not only in a
benchmark run."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import cdrings
from cdrings.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _tracer_targets():
    """The literal `TARGETS` tuple of perfbench/tracer.py, read without
    importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        names = [node.target] if isinstance(node, ast.AnnAssign) else getattr(node, "targets", [])
        if any(isinstance(name, ast.Name) and name.id == "TARGETS" for name in names):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves_to_a_library_callable():
    package = Path(cdrings.__file__).resolve().parent
    targets = _tracer_targets()
    assert targets
    for group, module_name, path, _ in targets:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().parent == package, module_name
        owner = module
        for part in path.split("."):
            assert hasattr(owner, part), f"{group}: {module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{group}: {module_name}.{path}"


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, loaded read-only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_search_rows_pass_the_benchmark_check(capsys, workloads):
    # Each flag the recorded reference decided must keep its value, and each
    # one it skipped must be decided now and equal the stage criterion.
    assert main(["search", "--bases", "2..4", "--depth", "4"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    tally = workloads.search_check(rows, workloads.load_reference("search-sweep"), {})
    assert (tally.attempted, tally.decided, tally.failed) == (469, 469, 0), tally.notes


@pytest.mark.parametrize(
    "name, expected", [("paper-sweep", (520, 520, 0)), ("identity-sweep", (512, 512, 0))]
)
def test_suite_workloads_pass_the_benchmark_check(workloads, name, expected):
    # One pass of the workload, checked against its recorded reference as a
    # benchmark run checks it: every instance (for identity-sweep, every
    # swept (x, y) pair) decided and none failed.
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(1)
    tally = workload.check(workload.run_pass(inputs), workloads.load_reference(name), inputs)
    assert (tally.attempted, tally.decided, tally.failed) == expected, tally.notes
