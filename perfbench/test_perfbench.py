"""Tests of the benchmark itself: tracer coverage, exact counts, the checker.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracer import Tracer, unwrapped_sites  # noqa: E402
from workloads import WORKLOADS, load_reference, stage_criterion  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def traced_pass(tracer, name: str) -> dict:
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(1)
    tracer.reset()
    start = time.perf_counter()
    outputs = workload.run_pass(inputs)
    layers = tracer.summary(time.perf_counter() - start)
    tally = workload.check(outputs, load_reference(name), inputs)
    assert tally.failed == 0, tally.notes
    return layers


def test_no_cdrings_name_bypasses_the_wrappers():
    before = unwrapped_sites()
    assert before, "every target should be found before installing"
    t = Tracer()
    t.install()
    try:
        assert unwrapped_sites() == []
    finally:
        t.uninstall()
    assert unwrapped_sites() == before


def test_identity_sweep_counts_match_the_seed(tracer):
    layers = traced_pass(tracer, "identity-sweep")
    assert layers["algebra.mul.calls"] == 491_525
    assert layers["analysis.identities.calls"] == 512
    assert layers["residue.contains.calls"] == 512


def test_search_sweep_counts_match_the_seed(tracer):
    layers = traced_pass(tracer, "search-sweep")
    assert layers["analysis.associative_center.calls"] == 201
    assert layers["analysis.associative_center.distinct_share"] == pytest.approx(67 / 201)
    assert layers["essentiality.definitional.calls"] == 201
    assert layers["essentiality.budget_skips"] == 96


def check(name, outputs):
    workload = WORKLOADS[name]
    return workload.check(outputs, load_reference(name), workload.make_inputs(1))


@pytest.mark.parametrize(
    "name, attempted, decided",
    [("paper-sweep", 520, 504), ("identity-sweep", 512, 512), ("search-sweep", 469, 373)],
)
def test_reference_checks_against_itself(name, attempted, decided):
    tally = check(name, load_reference(name))
    assert (tally.attempted, tally.decided, tally.failed) == (attempted, decided, 0)


def test_changed_or_missing_instance_fails():
    outputs = copy.deepcopy(load_reference("paper-sweep"))
    outputs[0]["detail"] += " changed"
    del outputs[1]
    assert check("paper-sweep", outputs).failed == 2


def test_newly_decided_suite_instance_needs_its_cross_check():
    reference = load_reference("paper-sweep")
    idx = next(i for i, r in enumerate(reference) if r["skipped"])
    verdict = reference[idx]["detail"].rsplit(" = ", 1)[1]
    outputs = copy.deepcopy(reference)
    outputs[idx].update(skipped=False, detail=f"criterion={verdict} definitional={verdict}")
    tally = check("paper-sweep", outputs)
    assert (tally.decided, tally.failed) == (505, 0)
    other = "False" if verdict == "True" else "True"
    outputs[idx].update(passed=False, detail=f"criterion={verdict} definitional={other}")
    assert check("paper-sweep", outputs).failed == 1


def test_newly_decided_search_flag_needs_the_stage_criterion():
    reference = load_reference("search-sweep")
    idx = next(
        i for i, r in enumerate(reference) if r["base"] == 3 and r.get("flags_skipped")
    )
    row = reference[idx]
    verdict = stage_criterion(row["base"], row["params"], "centrally_essential")
    for value, decided, failed in ((verdict, 374, 0), (not verdict, 373, 1)):
        outputs = copy.deepcopy(reference)
        outputs[idx]["flags"]["centrally_essential"] = value
        outputs[idx]["flags_skipped"].remove("centrally_essential")
        tally = check("search-sweep", outputs)
        assert (tally.decided, tally.failed) == (decided, failed)


def test_identity_disagreements_count_per_pair():
    outputs = copy.deepcopy(load_reference("identity-sweep"))
    outputs[0].update(passed=False, detail="256 pairs swept, 3 disagreements")
    tally = check("identity-sweep", outputs)
    assert (tally.attempted, tally.decided, tally.failed) == (512, 509, 3)


def test_wide_centers_fails_a_closed_form_mismatch():
    workload = WORKLOADS["wide-centers"]
    inputs = workload.make_inputs(7)
    assert inputs == workload.make_inputs(7)
    outputs = [
        {"tower": f"Z{b};{','.join(map(str, p))}", "N_closed_form": True, "Z_closed_form": True}
        for b, p in inputs["towers"]
    ]
    assert workload.check(outputs, None, inputs).failed == 0
    outputs[2]["Z_closed_form"] = False
    assert workload.check(outputs, None, inputs).failed == 1
    assert workload.check(None, None, inputs).failed == 10


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
