"""The benchmark's workloads: inputs from a seed, one pass, and its output check.

A pass is the unit the benchmark times. Its outputs are plain JSON data, and
`check` compares them with the outputs recorded from the seed library in
`reference/<workload>.json` (`wide-centers` checks itself: the closed forms
against the direct kernels).

Check tallies count *checks*: a suite instance, a center or closed-form
equality, an (x, y) pair, or a search flag. A check is *decided* when it got
a verdict that matches the reference, and *failed* when its result differs
from the reference or its pass raised. A check the reference recorded as a
budget skip may now be decided; it is accepted only when its own second
route agrees (the suite's criterion-vs-definitional cross-check, or for a
search flag the stage criterion), and otherwise counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ESSENTIALITY_FLAGS = ("centrally_essential", "left_n_essential", "right_n_essential")


@dataclass
class Tally:
    attempted: int = 0
    decided: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, weight: int, note: str) -> None:
        self.failed += weight
        if len(self.notes) < 20:
            self.notes.append(note)



def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["outputs"]


def _units(base: int) -> list[int]:
    return [u for u in range(1, base) if math.gcd(u, base) == 1]


def _tower_id(base: int, params) -> str:
    return f"Z{base};{','.join(str(p) for p in params)}"


# -- suite-based workloads ------------------------------------------------------


def _suite_outputs(names) -> list[dict]:
    from cdrings import run_suite

    outputs = []
    for name in names:
        for inst in run_suite(name).to_json()["instances"]:
            outputs.append(
                {
                    "suite": name,
                    "instance": inst["instance"],
                    "passed": inst["passed"],
                    "skipped": inst["skipped"],
                    "detail": inst["detail"],
                }
            )
    return outputs


_SKIP_VERDICT = re.compile(r"criterion verdict = (True|False)$")
_AGREEMENT = re.compile(r"^criterion=(True|False) definitional=(True|False)$")
_PAIRS = re.compile(r"^(\d+) pairs swept, (\d+) disagreements$")


def _newly_decided_ok(ref: dict, cur: dict) -> bool:
    """A seed-time skip that is now decided: its cross-check must pass and the
    criterion verdict must be the one the seed reported alongside the skip."""
    skip = _SKIP_VERDICT.search(ref["detail"])
    agree = _AGREEMENT.match(cur["detail"])
    return bool(
        cur["passed"] and skip and agree and agree.group(1) == agree.group(2) == skip.group(1)
    )


def check_suite_outputs(outputs, reference, *, pair_weighted: bool = False) -> Tally:
    """Compare suite instances with the reference, one check per instance
    (or per swept (x, y) pair when `pair_weighted`)."""
    tally = Tally()
    current = {(o["suite"], o["instance"]): o for o in outputs or []}
    for ref in reference:
        key = (ref["suite"], ref["instance"])
        weight = int(_PAIRS.match(ref["detail"]).group(1)) if pair_weighted else 1
        tally.attempted += weight
        cur = current.pop(key, None)
        if cur is None:
            tally.fail(weight, f"{key}: missing")
        elif ref["skipped"]:
            if cur["skipped"]:
                if cur["detail"] != ref["detail"]:
                    tally.fail(weight, f"{key}: skip detail {cur['detail']!r}")
            elif _newly_decided_ok(ref, cur):
                tally.decided += weight
            else:
                tally.fail(weight, f"{key}: newly decided but {cur['detail']!r}")
        elif cur["skipped"]:
            tally.fail(weight, f"{key}: skipped, reference decided")
        elif pair_weighted:
            swept = _PAIRS.match(cur["detail"])
            if swept is None or int(swept.group(1)) != weight:
                tally.fail(weight, f"{key}: {cur['detail']!r}")
            else:
                wrong = int(swept.group(2))
                tally.decided += weight - wrong
                if wrong:
                    tally.fail(wrong, f"{key}: {cur['detail']!r}")
        elif cur["passed"] and cur["detail"] == ref["detail"]:
            tally.decided += weight
        else:
            tally.fail(
                weight, f"{key}: passed={cur['passed']} {cur['detail']!r}, reference {ref['detail']!r}"
            )
    for key in current:
        tally.attempted += 1
        tally.fail(1, f"{key}: not in the reference")
    return tally


def paper_inputs(seed: int) -> dict:
    order = ["thm-1.3", "thm-1.4"]
    random.Random(seed).shuffle(order)
    return {"suites": order}


def suite_pass(inputs: dict) -> list[dict]:
    return _suite_outputs(inputs["suites"])


def paper_check(outputs, reference, inputs: dict) -> Tally:
    return check_suite_outputs(outputs, reference)


def identity_inputs(seed: int) -> dict:
    # lemma-2.1 sweeps fixed towers; the seed has nothing to choose here.
    return {"suites": ["lemma-2.1"]}


def identity_check(outputs, reference, inputs: dict) -> Tally:
    return check_suite_outputs(outputs, reference, pair_weighted=True)


# -- wide-centers -------------------------------------------------------------------

WIDE_BASES = (2, 3, 4, 5, 6)
WIDE_DEPTH = 5  # rank 32


def wide_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    bases = list(WIDE_BASES)
    rng.shuffle(bases)
    return {
        "towers": [[b, [rng.choice(_units(b)) for _ in range(WIDE_DEPTH)]] for b in bases]
    }


def wide_pass(inputs: dict) -> list[dict]:
    from cdrings import (
        TowerSpec,
        build_tower,
        center,
        essentiality_data,
        predicted_associative_center,
        predicted_center,
    )

    outputs = []
    for base, params in inputs["towers"]:
        stages = build_tower(TowerSpec(base, tuple(params)))
        stage, doubled = stages[-2], stages[-1]
        report = center(doubled)
        data = essentiality_data(stage)
        outputs.append(
            {
                "tower": _tower_id(base, params),
                "N_closed_form": predicted_associative_center(data, doubled) == report.N,
                "Z_closed_form": predicted_center(data, doubled) == report.Z,
                "N_order": report.N.order(),
                "Z_order": report.Z.order(),
            }
        )
    return outputs


def wide_check(outputs, reference, inputs: dict) -> Tally:
    tally = Tally(attempted=2 * len(inputs["towers"]))
    expected = [_tower_id(b, p) for b, p in inputs["towers"]]
    if outputs is None or [o["tower"] for o in outputs] != expected:
        tally.fail(tally.attempted, "towers missing or out of order")
        return tally
    for out in outputs:
        for key in ("N_closed_form", "Z_closed_form"):
            if out[key] is True:
                tally.decided += 1
            else:
                tally.fail(1, f"{out['tower']}: {key} differs from the direct kernel")
    return tally


# -- search-sweep ---------------------------------------------------------------------

SEARCH_BASES = (2, 3, 4)
SEARCH_DEPTH = 4


def search_inputs(seed: int) -> dict:
    bases = list(SEARCH_BASES)
    random.Random(seed).shuffle(bases)
    return {
        "argv": ["search", "--bases", ",".join(map(str, bases)), "--depth", str(SEARCH_DEPTH)]
    }


def search_pass(inputs: dict) -> list[dict]:
    from cdrings import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(inputs["argv"]))
    if code != 0:
        raise RuntimeError(f"cdrings {' '.join(inputs['argv'])} exited with {code}")
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def stage_criterion(base: int, params, flag: str) -> bool:
    """Second route for an essentiality flag of a tower: the criterion on its
    last undoubled stage (right N-essential uses the N-essential criterion)."""
    from cdrings import (
        TowerSpec,
        build_tower,
        centrally_essential_criterion,
        n_essential_criterion,
    )

    stages = build_tower(TowerSpec(base, tuple(params)))
    crit = centrally_essential_criterion if flag == "centrally_essential" else n_essential_criterion
    return crit(stages[-2], params[-1]).verdict


def search_check(outputs, reference, inputs: dict) -> Tally:
    tally = Tally()
    current = {(r["base"], tuple(r["params"])): r for r in outputs or []}
    for ref in reference:
        key = (ref["base"], tuple(ref["params"]))
        names = sorted(set(ref["flags"]) | set(ref.get("flags_skipped", ())))
        tally.attempted += len(names)
        cur = current.pop(key, None)
        if cur is None or cur.get("rank") != ref["rank"] or "flags" not in cur:
            tally.fail(len(names), f"{_tower_id(*key)}: row missing or changed: {cur}")
            continue
        cur_skipped = set(cur.get("flags_skipped", ()))
        for name in names:
            got = cur["flags"].get(name) if name not in cur_skipped else None
            if name in ref["flags"]:
                if got == ref["flags"][name]:
                    tally.decided += 1
                else:
                    tally.fail(1, f"{_tower_id(*key)} {name}: {got}, reference {ref['flags'][name]}")
            elif got is None:
                pass  # still a budget skip
            elif name in ESSENTIALITY_FLAGS and got == stage_criterion(*key, name):
                tally.decided += 1
            else:
                tally.fail(1, f"{_tower_id(*key)} {name}: newly decided {got} disagrees")
    for key, cur in current.items():
        weight = len(cur.get("flags", {})) + len(cur.get("flags_skipped", ())) or 1
        tally.attempted += weight
        tally.fail(weight, f"{_tower_id(*key)}: not in the reference")
    return tally


# -- registry -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    make_inputs: Callable[[int], dict]
    run_pass: Callable[[dict], list]
    check: Callable[[list | None, list | None, dict], Tally]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-sweep", paper_inputs, suite_pass, paper_check),
        Workload("wide-centers", wide_inputs, wide_pass, wide_check),
        Workload("identity-sweep", identity_inputs, suite_pass, identity_check),
        Workload("search-sweep", search_inputs, search_pass, search_check),
    )
}
