"""Record the seed library's outputs and traced layer shares.

    python3 perfbench/record_seed.py

Writes `reference/<workload>.json` (the outputs the benchmark checks later
runs against) and the `seed_layer_shares` of `interactions.json`: for each
workload, every layer's self time as a share of one traced pass. Run it
only to re-baseline on purpose; the files it writes are committed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import Tracer  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402

SEED = 1


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    shares = {}
    for workload in WORKLOADS.values():
        inputs = workload.make_inputs(SEED)
        outputs = workload.run_pass(inputs)
        if workload.name != "wide-centers":
            path = REFERENCE_DIR / f"{workload.name}.json"
            path.write_text(
                json.dumps({"workload": workload.name, "inputs": inputs, "outputs": outputs},
                           indent=1) + "\n"
            )
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            workload.run_pass(inputs)
            wall = time.perf_counter() - start
            layers = tracer.summary(wall)
        finally:
            tracer.uninstall()
        shares[workload.name] = {
            "traced_wall_s": round(wall, 3),
            **{
                key[: -len(".self_s")]: round(value / wall, 4)
                for key, value in layers.items()
                if key.endswith(".self_s")
            },
            "unattributed": round(layers["trace.unattributed_s"] / wall, 4),
        }
        print(workload.name, json.dumps(shares[workload.name]))
    table_path = BENCH / "interactions.json"
    table = json.loads(table_path.read_text())
    table["seed_layer_shares"] = shares
    table_path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
