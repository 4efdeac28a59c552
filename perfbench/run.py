"""Benchmark for cdrings: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Each workload runs in a fresh interpreter as a closed loop of one caller:
passes run back to back until `--seconds` have elapsed, and at least
`MIN_PASSES` of them, so a cold first pass never sets the median. BLAS
threads are capped at the number of usable CPUs. The library is imported
from `src/` of the checkout; without it the benchmark exits with code 2.

`--trace 0` prints the end-to-end metrics:

    wall_s         median wall time of one pass
    checks_per_s   decided checks of one pass divided by wall_s
    setup_s        median, over SETUP_SAMPLES fresh interpreters, of the time
                   from process start through `import cdrings` and input
                   generation to the first call
    peak_rss_mb    peak resident set of the measuring process
    decided_share  decided checks / attempted checks (the reach)
    correct_share  1 - failed checks / attempted checks

`--trace 1` runs untraced passes for the first half of the time and traced
passes for the rest (at least one of each) and prints the per-layer metrics
of `tracer.Tracer.summary`, plus `trace.overhead_share`, the traced median
pass over the untraced one, minus one. Per-layer times are medians over the
traced passes; counts must repeat exactly from pass to pass.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Each run also writes the
environment record (CPUs, CPU model, Python, numpy, BLAS, git commit,
source digest, seed) with its metrics to `perfbench/out/`; traced runs add
the spans of their last traced pass there as a `.npz` file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 9
MIN_PASSES = 3
RUN_DEADLINE_S = 175.0  # one workload run, parent and children


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


# -- child side: one fresh interpreter per workload run ----------------------------


def _import_library():
    import cdrings

    if Path(cdrings.__file__).resolve().parent != SRC / "cdrings":
        raise ImportError(f"cdrings imported from {cdrings.__file__}, not from {SRC}")


def child_main(args) -> int:
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]
    _import_library()
    inputs = workload.make_inputs(args.seed)
    if args.role == "setup":
        # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own reading.
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0
    reference = load_reference(workload.name)
    if reference is None and workload.name != "wide-centers":
        raise FileNotFoundError(f"no reference outputs for {workload.name}")

    passes = []
    first_outputs = None
    begin = time.perf_counter()

    def one_pass(tracer=None):
        nonlocal first_outputs
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            outputs = workload.run_pass(inputs)
        except Exception:  # a pass that raises fails all its checks
            traceback.print_exc()
            outputs = None
        wall = time.perf_counter() - start
        # Summarize before checking, so spans of the check stay out of it.
        layers = tracer.summary(wall) if tracer is not None else None
        tally = workload.check(outputs, reference, inputs)
        if first_outputs is None:
            first_outputs = outputs
        elif outputs != first_outputs and tally.failed == 0:
            tally.fail(tally.attempted, "outputs differ from the first pass")
        passes.append(
            {
                "wall": wall,
                "traced": tracer is not None,
                "tally": asdict(tally),
                "layers": layers,
            }
        )

    def elapsed():
        return time.perf_counter() - begin

    spans_file = None
    if args.role == "measure":
        while len(passes) < MIN_PASSES or elapsed() < args.seconds:
            one_pass()
    else:
        import numpy as np
        from tracer import Tracer

        while not passes or elapsed() < args.seconds / 2:
            one_pass()
        tracer = Tracer()
        tracer.install()
        try:
            one_pass(tracer)
            while elapsed() < args.seconds:
                one_pass(tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"{workload.name}-seed{args.seed}-spans.npz"
        np.savez(spans_file, **tracer.spans())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "passes": passes,
                "peak_rss_mb": peak_kb / 1024,
                "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
            }
        ),
        flush=True,
    )
    return 0


# -- parent side ----------------------------------------------------------------------


class RunFailed(Exception):
    pass


def _spawn(args, role: str, deadline: float) -> tuple[str, float]:
    """Run a child role; return (last stdout line, monotonic time at spawn)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    started = time.monotonic()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed(f"{role} run of {args.workload} passed the deadline") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{role} run of {args.workload} exited with {proc.returncode}")
    return lines[-1], started


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "cdrings").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, deadline: float) -> tuple[dict, list, dict]:
    """End-to-end metrics: setup samples, then one measuring child."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        line, started = _spawn(args, "setup", deadline)
        setups.append(float(line.split()[1]) - started)
    result = json.loads(_spawn(args, "measure", deadline)[0])
    passes = result["passes"]
    attempted = sum(p["tally"]["attempted"] for p in passes)
    wall = statistics.median(p["wall"] for p in passes)
    metrics = {
        "wall_s": wall,
        "checks_per_s": passes[0]["tally"]["decided"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "decided_share": sum(p["tally"]["decided"] for p in passes) / attempted,
        "correct_share": 1 - sum(p["tally"]["failed"] for p in passes) / attempted,
    }
    return metrics, passes, {"pass_walls": [p["wall"] for p in passes], "setup_samples": setups}


def trace(args, deadline: float) -> tuple[dict, list, dict]:
    """Per-layer metrics from one child with untraced and traced passes."""
    result = json.loads(_spawn(args, "trace", deadline)[0])
    passes = result["passes"]
    plain = [p["wall"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = {}
    repeat = True
    for key in traced[0]["layers"]:
        values = [p["layers"][key] for p in traced]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            repeat &= all(v == values[0] for v in values)
    metrics["trace.overhead_share"] = (
        statistics.median(p["wall"] for p in traced) / statistics.median(plain) - 1
    )
    if not repeat:
        print("warning: per-layer counts differ between traced passes", file=sys.stderr)
    return metrics, passes, {
        "untraced_walls": plain,
        "traced_walls": [p["wall"] for p in traced],
        "counts_repeat": repeat,
        "spans_file": result["spans_file"],
    }


def run_one(args, deadline: float) -> dict:
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())[section]}
    values, passes, detail = (trace if args.trace else measure)(args, deadline)
    if set(values) != set(units):
        raise RunFailed(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    env = environment(args)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:45s} {m['value']:>16.6g} {m['unit']}")
    notes = [n for p in passes for n in p["tally"]["notes"]][:20]
    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)
    failed = sum(p["tally"]["failed"] for p in passes)
    record = {
        "correct": failed == 0,
        "attempted": sum(p["tally"]["attempted"] for p in passes),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(
        json.dumps({"environment": env, "detail": {**detail, "notes": notes}, **record}, indent=1)
        + "\n"
    )
    return record


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args, list(WORKLOADS)


def main(argv=None) -> int:
    args, names = parse_args(argv)
    if not (SRC / "cdrings" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"error: no cdrings sources under {SRC} or no {BENCHMARK_JSON.name};"
              " run from a source checkout", file=sys.stderr)
        return 2
    if args.role:
        return child_main(args)
    try:
        if args.workload != "all":
            record = run_one(args, time.monotonic() + RUN_DEADLINE_S)
        else:
            records = {}
            for name in names:
                one = argparse.Namespace(**{**vars(args), "workload": name})
                records[name] = run_one(one, time.monotonic() + RUN_DEADLINE_S)
            record = {
                "correct": all(r["correct"] for r in records.values()),
                "attempted": sum(r["attempted"] for r in records.values()),
                "failed": sum(r["failed"] for r in records.values()),
                "metrics": {
                    f"{w}.{k}": m for w, r in records.items() for k, m in r["metrics"].items()
                },
            }
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
