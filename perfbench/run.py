"""The repository's benchmark: closed-loop workloads with a per-layer ladder.

Run from the root of a checkout::

    python3 perfbench/run.py --workload shed_bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

For each workload this script generates (or reuses) the seed's inputs,
warms the bytecode cache, then splits ``--seconds`` over several fresh
workload processes: set-up time and peak memory are medians over them,
throughput and latency percentiles come from the passes and chunks of
all of them pooled.  A traced run is one process.  It prints every
metric by name with unit and sample count, writes a run record under
``.perfbench_work/records/``, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics.  Exit status: 0 when every
correctness check passed, 1 when one failed, 2 when the run could not
be made (no program to measure, bad arguments, a crashed workload).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
#: Workload processes per untraced run: set-up time is the median of
#: this many set-ups.
PROCESSES = 5
#: Chunks an untraced run measures at least, over all its processes, so
#: its chunk p99 has at least ten samples beyond it.
MIN_CHUNKS = 1_000
#: Seconds one workload process may take before the run is abandoned.
CHILD_TIMEOUT = 150


class RunError(Exception):
    """The run could not be made; reported on stderr, exit status 2."""


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[len("ref: "):]
    return loose.read_text().strip() if loose.is_file() else None


def _source_digest() -> str:
    """SHA-256 over the program's sources: identifies code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _host_cpus() -> tuple:
    """``(count, method)`` from the parallel-scaling benchmark's detector."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_cpu_probe", ROOT / "benchmarks" / "test_parallel_scaling.py"
    )
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe.effective_cpus()


def _spawn(name: str, inputs: Path, scratch: Path, args: list) -> dict:
    """Run one workload process; returns its JSON result."""
    scratch.mkdir(parents=True)
    (scratch / "tmp").mkdir()
    env = dict(os.environ)
    env.pop("REPRO_KERNEL_BACKEND", None)
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every process
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # The native backend compiles into a temporary directory: keep it
    # inside the checkout.
    env["TMPDIR"] = str(scratch / "tmp")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), name, str(inputs),
             str(scratch), *args, "--spawned-at", repr(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"workload process exceeded {CHILD_TIMEOUT} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RunError(f"workload process failed with exit status {proc.returncode}")
    return json.loads(lines[-1])


def _pooled_samples(directories: list) -> dict:
    """Each latency kind's samples, concatenated over the run's processes."""
    pooled: dict = {}
    for path in directories:
        with np.load(path / "samples.npz") as saved:
            for kind in saved.files:
                pooled.setdefault(kind, []).append(saved[kind])
    return {kind: np.concatenate(parts) for kind, parts in pooled.items()}


def _pooled_metrics(samples: dict) -> dict:
    """Throughput and latency percentiles over the pooled samples.

    ``ingest_tuples_per_s`` is the median pass's tuples per second: every
    pass offers the same tuples and does the same periodic work, and the
    median keeps a pass the host stalled from moving the figure.  A p99
    needs at least :data:`MIN_CHUNKS` samples, so that ten lie beyond it.
    """
    def latency(values, q):
        return [float(np.percentile(values, q)) * 1e3, "ms", int(values.size)]

    rates = samples.pop("pass_rate")
    chunk = samples.pop("chunk")
    out = {
        "ingest_tuples_per_s": [float(np.median(rates)), "1/s", int(rates.size)],
        "chunk_latency_p50_ms": latency(chunk, 50),
    }
    if chunk.size >= MIN_CHUNKS:
        out["chunk_latency_p99_ms"] = latency(chunk, 99)
    if samples:  # the dashboard's query kinds
        every = np.concatenate(list(samples.values()))
        out["query_latency_p50_ms"] = latency(every, 50)
        if every.size >= MIN_CHUNKS:
            out["query_latency_p99_ms"] = latency(every, 99)
        for kind, values in samples.items():
            out[f"{kind}_latency_p50_ms"] = latency(values, 50)
    return out


def run_workload(name: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    """Measure one workload; returns its contract result plus the report."""
    from inputs import ensure_inputs  # needs repro on sys.path

    inputs = ensure_inputs(WORK / "inputs", name, seed)
    cpu = ["--cpu", str(max(os.sched_getaffinity(0)))]
    scratch = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(scratch, ignore_errors=True)
    processes = 1 if trace else PROCESSES
    args = cpu + [
        "--seconds", repr(seconds / processes), "--trace", str(trace),
        "--min-chunks", str(-(-MIN_CHUNKS // processes)),
    ]
    directories = [scratch / f"process-{index}" for index in range(processes)]
    try:
        results = [_spawn(name, inputs, path, args) for path in directories]
        samples = {} if trace else _pooled_samples(directories)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    measured = {
        metric: [
            statistics.median(r["metrics"][metric][0] for r in results),
            unit,
            None if count is None else sum(r["metrics"][metric][2] for r in results),
        ]
        for metric, (_, unit, count) in results[0]["metrics"].items()
    }
    if not trace:
        measured.update(_pooled_metrics(samples))
    failures = [failure for r in results for failure in r["failures"]]
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise RunError(f"{name} did not measure {missing}")
    return {
        "workload": name,
        "processes": processes,
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failures": failures,
        "metrics": {
            m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
            for m in declared
        },
        "measured": measured,
        "declared": {m["name"]: m.get("bound") for m in declared},
        "passes": sum(r["passes"] for r in results),
        "record": results[0]["record"],
    }


def report(outcome: dict, seed: int, trace: int, host: dict) -> None:
    """Human-readable lines, and the run record in the shared record schema."""
    record = outcome["record"]
    params = record["parameters"]
    print(
        f"== {outcome['workload']}  seed {seed}  trace {trace}  "
        f"backend {record['backend']}  processes {outcome['processes']}  "
        f"passes {outcome['passes']}  "
        f"cpus {host['cpus']} ({host['cpu_detection']}), pinned to "
        f"{record['cpu_set']}  python {record['python']}  numpy {record['numpy']}"
    )
    rows = []
    for name, (value, unit, samples) in sorted(outcome["measured"].items()):
        gated = "" if name in outcome["declared"] else "  (reported only)"
        count = "" if samples is None else f"  n={samples}"
        print(f"  {name:<36} {value:>16.6g} {unit:<8}{count}{gated}")
        layer = name.rsplit(".", 1)[0] if trace else "end_to_end"
        rows.append({
            "layer": layer,
            "scenario": outcome["workload"],
            "backend": record["backend"],
            "sketch": params["sketch"],
            "rows": params["rows"],
            "buckets": params["buckets"],
            "batch": params["batch"],
            "metric": name,
            "value": value,
            "unit": unit,
            "samples": samples,
            "cpus": host["cpus"],
            "commit": host["commit"],
            "gate": outcome["declared"].get(name),
        })
    error_rate = outcome["failed"] / outcome["attempted"]
    print(f"  {'error_rate':<36} {error_rate:>16.6g} {'1':<8}  "
          f"n={outcome['attempted']}")
    for failure in outcome["failures"]:
        print(f"  FAILED: {failure}")
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{outcome['workload']}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"host": host, "run": record, "failures": outcome["failures"],
                    "records": rows}, indent=1)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise RunError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if options.workload not in names + ["all"]:
            raise RunError(f"unknown workload {options.workload!r}; choose from {names}")
        if options.seconds < 1 or options.seed < 0:
            raise RunError("--seconds must be at least 1 and --seed non-negative")
        sys.path.insert(0, str(ROOT / "src"))
        compileall.compile_dir(ROOT / "src", quiet=1)
        compileall.compile_dir(HERE, quiet=1)
        cpus, detection = _host_cpus()
        host = {"cpus": cpus, "cpu_detection": detection, "commit": _git_commit(),
                "source_digest": _source_digest()}
        outcomes = []
        for name in names if options.workload == "all" else [options.workload]:
            outcome = run_workload(
                name, options.seed, options.seconds, options.trace, spec
            )
            report(outcome, options.seed, options.trace, host)
            outcomes.append(outcome)
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if len(outcomes) == 1:
        metrics = outcomes[0]["metrics"]
    else:
        metrics = {
            f"{o['workload']}.{name}": value
            for o in outcomes for name, value in o["metrics"].items()
        }
    correct = all(o["correct"] for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
