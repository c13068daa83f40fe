"""The repository benchmark: ``python3 perfbench/run.py --workload NAME --seed N``.

Run from the repository root.  One run of one workload:

1. a ``warm`` process loads (and on a cold checkout compiles) both C
   kernels and reports the engine provenance;
2. ``SETUP_SAMPLES`` processes measure set-up alone;
3. resume workloads fill a template store with half their points;
4. fresh ``workload`` processes, one after another, each time one
   ``repro.cli.main`` call on identical inputs until ``--seconds`` is used
   (at least two; with ``--trace 1`` they alternate untraced and traced);
5. a ``check`` process verifies the output against the repository's
   oracles, and every repetition's result digest must be identical.

The last stdout line is the result object; the line before it is the full
record (inputs, provenance, every sample, the trace breakdown).  The
workloads, metrics and expected movements are documented in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
BASELINE = HERE / "baseline.json"

#: Set-up-only processes per run (workload processes add one sample each).
SETUP_SAMPLES = 3
#: Workload processes per run at least, so result digests can be compared.
MIN_REPETITIONS = 2
#: Every run, set-up and checks included, must end within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "volume_gmean": "tile-cycles",
}


PER_LAYER_UNITS = {
    "setup.import_s": "s", "setup.kernel_load_s": "s",
    "distillation.build_factory_s": "s", "distillation.build_factory_calls": "count",
    "scheduling.lower_bound_s": "s", "scheduling.lower_bound_calls": "count",
    **{f"mapping.{method}_{suffix}": unit for method in workloads.MAPPERS
       for suffix, unit in (("s", "s"), ("calls", "count"))},
    "mapping.fd_refine_s": "s", "mapping.stitch_hops_s": "s",
    "mapping.fd_sweeps": "count", "mapping.fd_proposed": "count",
    "mapping.fd_accepted": "count", "mapping.fd_accept_ratio": "ratio",
    "graphs.mapping_metrics_s": "s", "graphs.mapping_metrics_calls": "count",
    "routing.simulate_s": "s", "routing.simulate_calls": "count",
    "routing.simulate_batch_s": "s", "routing.batch_points": "count",
    "routing.stall_events": "count", "routing.wakeups": "count",
    "store.get_s": "s", "store.get_calls": "count", "store.hit_ratio": "ratio",
    "store.put_s": "s", "store.put_calls": "count", "store.bytes_written": "bytes",
    "pipeline.self_s": "s", "analysis.correlation.self_s": "s", "cli.self_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}


class Run:
    """Spawns this run's processes under one work directory and deadline."""

    def __init__(self, root: Path, work: Path, workload, seed: int) -> None:
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([path] if path else [])))
        self.count = 0

    def spawn(self, mode: str, **job) -> dict:
        """Run one child process to completion; its result, or ``error``."""
        label = f"{self.count:02d}-{mode}"
        self.count += 1
        job = dict(job, workload=self.workload.name, seed=self.seed,
                   result=str(self.work / f"{label}.result.json"))
        job_path = self.work / f"{label}.job.json"
        job_path.write_text(json.dumps(job))
        log_path = self.work / f"{label}.log"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log_path, "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            try:
                completed = subprocess.run(
                    [sys.executable, str(CHILD), mode, str(job_path), repr(spawned)],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env,
                    cwd=self.root, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return {"error": f"{label} exceeded the run budget"}
        if completed.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            return {"error": f"{label} exited {completed.returncode}:\n{tail}"}
        result = json.loads(Path(job["result"]).read_text())
        result["elapsed_s"] = time.monotonic() - spawned
        return result


def output_digest(kind: str, path: Path) -> str:
    """Digest of a workload output's deterministic part (no timings)."""
    data = json.loads(path.read_text())
    payload = data["evaluations"] if kind == "sweep" else data["result"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def source_digest(src: Path) -> str:
    """Content digest of the program sources: identity without git."""
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            hasher.update(str(path.relative_to(src)).encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def git_sha(root: Path):
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                   capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def refuse_reason(kernels: dict):
    """Why results under ``kernels`` must not be compared to the baseline."""
    expected = json.loads(BASELINE.read_text())["provenance"]["kernels"]
    if kernels != expected:
        return (f"kernel availability {kernels} differs from the baseline's "
                f"{expected}; a pure-Python fallback is not comparable")
    return None


def measure(run: Run, trace: bool, seconds: float, template) -> list:
    """Workload repetitions until ``seconds`` are used (at least
    ``MIN_REPETITIONS``)."""
    reps, started = [], time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_dir = run.work / f"rep{len(reps)}"
        store = rep_dir / "store"
        if template is not None:
            shutil.copytree(template, store)
        else:
            rep_dir.mkdir()
        result = run.spawn("workload", store=str(store),
                           output=str(rep_dir / "output.json"),
                           spans=str(rep_dir / "spans.json"), trace=traced)
        result.update(traced=traced, output=str(rep_dir / "output.json"))
        reps.append(result)
        if "error" in result:
            return reps
        now = time.monotonic()
        typical = statistics.median(rep["elapsed_s"] for rep in reps)
        if len(reps) >= MIN_REPETITIONS and now - started + typical > seconds:
            return reps
        if now + typical > run.deadline - 30.0:
            return reps


def _terminate(signum, frame):
    # Raising here lets subprocess.run kill and reap the running child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: ./src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(root, work, workload, args.seed)

    warm = run.spawn("warm")
    if "error" in warm:
        print(f"perfbench: set-up failed: {warm['error']}", file=sys.stderr)
        return 1
    provenance = dict(warm["provenance"], kernels=warm["kernels"])
    if Path(provenance["repro_path"]) != root / "src" / "repro":
        print(f"perfbench: imported repro from {provenance['repro_path']}, "
              f"not from this checkout", file=sys.stderr)
        return 1
    reason = refuse_reason(warm["kernels"])
    if reason:
        print(f"perfbench: refusing to measure: {reason}", file=sys.stderr)
        return 3
    provenance.update(git_sha=git_sha(root), source_digest=source_digest(root / "src"))

    setups = [run.spawn("setup") for _ in range(SETUP_SAMPLES)]
    template = None
    if workload.prefill_argv is not None:
        template = work / "template-store"
        setups.append(run.spawn("prefill", store=str(template),
                                output=str(work / "prefill.json")))
    errors = [result["error"] for result in setups if "error" in result]
    reps = measure(run, bool(args.trace), args.seconds, template) if not errors else []
    errors += [rep["error"] for rep in reps if "error" in rep]
    errors += [f"the CLI call exited {result['exit_code']}"
               for result in setups + reps if result.get("exit_code", 0) != 0]
    if any(result["kernels"] != warm["kernels"] for result in setups + reps
           if "kernels" in result):
        errors.append("kernel availability changed between processes")
    good = [rep for rep in reps if "error" not in rep and rep["exit_code"] == 0]
    check = {"failed": workload.points, "failures": ["no repetition completed"]}
    digests = []
    if good:
        digests = [output_digest(workload.kind, Path(rep["output"])) for rep in good]
        checked = run.spawn("check", output=good[0]["output"])
        if "error" in checked:
            errors.append(checked["error"])
        else:
            check = checked["check"]

    # Every repetition's points count; a repetition whose output differs from
    # the checked one (or that crashed) fails all of its points.
    attempted = workload.points * max(1, len(reps))
    failed = attempted - workload.points * len(good)
    failed += sum(workload.points if digest != digests[0] else check["failed"]
                  for digest in digests)
    correct = failed == 0 and not errors and not check["failures"]

    untraced = [rep for rep in good if not rep["traced"]]
    traced = [rep for rep in good if rep["traced"]]

    def median(values):
        return statistics.median(values) if values else 0.0

    pps = median([workload.points / rep["wall_s"] for rep in untraced])
    setup_pool = [result for result in setups if "setup_s" in result] + good
    if args.trace:
        values = {
            "setup.import_s": median([r["import_s"] for r in setup_pool]),
            "setup.kernel_load_s": median([r["kernel_load_s"] for r in setup_pool]),
        }
        for name in traced[0]["trace"]["metrics"] if traced else ():
            values[name] = median([rep["trace"]["metrics"][name] for rep in traced])
        traced_pps = median([workload.points / rep["wall_s"] for rep in traced])
        values["trace.overhead"] = 1.0 - traced_pps / pps if pps and traced_pps else 0.0
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": median([r["setup_s"] for r in setup_pool]),
            "points_per_s": pps,
            "peak_rss_mb": median([rep["rss_mb"] for rep in untraced]),
            "volume_gmean": check.get("volume_gmean", 0.0),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "points_per_repetition": workload.points, "inputs": workload.inputs,
        "provenance": provenance, "digest": digests[0] if digests else None,
        "repetitions": [{key: rep.get(key) for key in
                         ("traced", "setup_s", "wall_s", "rss_mb", "elapsed_s")}
                        for rep in good],
        "setup_samples": [r["setup_s"] for r in setup_pool],
        "metrics": values, "check": check,
        "errors": [error[-500:] for error in errors],
        "trace_self_s": [rep["trace"]["self_s"] for rep in traced],
    }
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
