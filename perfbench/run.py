#!/usr/bin/env python3
"""pinchsim benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mimo-sweep --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 0

Each workload (see ``workloads.py``) runs in-process through
``pinchsim.cli.main`` on a scenario file generated from ``--seed``, as a
closed loop with one client, BLAS pinned to one thread: the CLI call is
repeated until ``--seconds`` have passed, each call timed on its own and its output
checked.

Throughput is total work over total time (the mean), not a median or a
minimum: on a shared 2-vCPU host, co-tenant load holds a fixed input at one
of a few speeds (up to 1.8x apart) for 10-30 s at a time. A median or
minimum jumps between those levels; the mean moves smoothly with the share
of time spent at each.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs (two traced on the first visit), prints the
per-layer metrics averaged over the traced runs, checks that their exact
counts repeat and writes the spans to ``.perfbench_out/results/``. The last
stdout line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("mimo-sweep", "heatmap-dense", "tdma-crowd")
SETUP_REPEATS = 7
DEFAULT_SEED = 7
HELD_OUT_SEED = 11  # a claimed gain must also hold here

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import pinchsim
from pinchsim.scenario import validate_scenario
from pinchsim.scenario_io import load_scenario
problems = validate_scenario(load_scenario(sys.argv[1]))
elapsed = time.perf_counter() - t0
sys.exit(f"invalid scenario: {problems}") if problems else print(repr(elapsed))
"""

# Per-layer metrics: (metric, unit, better), per run of the workload.
# Times are seconds; counts are exact and must repeat between traced runs.
_TIMED = "calls", "s"
PER_LAYER = (
    [("placement.optimize_multi_waveguide." + f, u, b) for f, u, b in (
        ("calls", "count", "lower"), ("s", "s", "lower"), ("self_s", "s", "lower"),
        ("cycles", "count", "lower"), ("accepted_steps", "count", "lower"),
        ("converged_ratio", "ratio", "higher"))]
    + [(f"beamforming.{fn}.{f}", "count" if f == "calls" else "s", "lower")
       for fn in ("zf_beamformer", "mrc_beamformer", "evaluate_rates",
                  "conventional_bound") for f in _TIMED]
    + [("beamforming.zf_beamformer.failed", "count", "lower")]
    + [(f"channel.build_channel.{f}", "count" if f == "calls" else "s", "lower")
       for f in ("calls", "s", "self_s")]
    + [(f"channel.{fn}.{f}", "count" if f == "calls" else "s", "lower")
       for fn in ("free_space_gain", "los_probability") for f in _TIMED]
    + [("access.tdma_rates.s", "s", "lower"), ("access.tdma_rates.self_s", "s", "lower")]
    + [("experiments.write_csv.s", "s", "lower"),
       ("experiments.write_csv.rows", "count", "lower"),
       ("experiments.write_csv.bytes", "B", "lower")]
    + [(f"experiments.run_{kind}.self_s", "s", "lower")
       for kind in ("compare_mimo", "heatmap", "tdma_demo")]
    + [("cli.main.s", "s", "lower"), ("cli.main.self_s", "s", "lower"),
       ("scenario_io.load_scenario.s", "s", "lower"),
       ("scenario.validate_scenario.s", "s", "lower"),
       ("trace_overhead_s", "s", "lower")]
)
END_TO_END = (("units_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("pinching_rate_bps_hz", "bps/Hz"))
# Exact counts a traced repetition must reproduce; the rest of PER_LAYER are times.
EXACT = tuple(m for m, unit, _ in PER_LAYER if unit != "s")


def parse_args(argv):
    p = argparse.ArgumentParser(description="pinchsim benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (held out: {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        p.error("--seed must be a non-negative 63-bit integer")
    return args


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(sizes: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "sizes": sizes,
    }


def measure_setup(scenario: Path) -> float:
    """Median over fresh interpreters of import + load_scenario + validate_scenario."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs a workload through the CLI, times it and checks its output."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pinching = None   # pinching rates from the first output that passed
        self.digest = None     # sha256 of that output

    def run(self, tracer=None) -> float:
        """Run the workload once; return its wall time. Failures are counted, not raised."""
        self.attempted += 1
        sink = io.StringIO()
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    code = self.cli.main(list(self.workload.argv))
                except Exception:  # the loop must go on; the traceback is recorded
                    code = traceback.format_exc()
                elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if code != 0:
            self.fail(f"exit {code}: {sink.getvalue().strip()[-500:]}")
        else:
            self._check()
        return elapsed

    def _check(self) -> None:
        from workloads import CheckError
        try:
            digest = hashlib.sha256(self.workload.csv.read_bytes()).hexdigest()
        except OSError as exc:
            self.fail(f"no output: {exc}")
            return
        if self.digest is not None:
            if digest != self.digest:
                self.fail("output differs between repetitions of one input")
            return
        try:
            self.pinching = self.workload.check(self.workload.csv)
        except CheckError as exc:
            self.fail(str(exc))
            return
        self.digest = digest

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)


def repeat(seconds: float, visit) -> None:
    """Closed loop: call `visit(first)` until `seconds` have passed, at least once."""
    start = time.perf_counter()
    first = True
    while first or time.perf_counter() - start < seconds:
        visit(first)
        first = False


def measure_end_to_end(workload, runner, seconds: float, setup_s: float) -> tuple:
    times: list = []
    repeat(seconds, lambda first: times.append(runner.run()))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pinching = runner.pinching
    values = {
        "units_per_s": len(times) * workload.units / sum(times),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "pinching_rate_bps_hz": float(pinching.mean()) if pinching is not None else 0.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, {"run_s": times}


def layer_values(tracer) -> dict:
    """One traced run's PER_LAYER values (all but trace_overhead_s)."""
    from spans import summarize
    summary = summarize(tracer.spans)
    values = {}
    for metric, _, _ in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s"):
            values[metric] = summary.get(name, {}).get(field, 0)
    counters = tracer.counters
    descent = "placement.optimize_multi_waveguide"
    calls = values[f"{descent}.calls"]
    values[f"{descent}.cycles"] = int(counters[f"{descent}.cycles"])
    values[f"{descent}.accepted_steps"] = int(counters[f"{descent}.accepted_steps"])
    values[f"{descent}.converged_ratio"] = (
        counters[f"{descent}.converged"] / calls if calls else 0.0)
    values["beamforming.zf_beamformer.failed"] = tracer.failed.get(
        "beamforming.zf_beamformer", 0)
    values["experiments.write_csv.rows"] = int(counters["experiments.write_csv.rows"])
    values["experiments.write_csv.bytes"] = int(counters["experiments.write_csv.bytes"])
    return values


def measure_traced(runner, seconds: float, spans_path: Path) -> tuple:
    """Alternate untraced and traced runs (two traced on the first visit).

    Times are means over the traced runs; exact counts must be equal in all.
    """
    from spans import Tracer
    untraced: list = []
    traced: list = []
    totals: dict = {}
    counts: list = []     # exact counts of each traced run
    spans: list = []

    def traced_run():
        tracer = Tracer(run_id=len(traced) + 1)
        traced.append(runner.run(tracer))
        values = layer_values(tracer)
        counts.append({m: values[m] for m in EXACT})
        if counts[-1] != counts[0]:
            runner.fail("exact counts differ between traced runs of one input")
        for metric, value in values.items():
            totals[metric] = totals.get(metric, 0.0) + value
        spans.extend(tracer.spans)

    def visit(first):
        untraced.append(runner.run())
        traced_run()
        if first:
            traced_run()

    repeat(seconds, visit)
    values = {m: totals[m] / len(traced) for m in totals}
    values.update(counts[0])
    values["trace_overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
    with spans_path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in PER_LAYER}
    total = values["cli.main.s"]
    shares = {
        "placement_self_share": values["placement.optimize_multi_waveguide.self_s"] / total,
        "write_csv_share": values["experiments.write_csv.s"] / total,
        "build_channel_share": values["channel.build_channel.s"] / total,
    }
    return metrics, {"shares": shares, "untraced_s": untraced, "traced_s": traced,
                     "spans_file": str(spans_path.relative_to(ROOT))}


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from pinchsim import cli
    from workloads import WORKLOADS

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    work = OUT / "work" / tag
    results = OUT / "results"
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        runner = Runner(cli, workload)
        if args.trace:
            metrics, extra = measure_traced(runner, args.seconds, results / f"{tag}-spans.jsonl")
        else:
            setup_s = measure_setup(Path(workload.argv[2]))
            metrics, extra = measure_end_to_end(workload, runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "unit_of_work": workload.unit,
              "environment": environment(workload.sizes), "problems": runner.problems,
              **extra, "result": result}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"environment {json.dumps(record['environment'])}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted} runs failed) unit_of_work={workload.unit}")
    for name, share in extra.get("shares", {}).items():
        print(f"{args.workload} {name} {share:.3f}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; a failing one does not stop the rest."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1]) if done.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if result is None:
            print(f"FAILED {name}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pinchsim" / "__init__.py").is_file():
        print(f"perfbench: no pinchsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
