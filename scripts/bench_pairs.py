#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized into BENCH_<n>.json.

Usage, from the root of a checkout::

    python3 scripts/bench_pairs.py --parent <rev> --number <n> --pairs 10 \\
        --workload mimo-sweep --seed 7

The change side is this checkout's working tree; the parent side is
``<rev>`` exported with ``git archive`` into a temporary directory (an
export registers nothing in the repository, so an interrupted run leaves
no stale worktree behind). Each pair runs ``perfbench/run.py --trace 0``
once on each side with the same arguments, parent first in even pairs and
change first in odd ones. The summary holds, per workload, seed and
end-to-end metric of ``BENCHMARK.json``: every run's value, each side's
median and quartiles, and the pairs the change won (ties count for
neither side). It also holds the sha256 of the CSV that one CLI run writes
on each side, on the input that side's own ``perfbench/workloads.py``
builds from the seed, and whether the two match; the same for the CSV's
body (every line after the ``#`` metadata line, whose ``config_digest``
moves whenever the digest's definition does), with both metadata lines.
Beside the benchmark's ``peak_rss_mb``, which reads the benchmark process
alone (``RUSAGE_SELF``), it records that CLI run's peak RSS in its own process
and in its worker processes (``RUSAGE_CHILDREN``; 0 where it started none).
Before each pair it probes the host's parallel throughput: the work of two
concurrent CPU-bound processes per second over that of one, 2.0 where two
CPUs are free; on a shared host it moves within minutes, and with it what
worker processes can gain. Invocations with the same ``--number`` add to the
existing file: each workload and seed holds the list of its series, in run
order.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Run from a checkout's root: one CLI run on the workload's input, then a
# JSON line with the sha256 of its CSV and of its body, its metadata line and
# the peak RSS of this process and of its children (ru_maxrss is in KiB).
CSV_HASH_CODE = """\
import hashlib, json, resource, sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
from pinchsim import cli
from workloads import WORKLOADS
with tempfile.TemporaryDirectory() as tmp:
    workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(tmp))
    if cli.main(list(workload.argv)) != 0:
        sys.exit("the workload's CLI run failed")
    data = workload.csv.read_bytes()
    meta, body = data.split(b"\\n", 1)
    mb = lambda who: resource.getrusage(who).ru_maxrss * 1024 / 1e6
    print(json.dumps({"sha256": hashlib.sha256(data).hexdigest(),
                      "body_sha256": hashlib.sha256(body).hexdigest(),
                      "metadata": meta.decode(),
                      "peak_rss_mb": {"self": mb(resource.RUSAGE_SELF),
                                      "children": mb(resource.RUSAGE_CHILDREN)}}))
"""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--number", required=True, type=int, help="n of the output file BENCH_<n>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", required=True,
                   choices=("mimo-sweep", "heatmap-dense", "tdma-crowd"))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    args = p.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        p.error("--pairs must be >= 1 and --seconds positive")
    return args


def git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """Files of ``rev`` under ``dest/parent``."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--prefix=parent/", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return dest / "parent"


def run_once(side: str, checkout: Path, args: argparse.Namespace) -> dict:
    """One benchmark run; its last stdout line is the JSON result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"  {side}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
          flush=True)
    return result


def csv_hashes(checkout: Path, args: argparse.Namespace) -> dict:
    """sha256 of the CSV of one CLI run of the workload in ``checkout``, of
    its body, its metadata line, and the run's peak RSS in its own process
    and in its children."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", CSV_HASH_CODE, args.workload, str(args.seed)],
                          cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def parallel_throughput() -> float:
    """Work per second of two concurrent CPU-bound processes over that of one."""
    def wall(n: int) -> float:
        start = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", "sum(i * i for i in range(10_000_000))"])
                 for _ in range(n)]
        for proc in procs:
            proc.wait()
        return time.perf_counter() - start

    return 2 * wall(1) / wall(2)


def spread(values: list) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict, end_to_end: list) -> dict:
    metrics = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                         "bound": spec["bound"], "change_wins": wins,
                         "parent": spread(sides["parent"]), "change": spread(sides["change"])}
    return {
        "pairs": len(runs["parent"]),
        "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out_path = ROOT / f"BENCH_{args.number}.json"
    report = json.loads(out_path.read_text()) if out_path.exists() else {
        "number": args.number, "results": {}}
    report.update({
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else ""),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        "seconds": args.seconds,
    })
    runs: dict = {"parent": [], "change": []}
    probes = []
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"parent": export(args.parent, Path(tmp)), "change": ROOT}
        hashes = {side: csv_hashes(checkouts[side], args) for side in checkouts}
        for key in ("sha256", "body_sha256", "metadata"):
            print(f"csv {key}: parent {hashes['parent'][key]}, "
                  f"change {hashes['change'][key]}", flush=True)
        for i in range(args.pairs):
            probes.append(parallel_throughput())
            print(f"pair {i + 1}/{args.pairs} (two-process throughput {probes[-1]:.2f}x)",
                  flush=True)
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(side, checkouts[side], args))
    summary = summarize(runs, end_to_end)
    for key in ("sha256", "body_sha256"):
        sides = {side: hashes[side][key] for side in hashes}
        summary[f"csv_{key}"] = {**sides, "match": sides["parent"] == sides["change"]}
    summary["csv_metadata"] = {side: hashes[side]["metadata"] for side in hashes}
    summary["one_run_peak_rss_mb"] = {side: hashes[side]["peak_rss_mb"] for side in hashes}
    summary["two_process_throughput"] = probes
    report["results"].setdefault(args.workload, {}).setdefault(str(args.seed), []).append(summary)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
              f"(change wins {m['change_wins']}/{summary['pairs']})")
    print(f"csv sha256 match: {summary['csv_sha256']['match']}, "
          f"body sha256 match: {summary['csv_body_sha256']['match']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
