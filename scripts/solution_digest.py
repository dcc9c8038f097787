#!/usr/bin/env python3
"""sha256 of every ``PlacementSolution`` and of the CSV of ``compare-mimo`` runs,
and of the CSV of ``heatmap`` runs, at one and two workers.

Usage, from the root of a checkout::

    python3 scripts/solution_digest.py [--parent <rev>]

Cases: the ``mimo-sweep`` workload's input (``perfbench/workloads.py``) at seeds
3, 7 and 11; criterion 8's, the 3 x 3 preset at seed 8 with 100 drops at
90-120 dB; M = K = 4, 5 and 6 guides and users on the same preset at seed
8, 4 drops at 90-120 dB, and 3 guides over 2 users (M > K: a non-square
channel) with 6 drops (its small tables fit 4 drops in one group, so it
takes 6 to make two groups, which two workers descend); and the
``heatmap-dense`` workload's input at seeds 7 and 11. Each case runs the
CLI through ``cli.main`` in a process of its own, BLAS on one thread, with
``experiments._sweep_drops`` wrapped to hash every solution it returns
(layout arrays, value and trace bits, kind, cycles, convergence; a heatmap
has none): once pinned to one CPU, so that the drop groups descend and the
heatmap's chunks are formatted in that process, and once with two worker
processes. With ``--parent`` every case runs again on
``<rev>``, exported with ``git archive``. Exits 1 if the hashes of one case
differ between worker counts or between the two sides.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, THREAD_VARS, export  # noqa: E402

# (name, workload, guides, users, seed, drops; None drops: the workload's input)
CASES = [("mimo-sweep s3", "mimo-sweep", 3, 3, 3, None),
         ("mimo-sweep s7", "mimo-sweep", 3, 3, 7, None),
         ("mimo-sweep s11", "mimo-sweep", 3, 3, 11, None),
         ("criterion 8", "mimo-sweep", 3, 3, 8, 100), ("M=K=4", "mimo-sweep", 4, 4, 8, 4),
         ("M=K=5", "mimo-sweep", 5, 5, 8, 4), ("M=K=6", "mimo-sweep", 6, 6, 8, 4),
         ("M=3>K=2", "mimo-sweep", 3, 2, 8, 6),
         ("heatmap-dense s7", "heatmap-dense", 1, 1, 7, None),
         ("heatmap-dense s11", "heatmap-dense", 1, 1, 11, None)]

# Run from a checkout's root with the case's workload, guides, users, seed, drops
# ("" for the workload's input) and worker count; the last stdout line is the JSON
# result, with the worker count of each map that forked workers.
PROBE = """\
import contextlib, hashlib, io, json, os, sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import numpy as np
from pinchsim import cli, experiments, placement, presets, scenario_io
from workloads import WORKLOADS
name, guides, users, seed, drops, workers = (sys.argv[1], int(sys.argv[2]), int(sys.argv[3]),
                                             int(sys.argv[4]), sys.argv[5], int(sys.argv[6]))
if workers == 1:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
placement._usable_cpus = experiments._usable_cpus = lambda: workers
forks, children = [], []
fork, fork_map = os.fork, placement._fork_map
def counted_fork():
    pid = fork()
    if pid:
        children.append(pid)
    return pid
def counted_map(fn, n, workers):
    start = len(children)
    try:
        yield from fork_map(fn, n, workers)
    finally:
        if len(children) > start:
            forks.append(len(children) - start)
os.fork = counted_fork
placement._fork_map = experiments._fork_map = counted_map
digest, sweep = hashlib.sha256(), experiments._sweep_drops
def hashed(*args):
    placed = sweep(*args)
    for sol in (sol for solutions in placed for sol in solutions):
        for a in (sol.layout.guide, sol.layout.offsets, sol.layout.weights,
                  np.array([sol.objective_value, *sol.trace])):
            digest.update(np.ascontiguousarray(a).tobytes())
        digest.update(repr((sol.layout.minimum_spacing_m, sol.objective_kind, sol.iterations,
                            sol.converged)).encode())
    return placed
experiments._sweep_drops = hashed
with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    if drops:
        scenario = scenario_io.save_scenario(presets.compare_scenario(guides, users),
                                             work / "scenario.yaml")
        argv = ["compare-mimo", "--scenario", str(scenario), "--out", str(work / "out"),
                "--seed", str(seed), "--snr-db", "90,100,110,120", "--drops", drops]
        csv = work / "out" / "compare_mimo.csv"
    else:
        workload = WORKLOADS[name](seed, work)
        argv, csv = list(workload.argv), workload.csv
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"the {argv[0]} run failed")
    print(json.dumps({"solutions": digest.hexdigest(),
                      "csv": hashlib.sha256(csv.read_bytes()).hexdigest(), "forks": forks}))
"""


def digest(checkout: Path, workload: str, guides: int, users: int, seed: int, drops,
           workers: int) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", PROBE, workload, str(guides), str(users),
                           str(seed), "" if drops is None else str(drops), str(workers)],
                          cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="git revision to compare with (default: none)")
    args = p.parse_args(argv)
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"change": ROOT}
        if args.parent is not None:
            checkouts["parent"] = export(args.parent, Path(tmp))
        for name, workload, guides, users, seed, drops in CASES:
            seen = set()
            for side, checkout in checkouts.items():
                for workers in (1, 2):
                    out = digest(checkout, workload, guides, users, seed, drops, workers)
                    seen.add((out["solutions"], out["csv"]))
                    print(f"{name:17} {side:6} workers={workers} forks={out['forks']} "
                          f"solutions={out['solutions'][:16]} csv={out['csv'][:16]}",
                          flush=True)
            mismatches += len(seen) > 1
    print("every hash equal" if not mismatches else f"{mismatches} case(s) differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
