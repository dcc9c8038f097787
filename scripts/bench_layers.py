#!/usr/bin/env python3
"""Per-layer timings of the ``mimo-sweep`` descent and the ``heatmap-dense`` map.

Usage, from the root of a checkout::

    python3 scripts/bench_layers.py --parent <rev> --number <n> --repeats 5 --seed 7

Each repeat is, per workload on its input for the seed, one untimed CLI run that
warms up allocation and caches, then one timed run in the same process, BLAS on
one thread. The ``compare-mimo`` run gives link synthesis (``link_gains``) per
candidate offset, grid scan per lockstep guide step (descent time outside zoom and
column synthesis), zoom (``_zoom_max``) and descent (``_descend``) per call. The
``heatmap`` run gives ``write_csv`` per cell and ``guide_distances`` per link.
Repeats alternate with ``<rev>`` if given; ``--number`` appends medians and runs to
``"layers"`` in ``BENCH_<n>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, THREAD_VARS, export, git  # noqa: E402

# Each probe runs from a checkout's root: one untimed CLI run of its workload, then
# one timed with its wrappers installed, the timings as the last stdout line.
PRELUDE = """\
import collections, contextlib, io, json, sys, tempfile, time
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
from pinchsim import channel, cli, experiments, placement as P
from workloads import WORKLOADS
def run(name):
    with tempfile.TemporaryDirectory() as tmp:
        workload = WORKLOADS[name](int(sys.argv[1]), Path(tmp))
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(list(workload.argv)) != 0:
                sys.exit("the workload's CLI run failed")
"""

DESCENT_PROBE = PRELUDE + """\
run("mimo-sweep")  # warm-up, untimed
spent, calls, size = (collections.Counter() for _ in range(3))
zooms = [0]  # open zoom calls: column synthesis inside a zoom counts as zoom
def wrap(name, count=lambda args, out: 0):
    fn = getattr(P, name)
    def timed(*args):
        zooms[0] += name == "_zoom_max"
        t0 = time.perf_counter()
        out = fn(*args)
        if name != "_guide_columns" or not zooms[0]:
            spent[name] += time.perf_counter() - t0
        zooms[0] -= name == "_zoom_max"
        calls[name] += 1
        size[name] += count(args, out)
        return out
    setattr(P, name, timed)
wrap("link_gains", lambda args, out: args[2].size)  # candidate offsets
wrap("_guide_columns")
wrap("_zoom_max")
wrap("_descend", lambda args, out: len(args[0].waveguides) * int(max(out[2])))  # guide steps
run("mimo-sweep")
scan = spent["_descend"] - spent["_zoom_max"] - spent["_guide_columns"]
print(json.dumps({
    "link_us_per_candidate": 1e6 * spent["link_gains"] / size["link_gains"],
    "grid_scan_ms_per_step": 1e3 * scan / size["_descend"],
    "zoom_ms_per_call": 1e3 * spent["_zoom_max"] / calls["_zoom_max"],
    "descent_ms_per_call": 1e3 * spent["_descend"] / calls["_descend"]}))
"""

HEATMAP_PROBE = PRELUDE + """\
run("heatmap-dense")  # warm-up, untimed
spent, size = collections.Counter(), collections.Counter()
def wrap(module, name, key, count):
    fn = getattr(module, name)
    def timed(*args):
        t0 = time.perf_counter()
        out = fn(*args)
        spent[key] += time.perf_counter() - t0
        size[key] += count(args, out)
        return out
    setattr(module, name, timed)
wrap(experiments, "write_csv", "write_csv", lambda args, out: len(args[2]))  # a row per grid cell
for module in (experiments, channel):  # run_heatmap's own call, and link_power's
    wrap(module, "guide_distances", "guide_distances", lambda args, out: out.size)
run("heatmap-dense")
print(json.dumps({
    "write_csv_us_per_cell": 1e6 * spent["write_csv"] / size["write_csv"],
    "guide_distances_ns_per_link": 1e9 * spent["guide_distances"] / size["guide_distances"]}))
"""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="git revision of the parent side (default: none)")
    p.add_argument("--number", type=int, help="write into BENCH_<n>.json")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"change": ROOT}
        if args.parent is not None:
            checkouts["parent"] = export(args.parent, Path(tmp))
        runs: dict = {side: [] for side in checkouts}
        for i in range(args.repeats):
            for side in sorted(runs, reverse=i % 2 == 1):  # change first in even repeats
                run = {}
                for probe in (DESCENT_PROBE, HEATMAP_PROBE):
                    out = subprocess.run([sys.executable, "-c", probe, str(args.seed)], env=env,
                                         cwd=checkouts[side], capture_output=True, text=True,
                                         check=True)
                    run.update(json.loads(out.stdout.strip().splitlines()[-1]))
                runs[side].append(run)
                print(f"{i + 1}/{args.repeats} {side}: {runs[side][-1]}", flush=True)
    median = {side: {k: statistics.median(r[k] for r in rs) for k in rs[0]}
              for side, rs in runs.items()}
    print(json.dumps(median, indent=2))
    if args.number is not None:
        out_path = ROOT / f"BENCH_{args.number}.json"
        report = json.loads(out_path.read_text()) if out_path.exists() else {"number": args.number}
        report.setdefault("layers", []).append({
            "seed": args.seed, "parent": args.parent and git("rev-parse", args.parent),
            "median": median, "runs": runs})
        out_path.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
