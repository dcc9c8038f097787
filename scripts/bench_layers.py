#!/usr/bin/env python3
"""Per-layer timings of the ``mimo-sweep`` descent, the ``heatmap-dense`` map and
the ``tdma-crowd`` scenario load.

Usage, from the root of a checkout::

    python3 scripts/bench_layers.py --parent <rev> --number <n> --repeats 5 --seed 7

Each repeat runs one probe process per workload on its input for the seed, BLAS on
one thread. A probe makes one untimed run that warms up allocation and caches, then
several timed runs in the same process, and reports the median of each timing over
them. The ``compare-mimo`` runs give link synthesis (``link_gains``) per candidate
offset; grid scan (descent time outside zoom and column synthesis) and zoom
(``_zoom_max``) per state-step, one guide step of one descent state, which stays
comparable however many states one ``_descend`` call steps in lockstep; and
descent (``_descend``) per state. Beside the grid scan's time they count the work
it skipped: the share of scanned grid candidates that reach the exact law
(``_zf_law``), the scans per run, and those of them that fell back to it on every
candidate.
The descent probe pins its own process to one CPU (``os.sched_setaffinity``),
so that ``compare-mimo`` steps its drop groups in that process, where the
wrappers see them, rather than in worker processes. The
``heatmap`` runs give ``write_csv`` per cell and ``guide_distances`` per link,
and ``tracemalloc``'s peak over one more untimed run, and over one with the
always-LoS model. The heatmap probe pins itself to one CPU too: given two CPUs
or more, the writer computes and formats the map's chunks in forked workers,
whose calls no wrapper sees and whose memory ``tracemalloc`` does not trace.
As the writer asks the table for each chunk's cells, ``write_csv``'s time
includes computing them. The ``tdma-crowd`` probe
times ``load_scenario`` on that workload's scenario file, per user, and takes
``tracemalloc``'s peak over one untimed load. Repeats alternate
with ``<rev>`` if given; ``--number`` appends the medians over repeats and every
repeat's values to ``"layers"`` in ``BENCH_<n>.json``.
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

# Each probe runs from a checkout's root: one untimed run of its workload, then
# several timed ones with its wrappers installed; the medians of their timings
# are the last stdout line.
PRELUDE = """\
import collections, contextlib, io, json, statistics, sys, tempfile, time, tracemalloc
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
from pinchsim import channel, cli, experiments, placement as P, presets, scenario_io
from workloads import WORKLOADS
def run(name):
    with tempfile.TemporaryDirectory() as tmp:
        workload = WORKLOADS[name](int(sys.argv[1]), Path(tmp))
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(list(workload.argv)) != 0:
                sys.exit("the workload's CLI run failed")
def report(measure, runs=5):
    timings = [measure() for _ in range(runs)]
    print(json.dumps({key: statistics.median(t[key] for t in timings) for key in timings[0]}))
"""

DESCENT_PROBE = PRELUDE + """\
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # no worker processes: see above
run("mimo-sweep")  # warm-up, untimed
spent, size = collections.Counter(), collections.Counter()
zooms = [0]  # open zoom calls: column synthesis inside a zoom counts as zoom
def wrap(name, count=lambda args, out: {}):
    fn = getattr(P, name)
    def timed(*args):
        zooms[0] += name == "_zoom_max"
        t0 = time.perf_counter()
        out = fn(*args)
        if name != "_guide_columns" or not zooms[0]:
            spent[name] += time.perf_counter() - t0
        zooms[0] -= name == "_zoom_max"
        size.update(count(args, out))
        return out
    setattr(P, name, timed)
wrap("link_gains", lambda args, out: {"candidates": args[2].size})
wrap("_guide_columns")
wrap("_zoom_max")
# one solution per state, whose iterations are its cycles, each stepping every
# guide once; a --parent tree from before that returns a tuple, out[2] the cycles
def descent_size(args, out):
    cycles = out[2] if isinstance(out, tuple) else [sol.iterations for sol in out]
    return {"states": len(cycles), "state_steps": len(args[0].waveguides) * int(sum(cycles))}
wrap("_descend", descent_size)
scanned = [0]  # the open grid scan's candidates, 0 outside a scan
law, scorer = P._zf_law, P._scorer
def counted_law(F, T, dc, snr):
    if scanned[0]:  # a scan's exact law on all its candidates is a fallback
        size.update({"exact": T.shape[0] * T.shape[-1], "fallbacks": T.shape[-1] == scanned[0]})
    return law(F, T, dc, snr)
def counted_scorer(*args):
    score, scan = scorer(*args)
    def counted_scan(i, table):
        scanned[0] = table.shape[-1]
        size.update({"grid": table.shape[-1], "scans": 1})
        try:
            return scan(i, table)
        finally:
            scanned[0] = 0
    return score, counted_scan
P._zf_law, P._scorer = counted_law, counted_scorer
def measure():
    spent.clear()
    size.clear()
    run("mimo-sweep")
    scan = spent["_descend"] - spent["_zoom_max"] - spent["_guide_columns"]
    return {
        "link_us_per_candidate": 1e6 * spent["link_gains"] / size["candidates"],
        "grid_scan_ms_per_state_step": 1e3 * scan / size["state_steps"],
        "exact_law_share_of_grid": size["exact"] / size["grid"],
        "scans_per_run": size["scans"],
        "fallbacks_per_run": size["fallbacks"],
        "zoom_ms_per_state_step": 1e3 * spent["_zoom_max"] / size["state_steps"],
        "descent_ms_per_state": 1e3 * spent["_descend"] / size["states"]}
report(measure)
"""

HEATMAP_PROBE = PRELUDE + """\
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # no worker processes: see above
run("heatmap-dense")  # warm-up, untimed
tracemalloc.start()
run("heatmap-dense")  # traced, untimed
peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
tracemalloc.stop()
with tempfile.TemporaryDirectory() as tmp:  # the same map, every conventional link LoS
    argv = list(WORKLOADS["heatmap-dense"](int(sys.argv[1]), Path(tmp)).argv)
    argv[argv.index("--scenario") + 1] = str(scenario_io.save_scenario(
        presets.heatmap_scenario(los_kind="always_los"), Path(tmp) / "always_los.yaml"))
    tracemalloc.start()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    always_los_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    if code != 0:
        sys.exit("the always-LoS heatmap run failed")
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
# a row per grid cell; the time includes computing the chunks the writer asks for
wrap(experiments, "write_csv", "write_csv", lambda args, out: len(args[2]))
for module in (experiments, channel):  # run_heatmap's own call, and link_power's
    wrap(module, "guide_distances", "guide_distances", lambda args, out: out.size)
def measure():
    spent.clear()
    size.clear()
    run("heatmap-dense")
    return {
        "write_csv_us_per_cell": 1e6 * spent["write_csv"] / size["write_csv"],
        "guide_distances_ns_per_link": 1e9 * spent["guide_distances"] / size["guide_distances"],
        "heatmap_tracemalloc_peak_mb": peak_mb,
        "heatmap_always_los_tracemalloc_peak_mb": always_los_peak_mb}
report(measure)
"""

LOAD_PROBE = PRELUDE + """\
with tempfile.TemporaryDirectory() as tmp:
    workload = WORKLOADS["tdma-crowd"](int(sys.argv[1]), Path(tmp))
    path = Path(workload.argv[workload.argv.index("--scenario") + 1])
    users = len(scenario_io.load_scenario(path).users)  # warm-up, untimed
    tracemalloc.start()
    scenario_io.load_scenario(path)
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    def measure():
        t0 = time.perf_counter()
        scenario_io.load_scenario(path)
        return {"load_us_per_user": 1e6 * (time.perf_counter() - t0) / users,
                "load_tracemalloc_peak_mb": peak_mb}
    report(measure, runs=25)
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
                for probe in (DESCENT_PROBE, HEATMAP_PROBE, LOAD_PROBE):
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
