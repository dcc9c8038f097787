#!/usr/bin/env python3
"""Write reference.json: the placement-independent outputs on the shipped seeds.

Stores, for the default and the held-out seed, the ``conventional_*`` rows of
the ``mimo-sweep`` table and a fingerprint of the ``heatmap-dense``
conventional column. These outputs do not depend on placement, so later
optimizations must reproduce them. Run from the root of a checkout::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import numpy as np

from run import DEFAULT_SEED, HELD_OUT_SEED, OUT, ROOT


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from pinchsim import cli
    import workloads as w

    table = {"mimo-sweep": {}, "heatmap-dense": {}}
    work = OUT / "work" / "reference"
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for name in table:
            workload = w.WORKLOADS[name](seed, work)
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(list(workload.argv)) != 0:
                    raise SystemExit(f"{name} failed on seed {seed}")
            if name == "mimo-sweep":
                rows = w.read_table(workload.csv, "rho_db,scheme,mean_sum_rate_bps_hz")
                ref = w.conventional_rows({(float(r), s): float(v) for r, s, v in rows})
            else:
                ref = w.column_fingerprint(
                    np.loadtxt(workload.csv, delimiter=",", skiprows=2, usecols=2))
            table[name][str(seed)] = ref
    shutil.rmtree(work, ignore_errors=True)
    w.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
