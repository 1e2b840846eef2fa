"""Record the benchmark's goldens from the library in this checkout.

    python3 perfbench/record_goldens.py

Writes ``perfbench/goldens.json``: for every surface the benchmark
builds, the sha256 of ``complex_to_json``, the orbit counts per
dimension and the number of top-pair transits; and, for the default
seed 0, the digest of every geodesic payload in the first round of the
``geodesic`` and ``cli`` workloads.  Re-record only when a change to the
library is meant to change these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np

import gate
import run
from tracer import Tracer


def main() -> None:
    run._load_library()
    import curvecone as cc
    import workloads as wl

    complexes = {}
    for g, n in sorted(set(wl.BUILD_SURFACES + (wl.GEODESIC_SURFACE, wl.CLI_SURFACE))):
        cx = cc.build_complex(cc.Surface(g, n))
        wl.warm(cx, np.random.default_rng(0))
        complexes[wl.label(g, n)] = {
            "sha256": gate.digest(cc.complex_to_json(cx)),
            "orbit_counts": {str(d): c for d, c in cx.orbit_counts().items()},
            "transits": wl.transit_count(cx),
        }
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        goldens = {"complexes": complexes, "seed0": {}}
        geo = wl.GeodesicWorkload(0, workdir, env, goldens, Tracer())
        geo.setup()
        geodesic = []
        for a, x, b, y in geo.inputs(0):
            res = cc.distance(cc.cone_point(geo.cx, a, x), cc.cone_point(geo.cx, b, y))
            geodesic.append(gate.digest(res.to_json()))
        cli = wl.CliWorkload(0, workdir, env, goldens, Tracer())
        cli.setup()
        cli_dist = [gate.digest(expected) for _argv, expected in cli.inputs(0) if expected]
    finally:
        shutil.rmtree(workdir)
        run.WORK.rmdir()
    goldens["seed0"] = {"geodesic": geodesic, "cli_dist": cli_dist}
    with open(gate.GOLDENS, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
