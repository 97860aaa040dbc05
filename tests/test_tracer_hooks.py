"""The benchmark's tracer reads the program's public entry points, their
arguments and a few module names.  A traced run whose hook lost its target
reports the metrics that hook feeds as null, so this test calls every traced
entry point once under the tracer and expects nothing to be missing.

The tracer rewires the bunkbed modules of the process it is installed in, so
the traced calls run in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from fractions import Fraction

from tracer import Tracer

tracer = Tracer().install()
from bunkbed import checker, percolation, reduction
from bunkbed.graphs import Graph, bunkbed

path = Graph(3, ((0, 1), (1, 2)))
bb = bunkbed(path)
sw = percolation.SymmetricWeight.uniform(bb, Fraction(1, 3))
w = sw.to_weight()
g = bb.total
percolation.event_probability(w, percolation.ConnectivitySpec.connected(0, 5))
percolation.connection_probability(w, 0, 5)
percolation.connectivity_distributions(g, [w, w], terminals=(0, 5))
percolation.connectivity_distribution(w)
percolation.sum_over_all_atoms(w)
reduction.two_point_probability(path, sw, 0, 5)
checker.check_graph(path, checker.WeightSource.grid([Fraction(1, 2)]))
snap = tracer.snapshot()
print(json.dumps({"missing": snap["missing"], "layers": snap["layers"], "counters": snap["counters"]}))
"""


def test_every_traced_entry_point_is_hooked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    snap = json.loads(done.stdout.splitlines()[-1])
    assert snap["missing"] == {}
    for layer in ("percolation", "reduction", "checker"):
        assert snap["layers"][layer]["calls"] > 0, layer
    assert snap["counters"]["atoms"] > 0 and snap["counters"]["deltas"] > 0
