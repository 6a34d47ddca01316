"""The benchmark's layer coverage, checked in tier-1.

One traced seed-7 round of each perfbench workload must record a call in
every layer that the workload is predicted to dominate, and none in a
module predicted idle on it.  A change that routes a call around a traced
name (say, by calling a layer through a local alias) fails here before it
fails in a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import hypomean  # noqa: E402
import hypomean.cli  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    HOME_WORKLOAD,
    PREDICTED_IDLE,
    WORKLOADS,
    make_schedule,
    prepare,
    run_call,
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_traced_round_calls_the_predicted_layers(workload, tmp_path):
    json_path = str(tmp_path / "out.json")
    calls = [(call, prepare(call, hypomean, json_path)) for call in make_schedule(workload, 7)]
    tracer = Tracer()
    tracer.install()
    try:
        outputs = [run_call(call, args, hypomean, json_path)[1] for call, args in calls]
    finally:
        tracer.uninstall()
    assert [out["error"] for out in outputs if "error" in out] == []
    counts = {layer: totals["calls"] for layer, totals in tracer.layer_totals().items()}
    assert [layer for layer, home in HOME_WORKLOAD.items()
            if home == workload and not counts[layer]] == []
    assert [layer for layer in LAYERS
            if layer.split(".")[0] in PREDICTED_IDLE[workload] and counts[layer]] == []
