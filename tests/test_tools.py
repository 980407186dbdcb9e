import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_layers_times_a_small_world():
    """tools/layers.py at n = 200, in a fresh process: one JSON object with
    the build and run times, the self time of every world-build layer and
    the distances each search computed, and the export and import times of
    the run's result."""
    out = subprocess.run([sys.executable, str(TOOLS / "layers.py"), "200", "--builds", "2",
                          "--runs", "1"], capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert report["n"] == 200 and len(report["build_s_runs"]) == 2
    assert 0 < report["build_s_median"] < report["run_s_median"]
    assert 0 < report["import_s_median"] < report["run_s_median"]
    assert 0 < report["export_s_median"] < report["run_s_median"]
    for layer in ("synth_world", "ground_neighborhoods", "radiation_flows",
                  "assign_airports", "flow_matrix", "build_network"):
        assert report["traced_calls"][f"net.{layer}"] == 1
        assert report["traced_self_s"][f"net.{layer}"] > 0
    assert report["traced_calls"]["epi.step_vaccinated"] == 104
    # the 1,058 neighbour pairs (2,116 ground entries) and candidates beyond
    # D, each pair once
    assert 1058 < report["distances"]["ground_neighborhoods"] < 200 * 199 // 2
    assert report["distances"]["assign_airports"] == 200 * 10
    assert report["peak_rss_mb"] > 0
