import json
import shutil
import subprocess
import sys
from pathlib import Path

from vaxalloc.cli import main

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


def test_layers_times_one_build_net(tmp_path):
    """tools/layers.py --build-net at n = 200, in a fresh process: the time,
    peak RSS in MB of 10**6 bytes and bytes written of one `build-net
    --synthetic`, whose files are those the command writes here."""
    out = subprocess.run([sys.executable, str(TOOLS / "layers.py"), "200", "--build-net",
                          "--seed", "3"], capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert report["n"] == 200 and report["exit_code"] == 0
    assert main(["build-net", "--synthetic", "--n-nodes", "200", "--n-agents", "5",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    assert report["out_bytes"] == sum(f.stat().st_size for f in tmp_path.iterdir())
    assert 0 < report["build_net_s"] < 60
    assert 20 < report["peak_rss_mb"] < 2000  # numpy and scipy alone take tens of MB


def same_runs(other_src):
    proc = subprocess.run([sys.executable, str(TOOLS / "same_runs.py"), str(other_src),
                           "--n", "200"], capture_output=True, text=True)
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines()]


def test_same_runs_passes_on_the_same_sources():
    """tools/same_runs.py at n = 200 against this checkout's own src/: the
    10 runs export and the network of build-net writes the same bytes on
    both sides, and the tool exits 0."""
    rc, reports = same_runs(TOOLS.parent / "src")
    assert rc == 0
    assert len(reports) == 11
    assert [r["build_net"] for r in reports[10:]] == ["build-net_n200_seed901"]
    assert all(r["same_bytes"] and r.get("equals", True) and not r["differing_files"]
               for r in reports)


def test_same_runs_names_the_runs_that_differ(tmp_path):
    """Against a copy of src/ with another scenario.EFFICIENCY_HI and another
    line end in the network's rho.txt, every run that vaccinates differs and
    is named, and so does the network and its file, and the tool exits 1;
    `none` runs never use an efficiency, so they stay the same."""
    shutil.copytree(TOOLS.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, old, new in (("scenario", "\nEFFICIENCY_HI = 0.9\n", "\nEFFICIENCY_HI = 0.8\n"),
                           ("net", 'repr(net.rho) + "\\n"', 'repr(net.rho) + "\\r\\n"')):
        path = tmp_path / "src" / "vaxalloc" / f"{name}.py"
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    rc, reports = same_runs(tmp_path / "src")
    assert rc == 1
    assert reports.pop() == {"build_net": "build-net_n200_seed901", "same_bytes": False,
                             "differing_files": ["rho.txt"]}
    differing = {r["run"] for r in reports if not r["same_bytes"]}
    assert differing == {f"n200_seed901_{policy}_sharing_{sharing}"
                         for policy in ("ts", "gy", "ma", "pb") for sharing in ("off", "on")}
    assert all(r["equals"] == (r["run"] not in differing) and
               bool(r["differing_files"]) == (r["run"] in differing) for r in reports)
