import csv
import json
import math
import shutil
import warnings

import numpy as np
import pytest

from vaxalloc import harness, net
from vaxalloc.cli import build_parser, main
from vaxalloc.scenario import ScenarioConfig, build_world


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    ScenarioConfig(n_nodes=40, n_agents=2, horizon=6, seed=11,
                   initial_infected=0.005).save(path)
    return path


def test_build_net_synthetic(tmp_path, capsys):
    out = tmp_path / "netdir"
    rc = main(["build-net", "--synthetic", "--n-nodes", "36", "--n-agents", "2",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    for name in ("nodes.csv", "airports.csv", "airflows.csv", "edges.csv",
                 "rho.txt"):
        assert (out / name).exists()
    assert "36 nodes" in capsys.readouterr().out


def test_build_net_synthetic_writes_build_world_of_its_seed(tmp_path):
    out = tmp_path / "net"
    assert main(["build-net", "--synthetic", "--n-nodes", "50", "--n-agents", "3",
                 "--seed", "6", "--out", str(out)]) == 0
    nodes, airports, table, network = build_world(
        ScenarioConfig(n_nodes=50, n_agents=3), 6)
    ref = tmp_path / "ref"
    ref.mkdir()
    net.write_nodes(nodes, ref / "nodes.csv")
    net.write_airports(airports, ref / "airports.csv")
    net.write_air_flows(table, ref / "airflows.csv")
    net.export_network(network, ref / "edges.csv", ref / "rho.txt")
    assert {f.name: f.read_bytes() for f in out.iterdir()} == {
        f.name: f.read_bytes() for f in ref.iterdir()}


def test_build_net_synthetic_one_airport_writes_header_only_flights(tmp_path):
    out = tmp_path / "netdir"
    assert main(["build-net", "--synthetic", "--n-nodes", "40", "--airport-density",
                 "0.001", "--out", str(out)]) == 0
    assert (out / "airports.csv").read_bytes().count(b"\r\n") == 2
    assert (out / "airflows.csv").read_bytes() == b"origin,destination,flow\r\n"


def test_build_net_synthetic_assigns_airports_once(tmp_path, monkeypatch):
    """The network is built over the assignment the air table was computed
    over, not over a second one."""
    calls = []

    def counting(*args, _fn=net.assign_airports, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)
    monkeypatch.setattr(net, "assign_airports", counting)
    assert main(["build-net", "--synthetic", "--n-nodes", "60", "--n-agents", "2",
                 "--out", str(tmp_path / "net")]) == 0
    assert len(calls) == 1


def test_build_net_from_files(tmp_path):
    src = tmp_path / "src"
    rc = main(["build-net", "--synthetic", "--n-nodes", "25", "--n-agents", "2",
               "--out", str(src)])
    assert rc == 0
    out = tmp_path / "rebuilt"
    rc = main(["build-net", "--nodes", str(src / "nodes.csv"),
               "--airports", str(src / "airports.csv"),
               "--flights", str(src / "airflows.csv"),
               "--planar", "--out", str(out)])
    assert rc == 0
    assert (src / "edges.csv").read_bytes() == (out / "edges.csv").read_bytes()


BAD_NET_INPUTS = {
    "repeated node": ("nodes.csv",
                      lambda p: _edit_lines(p, lambda ls: ls.insert(2, ls[1]))),
    "NaN latitude": ("nodes.csv", lambda p: _set_field(p, 1, 1, "nan")),
    "infinite longitude": ("nodes.csv", lambda p: _set_field(p, 2, 2, "inf")),
    "NaN population": ("nodes.csv", lambda p: _set_field(p, 3, 3, "nan")),
    "infinite population": ("nodes.csv", lambda p: _set_field(p, 3, 3, "inf")),
    "NaN airport latitude": ("airports.csv", lambda p: _set_field(p, 1, 1, "nan")),
    "infinite airport longitude": ("airports.csv",
                                   lambda p: _set_field(p, 1, 2, "-inf")),
    "node ids from 100": ("nodes.csv", lambda p: _renumber(p, 100)),
    "node id past int64": ("nodes.csv", lambda p: _set_field(p, 1, 0, "9" * 30)),
    "flow not a number": ("airflows.csv", lambda p: _set_field(p, 1, 2, "heavy")),
    "repeated airport": ("airports.csv",
                         lambda p: _edit_lines(p, lambda ls: ls.insert(2, "0,9999.0,9999.0"))),
    "flight from an unknown airport": ("airflows.csv", lambda p: _edit_lines(
        p, lambda ls: ls.insert(2, "99,0,5000.0"))),
    "flight to an unknown airport": ("airflows.csv", lambda p: _edit_lines(
        p, lambda ls: ls.insert(2, "1,99,5000.0"))),
    "flight self-loop": ("airflows.csv",
                         lambda p: _edit_lines(p, lambda ls: ls.insert(2, "1,1,0.0"))),
    "NaN flow": ("airflows.csv", lambda p: _set_field(p, 1, 2, "nan")),
    "infinite flow": ("airflows.csv", lambda p: _set_field(p, 2, 2, "inf")),
    "negative flow summed": ("airflows.csv", lambda p: _edit_lines(
        p, lambda ls: ls.insert(2, "0,1,-1e9"))),
    "zero population": ("nodes.csv", lambda p: _set_field(p, 7, 3, "0.0")),
    "two bad nodes": ("nodes.csv", lambda p: (_set_field(p, 9, 3, "0.0"),
                                              _set_field(p, 5, 1, "nan"))),
    "node row without agent": ("nodes.csv", lambda p: _edit_lines(
        p, lambda ls: ls.__setitem__(3, ls[3].rsplit(",", 1)[0]))),
    "flights row without flow": ("airflows.csv",
                                 lambda p: _edit_lines(p, lambda ls: ls.insert(2, "0,1"))),
    "node file not UTF-8": ("nodes.csv", lambda p: p.write_bytes(
        p.read_bytes().replace(b"\n1,", b"\n\xff1,", 1))),
}


# the whole message of a bad node or airport row: it names the first bad
# row's id, and a node's id is its row, from 0
ROW_MESSAGES = {
    "NaN latitude": "node 0: coordinates must be finite",
    "infinite longitude": "node 1: coordinates must be finite",
    "NaN population": "node 2: population must be positive and finite",
    "infinite population": "node 2: population must be positive and finite",
    "zero population": "node 6: population must be positive and finite",
    "two bad nodes": "node 4: coordinates must be finite",
    "NaN airport latitude": "airport 0: coordinates must be finite",
    "infinite airport longitude": "airport 0: coordinates must be finite",
}


# the line and the field or byte that a fault in a line of an input is named by
LINE_FAULTS = {
    "node id past int64": f"'{'9' * 30}' on line 2, column id, is not a 64-bit integer",
    "flow not a number": "'heavy' on line 2, column flow, is not a number",
    "node row without agent": "the row on line 4 has no field for column agent_id",
    "flights row without flow": "the row on line 3 has no field for column flow",
    "node file not UTF-8": "byte 0xff on line 3 is not UTF-8 text",
}


@pytest.mark.parametrize("case", sorted(BAD_NET_INPUTS))
def test_build_net_bad_input_exits_1(tmp_path, capsys, case):
    src = tmp_path / "src"
    assert main(["build-net", "--synthetic", "--n-nodes", "30", "--n-agents", "2",
                 "--out", str(src)]) == 0
    name, corrupt = BAD_NET_INPUTS[case]
    corrupt(src / name)
    capsys.readouterr()
    out = tmp_path / "rebuilt"
    rc = main(["build-net", "--nodes", str(src / "nodes.csv"),
               "--airports", str(src / "airports.csv"),
               "--flights", str(src / "airflows.csv"), "--planar", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if case.startswith("flight") or case.endswith("UTF-8"):
        assert name in err
    if case in LINE_FAULTS:
        assert f"{name}: " in err and LINE_FAULTS[case] in err
    if case in ROW_MESSAGES:
        assert err == f"error: {ROW_MESSAGES[case]}\n"
    assert not out.exists()


def test_build_net_failed_write_leaves_out_as_it_was(tmp_path, capsys, monkeypatch):
    def half_written(network, edges_path, rho_path):
        edges_path.write_text("i,j,f_ground\r\n0,")
        raise OSError("no space left on device")

    args = ["build-net", "--synthetic", "--n-nodes", "40", "--n-agents", "2", "--out"]
    out = tmp_path / "net"
    monkeypatch.setattr(net, "export_network", half_written)
    assert main(args + [str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    # an earlier network under --out is kept whole
    monkeypatch.undo()
    assert main(args + [str(out)]) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    monkeypatch.setattr(net, "export_network", half_written)
    assert main(args + [str(out), "--seed", "3"]) == 1
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    assert [f.name for f in tmp_path.iterdir()] == ["net"]


def test_build_net_rewrites_its_own_files(tmp_path):
    # a second build into one --out replaces the files it writes, and the
    # network built from the input files kept there leaves them be
    out = tmp_path / "net"
    synthetic = ["build-net", "--synthetic", "--n-nodes", "40", "--n-agents", "2",
                 "--out", str(out)]
    assert main(synthetic) == 0
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    (out / "notes.txt").write_text("kept")
    assert main(synthetic + ["--seed", "4"]) == 0
    second = {f.name: f.read_bytes() for f in out.iterdir()}
    assert second.pop("notes.txt") == b"kept"
    assert second.keys() == first.keys() and second != first
    from_files = ["build-net", "--nodes", str(out / "nodes.csv"),
                  "--airports", str(out / "airports.csv"),
                  "--flights", str(out / "airflows.csv"), "--planar", "--out", str(out)]
    for _ in range(2):
        assert main(from_files) == 0
        assert {f.name: f.read_bytes() for f in out.iterdir()} == {
            **second, "notes.txt": b"kept"}
    assert [f.name for f in tmp_path.iterdir()] == ["net"]


def test_build_net_defaults_follow_scenario_config():
    args = build_parser().parse_args(["build-net", "--out", "x"])
    defaults = ScenarioConfig()
    for name in ("n_nodes", "n_agents", "grid_spacing_km", "pop_median", "pop_sigma",
                 "airport_density", "air_fraction", "ground_range_km",
                 "commute_fraction"):
        assert getattr(args, name) == getattr(defaults, name)


def _edges(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_build_net_world_flags(tmp_path):
    base = ["build-net", "--synthetic", "--n-nodes", "60", "--n-agents", "2"]
    assert main(base + ["--out", str(tmp_path / "air")]) == 0
    assert any(float(e["f_air"]) > 0 for e in _edges(tmp_path / "air" / "edges.csv"))
    assert main(base + ["--air-fraction", "0", "--pop-median", "500", "--pop-sigma", "0",
                        "--out", str(tmp_path / "flat")]) == 0
    edges = _edges(tmp_path / "flat" / "edges.csv")
    assert edges and all(float(e["f_air"]) == 0.0 for e in edges)
    with open(tmp_path / "flat" / "nodes.csv", newline="") as fh:
        pops = {float(r["population"]) for r in csv.DictReader(fh)}
    assert len(pops) == 1 and pops.pop() == pytest.approx(500.0)


def test_build_net_bad_pop_sigma_exits_1(tmp_path, capsys):
    out = tmp_path / "net"
    assert main(["build-net", "--synthetic", "--pop-sigma", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pop_sigma" in err
    assert not out.exists()


def test_build_net_subnormal_outflow(tmp_path):
    # one airport, so every flow is a ground flow of about 1e-320: each
    # node's outflow is subnormal and its reciprocal overflows
    out = tmp_path / "net"
    assert main(["build-net", "--synthetic", "--n-nodes", "30", "--n-agents", "2",
                 "--commute-fraction", "1e-320", "--airport-density", "0.04",
                 "--out", str(out)]) == 0
    edges = _edges(out / "edges.csv")
    assert edges
    row_sums = {}
    for e in edges:
        p = float(e["p"])
        assert math.isfinite(p) and p > 0
        row_sums[e["i"]] = row_sums.get(e["i"], 0.0) + p
    for total in row_sums.values():
        assert total == pytest.approx(1.0, rel=1e-12, abs=0)


def test_build_net_gravity_overflow_exits_1(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["build-net", "--synthetic", "--n-nodes", "100",
                   "--grid-spacing-km", "1e160", "--out", str(tmp_path / "net")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "gravity total" in err
    assert not (tmp_path / "net").exists()


def test_build_net_missing_inputs(tmp_path, capsys):
    rc = main(["build-net", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "required" in capsys.readouterr().err


def test_simulate_and_gains(tmp_path, config_file, capsys):
    run_dir = tmp_path / "ts"
    base_dir = tmp_path / "pb"
    assert main(["simulate", "--config", str(config_file), "--policy", "ts",
                 "--out", str(run_dir)]) == 0
    assert main(["simulate", "--config", str(config_file), "--policy", "pb",
                 "--out", str(base_dir)]) == 0
    assert (run_dir / "manifest.json").exists()
    gains_csv = tmp_path / "gains.csv"
    assert main(["gains", "--run", str(run_dir), "--baseline", str(base_dir),
                 "--out", str(gains_csv)]) == 0
    out = capsys.readouterr().out
    assert "world cumulative gain" in out
    assert gains_csv.exists()


def test_simulate_overwrite_guard(tmp_path, config_file, capsys):
    out = tmp_path / "run"
    args = ["simulate", "--config", str(config_file), "--policy", "pb",
            "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 1
    assert "overwrite" in capsys.readouterr().err
    assert main(args + ["--overwrite"]) == 0


def test_simulate_out_is_a_file_exits_1(tmp_path, config_file, capsys):
    out = tmp_path / "run"
    out.write_text("x")
    assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_text() == "x"


@pytest.mark.parametrize("command,occupied", [(["simulate"], "file"),
                                              (["simulate"], "non-empty directory"),
                                              (["replicate", "--n", "2"], "file")])
def test_bad_out_exits_1_before_running(tmp_path, config_file, capsys, monkeypatch,
                                        command, occupied):
    def never(*args, **kwargs):
        raise AssertionError("ran before --out was checked")
    monkeypatch.setattr(harness, "run", never)
    monkeypatch.setattr(harness, "replicate", never)
    out = tmp_path / "out"
    if occupied == "file":
        out.write_text("x")
    else:
        out.mkdir()
        (out / "keep.txt").write_text("x")
    assert main(command + ["--config", str(config_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (out if occupied == "file" else out / "keep.txt").read_text() == "x"


def test_replicate_writes_into_non_empty_directory(tmp_path, config_file):
    out = tmp_path / "batch"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    assert main(["replicate", "--config", str(config_file), "--policy", "pb",
                 "--n", "1", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["n"] == 1
    assert (out / "keep.txt").read_text() == "x"


def test_replicate_failed_write_leaves_out_as_it_was(tmp_path, config_file, capsys,
                                                    monkeypatch):
    def half_written(path, obj):
        path.write_text('{"n": ')
        raise OSError("no space left on device")

    out = tmp_path / "batch"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    monkeypatch.setattr(net, "_write_json", half_written)
    assert main(["replicate", "--config", str(config_file), "--policy", "pb",
                 "--n", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [f.name for f in out.iterdir()] == ["keep.txt"]
    # no temporary sibling of --out is left behind
    assert sorted(f.name for f in tmp_path.iterdir()) == ["batch", "config.json"]


def test_gains_out_is_a_directory_exits_1(tmp_path, config_file, capsys):
    run_dir = tmp_path / "pb"
    assert main(["simulate", "--config", str(config_file), "--policy", "pb",
                 "--out", str(run_dir)]) == 0
    out = tmp_path / "gains.csv"
    out.mkdir()
    capsys.readouterr()
    assert main(["gains", "--run", str(run_dir), "--baseline", str(run_dir),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gains_failed_write_leaves_out_as_it_was(tmp_path, config_file, capsys,
                                                monkeypatch):
    run_dir = tmp_path / "pb"
    assert main(["simulate", "--config", str(config_file), "--policy", "pb",
                 "--out", str(run_dir)]) == 0
    reports = tmp_path / "reports"
    reports.mkdir()
    out = reports / "gains.csv"
    args = ["gains", "--run", str(run_dir), "--baseline", str(run_dir), "--out", str(out)]
    assert main(args) == 0
    before = out.read_bytes()
    written = []

    def half_written(path, header, blocks):
        written.append(path)
        path.write_text(",".join(header) + "\r\nworld,")
        raise OSError("no space left on device")
    monkeypatch.setattr(net, "_write_blocks", half_written)
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_bytes() == before
    # the table was written in a temporary directory of --out's directory,
    # so that only that directory need be writable, and none is left behind
    assert [p.parent.parent for p in written] == [reports]
    assert [f.name for f in reports.iterdir()] == ["gains.csv"]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json", "pb", "reports"]


@pytest.mark.parametrize("text,kind", [("[]", "list"), ("null", "NoneType"),
                                       ('"x"', "str"), ("5", "int")])
def test_simulate_config_not_an_object_exits_1(tmp_path, capsys, text, kind):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "JSON object" in err and kind in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("content", [b"{bad", b"\xff", b"[1]", b'{"seed": -1}',
                                     b'{"seeds": 1}', b"[" * 100_000 + b"]" * 100_000],
                         ids=["not JSON", "not UTF-8", "not an object", "negative seed",
                              "unknown key", "nested too deep"])
def test_simulate_config_fault_names_the_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_simulate_cli_overrides(tmp_path, config_file):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_file), "--policy", "gy",
                 "--sharing", "on", "--budget-multiplier", "2.0",
                 "--seed", "77", "--out", str(out)]) == 0
    with open(out / "manifest.json") as fh:
        cfg = json.load(fh)["config"]
    assert cfg["policy"] == "gy"
    assert cfg["sharing"] is True
    assert cfg["budget_multiplier"] == 2.0
    assert cfg["seed"] == 77


def test_gains_mismatched_runs(tmp_path, config_file, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "--config", str(config_file), "--policy", "ts",
                 "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(config_file), "--policy", "pb",
                 "--seed", "99", "--out", str(b)]) == 0
    assert main(["gains", "--run", str(a), "--baseline", str(b)]) == 1


def test_replicate_writes_summary(tmp_path, config_file, capsys):
    out = tmp_path / "batch"
    rc = main(["replicate", "--config", str(config_file), "--policy", "ts",
               "--n", "2", "--seed-base", "5", "--out", str(out)])
    assert rc == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["n"] == 2
    assert summary["seeds"] == [5, 6]
    assert "world_cumulative_gain_pct_mean" in summary
    assert "gain" in capsys.readouterr().out


def test_missing_run_directory(tmp_path):
    assert main(["gains", "--run", str(tmp_path / "nope"),
                 "--baseline", str(tmp_path / "nope2")]) == 1


@pytest.mark.parametrize("key,value", [
    ("horizon", "10"),
    ("beta_range", [float("nan"), 0.5]),
    ("initial_infected", 1.5),
    ("initial_infected", float("nan")),
    ("capacities", [0.0, 2.0]),
])
def test_simulate_bad_config_exits_1(tmp_path, capsys, key, value):
    cfg = ScenarioConfig(n_nodes=40, n_agents=2, horizon=6, seed=11).to_dict()
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "run").exists()


def _edit_lines(path, edit):
    lines = path.read_text().split("\n")
    edit(lines)
    path.write_text("\n".join(lines))


def _renumber(path, first):
    def edit(lines):
        for k in range(1, len(lines)):
            if lines[k].strip():
                lines[k] = f"{first + k - 1}," + lines[k].split(",", 1)[1]
    _edit_lines(path, edit)


def _set_field(path, line, column, value):
    def edit(lines):
        fields = lines[line].split(",")
        fields[column] = value
        lines[line] = ",".join(fields)
    _edit_lines(path, edit)


def _cut_in_half(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _edit_manifest(path, edit):
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def _edit_trace(path, edit):
    arr = np.load(path)
    np.save(path, edit(arr))


def _set_value(path, value):
    def edit(arr):
        arr[0, 0] = value
        return arr
    _edit_trace(path, edit)


def _as_npz(path):
    arr = np.load(path)
    with open(path, "wb") as fh:
        np.savez(fh, arr)


BAD_RUNS = {
    "schema": ("manifest.json",
               lambda p: _edit_manifest(p, lambda m: m.update(schema=99))),
    "schema 1": ("manifest.json",
                 lambda p: _edit_manifest(p, lambda m: m.update(schema=1))),
    "config lacks n_nodes": ("manifest.json", lambda p: _edit_manifest(
        p, lambda m: m["config"].pop("n_nodes"))),
    "horizon 3.7": ("manifest.json", lambda p: _edit_manifest(
        p, lambda m: m["config"].update(horizon=3.7))),
    "n_agents 2.9": ("manifest.json", lambda p: _edit_manifest(
        p, lambda m: m["config"].update(n_agents=2.9))),
    "n_nodes 40.5": ("manifest.json", lambda p: _edit_manifest(
        p, lambda m: m["config"].update(n_nodes=40.5))),
    "horizon a string": ("manifest.json", lambda p: _edit_manifest(
        p, lambda m: m["config"].update(horizon="3"))),
    "horizon true": ("manifest.json", lambda p: _edit_manifest(
        p, lambda m: m["config"].update(horizon=True))),
    "n_agents 0": ("manifest.json", lambda p: _edit_manifest(
        p, lambda m: m["config"].update(n_agents=0))),
    "config not an object": ("manifest.json", lambda p: _edit_manifest(
        p, lambda m: m.update(config=[6, 2, 40]))),
    "manifest nested too deep": ("manifest.json",
                                 lambda p: p.write_text("[" * 100_000 + "]" * 100_000)),
    "node out of range": ("priors.csv", lambda p: _set_field(p, 1, 0, "40")),
    "period 0": ("sharing.csv", lambda p: _set_field(p, 1, 0, "0")),
    "cut in half": ("sharing.csv", _cut_in_half),
    "row missing": ("sharing.csv", lambda p: _edit_lines(p, lambda ls: ls.pop(-2))),
    "row twice": ("sharing.csv",
                  lambda p: _edit_lines(p, lambda ls: ls.insert(1, ls[1]))),
    "column missing": ("sharing.csv", lambda p: _set_field(p, 0, 5, "eff")),
    "field unparsable": ("sharing.csv", lambda p: _set_field(p, 1, 3, "abc")),
    "not UTF-8 before the header": ("sharing.csv",
                                    lambda p: p.write_bytes(b"\xff" + p.read_bytes())),
    "not UTF-8 in a row": ("sharing.csv",
                           lambda p: p.write_bytes(p.read_bytes() + b"1,0,\xff\r\n")),
    "agent out of range": ("nodes.csv", lambda p: _set_field(p, 1, 2, "2")),
    "budget empty": ("agents.csv", lambda p: _set_field(p, 3, 6, "")),
    "prior not an integer": ("priors.csv", lambda p: _set_field(p, 1, 1, "2.5")),
    "budget_out not budget_in * ratio": ("sharing.csv",
                                         lambda p: _set_field(p, 1, 4, "-1e9")),
    "trace missing": ("theta_obs.npy", lambda p: p.unlink()),
    "trace cut in half": ("allocations.npy", _cut_in_half),
    "trace float32": ("theta_hat.npy",
                      lambda p: _edit_trace(p, lambda a: a.astype(np.float32))),
    "trace shape": ("bounds.npy", lambda p: _edit_trace(p, lambda a: a[:, :-1])),
    "trace NaN": ("theta_obs.npy", lambda p: _set_value(p, np.nan)),
    "trace negative": ("theta_hat.npy", lambda p: _set_value(p, -1e-300)),
    "x over its bound": ("allocations.npy", lambda p: _set_value(
        p, np.nextafter(np.load(p.parent / "bounds.npy")[0, 0], np.inf))),
    "bound over 1": ("bounds.npy", lambda p: _set_value(p, 1.5)),
    "trace an object array": ("allocations.npy", lambda p: np.save(
        p, np.array([{"x": 1.0}], dtype=object), allow_pickle=True)),
    "trace an .npz archive": ("theta_hat.npy", _as_npz),
    "trace with bytes after it": ("bounds.npy",
                                  lambda p: p.write_bytes(p.read_bytes() + b"\0" * 8)),
}


# the line and the field or byte that a fault in a line of a run table is named by
RUN_LINE_FAULTS = {
    "field unparsable": "'abc' on line 2, column budget_in, is not a number",
    "not UTF-8 before the header": "byte 0xff on line 1 is not UTF-8 text",
    "horizon 3.7": "the config's horizon is 3.7, not an integer >= 1",
    "horizon true": "the config's horizon is True, not an integer >= 1",
    "agent out of range": "agent_id = 2 on line 2 is not an integer in 0..1",
    "prior not an integer": "a = 2.5 on line 2 is not an integer in 0..9007199254740992",
}


@pytest.mark.parametrize("case", sorted(BAD_RUNS))
def test_gains_bad_run_directory_exits_1(tmp_path, config_file, capsys, case):
    good = tmp_path / "good"
    assert main(["simulate", "--config", str(config_file), "--policy", "pb",
                 "--out", str(good)]) == 0
    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    name, corrupt = BAD_RUNS[case]
    corrupt(bad / name)
    capsys.readouterr()
    assert main(["gains", "--run", str(bad), "--baseline", str(good)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
    if case in RUN_LINE_FAULTS:
        assert RUN_LINE_FAULTS[case] in err
