import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vaxalloc import cli, harness, net, scenario
from vaxalloc.cli import main
from vaxalloc.policy import POLICIES
from vaxalloc.scenario import ScenarioConfig, build_instance, build_world


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


def test_build_net_defaults_follow_scenario_config(tmp_path, monkeypatch):
    """A world flag or --seed not given takes ScenarioConfig's default, in a
    synthetic world and in a network built from files."""
    worlds, networks = [], []

    def recording_world(cfg, seed):
        worlds.append((cfg, seed))
        return build_world(cfg, seed)

    def recording_network(*args, _fn=net.build_network, **kwargs):
        networks.append(kwargs)
        return _fn(*args, **kwargs)
    monkeypatch.setattr(cli, "build_world", recording_world)
    monkeypatch.setattr(net, "build_network", recording_network)
    src = tmp_path / "src"
    assert main(["build-net", "--synthetic", "--out", str(src)]) == 0
    assert main(["build-net", "--nodes", str(src / "nodes.csv"),
                 "--airports", str(src / "airports.csv"),
                 "--flights", str(src / "airflows.csv"), "--out", str(tmp_path / "net")]) == 0
    defaults = ScenarioConfig()
    (cfg, seed), = worlds
    for name in ("n_nodes", "n_agents", "grid_spacing_km", "pop_median", "pop_sigma",
                 "airport_density", "air_fraction", "ground_range_km",
                 "commute_fraction"):
        assert getattr(cfg, name) == getattr(defaults, name)
    assert seed == defaults.seed
    assert (networks[-1]["D"], networks[-1]["alpha"]) == (defaults.ground_range_km,
                                                          defaults.commute_fraction)


@pytest.mark.parametrize("flags,named", [
    (["--synthetic", "--nodes", "{src}/nodes.csv"], "--nodes"),
    (["--synthetic", "--airports", "{src}/airports.csv", "--flights", "{src}/airflows.csv"],
     "--airports, --flights"),
    (["{files}", "--planar", "--n-nodes", "5000", "--seed", "9", "--pop-sigma", "3"],
     "--n-nodes, --pop-sigma, --seed"),
    (["{files}", "--n-agents", "2", "--grid-spacing-km", "10", "--pop-median", "5",
      "--airport-density", "0.1", "--air-fraction", "0"],
     "--n-agents, --grid-spacing-km, --pop-median, --airport-density, --air-fraction"),
    (["--seed", "0"], "--seed"),
    (["--synthetic", "--planar"], "--planar"),
])
def test_build_net_refuses_flags_it_would_ignore(tmp_path, capsys, flags, named):
    src = tmp_path / "src"
    assert main(["build-net", "--synthetic", "--n-nodes", "30", "--n-agents", "2",
                 "--out", str(src)]) == 0
    capsys.readouterr()
    files = ["--nodes", f"{src}/nodes.csv", "--airports", f"{src}/airports.csv",
             "--flights", f"{src}/airflows.csv"]
    argv = [arg for flag in flags
            for arg in (files if flag == "{files}" else [flag.format(src=src)])]
    out = tmp_path / "net"
    assert main(["build-net", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    with_or_without = "with" if "--synthetic" in argv else "without"
    assert err == f"error: {named} would be ignored {with_or_without} --synthetic\n"
    assert not out.exists()
    # the flags a world from files does read are accepted
    assert main(["build-net", *files, "--ground-range-km", "80", "--commute-fraction", "0.2",
                 "--out", str(out)]) == 0


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


def _nan_world_run(tmp_path, pop_median=1e-300) -> list[str]:
    path = tmp_path / "config.json"
    ScenarioConfig(n_nodes=40, n_agents=2, horizon=4, pop_median=pop_median,
                   air_fraction=0.0).save(path)
    return ["simulate", "--config", str(path)]


def _overflow_world_run(tmp_path) -> list[str]:
    return _nan_world_run(tmp_path, pop_median=1e200)


def _nan_world_files(tmp_path) -> list[str]:
    for name, text in (("nodes", "id,lat,lon,population,agent_id\n0,0,0,1e-300,0\n"
                                 "1,0,30,1e-300,0\n2,30,0,2e-300,1\n"),
                       ("airports", "id,lat,lon\n7,0,0\n9,30,30\n"),
                       ("flights", "origin,destination,flow\n7,9,0\n")):
        (tmp_path / f"{name}.csv").write_text(text)
    return ["build-net", "--nodes", str(tmp_path / "nodes.csv"), "--airports",
            str(tmp_path / "airports.csv"), "--flights", str(tmp_path / "flights.csv"),
            "--planar"]


@pytest.mark.parametrize("command", [_nan_world_run, _nan_world_files, _overflow_world_run])
def test_nan_world_exits_1(tmp_path, capsys, command):
    # populations near 1e-300: the radiation denominator S_i (P_j + S_i)
    # underflows to 0, so a ground flow is 0 / 0; near 1e200, P_i^2 P_j
    # overflows, and a flow is inf / inf
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*command(tmp_path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: outflow of node 0 is nan, not finite\n"
    assert not out.exists()


# worlds that simulate refuses although their configs pass the checks: outflows
# near the subnormal range, whose agent coupling overflows; a grid whose
# distances overflow; an airport count past the float range; populations whose
# neighbourhood or airport-polygon sums overflow; a capacity so small that the
# infected flow over it overflows
REFUSED_WORLDS = {
    "subnormal outflows, ts": ({"n_nodes": 200, "commute_fraction": 5e-324,
                                "air_fraction": 5e-324, "policy": "ts"}, "agent coupling"),
    "subnormal outflows, gy": ({"n_nodes": 200, "commute_fraction": 1e-320,
                                "air_fraction": 0.0, "policy": "gy"}, "agent coupling"),
    "grid past the float range": ({"n_nodes": 10, "n_agents": 1,
                                   "grid_spacing_km": 5.992310449541053e307},
                                  "grid_spacing_km 5.992310449541053e+307 is too large"),
    "airports past the float range": ({"n_nodes": 10, "n_agents": 1,
                                       "airport_density": 1.7976931348623157e308},
                                      "more airports than nodes"),
    "neighbourhood population past the float range": (
        {"n_nodes": 9, "n_agents": 2, "horizon": 3, "pop_median": 5e307, "pop_sigma": 0.0,
         "air_fraction": 0.0}, "the population around node 0 sums to inf"),
    "polygon populations past the float range": (
        {"n_nodes": 2, "n_agents": 2, "horizon": 3, "pop_median": 8e307, "pop_sigma": 0.0},
        "the population of airport polygon 0 plus that of polygon 0 is inf"),
    "infected flow over a capacity past the float range": (
        {"n_nodes": 20, "n_agents": 2, "horizon": 3, "sharing": True,
         "capacities": [1e-323, 0.5]},
        "the infected flow into agent 0 over its capacity 1e-323 is past the float range"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_WORLDS))
def test_simulate_refused_world_exits_1(tmp_path, capsys, case):
    fields, fault = REFUSED_WORLDS[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and fault in err
        assert not (tmp_path / "run").exists()
        if fault == "agent coupling":  # pb without sharing builds no coupling
            assert main(["simulate", "--config", str(path), "--policy", "pb",
                         "--out", str(tmp_path / "pb")]) == 0


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
                                     b'{"seeds": 1}', b"[" * 100_000 + b"]" * 100_000,
                                     b'{"n_nodes": 1' + b"0" * 30 + b"}"],
                         ids=["not JSON", "not UTF-8", "not an object", "negative seed",
                              "unknown key", "nested too deep", "n_nodes past intp"])
def test_simulate_config_fault_names_the_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 8 TiB")])
def test_out_of_memory_exits_1(tmp_path, config_file, capsys, monkeypatch, exc):
    def synth_world(*args, **kwargs):
        raise exc
    monkeypatch.setattr(net, "synth_world", synth_world)
    assert main(["simulate", "--config", str(config_file),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: out of memory{f': {exc}' if str(exc) else ''}\n"
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
    # valid, but budget_multiplier * capacity * population overflows to inf
    ("budget_multiplier", 1e308),
    # sizes no numpy array can have
    ("n_nodes", 10 ** 30),
    ("horizon", 2 ** 63),
])
def test_simulate_bad_config_exits_1(tmp_path, capsys, key, value):
    cfg = ScenarioConfig(n_nodes=40, n_agents=2, horizon=6, seed=11).to_dict()
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def _edit_npy(path, edit):
    arr = np.load(path)
    np.save(path, edit(arr))


def _set_value(path, value):
    def edit(arr):
        arr.flat[0] = value
        return arr
    _edit_npy(path, edit)


def _npy_header(path):
    """(shape, fortran_order, dtype) of the .npy file at ``path``, and the
    offset of its data."""
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        header = {(1, 0): np.lib.format.read_array_header_1_0,
                  (2, 0): np.lib.format.read_array_header_2_0}[version](fh)
        return header, fh.tell()


def _write_npy(path, shape, data, descr="<f8", fortran_order=False):
    """A .npy file whose header claims ``descr`` of ``shape``, then ``data``."""
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_2_0(
            fh, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
        fh.write(data)


def _claim_shape(shape_of):
    """Rewrite a trace's header to claim <f8 of ``shape_of(T, n)``, followed by
    64 bytes."""
    def corrupt(path):
        ((t, n), _, _), _ = _npy_header(path)
        _write_npy(path, shape_of(t, n), b"\0" * 64)
    return corrupt


def _as_npz(path):
    arr = np.load(path)
    with open(path, "wb") as fh:
        np.savez(fh, arr)


def _as_version_2(path):
    """The same array under a format 2.0 header, which np.load reads too."""
    ((shape, _, _), offset) = _npy_header(path)
    _write_npy(path, shape, path.read_bytes()[offset:])


def _reverse_rows(path):
    header, *rows = path.read_bytes().split(b"\r\n")[:-1]
    path.write_bytes(b"\r\n".join([header, *rows[::-1], b""]))


BAD_RUNS = {
    "schema": ("manifest.json",
               lambda p: _edit_manifest(p, lambda m: m.update(schema=99))),
    "schema 1": ("manifest.json",
                 lambda p: _edit_manifest(p, lambda m: m.update(schema=1))),
    "schema 2": ("manifest.json",
                 lambda p: _edit_manifest(p, lambda m: m.update(schema=2))),
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
    "period 0": ("sharing.csv", lambda p: _set_field(p, 1, 0, "0")),
    "cut in half": ("sharing.csv", _cut_in_half),
    "row missing": ("sharing.csv", lambda p: _edit_lines(p, lambda ls: ls.pop(-2))),
    "row twice": ("sharing.csv",
                  lambda p: _edit_lines(p, lambda ls: ls.insert(1, ls[1]))),
    "row extra": ("global.csv", lambda p: _edit_lines(p, lambda ls: ls.insert(-1, ls[-2]))),
    "rows in reverse order": ("agents.csv", _reverse_rows),
    "column missing": ("sharing.csv", lambda p: _set_field(p, 0, 4, "eff")),
    "field unparsable": ("sharing.csv", lambda p: _set_field(p, 1, 3, "abc")),
    "not UTF-8 before the header": ("sharing.csv",
                                    lambda p: p.write_bytes(b"\xff" + p.read_bytes())),
    "not UTF-8 in a row": ("sharing.csv",
                           lambda p: p.write_bytes(p.read_bytes() + b"1,0,\xff\r\n")),
    "budget empty": ("sharing.csv", lambda p: _set_field(p, 3, 2, "")),
    "S nan": ("agents.csv", lambda p: _set_field(p, 3, 2, "nan")),
    "budget_effective inf": ("sharing.csv", lambda p: _set_field(p, 2, 4, "inf")),
    "R -inf": ("global.csv", lambda p: _set_field(p, 2, 3, "-inf")),
    "populations missing": ("populations.npy", lambda p: p.unlink()),
    "population 0": ("populations.npy", lambda p: _set_value(p, 0.0)),
    "agent out of range": ("agent_of.npy", lambda p: _set_value(p, 2)),
    "agent_of float": ("agent_of.npy",
                       lambda p: _edit_npy(p, lambda a: a.astype(np.float64))),
    "prior not an integer": ("priors_a.npy",
                             lambda p: _edit_npy(p, lambda a: a.astype(np.float64))),
    "node out of range": ("priors_b.npy", lambda p: _edit_npy(p, lambda a: np.append(a, 1))),
    "prior past 2**53": ("priors_b.npy", lambda p: _set_value(p, 2 ** 53 + 1)),
    "trace missing": ("theta_obs.npy", lambda p: p.unlink()),
    "trace cut in half": ("allocations.npy", _cut_in_half),
    "trace float32": ("theta_hat.npy",
                      lambda p: _edit_npy(p, lambda a: a.astype(np.float32))),
    "trace shape": ("bounds.npy", lambda p: _edit_npy(p, lambda a: a[:, :-1])),
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
    # headers that claim far more than the file holds: nothing of their size is made
    "trace header of T x 10**12": ("theta_hat.npy", _claim_shape(lambda t, n: (t, 10 ** 12))),
    "trace header of 10**12 x 10**12": ("theta_obs.npy",
                                        _claim_shape(lambda t, n: (10 ** 12, 10 ** 12))),
    "trace one row short": ("allocations.npy", lambda p: _edit_npy(p, lambda a: a[:-1])),
    # what np.load reads but np.save does not write for a (T, n) float64 array
    "trace in Fortran order": ("bounds.npy",
                               lambda p: np.save(p, np.asfortranarray(np.load(p)))),
    "trace with a 2.0 header": ("theta_hat.npy", _as_version_2),
}


# the line and the field or byte that a fault in a line of a run table is named by
RUN_LINE_FAULTS = {
    "field unparsable": "'abc' on line 2, column ratio, is not a number",
    "column missing": "header lacks column budget_effective",
    "schema 2": "schema 2 predates schema 3",
    "not UTF-8 before the header": "byte 0xff on line 1 is not UTF-8 text",
    "horizon 3.7": "horizon must be an integer, got 3.7",
    "horizon true": "horizon must be an integer, got True",
    "population 0": "0.0 of node 0 is not in [5e-324, 1.7976931348623157e+308]",
    "agent out of range": "2 of node 0 is not in [0, 1]",
    "prior not an integer": "<f8 of shape (40,) in C order, not <i8 of shape (40,) in C order",
    "node out of range": "<i8 of shape (41,) in C order, not <i8 of shape (40,) in C order",
    "prior past 2**53": "9007199254740993 of node 0 is not in [0, 9007199254740992]",
    "row missing": "the table ends before the row for t=6, agent_id=1",
    "row twice": "the row on line 3 is not the row for t=1, agent_id=1",
    "row extra": "the row on line 9 is not the row for any of the grid's 7 cells",
    "rows in reverse order": "the row on line 2 is not the row for t=0, agent_id=0",
    "budget empty": "'' on line 4, column budget, is not a number",
    "S nan": "agents.csv: S = nan on line 4 is not finite",
    "budget_effective inf": "sharing.csv: budget_effective = inf on line 3 is not finite",
    "R -inf": "global.csv: R = -inf on line 3 is not finite",
    "trace in Fortran order": "<f8 of shape (6, 40) in F order, not <f8 of shape (6, 40) in C",
    "trace with a 2.0 header": "format version (2, 0) is not 1.0",
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gains", "--run", str(bad), "--baseline", str(good)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
    if case in RUN_LINE_FAULTS:
        assert RUN_LINE_FAULTS[case] in err


# a config edit: a key set to a JSON value, or a key deleted
_DELETE = object()
_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)]
_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(), inner, max_size=3), max_leaves=6)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A pb run of 20 nodes over 3 periods, and a scratch copy of it."""
    root = tmp_path_factory.mktemp("manifests")
    harness.export(harness.run(ScenarioConfig(n_nodes=20, n_agents=2, horizon=3,
                                              policy="pb", seed=3)), root / "good")
    shutil.copytree(root / "good", root / "bad")
    return root / "good", root / "bad"


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(_FIELDS) | st.text(max_size=8),
       value=st.just(_DELETE) | _JSON)
@example(key="policy", value=5)
@example(key="epsilon", value=-3.0)
@example(key="seed", value=-1)
@example(key="sharing", value="yes")
@example(key="bogus", value=1)
# sizes far beyond the tables: their grids are never allocated
@example(key="horizon", value=10 ** 12)
@example(key="n_nodes", value=10 ** 30)
@example(key="n_agents", value=10 ** 400)
@example(key="epsilon", value=10 ** 400)
@example(key="horizon", value=_DELETE)
def test_gains_corrupted_manifest(tiny_run, key, value):
    good, bad = tiny_run
    manifest = json.loads((good / "manifest.json").read_text())
    config = manifest["config"]
    if value is _DELETE:
        config.pop(key, None)
    else:
        config[key] = value
    (bad / "manifest.json").write_text(json.dumps(manifest))
    try:
        ScenarioConfig.from_dict(config)
        accepted = True
    except ValueError:
        accepted = False
    err = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        rc = main(["gains", "--run", str(bad), "--baseline", str(good)])
    err = err.getvalue()
    assert rc in (0, 1) and err.count("\n") == (rc == 1)
    assert rc == 1 or accepted
    if not accepted:
        assert err.startswith("error: ") and "manifest.json" in err


# the least and the greatest value of each .npy array of the tiny run (K = 2),
# the allocations' greatest being their bounds
_RANGES = {**dict.fromkeys(harness._TRACES, (0.0, 1.0)),
           "populations": (5e-324, sys.float_info.max), "agent_of": (0, 1),
           "priors_a": (0, 2 ** 53), "priors_b": (0, 2 ** 53)}


def _shape(name, horizon=3, n=20) -> tuple:
    return (horizon, n) if name in harness._TRACES else (n,)


def _valid_arrays(directory) -> bool:
    """Whether the eight .npy arrays of the tiny run in ``directory`` may be
    what import_result accepts, judged by np.load: arrays of their dtype and
    shape that end their files, each value in its range, NaN in none, and
    x <= bound. Import also asks for the format 1.0 header in C order that
    np.save writes."""
    arrays = {}
    for name, descr in harness._ARRAYS.items():
        path = directory / f"{name}.npy"
        try:
            with open(path, "rb") as fh:
                arr = np.load(fh, allow_pickle=False)
                ends = fh.tell() == path.stat().st_size
        except Exception:
            return False
        if not (isinstance(arr, np.ndarray) and arr.dtype.str == descr
                and arr.shape == _shape(name) and ends):
            return False
        arrays[name] = arr
    in_range = all(((a >= _RANGES[name][0]) & (a <= _RANGES[name][1])).all()
                   for name, a in arrays.items())
    return in_range and bool((arrays["allocations"] <= arrays["bounds"]).all())


# one corruption of a .npy file: cut at a byte, a header byte set, bytes
# appended, a new header over the old data (cut to the size it claims if
# "fit"), or one entry set to a value out of its range ("under", "over") or
# to a float, which makes an integer array one of float64
_SHAPES = (st.just((3, 20)) | st.just((20, 3)) | st.just((2, 20)) | st.just((20,))
           | st.just((19,)) | st.just((3,))
           | st.lists(st.integers(-2, 10 ** 13), max_size=3).map(tuple))
_DESCRS = st.sampled_from(["<f8", ">f8", "=f8", "<f4", "<i8", ">i8", "<u8", "<i4", "|b1",
                           "<c16", "|V8", "<U2", "O", [("x", "<f8")]])
_MUTATIONS = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 10 ** 4)),
    st.tuples(st.just("header byte"), st.integers(0, 127), st.integers(0, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("header"), _SHAPES, _DESCRS, st.booleans(), st.booleans()),
    st.tuples(st.just("value"), st.integers(0, 59),
              st.sampled_from([math.nan, math.inf, -math.inf, -5e-324, 0.5, "under",
                               "over"])))


def _mutate(path, mutation, upper) -> None:
    raw = path.read_bytes()
    kind, *args = mutation
    if kind == "cut":
        path.write_bytes(raw[:args[0] % len(raw)])
    elif kind == "header byte":
        i, byte = args
        path.write_bytes(raw[:i] + bytes([byte]) + raw[i + 1:])
    elif kind == "append":
        path.write_bytes(raw + args[0])
    elif kind == "header":
        shape, descr, fortran_order, fit = args
        data = raw[_npy_header(path)[1]:]
        if fit:
            data = data[:max(0, math.prod(shape)) * np.dtype(descr).itemsize]
        _write_npy(path, shape, data, descr, fortran_order)
    else:
        index, value = args
        arr = np.load(path)
        i = index % arr.size
        lowest = _RANGES[path.stem][0]
        if value == "under":
            value = np.nextafter(lowest, -np.inf) if arr.dtype.kind == "f" else lowest - 1
        elif value == "over":
            with np.errstate(over="ignore"):  # past the greatest float is inf
                top = upper.flat[i]
                value = np.nextafter(top, np.inf) if arr.dtype.kind == "f" else top + 1
        elif arr.dtype.kind == "i":
            arr = arr.astype(np.float64)
        arr.flat[i] = value
        np.save(path, arr)


@pytest.fixture(scope="module")
def tiny_arrays(tiny_run):
    """The tiny run, and a copy of it whose .npy arrays a test may corrupt."""
    good, _ = tiny_run
    bad = good.parent / "arrays"
    shutil.copytree(good, bad)
    return good, bad


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(list(harness._ARRAYS)), mutation=_MUTATIONS)
# headers that claim far more than the file holds, and one row short
@example(name="theta_hat", mutation=("header", (3, 10 ** 12), "<f8", False, False))
@example(name="theta_obs", mutation=("header", (10 ** 12, 10 ** 12), "<f8", False, False))
@example(name="allocations", mutation=("header", (2, 20), "<f8", False, True))
@example(name="priors_a", mutation=("header", (10 ** 15,), "<i8", False, False))
# the same data in Fortran order, or under a 2.0 header: np.load reads both, import neither
@example(name="theta_hat", mutation=("header", (3, 20), "<f8", False, False))
@example(name="theta_hat", mutation=("header", (3, 20), "<f8", True, False))
# a wrong dtype over the same bytes, a wrong shape, a cut file, values out of
# range and NaN in each per-node array
@example(name="populations", mutation=("header", (20,), "<i8", False, True))
@example(name="agent_of", mutation=("header", (20,), "<f8", False, True))
@example(name="priors_b", mutation=("header", (19,), "<i8", False, True))
@example(name="agent_of", mutation=("cut", 150))
@example(name="populations", mutation=("value", 3, "under"))
@example(name="populations", mutation=("value", 4, "over"))
@example(name="populations", mutation=("value", 5, math.nan))
@example(name="agent_of", mutation=("value", 6, "over"))
@example(name="agent_of", mutation=("value", 7, "under"))
@example(name="agent_of", mutation=("value", 8, math.nan))
@example(name="priors_a", mutation=("value", 9, "over"))
@example(name="priors_b", mutation=("value", 10, "under"))
@example(name="priors_a", mutation=("value", 11, math.nan))
def test_gains_corrupted_trace(tiny_arrays, name, mutation):
    """`gains` on a run with one .npy array corrupted, a trace or a per-node
    array: exit 0 or 1, at most one stderr line, which names the file, no
    warning, and exit 0 only if the arrays are still valid by np.load's
    reading of them."""
    good, bad = tiny_arrays
    path = bad / f"{name}.npy"
    shutil.copyfile(good / path.name, path)
    upper = (np.load(good / "bounds.npy") if name == "allocations"
             else np.full(_shape(name), _RANGES[name][1]))
    _mutate(path, mutation, upper)
    err = io.StringIO()
    try:
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            rc = main(["gains", "--run", str(bad), "--baseline", str(good)])
        err = err.getvalue()
        assert rc in (0, 1) and err.count("\n") == (rc == 1)
        if rc == 1:
            assert err.startswith("error: ") and path.name in err
        else:
            assert _valid_arrays(bad)
    finally:
        shutil.copyfile(good / path.name, path)


# one corruption of a CSV table of a run: cut at a byte, a line dropped,
# repeated or given a blank line before it, two columns swapped or one dropped
# (in the header, the data rows or both), or one field set to a text
_FIELD_TEXTS = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e999", "-1e999",
                                "1.7976931348623157e308", "-1e308", "5e-324", "-0.0", "1e18",
                                "0.5", "-1", "", "abc", "1,2", '"3"'])
_LINES = st.sampled_from(["header", "rows", "both"])
_TABLE_MUTATIONS = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 10 ** 4)),
    st.tuples(st.sampled_from(["drop", "repeat", "blank"]), st.integers(0, 20)),
    st.tuples(st.just("swap"), _LINES, st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("drop column"), _LINES, st.integers(0, 5)),
    st.tuples(st.just("value"), st.integers(0, 20), st.integers(0, 5), _FIELD_TEXTS))


def _mutate_table(path, mutation) -> None:
    raw = path.read_bytes()
    kind, *args = mutation
    if kind == "cut":
        path.write_bytes(raw[:args[0] % (len(raw) + 1)])
        return
    lines = raw.split(b"\r\n")[:-1]
    rows = [line.split(b",") for line in lines]
    width = len(rows[0])
    if kind in ("drop", "repeat", "blank"):
        i = args[0] % len(lines)
        lines[i:i + 1] = {"drop": [], "repeat": [lines[i]] * 2, "blank": [b"", lines[i]]}[kind]
    elif kind == "value":
        line, column, text = args
        rows[line % len(rows)][column % width] = text.encode()
        lines = [b",".join(row) for row in rows]
    else:
        which, *at = args
        at = [c % width for c in at]
        for row in {"header": rows[:1], "rows": rows[1:], "both": rows}[which]:
            if kind == "swap":
                row[at[0]], row[at[1]] = row[at[1]], row[at[0]]
            else:
                del row[at[0]]
        lines = [b",".join(row) for row in rows]
    path.write_bytes(b"\r\n".join([*lines, b""]))


@pytest.fixture(scope="module")
def tiny_tables(tiny_run):
    """The tiny run, and a copy of it whose CSV tables a test may corrupt."""
    good, _ = tiny_run
    bad = good.parent / "tables"
    shutil.copytree(good, bad)
    return good, bad


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["global.csv", "agents.csv", "sharing.csv"]),
       mutation=_TABLE_MUTATIONS)
# a value that is not finite in each table
@example(name="agents.csv", mutation=("value", 3, 2, "nan"))
@example(name="sharing.csv", mutation=("value", 2, 4, "inf"))
@example(name="global.csv", mutation=("value", 2, 3, "-inf"))
def test_gains_corrupted_table(tiny_tables, name, mutation):
    """`gains` on a run with one CSV table corrupted: exit 0 or 1, at most
    one stderr line, which names the file, no warning, and exit 0 only if
    every value of the run's tables is finite."""
    good, bad = tiny_tables
    path = bad / name
    shutil.copyfile(good / name, path)
    _mutate_table(path, mutation)
    err = io.StringIO()
    try:
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            rc = main(["gains", "--run", str(bad), "--baseline", str(good)])
        err = err.getvalue()
        assert rc in (0, 1) and err.count("\n") == (rc == 1)
        if rc == 1:
            assert err.startswith("error: ") and name in err
        else:
            res = harness.import_result(bad)
            assert all(np.isfinite(getattr(res, field)).all()
                       for field in ("global_totals", "agent_totals", "budgets",
                                     "budgets_effective", "sharing_ratios"))
    finally:
        shutil.copyfile(good / name, path)


def _allowed(low, high, low_open):
    """The floats ScenarioConfig accepts in [low, high], or (low, high]."""
    return st.floats(low, min(high, sys.float_info.max), exclude_min=low_open)


@st.composite
def _configs(draw):
    """A config with every field drawn over the range ScenarioConfig accepts,
    extreme values included, at n <= 60 and T <= 12. Each real field is its
    default about half the time, so that not nearly every config is one no
    world can be built from; the agents are at most one more than the nodes."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, n + 1))
    config = {"n_nodes": n, "n_agents": k, "horizon": draw(st.integers(1, 12)),
              "seed": draw(st.integers(0, 2 ** 64)), "policy": draw(st.sampled_from(POLICIES)),
              "sharing": draw(st.booleans()),
              "capacities": draw(st.none() | st.lists(_allowed(0.0, 1.0, True),
                                                      min_size=k, max_size=k))}
    default = ScenarioConfig().to_dict()
    config.update({name: draw(st.just(default[name]) | _allowed(*bounds))
                   for name, bounds in scenario._REAL_FIELDS.items()})
    config.update({name: draw(st.just(default[name]) | st.lists(
        _allowed(*bounds), min_size=2, max_size=2).map(sorted))
        for name, bounds in scenario._RANGE_FIELDS.items()})
    return config


@settings(max_examples=400, deadline=None)
@given(config=_configs())
# the worlds of test_simulate_refused_world_exits_1 and of test_nan_world_exits_1
@example(config={"n_nodes": 200, "commute_fraction": 5e-324, "air_fraction": 5e-324,
                 "policy": "ts"})
@example(config={"n_nodes": 200, "commute_fraction": 1e-320, "air_fraction": 0.0,
                 "policy": "gy"})
@example(config={"n_nodes": 200, "pop_median": 1e200, "air_fraction": 0.0})
@example(config={"n_nodes": 10, "n_agents": 1, "grid_spacing_km": 5.992310449541053e307})
@example(config={"n_nodes": 10, "n_agents": 1, "airport_density": 1.7976931348623157e308})
@example(config={"n_nodes": 9, "n_agents": 2, "horizon": 3, "pop_median": 5e307,
                 "pop_sigma": 0.0, "air_fraction": 0.0})
@example(config={"n_nodes": 2, "n_agents": 2, "horizon": 3, "pop_median": 8e307,
                 "pop_sigma": 0.0})
@example(config={"n_nodes": 20, "n_agents": 2, "horizon": 3, "sharing": True,
                 "capacities": [1e-323, 0.5]})
@example(config={"n_nodes": 2, "n_agents": 1, "horizon": 1, "policy": "ts",
                 "pop_median": 0.21875, "capacity_sigma": 38.0,
                 "budget_multiplier": 8.409881327460952e307})
def test_simulate_fuzz(config):
    """`simulate` on any config the checks accept: exit 0, 1 or 2, at most
    one stderr line, no warning; an exit 1 names its fault, not a bare numpy
    floating-point message; an exit 0 imports back with finite totals, and
    an exit 2 comes only from an instance with max beta + rho > 1, max
    gamma + rho > 1 or rho > 1 (the README's exit codes)."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "run"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            rc = main(["simulate", "--config", str(path), "--out", str(out)])
            err = err.getvalue()
            assert rc in (0, 1, 2) and err.count("\n") == (rc != 0)
            assert " encountered in " not in err, err
            if rc == 0:
                res = harness.import_result(out)
                assert np.isfinite(res.global_totals).all()
                assert np.isfinite(res.agent_totals).all()
            if rc == 2:
                inst = build_instance(ScenarioConfig.from_dict(config))
                beta, gamma = inst.params.beta.max(), inst.params.gamma.max()
                rho = inst.network.rho
                assert beta + rho > 1 or gamma + rho > 1 or rho > 1, err


# texts a build-net input field may be set to besides those of a run's
# tables: coordinates and flows at the ends of the float range, a subnormal,
# and ids of the world's nodes and airports and of none
_NET_TEXTS = st.sampled_from(["1e308", "-1e308", "1e-320", "-1e-320", "0", "1", "2", "99",
                              "-5", "1e300"])
_NET_MUTATIONS = st.one_of(_TABLE_MUTATIONS, st.tuples(
    st.just("value"), st.integers(0, 20), st.integers(0, 5), _NET_TEXTS))
_NET_FILES = ("nodes.csv", "airports.csv", "airflows.csv")
# coordinates whose span overflows, and an air flow that overflows in the
# explicit matrix although every outflow is finite
_SPAN_OVERFLOW = {
    "nodes.csv": ("text", "id,lat,lon,population,agent_id\n0,0,1e308,100,0\n1,0,-1e308,100,0\n"),
    "airports.csv": ("text", "id,lat,lon\n0,0,0\n"),
    "airflows.csv": ("text", "origin,destination,flow\n")}
_AIR_OVERFLOW = {
    "nodes.csv": ("text", "id,lat,lon,population,agent_id\n0,0,0,50000,0\n1,0,1000,50000,0\n"),
    "airports.csv": ("text", "id,lat,lon\n0,0,0\n1,0,1000\n"),
    "airflows.csv": ("text", "origin,destination,flow\n0,1,1e308\n")}


@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    """The input files of a world of 15 nodes, 2 agents and 3 airports."""
    good = tmp_path_factory.mktemp("world")
    assert main(["build-net", "--synthetic", "--n-nodes", "15", "--n-agents", "2",
                 "--airport-density", "0.2", "--out", str(good)]) == 0
    return good


@settings(max_examples=300, deadline=None)
@given(mutations=st.dictionaries(st.sampled_from(_NET_FILES), _NET_MUTATIONS, min_size=1),
       planar=st.booleans(), ground_range_km=st.none() | _allowed(0.0, math.inf, True))
@example(mutations=_SPAN_OVERFLOW, planar=False, ground_range_km=None)
@example(mutations=_SPAN_OVERFLOW, planar=True, ground_range_km=None)
@example(mutations=_AIR_OVERFLOW, planar=False, ground_range_km=None)
@example(mutations=_AIR_OVERFLOW, planar=True, ground_range_km=None)
# two nodes whose planar distance overflows, though each coordinate's span is finite
@example(mutations={"nodes.csv": ("text", "id,lat,lon,population,agent_id\n"
                                          "0,0,0,100,0\n1,1.7e308,1.7e308,100,0\n")},
         planar=True, ground_range_km=None)
def test_build_net_fuzz(tiny_world, mutations, planar, ground_range_km):
    """`build-net` on its three input files, one to three of them corrupted,
    with --planar or not and any --ground-range-km: exit 0 or 1, at most one
    stderr line, no bare numpy floating-point message and no warning; an
    exit 0 writes a finite rho."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in _NET_FILES:
            shutil.copyfile(tiny_world / name, tmp / name)
        for name, mutation in mutations.items():
            if mutation[0] == "text":
                (tmp / name).write_text(mutation[1])
            else:
                _mutate_table(tmp / name, mutation)
        argv = ["build-net", "--nodes", str(tmp / "nodes.csv"),
                "--airports", str(tmp / "airports.csv"),
                "--flights", str(tmp / "airflows.csv"), "--out", str(tmp / "net")]
        argv += ["--planar"] * planar
        if ground_range_km is not None:
            argv += ["--ground-range-km", repr(ground_range_km)]
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            rc = main(argv)
        err = err.getvalue()
        assert rc in (0, 1) and err.count("\n") == (rc == 1)
        assert " encountered in " not in err, err
        if rc == 1:
            assert err.startswith("error: ")
        else:
            assert math.isfinite(float((tmp / "net" / "rho.txt").read_text()))


@pytest.mark.parametrize("planar", [False, True])
@pytest.mark.parametrize("files,message", [
    (_SPAN_OVERFLOW, "the lon column of the nodes and airports spans more than the float range"),
    (_AIR_OVERFLOW, "the air flow from node 0 to node 1 is inf, past the float range")])
def test_build_net_overflow_exits_1(tmp_path, capsys, files, message, planar):
    for name, (_, text) in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "net"
    assert main(["build-net", "--nodes", str(tmp_path / "nodes.csv"),
                 "--airports", str(tmp_path / "airports.csv"),
                 "--flights", str(tmp_path / "airflows.csv"), "--out", str(out)]
                + ["--planar"] * planar) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
