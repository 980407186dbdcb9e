"""The benchmark's workloads.

Each is a closed loop in one thread: whole rounds, at least MIN_ROUNDS and
then until the run's seconds are used, and each step starts after the
previous one ends. A round sets up (so set-up samples spread over the run
like the others) and then runs the same four user steps on every workload:
simulate, build a network from input files, export, and compare the run with
a baseline through `vaxalloc gains`. So every end-to-end metric is measured
on every workload; the sizes decide which step a workload stresses.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from spans import PHASE_PREFIX

MIN_ROUNDS = 2
AGENTS = 5
HORIZON = 104
NET_NODES = 150  # nodes of the world that build-net reads from CSV files
INPUT_WORLD_STREAM = 100  # seed stream of the build-net input world
INPUT_AIR_FRACTION = 0.005  # synth_world's default, used for build-net inputs


class Op:
    """One attempted operation and the checks run on its output."""

    def __init__(self, label: str):
        self.label = label
        self.raised = False
        self.failures: list[str] = []
        self.deferred: list = []

    def check(self, fn) -> None:
        self.deferred.append(fn)


class Runner:
    """Times the phases of one process, records spans when tracing, and
    keeps the operations with their checks."""

    def __init__(self, vax: dict, work: Path, tracer=None):
        self.vax = vax
        self.work = work
        self.tracer = tracer
        self.times: dict[str, list[float]] = defaultdict(list)
        self.ops: list[Op] = []
        self.export_bytes: list[int] = []
        self.captured: dict[str, list] = defaultdict(list)
        self.capturing = False
        for mod, attr in (("net", "build_network"), ("harness", "import_result")):
            self._capture(vax[mod], attr)

    def _capture(self, mod, attr) -> None:
        # keeps what the CLI builds or reads, for the checks
        fn = getattr(mod, attr)
        sink = self.captured[attr]

        def capturing(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.capturing:
                sink.append(out)
            return out
        setattr(mod, attr, capturing)

    def take(self, attr: str) -> list:
        out = list(self.captured[attr])
        self.captured[attr].clear()
        return out

    def op(self, label: str) -> Op:
        op = Op(label)
        self.ops.append(op)
        return op

    def timed(self, phase: str, fn, *args):
        gc.collect()
        idx = self.tracer.begin(PHASE_PREFIX + phase) if self.tracer else None
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.times[phase].append(time.perf_counter() - t0)
            if idx is not None:
                self.tracer.end(idx)

    def cli(self, phase: str, argv: list[str]) -> int:
        sink = io.StringIO()

        def call():
            with contextlib.redirect_stdout(sink):
                return self.vax["cli"].main(argv)
        self.capturing = True
        try:
            return self.timed(phase, call)
        finally:
            self.capturing = False

    def build_net(self, inputs: Path, out: Path) -> None:
        op = self.op("build_net")
        rc = self.cli("build_net", [
            "build-net", "--nodes", str(inputs / "nodes.csv"),
            "--airports", str(inputs / "airports.csv"),
            "--flights", str(inputs / "flights.csv"), "--planar", "--out", str(out)])
        built = self.take("build_network")
        if rc != 0 or len(built) != 1:
            op.failures.append(f"build-net exited {rc}")
            return
        net = built[0]
        op.failures += checks.network(net, INPUT_AIR_FRACTION)
        nnz = net.flows.nnz
        op.check(lambda: checks.edge_files(out, inputs / "nodes.csv", nnz))

    def gains(self, run_dir: Path, base_dir: Path, out: Path, expected) -> None:
        """`vaxalloc gains`, then checks that the run it imported equals the
        one exported and that its gains follow from the two directories."""
        op = self.op("import")
        rc = self.cli("import", ["gains", "--run", str(run_dir),
                                 "--baseline", str(base_dir), "--out", str(out)])
        imported = self.take("import_result")
        if rc != 0:
            op.failures.append(f"gains exited {rc}")
            return
        # compared now, so that what a round holds does not outlive it
        if len(imported) != 2 or not imported[0].equals(expected):
            self.op_by_label("export").failures.append(
                "import_result(export(r)) differs from r")
        op.check(lambda: checks.gains_file(out, run_dir, base_dir))

    def export(self, result, out: Path) -> None:
        self.op("export")
        self.timed("export", self.vax["harness"].export, result, out)
        self.export_bytes.append(sum(f.stat().st_size for f in out.iterdir()))

    def op_by_label(self, label: str) -> Op:
        return next(op for op in reversed(self.ops) if op.label == label)


def write_inputs(vax: dict, seed: int, n_nodes: int, out: Path) -> None:
    """Nodes, airports and flights CSVs of a synthetic world, written by the
    benchmark's own writer."""
    nodes, airports, table = vax["net"].synth_world(
        n_nodes, AGENTS, air_fraction=INPUT_AIR_FRACTION,
        seed=np.random.SeedSequence((seed, INPUT_WORLD_STREAM)))
    out.mkdir(parents=True, exist_ok=True)
    tables = {
        "nodes.csv": (["id", "lat", "lon", "population", "agent_id"],
                      [[nd.id, repr(nd.lat), repr(nd.lon), repr(nd.population),
                        nd.agent_id] for nd in nodes]),
        "airports.csv": (["id", "lat", "lon"],
                         [[a.id, repr(a.lat), repr(a.lon)] for a in airports]),
        "flights.csv": (["origin", "destination", "flow"],
                        [[a, b, repr(g)] for (a, b), g in table.entries.items()]),
    }
    for name, (header, rows) in tables.items():
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


def write_baseline(run_dir: Path, out: Path) -> None:
    """A baseline for `vaxalloc gains`, written by the benchmark's own
    writer: the exported run with S of period t scaled by
    checks.baseline_factor(t, region) in global.csv and agents.csv, and the
    other files copied. Gains against it are non-zero, differ by region and
    depend on which periods and which compartment are summed."""
    shutil.copytree(run_dir, out)
    for name, region in checks.S_FILES:
        with open(run_dir / name, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
        for row in rows:
            row["S"] = repr(float(row["S"]) * checks.baseline_factor(int(row["t"]),
                                                                     region(row)))
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, header)
            w.writeheader()
            w.writerows(rows)


def fingerprint(inst) -> str:
    """Enough of an instance to tell two builds apart without keeping both."""
    h = hashlib.sha256()
    for arr in (inst.populations, inst.network.flows.data,
                inst.network.flows.indices, inst.network.flows.indptr):
        h.update(np.ascontiguousarray(arr))
    return h.hexdigest()


def network_sizes(net) -> dict:
    """Entry counts of the network and bytes of its stored CSR arrays."""
    mats = (net.ground, net.air, net.flows, net.rates)
    return {"flow_nnz": net.flows.nnz, "air_nnz": net.air.nnz,
            "ground_nnz": net.ground.nnz,
            "flow_bytes": sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                              for m in mats)}


def run_checks(inst, result) -> list[str]:
    return (checks.replay(inst, result)
            + checks.budgets_and_allocations(result, inst.costs,
                                             result.config["policy"] == "pb")
            + checks.learning_counts(result))


def end_to_end(times: dict) -> dict:
    """Median of each step's times, in seconds."""
    return {f"{name}_s": float(np.median(times[name]))
            for name in ("setup", "run", "build_net", "export", "import")}


class Simulation:
    """A simulation workload. Each round sets up again (builds the instance)
    and runs it over T periods. It then lets the instance go, builds a small
    network from the input files, exports the run and compares it with a
    baseline through `vaxalloc gains`."""

    ops_per_round = 5

    def __init__(self, n_nodes: int, policy: str, sharing: bool):
        self.n_nodes, self.policy, self.sharing = n_nodes, policy, sharing
        self.first = None
        self.network_sizes = None

    def prepare(self, r: Runner, seed: int) -> None:
        """Untimed: the build-net inputs, the same in every round."""
        write_inputs(r.vax, seed, NET_NODES, r.work / "inputs")

    def round(self, r: Runner, seed: int, k: int) -> None:
        op = r.op("setup")
        cfg = r.vax["scenario"].ScenarioConfig(
            n_nodes=self.n_nodes, n_agents=AGENTS, horizon=HORIZON,
            policy=self.policy, sharing=self.sharing, seed=seed)
        inst = r.timed("setup", r.vax["scenario"].build_instance, cfg)
        op.failures += checks.network(inst.network, cfg.air_fraction)
        if k == 0:
            self.fingerprint = fingerprint(inst)
            self.network_sizes = network_sizes(inst.network)
        elif fingerprint(inst) != self.fingerprint:
            op.failures.append("set-up is not deterministic")

        op = r.op("run")
        result = r.timed("run", r.vax["harness"].run_instance, inst)
        if k == 0:
            self.first = result
            # made now, so that the instance can go before the short steps;
            # the replay holds vectors of n floats, far below the build's peak
            op.failures += run_checks(inst, result)
        elif not result.equals(self.first):
            op.failures.append("run is not deterministic")
        del inst
        d = r.work / f"round{k}"
        r.build_net(r.work / "inputs", d / "net")
        r.export(result, d / "run")
        write_baseline(d / "run", d / "baseline")
        r.gains(d / "run", d / "baseline", d / "gains.csv", result)

    def layer_counts(self) -> dict:
        return {"net": self.network_sizes, "runs": [self.first]}


WORKLOADS = {
    # the paper's headline setting; the sharing step dominates the run
    "share_ts_n1000": lambda: Simulation(1000, "ts", True),
    # the world build dominates set-up and memory; the run is the epidemic step
    "world_pb_n3000": lambda: Simulation(3000, "pb", False),
}


def warm_up(vax: dict, work: Path) -> None:
    """One tiny pass through every step, so lazy imports and first-call
    set-up inside numpy and scipy fall outside the timed regions."""
    sc, harness = vax["scenario"], vax["harness"]
    inst = sc.build_instance(sc.ScenarioConfig(n_nodes=40, n_agents=2, horizon=3,
                                               sharing=True))
    res = harness.run_instance(inst)
    harness.export(res, work / "warm" / "run")
    write_baseline(work / "warm" / "run", work / "warm" / "baseline")
    write_inputs(vax, 0, 20, work / "warm" / "inputs")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["gains", "--run", str(work / "warm" / "run"),
                      "--baseline", str(work / "warm" / "baseline")],
                     ["build-net", "--nodes", str(work / "warm" / "inputs" / "nodes.csv"),
                      "--airports", str(work / "warm" / "inputs" / "airports.csv"),
                      "--flights", str(work / "warm" / "inputs" / "flights.csv"),
                      "--planar", "--out", str(work / "warm" / "net")]):
            if vax["cli"].main(argv) != 0:
                raise RuntimeError(f"warm-up step failed: vaxalloc {argv[0]}")
