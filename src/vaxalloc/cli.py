"""Command line entry points.

Subcommands: build-net (network files from inputs or a synthetic world),
simulate (one run), replicate (seeded batch), gains (compare two run dirs).
Exit codes: 0 success, 1 validation error, 2 epidemic instability.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import harness, net
from .epi import EpidemicInstabilityError
from .policy import POLICIES
from .scenario import WORLD_FIELDS, ScenarioConfig, build_world


def _cmd_build_net(args) -> int:
    cfg = ScenarioConfig(**{name: getattr(args, name) for name in WORLD_FIELDS})
    if args.synthetic:
        nodes, airports, table, network = build_world(cfg, args.seed)
    else:
        if not (args.nodes and args.airports and args.flights):
            raise ValueError("--nodes, --airports and --flights are required "
                             "unless --synthetic is given")
        nodes = net.read_nodes(args.nodes)
        airports = net.read_airports(args.airports)
        table = net.read_air_flows(args.flights, airports)
        network = net.build_network(nodes, airports, table, D=cfg.ground_range_km,
                                    alpha=cfg.commute_fraction, planar=args.planar)

    def write(out: Path) -> None:
        if args.synthetic:
            net.write_nodes(nodes, out / "nodes.csv")
            net.write_airports(airports, out / "airports.csv")
            net.write_air_flows(table, out / "airflows.csv")
        net.export_network(network, out / "edges.csv", out / "rho.txt")

    # written only now, each file whole or not at all
    _write_files(Path(args.out), write)
    print(f"network: {network.n} nodes, {network.flows.nnz} edges, "
          f"rho={network.rho:.6g}")
    return 0


def _write_files(out: Path, write) -> None:
    """Call ``write`` on a temporary directory, made inside ``out`` if that is
    a directory (so only ``out`` need be writable) and beside it otherwise,
    then move each file it wrote into ``out``, made if absent. A failed write
    leaves ``out`` as it was; files of ``out`` that ``write`` does not make
    stay."""
    out.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out.name}.",
                                 dir=out if out.is_dir() else out.parent))
    try:
        write(work)
        out.mkdir(exist_ok=True)
        for path in sorted(work.iterdir()):
            os.replace(path, out / path.name)
    finally:
        shutil.rmtree(work)


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig.load(args.config) if args.config else ScenarioConfig()
    sharing = None if args.sharing is None else args.sharing == "on"
    overrides = {"policy": args.policy, "sharing": sharing,
                 "budget_multiplier": args.budget_multiplier, "seed": args.seed}
    return cfg.replace(**{k: v for k, v in overrides.items() if v is not None})


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    harness.check_out_dir(args.out, args.overwrite)
    result = harness.run(cfg)
    harness.export(result, args.out, overwrite=args.overwrite)
    s, i, r, d = result.global_totals[-1]
    print(f"policy={cfg.policy} sharing={'on' if cfg.sharing else 'off'} "
          f"seed={cfg.seed} final S={s:.1f} I={i:.1f} R={r:.1f} D={d:.1f}")
    return 0


def _cmd_replicate(args) -> int:
    cfg = _load_config(args)
    out = harness.check_out_dir(args.out, overwrite=True)  # refuses only a file
    summary = harness.replicate(cfg, args.n)
    _write_files(out, lambda work: net._write_json(work / "summary.json", summary))
    mean = summary["final_totals_mean"]
    print(f"{args.n} runs, policy={cfg.policy}: mean final "
          f"S={mean[0]:.1f} I={mean[1]:.1f} R={mean[2]:.1f} D={mean[3]:.1f}")
    if "world_cumulative_gain_pct_mean" in summary:
        print(f"mean world cumulative gain vs PB: "
              f"{summary['world_cumulative_gain_pct_mean']:.3f}%")
    return 0


def _cmd_gains(args) -> int:
    result = harness.import_result(args.run)
    baseline = harness.import_result(args.baseline)
    report = harness.gains(result, baseline)
    if args.out:
        out = Path(args.out)
        _write_files(out.parent, lambda work: harness.export_gains(report, work / out.name))
    print(f"world cumulative gain: {report.world_cumulative_pct:.4f}%")
    print(f"world last-period gain: {report.world_last_period_pct:.4f}%")
    for a in range(report.cumulative_pct.shape[0]):
        print(f"agent {a}: cumulative {report.cumulative_pct[a]:.4f}% "
              f"last-period {report.last_period_pct[a]:.4f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vaxalloc")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-net", help="build and export a mobility network")
    b.add_argument("--nodes")
    b.add_argument("--airports")
    b.add_argument("--flights")
    b.add_argument("--synthetic", action="store_true")
    for name in WORLD_FIELDS:
        value = getattr(ScenarioConfig, name)
        b.add_argument("--" + name.replace("_", "-"), type=type(value), default=value)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--planar", action="store_true",
                   help="treat coordinates as planar km instead of degrees")
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_build_net)

    # the flags that simulate and replicate share, ahead of their own
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--config")
    runs.add_argument("--policy", choices=POLICIES)
    runs.add_argument("--sharing", choices=["on", "off"])
    runs.add_argument("--budget-multiplier", type=float)

    s = sub.add_parser("simulate", parents=[runs], help="run one scenario")
    s.add_argument("--seed", type=int)
    s.add_argument("--out", required=True)
    s.add_argument("--overwrite", action="store_true")
    s.set_defaults(func=_cmd_simulate)

    r = sub.add_parser("replicate", parents=[runs], help="run a seeded batch and aggregate")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--seed-base", dest="seed", metavar="SEED_BASE", type=int)
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_replicate)

    g = sub.add_parser("gains", help="gain report of a run vs. a baseline run")
    g.add_argument("--run", required=True)
    g.add_argument("--baseline", required=True)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gains)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EpidemicInstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
