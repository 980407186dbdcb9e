"""Check that this checkout's src/ makes the same runs as another checkout's.

    python3 tools/same_runs.py OTHER_SRC [--n 200 1000 3000]

Makes 24 fixed runs with the vaxalloc under the `src/` beside this script
and with the one under OTHER_SRC, each side in a fresh process with the BLAS
and OpenMP pools pinned to one thread: `ts`, `gy`, `ma`, `pb` and `none` at
n = 200 seed 901 and n = 1000 seed 5, and `ts` and `pb` at n = 3000 seed 77,
each with sharing off and on, with 5 agents and T = 104. Each side exports
every run with its own `harness.export`; the two directories of each run are
compared byte for byte, and both are read back with this checkout's
`harness.import_result` and compared with `RunResult.equals`. Each side also
writes the files of `vaxalloc build-net --synthetic` with 5 agents at n = 200
seed 901 and n = 1000 seed 5, and the two directories of each are compared
byte for byte. --n keeps only the runs and networks at the sizes given.

Prints one JSON line per run and per network and exits 1 if any differs.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ALL = ("ts", "gy", "ma", "pb", "none")
# (n, seed, policies); each policy runs with sharing off and on
SIZES = ((200, 901, ALL), (1000, 5, ALL), (3000, 77, ("ts", "pb")))
# (n, seed) of each build-net --synthetic; at n = 3000 its edge list is 706 MB
NETS = ((200, 901), (1000, 5))


def runs(sizes) -> list[tuple]:
    """(name, n, seed, policy, sharing) of each fixed run at the given sizes."""
    return [(f"n{n}_seed{seed}_{policy}_sharing_{'on' if sharing else 'off'}",
             n, seed, policy, sharing)
            for n, seed, policies in SIZES if n in sizes
            for policy in policies for sharing in (False, True)]


def nets(sizes) -> list[tuple]:
    """(name, n, seed) of each fixed build-net --synthetic at the given sizes."""
    return [(f"build-net_n{n}_seed{seed}", n, seed) for n, seed in NETS if n in sizes]


def make(src: str, out: Path, sizes) -> None:
    """Make and export each run, and write each network, with the vaxalloc
    under ``src``, into ``out``/name."""
    sys.path.insert(0, src)
    from vaxalloc import cli, harness, scenario
    for name, n, seed, policy, sharing in runs(sizes):
        cfg = scenario.ScenarioConfig(n_nodes=n, n_agents=5, horizon=104, seed=seed,
                                      policy=policy, sharing=sharing)
        harness.export(harness.run_instance(scenario.build_instance(cfg)), out / name)
    for name, n, seed in nets(sizes):
        with contextlib.redirect_stdout(io.StringIO()):  # its summary line
            rc = cli.main(["build-net", "--synthetic", "--n-nodes", str(n), "--n-agents",
                           "5", "--seed", str(seed), "--out", str(out / name)])
        if rc:
            raise SystemExit(f"{name} exited {rc}")


def differing_files(this: Path, other: Path) -> list[str]:
    """The files of two directories that differ or are on one side only."""
    names = sorted({p.name for p in this.iterdir()} | {p.name for p in other.iterdir()})
    return [f for f in names if not ((this / f).is_file() and (other / f).is_file()
                                     and filecmp.cmp(this / f, other / f, shallow=False))]


def compare(this: Path, other: Path) -> dict:
    """The files that differ or are on one side only, and RunResult.equals."""
    from vaxalloc.harness import import_result
    differing = differing_files(this, other)
    try:
        equals = import_result(this).equals(import_result(other))
    except ValueError as exc:  # the other side's export does not read back here
        print(f"{other}: {exc}", file=sys.stderr)
        equals = False
    return {"same_bytes": not differing, "equals": equals, "differing_files": differing}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other_src")
    p.add_argument("--n", type=int, nargs="+", default=[n for n, _, _ in SIZES],
                   choices=[n for n, _, _ in SIZES])
    p.add_argument("--make", metavar="OUT", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.make:  # one side, in its own process: the runs of other_src's vaxalloc
        make(args.other_src, Path(args.make), args.n)
        return 0

    sizes = [str(n) for n in args.n]
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Path(tmp) / "this", Path(tmp) / "other"]
        for src, out in zip((ROOT / "src", Path(args.other_src).resolve()), sides):
            rc = subprocess.run([sys.executable, __file__, str(src), "--make", str(out),
                                 "--n", *sizes]).returncode
            if rc:
                print(f"the runs with {src} exited {rc}", file=sys.stderr)
                return 1
        sys.path.insert(0, str(ROOT / "src"))
        same = True
        for name, *_ in runs(args.n):
            report = compare(*(side / name for side in sides))
            same &= report["same_bytes"] and report["equals"]
            print(json.dumps({"run": name, **report}), flush=True)
        for name, *_ in nets(args.n):
            differing = differing_files(*(side / name for side in sides))
            same &= not differing
            print(json.dumps({"build_net": name, "same_bytes": not differing,
                              "differing_files": differing}), flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
