"""Time each layer of the world build, and build_instance, at one size.

    python3 tools/layers.py 3000 [--src DIR] [--builds 7] [--runs 3] [--seed 901]
    python3 tools/layers.py 3000 --build-net [--src DIR] [--seed 901]

Runs in this process, with the BLAS and OpenMP pools pinned to one thread,
on ScenarioConfig(n_nodes=n, n_agents=5, horizon=104, policy="ts",
sharing=True, seed=seed), importing vaxalloc from DIR (default: the `src/`
beside this script, so that one copy of the script can time two checkouts).
After a warm-up build, run, export and import at n = 40 it times --builds
untraced builds and --runs runs, then --runs exports of the last run's
result, each into a fresh temporary directory, and --runs imports of them,
each after gc.collect(), and the tracemalloc peak of one more import of the
first (import_traced_peak_mb). Then it makes one build and run with the span
tracer of perfbench/spans.py installed for the self time and call count of
each traced function, and counts the distances each caller of
net.pair_distances computed.

With --build-net it runs only `vaxalloc build-net --synthetic --n-nodes n
--n-agents 5 --seed seed` into a temporary directory, so that the process's
peak RSS is the command's (with the imports), and reports its time
(build_net_s), the bytes of the files it wrote (out_bytes) and its exit code.

Prints one JSON object; peak_rss_mb is the process's ru_maxrss in MB of
10**6 bytes, as perfbench reports it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("net", "scenario", "epi", "policy", "sharing", "harness", "cli")


def timed(fn, repeat: int) -> tuple[list[float], object]:
    """The times of ``repeat`` calls of fn, each after gc.collect(), and the
    last call's value (None if there was none)."""
    out, value = [], None
    for _ in range(repeat):
        value = None  # let the last value go before the next call
        gc.collect()
        start = time.perf_counter()
        value = fn()
        out.append(time.perf_counter() - start)
    return out, value


def traced_peak_mb(fn) -> float:
    """The tracemalloc peak of one call of fn, in MB of 10**6 bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def median(times: list[float]) -> float | None:
    return statistics.median(times) if times else None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def build_net(args, cli) -> dict:
    """One `vaxalloc build-net --synthetic` at n = args.n, timed."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        rc = cli.main(["build-net", "--synthetic", "--n-nodes", str(args.n), "--n-agents",
                       "5", "--seed", str(args.seed), "--out", tmp])
        elapsed = time.perf_counter() - start
        out_bytes = sum(f.stat().st_size for f in Path(tmp).iterdir())
    return {"n": args.n, "seed": args.seed, "src": str(Path(args.src).resolve()),
            "exit_code": rc, "build_net_s": elapsed, "out_bytes": out_bytes,
            "peak_rss_mb": peak_rss_mb()}


def main(argv=None) -> dict:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("n", type=int)
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--builds", type=int, default=7)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seed", type=int, default=901)
    p.add_argument("--build-net", action="store_true",
                   help="time one build-net --synthetic run, and nothing else")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    if args.build_net:
        return build_net(args, importlib.import_module("vaxalloc.cli"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    mods = {name: importlib.import_module(f"vaxalloc.{name}") for name in MODULES}
    from spans import Tracer, install

    scenario, harness, net = mods["scenario"], mods["harness"], mods["net"]

    def config(n):
        return scenario.ScenarioConfig(n_nodes=n, n_agents=5, horizon=104, policy="ts",
                                       sharing=True, seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        harness.export(harness.run_instance(scenario.build_instance(config(40))), tmp)
        harness.import_result(tmp)
    cfg = config(args.n)
    builds, _ = timed(lambda: scenario.build_instance(cfg), args.builds)
    inst = scenario.build_instance(cfg)
    runs, result = timed(lambda: harness.run_instance(inst), args.runs)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / f"run{r}" for r in range(args.runs)]
        to_export, to_import = iter(dirs), iter(dirs)
        exports, _ = timed(lambda: harness.export(result, next(to_export)), args.runs)
        imports, _ = timed(lambda: harness.import_result(next(to_import)), args.runs)
        import_peak = traced_peak_mb(lambda: harness.import_result(dirs[0])) if dirs else None
    del result

    distances = Counter()
    real = net.pair_distances

    def counting(*a, **kw):
        d = real(*a, **kw)
        distances[sys._getframe(1).f_code.co_name] += int(d.size)
        return d
    tracer = Tracer()
    install(tracer, mods)
    net.pair_distances = counting
    inst = scenario.build_instance(cfg)
    if args.runs:
        harness.run_instance(inst)
    self_s, calls = defaultdict(float), Counter()
    for (name, *_), s in zip(tracer.spans, tracer.self_times()):
        self_s[name] += s
        calls[name] += 1
    return {
        "n": args.n, "seed": args.seed, "src": str(Path(args.src).resolve()),
        "build_s_median": median(builds), "build_s_runs": builds,
        "run_s_median": median(runs), "run_s_runs": runs,
        "export_s_median": median(exports), "import_s_median": median(imports),
        "import_traced_peak_mb": import_peak,
        "traced_self_s": dict(sorted(self_s.items())), "traced_calls": dict(sorted(calls.items())),
        "distances": dict(sorted(distances.items())),
        "peak_rss_mb": peak_rss_mb(),
    }


if __name__ == "__main__":
    print(json.dumps(main()))
