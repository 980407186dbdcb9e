"""Run one workload of the vaxalloc benchmark in this process.

    python3 perfbench/run.py --workload share_ts_n1000 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: it imports vaxalloc from `src/` there and
exits 1 if the sources are missing. Inputs follow from --seed alone. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, taken from
spans around the calls into each vaxalloc module, and the spans are written
to `perfbench/out/spans-<workload>-seed<seed>.json`.
"""

from __future__ import annotations

import os

# The program is single-threaded; pin the BLAS and OpenMP pools before numpy
# loads so their threads cannot compete for the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import METRIC_OF_SPAN, OTHER, PHASE_PREFIX, TRACED, Tracer, install  # noqa: E402
from workloads import MIN_ROUNDS, WORKLOADS, Op, Runner, end_to_end, warm_up  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("net", "scenario", "epi", "policy", "sharing", "harness", "cli")


def load_program() -> dict:
    src = ROOT / "src"
    if not (src / "vaxalloc" / "__init__.py").is_file():
        sys.exit(f"error: no vaxalloc sources at {src}; run from a checkout")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"vaxalloc.{name}") for name in MODULES}
    if not Path(mods["net"].__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: vaxalloc was imported from outside {src}")
    return mods


def attempt(r, n_ops: int, fn) -> None:
    """Run one round; if the program raises, its operation and the rest of
    the round's operations count as failed."""
    start = len(r.ops)
    try:
        fn()
    except Exception:  # the program's fault: count it, keep the loop going
        traceback.print_exc(file=sys.stderr)
        if len(r.ops) > start:
            r.ops[-1].raised = True
        while len(r.ops) < start + n_ops:
            r.ops.append(Op("not reached"))
            r.ops[-1].raised = True


def settle(r) -> tuple[bool, int]:
    """Run the deferred checks; returns (correct, failed operations)."""
    correct, failed = True, 0
    for op in r.ops:
        if not op.raised:
            for fn in op.deferred:
                try:
                    op.failures += fn()
                except Exception as exc:  # a check that cannot run has failed
                    op.failures.append(f"check raised {exc!r}")
        if op.failures:
            correct = False
            print(f"FAILED {op.label}: {'; '.join(op.failures)}", file=sys.stderr)
        failed += op.raised or bool(op.failures)
    return correct, failed


def layer_metrics(wl, r, tracer) -> dict:
    self_s, calls = tracer.per_repetition()
    out = {f"{stem}_s": (0.0, "s") for stem in METRIC_OF_SPAN.values()}
    out[f"{OTHER}_s"] = (0.0, "s")
    for span, v in self_s.items():
        stem = METRIC_OF_SPAN.get(span, OTHER if span.startswith(PHASE_PREFIX) else None)
        out[f"{stem}_s"] = (out[f"{stem}_s"][0] + v, "s")
    for _, _, span in TRACED:
        out[f"{span}_calls"] = (calls.get(span, 0.0), "count")
    for name, v in end_to_end(r.times).items():
        out[f"trace.{name}"] = (v, "s")
    counts = wl.layer_counts()
    sizes = counts["net"]
    for name in ("flow_nnz", "air_nnz", "ground_nnz"):
        out[f"net.{name}"] = (sizes[name], "count")
    out["net.flow_mb"] = (sizes["flow_bytes"] / 1e6, "MB")
    out["policy.funded_node_periods"] = (
        sum(int((res.allocations > 0).sum()) for res in counts["runs"]), "count")
    out["harness.export_mb"] = (float(np.median(r.export_bytes)) / 1e6, "MB")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    vax = load_program()
    wl = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        warm_up(vax, work)
        tracer = Tracer() if args.trace else None
        r = Runner(vax, work, tracer)
        wl.prepare(r, args.seed)
        if tracer:
            install(tracer, vax)
        t0 = time.perf_counter()
        k = 0
        while k < MIN_ROUNDS or time.perf_counter() - t0 < args.seconds:
            attempt(r, wl.ops_per_round, lambda: wl.round(r, args.seed, k))
            k += 1
        # ru_maxrss is in KiB on Linux; read it before the checks allocate
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        correct, failed = settle(r)
        if tracer:
            metrics = layer_metrics(wl, r, tracer)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics = {name: (v, "s") for name, v in end_to_end(r.times).items()}
            metrics["peak_rss_mb"] = (peak_mb, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": len(r.ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
