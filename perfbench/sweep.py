"""Run every workload of the benchmark, one fresh process per run.

    python3 perfbench/sweep.py --runs 10 --sets 2 --seed-base 1 [--trace]

Run from the root of a checkout. A sweep makes --sets sets of --runs runs of
every workload, each run as long as BENCHMARK.json's run_seconds. Each round
of a set runs every workload once with the round's seed, rotating which
workload goes first; every run has its own seed. For each workload and set it
prints each end-to-end metric's median, quartiles, quartile spread (as a
share of the median) and the shift of the median from the first set's, both
against the metric's bound, and the operations attempted and failed. With
--trace it then makes one traced run per workload and prints the tracing
overhead (the traced run's mean time of each step, from its spans file, minus the
untraced median) and the self times of all spans in the step, summed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def phase_times(spans_file: Path) -> dict[str, tuple[float, float]]:
    """For each kind of top-level phase, its mean duration, and the self
    times of all spans under it summed and divided by how often it ran."""
    spans = json.loads(spans_file.read_text(encoding="utf-8"))
    selfs = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            selfs[s["parent"]] -= s["end"] - s["start"]
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            root[i] = root[s["parent"]]  # parents precede their children
    count: dict[str, int] = defaultdict(int)
    length: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s["parent"] < 0:
            count[s["name"]] += 1
            length[s["name"]] += s["end"] - s["start"]
        total[spans[root[i]]["name"]] += selfs[i]
    return {k.removeprefix("phase."): (length[k] / count[k], v / count[k])
            for k, v in total.items()}


def summarise(runs: list, bounds: dict) -> dict:
    """Median, quartiles and quartile spread of each end-to-end metric."""
    out = {}
    for name in bounds:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "values": vals}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    # sets[s][workload] -> the runs of set s
    sets: list[dict] = [defaultdict(list) for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.seed_base + s * args.runs + i
            for w in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
                res, wall = run_once(w, seed, bench["run_seconds"], 0)
                sets[s][w].append({"seed": seed, "wall_s": wall, **res})
                print(f"set {s} {w} seed {seed}: {wall:.1f} s, correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    summary: dict = {w: {} for w in workloads}
    for w in workloads:
        per_set = [summarise(sets[s][w], bounds) for s in range(args.sets)]
        runs = [r for s in range(args.sets) for r in sets[s][w]]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        print(f"\n{w}: {args.sets} sets of {args.runs} runs, attempted "
              f"{sum(r['attempted'] for r in runs)}, failed {sum(r['failed'] for r in runs)} "
              f"(failed/attempted per run: {', '.join(shares)}), correct "
              f"{all(r['correct'] for r in runs)}, mean wall "
              f"{statistics.fmean(r['wall_s'] for r in runs):.1f} s")
        print(f"  {'metric':12} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'shift':>7} {'bound':>6}")
        for name in bounds:
            first = per_set[0][name]["median"]
            for s, st in enumerate(per_set):
                m = st[name]
                shift = m["median"] / first - 1.0
                flag = "" if m["spread"] < bounds[name] / 3 else "  <- over a third of the bound"
                if m["spread"] > bounds[name] or abs(shift) > bounds[name]:
                    flag = "  <- over the bound"
                print(f"  {name:12} {s:3d} {m['median']:11.4f} {m['q1']:11.4f} "
                      f"{m['q3']:11.4f} {m['spread']:7.4f} {shift:+7.4f} {bounds[name]:6.2f}{flag}")
        summary[w] = {"sets": per_set, "all": summarise(runs, bounds)}

    if args.trace:
        for w in workloads:
            res, wall = run_once(w, args.seed_base, bench["run_seconds"], 1)
            m = res["metrics"]
            phases = phase_times(OUT / f"spans-{w}-seed{args.seed_base}.json")
            print(f"\n{w} traced (seed {args.seed_base}, {wall:.1f} s): metric, "
                  "untraced median, traced mean, overhead, self-time sum")
            for name in bounds:
                if name == "peak_rss_mb":
                    continue
                base = summary[w]["all"][name]["median"]
                traced, self_sum = phases[name.removesuffix("_s")]
                print(f"  {name:14} {base:10.4f} {traced:10.4f} {traced - base:+9.4f} "
                      f"{self_sum:10.4f}")
            summary[w]["traced"] = m

    OUT.mkdir(exist_ok=True)
    out = OUT / f"sweep-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"sets": sets, "summary": summary}, indent=1))
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
