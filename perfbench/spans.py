"""In-memory spans around the calls into vaxalloc's public functions.

Nothing in the program is edited: each traced function is replaced, in the
namespace its caller looks it up in, by a wrapper that records a span (name,
start, end, parent). Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

PHASE_PREFIX = "phase."


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def root_phase(self, idx: int) -> int:
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return idx

    def per_repetition(self) -> tuple[dict, dict]:
        """Self time and call count of each span name per repetition.

        A repetition is one occurrence of each top-level phase span (one
        set-up plus one of each measured step), so each function's figure is
        its self time summed within each kind of top-level phase, divided by
        how often that phase ran, and added over the kinds.
        """
        selfs = self.self_times()
        root_count: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s[3] < 0:
                root_count[s[0]] += 1
        # (span name, kind of its top-level phase) -> summed self time, calls
        by_kind: dict[tuple, list] = defaultdict(lambda: [0.0, 0])
        for i, s in enumerate(self.spans):
            acc = by_kind[s[0], self.spans[self.root_phase(i)][0]]
            acc[0] += selfs[i]
            acc[1] += 1
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        for (name, kind), (total, count) in by_kind.items():
            self_s[name] += total / root_count[kind]
            calls[name] += count / root_count[kind]
        return dict(self_s), dict(calls)

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                       for n, s, e, p in self.spans], fh)
            fh.write("\n")


# (module, attribute the caller looks up, span name). The harness binds the
# epidemic step and most policy functions into its own namespace; it reaches
# ts_sample, observe_and_update and plan_sharing through their modules, and
# plan_sharing and build_network find their parts among their own module's
# globals.
TRACED = [
    ("net", "synth_world", "net.synth_world"),
    ("net", "build_network", "net.build_network"),
    ("net", "ground_neighborhoods", "net.ground_neighborhoods"),
    ("net", "radiation_flows", "net.radiation_flows"),
    ("net", "assign_airports", "net.assign_airports"),
    ("net", "air_flows", "net.air_flows"),
    ("net", "FlowMatrix", "net.flow_matrix"),
    ("net", "read_nodes", "net.read_inputs"),
    ("net", "read_airports", "net.read_inputs"),
    ("net", "read_air_flows", "net.read_inputs"),
    ("net", "export_network", "net.export_network"),
    ("scenario", "build_instance", "scenario.build_instance"),
    ("harness", "run_instance", "harness.run_instance"),
    ("harness", "step_vaccinated", "epi.step_vaccinated"),
    ("harness", "update_bounds", "policy.update_bounds"),
    ("harness", "loss_coefficients", "policy.loss_coefficients"),
    ("harness", "solve_knapsack", "policy.solve_knapsack"),
    ("harness", "pb_allocate", "policy.pb_allocate"),
    ("policy", "ts_sample", "policy.ts_sample"),
    ("policy", "observe_and_update", "policy.observe_and_update"),
    ("sharing", "plan_sharing", "sharing.plan_sharing"),
    ("sharing", "infection_split", "sharing.infection_split"),
    ("sharing", "infected_flow_matrix", "sharing.infected_flow_matrix"),
    ("sharing", "redistribute", "sharing.redistribute"),
    ("harness", "export", "harness.export"),
    ("harness", "import_result", "harness.import_result"),
    ("harness", "gains", "harness.gains"),
]

# span name -> per-layer metric stem; the `_self` stems mark functions whose
# traced children are reported apart. Every figure is a self time.
METRIC_OF_SPAN = {
    "net.synth_world": "net.synth_world",
    "net.build_network": "net.build_network_self",
    "net.ground_neighborhoods": "net.ground_neighborhoods",
    "net.radiation_flows": "net.radiation_flows",
    "net.assign_airports": "net.assign_airports",
    "net.air_flows": "net.air_flows",
    "net.flow_matrix": "net.flow_matrix",
    "net.read_inputs": "net.read_inputs",
    "net.export_network": "net.export_network",
    "scenario.build_instance": "scenario.build_instance_self",
    "harness.run_instance": "harness.loop_self",
    "epi.step_vaccinated": "epi.step_vaccinated",
    "policy.update_bounds": "policy.update_bounds",
    "policy.loss_coefficients": "policy.loss_coefficients",
    "policy.solve_knapsack": "policy.solve_knapsack",
    "policy.pb_allocate": "policy.pb_allocate",
    "policy.ts_sample": "policy.ts_sample",
    "policy.observe_and_update": "policy.observe_and_update",
    "sharing.plan_sharing": "sharing.plan_sharing",
    "sharing.infection_split": "sharing.infection_split",
    "sharing.infected_flow_matrix": "sharing.infected_flow_matrix",
    "sharing.redistribute": "sharing.redistribute",
    "harness.export": "harness.export",
    "harness.import_result": "harness.import_result",
    "harness.gains": "harness.gains",
    # the CLI steps are timed as whole phases around `vaxalloc.cli.main`
    PHASE_PREFIX + "build_net": "cli.build_net_self",
    PHASE_PREFIX + "import": "cli.gains_self",
}
# self time of the other phase spans: the benchmark's own work inside them
OTHER = "bench.other_self"


def install(tracer: Tracer, modules: dict) -> None:
    """Replace every traced function by its span-recording wrapper."""
    for mod_name, attr, span in TRACED:
        mod = modules[mod_name]
        setattr(mod, attr, tracer.wrap(span, getattr(mod, attr)))
