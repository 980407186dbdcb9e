"""The benchmark's hooks into the program: every function that
perfbench/spans.py traces must exist where it looks it up, and a run must
reach each traced period function through the name the tracer replaces."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_resolve():
    spans = load_spans()
    assert spans.TRACED
    for module, attr, span in spans.TRACED:
        mod = importlib.import_module(f"vaxalloc.{module}")
        assert callable(getattr(mod, attr, None)), (module, attr)
        assert span in spans.METRIC_OF_SPAN, span


def test_tracer_sees_every_period_function(monkeypatch):
    """With the tracer installed as perfbench installs it, each traced
    period function records one span per period under the run's span, in a
    `ts` run with sharing and a `pb` run; a function that a run reached by
    any other name records none.
    Every replaced global is restored after the test."""
    spans = load_spans()
    modules = {m: importlib.import_module(f"vaxalloc.{m}") for m, _, _ in spans.TRACED}
    for module, attr, _ in spans.TRACED:  # so that monkeypatch restores each
        monkeypatch.setattr(modules[module], attr, getattr(modules[module], attr))
    tracer = spans.Tracer()
    spans.install(tracer, modules)
    harness, scenario = modules["harness"], modules["scenario"]
    horizon, k = 8, 5
    every_period = ["policy.update_bounds", "epi.step_vaccinated",
                    "policy.observe_and_update"]
    cases = [("ts", True, every_period + [
                 "policy.ts_sample", "policy.loss_coefficients", "policy.solve_knapsack",
                 "sharing.plan_sharing", "sharing.infection_split",
                 "sharing.infected_flow_matrix", "sharing.redistribute"]),
             ("pb", False, every_period + ["policy.pb_allocate"])]
    for policy, sharing, once_per_period in cases:
        cfg = scenario.ScenarioConfig(n_nodes=60, n_agents=k, horizon=horizon, seed=3,
                                      policy=policy, sharing=sharing)
        inst = scenario.build_instance(cfg)
        first = len(tracer.spans)
        harness.run_instance(inst)
        run = [i for i in range(first, len(tracer.spans))
               if tracer.spans[i][0] == "harness.run_instance"]
        assert len(run) == 1

        def under_run(i):
            while i >= 0 and i != run[0]:
                i = tracer.spans[i][3]
            return i == run[0]
        counts = Counter(tracer.spans[i][0] for i in range(run[0] + 1, len(tracer.spans))
                         if under_run(i))
        assert counts == dict.fromkeys(once_per_period, horizon), policy
