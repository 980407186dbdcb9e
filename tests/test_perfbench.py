"""The benchmark's hooks into the program: every function that
perfbench/spans.py traces must exist where it looks it up."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, attr, span in spans.TRACED:
        mod = importlib.import_module(f"vaxalloc.{module}")
        assert callable(getattr(mod, attr, None)), (module, attr)
        assert span in spans.METRIC_OF_SPAN, span
