"""The benchmark's tracer (``perfbench/spans.py``) wraps reconbench
functions that it looks up by name; every name it lists must exist, or
``perfbench/run.py --trace 1`` fails at start-up."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_exists(monkeypatch):
    if not SPANS.exists():
        pytest.skip("no perfbench/spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    traced = getattr(spans, "TRACED", None)
    if traced is None:
        pytest.skip("perfbench/spans.py lists no TRACED functions")
    missing = [
        f"{module}.{name}"
        for module, name, _ in traced
        if not callable(getattr(importlib.import_module(f"reconbench.{module}"), name, None))
    ]
    assert not missing, f"TRACED names functions reconbench lacks: {missing}"
