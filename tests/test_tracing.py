"""The benchmark's tracer wraps package functions by their names."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    # load the tracer's tables without installing it
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for qualname in tracing.TRACED:
        home, attr = qualname.split(".")
        module = importlib.import_module(f"cfmcheck.{home}")
        if not callable(getattr(module, attr, None)):
            missing.append(qualname)
    assert tracing.TRACED and not missing
