"""Every function the benchmark's tracer wraps exists in the package.

perfbench/worker.py names its span targets as (module, attribute) pairs
and reports a per-layer metric as null when none of its targets resolves.
A rename in the package would turn such a metric to null without any
error, so this test resolves each target the way the tracer does.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def _load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_worker().TARGETS
    assert targets
    missing = []
    for module_name, attr, _name, _kw in targets:
        owner = importlib.import_module(f"rainbowramsey.{module_name}")
        *path, leaf = attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            fn = inspect.getattr_static(owner, leaf)
        except AttributeError:
            missing.append(f"{module_name}.{attr}")
            continue
        if isinstance(fn, staticmethod):
            fn = fn.__func__
        if not callable(fn):
            missing.append(f"{module_name}.{attr} (not callable)")
    assert missing == []
