"""Every span target of the benchmark tracer names an attribute that exists.

``bench/tracer.py`` patches the names in ``ALL_TARGETS`` through each owner's
``__dict__``, so a refactor that drops or moves one of them breaks traced
benchmark runs. This test only reads the tracer module.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ALL_TARGETS


def test_tracer_targets_resolve():
    targets = load_targets()
    assert targets
    missing = []
    for name, owner, attr in targets:
        mod_name, _, cls_name = owner.partition(":")
        obj = importlib.import_module(mod_name)
        if cls_name:
            obj = getattr(obj, cls_name, None)
        if obj is None or attr not in vars(obj):
            missing.append((name, owner, attr))
    assert not missing, f"tracer targets that no longer exist: {missing}"
