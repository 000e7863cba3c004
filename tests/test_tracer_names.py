"""The benchmark tracer wraps hcr functions and methods by name; every name
it lists must exist, so a rename or deletion in src/ fails here and not
only in a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    for short, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"hcr.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"hcr.{short}.{name}"
    for short, (cls_name, methods) in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"hcr.{short}"), cls_name)
        for name in methods:
            assert name in cls.__dict__, f"hcr.{short}.{cls_name}.{name}"
