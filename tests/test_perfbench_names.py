"""The benchmark's traced run wraps library functions by name; every name
it lists must still exist, or each traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, entries in spans.WRAPPED.items():
        module = importlib.import_module(f"edgeext.{layer}")
        for entry in entries:
            if "." in entry:
                cls_name, attr = entry.split(".")
                target = vars(getattr(module, cls_name)).get(attr)
            else:
                target = getattr(module, entry, None)
            assert callable(target), f"{layer}.{entry}"
