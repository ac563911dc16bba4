import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_patch_target_resolves():
    # the traced benchmark wraps these names and cannot start without them
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.PATCHES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracer.PATCHES
    assert missing == []
