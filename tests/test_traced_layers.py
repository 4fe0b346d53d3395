"""The benchmark's span wrappers name teamdec functions by (module,
attribute); a rename must fail here, not only under ``--trace 1``."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_resolves_in_teamdec():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, attr in tracing.LAYERS:
        owner = importlib.import_module(f"teamdec.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)
