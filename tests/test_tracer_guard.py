"""The benchmark's tracer finds every attribute it patches and puts each one back."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import crosskont.cli  # noqa: F401  the tracer looks the modules up in sys.modules
import crosskont.stablemap  # noqa: F401


def _tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_attributes_that_exist_and_restores_them():
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert tracer.missing == []
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.remove()
    assert len(patched) > 10
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
