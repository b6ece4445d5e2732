"""Every exported name resolves, as the benchmark's tracer requires.

``bench/spans.py`` looks up each name in the ``__all__`` of the layer
modules, and a few private names besides, and wraps the functions among
them; a name deleted but left listed would break ``bench/run.py --trace 1``.
"""

import importlib
import sys
from pathlib import Path

import hafkit
from hafkit import estimator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


def test_every_exported_name_resolves():
    missing = [f"hafkit.{name}" for name in hafkit.__all__ if not hasattr(hafkit, name)]
    for short in spans.LAYER_MODULES:
        mod = importlib.import_module(f"hafkit.{short}")
        for name in (*mod.__all__, *spans.EXTRA.get(short, ())):
            if not hasattr(mod, name):
                missing.append(f"hafkit.{short}.{name}")
    assert missing == []
    assert callable(estimator._logdet_chunk)


def test_tracer_installs_and_restores():
    before = estimator.sample_log_dets
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert estimator.sample_log_dets is not before
    finally:
        tracer.uninstall()
    assert estimator.sample_log_dets is before
