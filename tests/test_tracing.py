"""The benchmark's traced run wraps engine names; each must exist and come back."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve_and_are_restored():
    tracing = load_tracing()
    with tracing.Patches() as patches:
        tracing.install_tracer(patches, tracing.Tracer())
        saved = list(patches._saved)
        assert saved
        for owner, name, original in saved:
            assert getattr(owner, name) is not original
    for owner, name, original in saved:
        assert getattr(owner, name) is original, f"{owner}.{name} not restored"
