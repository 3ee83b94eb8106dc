"""Helpers for the tests of the engine's probe contract: a probe that
records the order of its callbacks, and a step that fails on cue."""

from hybridflow import engine
from hybridflow.engine import Probe, SimulationError


class CallSequenceProbe(Probe):
    """Records the callback sequence."""

    def __init__(self):
        self.calls: list[str] = []
        self.errors: list[BaseException] = []

    def on_simulation_start(self) -> None:
        self.calls.append("start")

    def on_initialized(self, state) -> None:
        self.calls.append("initialized")

    def on_step_end(self, state) -> None:
        self.calls.append("step_end")

    def on_final(self, state) -> None:
        self.calls.append("final")

    def on_error(self, error) -> None:
        self.calls.append("error")
        self.errors.append(error)


def fail_at_step(monkeypatch, step: int) -> None:
    """Make `SimulationEngine.run`'s step raise `SimulationError` when the
    state reaches `step`; `run` looks `advance_step` up as a module global."""
    advance_step = engine.advance_step

    def advance_or_fail(state, config):
        if state.step == step:
            raise SimulationError(f"injected failure at step {step}")
        return advance_step(state, config)

    monkeypatch.setattr(engine, "advance_step", advance_or_fail)
