"""Fixtures shared across the test tree."""

import pytest


@pytest.fixture
def lockstep(monkeypatch):
    """Let the runner's planner batch every chunk of two or more points.

    The measured crossover (``runner.LOCKSTEP_MIN_WORK``) keeps the small
    families tests use on the interpreter; tests of the lockstep path
    lower it instead of naming an engine.
    """
    from repro.experiments import runner

    monkeypatch.setattr(runner, "LOCKSTEP_MIN_WORK", 0)
