"""Shared fixtures: one default config."""

import pytest

from multigamma.evaluate import EvalConfig


@pytest.fixture(scope="session")
def acceptance_cfg():
    return EvalConfig()
