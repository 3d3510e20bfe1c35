"""Fixtures for the observability tests.

The :mod:`repro.obs` runtime is process-global; ``clean_obs`` tears it
down around every test in this package so no configuration leaks
between tests.
"""

from __future__ import annotations

import pytest

from repro.testing import reset_observability


@pytest.fixture(autouse=True)
def clean_obs():
    reset_observability()
    yield
    reset_observability()
