"""Shared fixtures and constants for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from jspec import Algebra, parse_algebra

# The five algebras exercised throughout: one of each simple kind plus a
# genuinely mixed direct sum.
ACCEPTANCE_DESCRIPTORS = ("rn:6", "spin:5", "sym:4", "herm:3", "sym:2,spin:3")

# Exponent grid used by the identity and recovery checks.
P_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0, math.inf)


@pytest.fixture(scope="session")
def algebras():
    return {d: parse_algebra(d) for d in ACCEPTANCE_DESCRIPTORS}


@pytest.fixture(params=ACCEPTANCE_DESCRIPTORS)
def algebra(request, algebras):
    return algebras[request.param]


@pytest.fixture()
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Counts the calls of Algebra.eigenvalues, Algebra.decomp and Algebra.jordan."""
    counted = {"eigenvalues": 0, "decomp": 0, "jordan": 0}
    for name in counted:
        real = getattr(Algebra, name)

        def counting(self, *args, name=name, real=real):
            counted[name] += 1
            return real(self, *args)

        monkeypatch.setattr(Algebra, name, counting)
    return counted
