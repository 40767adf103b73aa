"""Shared generators for randomized checks (seeded, deterministic)."""

from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest

import thermoorder
from thermoorder import BlockState, Hamiltonian, JointCatalyst, gibbs_state


@pytest.fixture(autouse=True, scope="session")
def _child_processes_import_this_package():
    """The CLI tests start `python -m thermoorder` processes; put the package
    under test on their path too, so a bare `python -m pytest` works."""
    old = os.environ.get("PYTHONPATH")
    src = os.path.dirname(os.path.dirname(thermoorder.__file__))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, old)))
    yield
    if old is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = old


def random_distribution(rng: random.Random, n: int, zeros: int = 0):
    """Random float distribution; optionally with a given number of zeros."""
    weights = [rng.random() + 1e-3 for _ in range(n)]
    for i in rng.sample(range(n), min(zeros, n - 1)):
        weights[i] = 0.0
    total = sum(weights)
    return tuple(w / total for w in weights)


def random_rational_distribution(rng: random.Random, n: int, denom: int = 720):
    cuts = sorted(rng.sample(range(1, denom), n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return tuple(Fraction(v, denom) for v in parts)


def random_hamiltonian(rng: random.Random, n: int) -> Hamiltonian:
    return Hamiltonian(tuple(rng.uniform(0.0, 3.0) for _ in range(n)))


def random_rational_gibbs_ham(rng: random.Random, n: int, unit: int = 17) -> Hamiltonian:
    weights = tuple(Fraction(rng.randint(1, 40), unit) for _ in range(n))
    return Hamiltonian.from_gibbs_factors(weights)


def random_state(rng: random.Random, n: int, ham: Hamiltonian | None = None,
                 zeros: int = 0) -> BlockState:
    if ham is None:
        ham = random_hamiltonian(rng, n)
    return BlockState(random_distribution(rng, n, zeros), ham)


def random_joint(rng: random.Random, dims=(2, 2), correlated: bool = True) -> JointCatalyst:
    n = 1
    for d in dims:
        n *= d
    probs = random_distribution(rng, n)
    return JointCatalyst(probs, dims)


def gibbs_mixture(state: BlockState, weight: float) -> BlockState:
    """Pull a state toward its Gibbs point; the result is always reachable."""
    gamma = gibbs_state(state.ham)
    probs = tuple(
        (1 - weight) * float(p) + weight * float(g)
        for p, g in zip(state.probs, gamma.probs)
    )
    return BlockState(probs, state.ham)


def count_fraction_calls(monkeypatch) -> list:
    """The list every later call of a Fraction arithmetic method is appended to."""
    calls = []
    for name in ("__float__", "__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        method = getattr(Fraction, name)

        def counting(*args, _method=method, _name=name):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(Fraction, name, counting)
    return calls


@pytest.fixture
def rng():
    return random.Random(20240911)
