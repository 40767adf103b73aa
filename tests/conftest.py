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


# -- the Fraction-cell oracle --------------------------------------------------
# An independent reference for the dominance decision: both states'
# beta-ordered partitions of [0, Z] cut into common cells in Fractions, and
# the running sums of the two cell masses read at the interior cell
# boundaries. Float states are read through their to_exact copies, so this
# is the exact answer for every arithmetic.

def fraction_segments(s: BlockState) -> list:
    """(g_i, p_i/g_i, i) of an exact state in beta order: by decreasing
    rescaled probability, ties toward the larger probability, then the
    smaller index."""
    ratios = [Fraction(p) / Fraction(g) for p, g in zip(s.probs, s.ham.gibbs)]
    order = sorted(range(len(s)), key=lambda i: (-ratios[i], -Fraction(s.probs[i]), i))
    return [(Fraction(s.ham.gibbs[i]), ratios[i], i) for i in order]


def fraction_cells(a: BlockState, b: BlockState) -> list:
    """Common cells (length, a's level, b's level, a's mass, b's mass) of the
    exact copies of a and b, left to right."""
    cells, sa, sb = [], fraction_segments(a.to_exact()), fraction_segments(b.to_exact())
    i = j = 0
    (a_left, da, la), (b_left, db, lb) = sa[0], sb[0]
    while i < len(sa) - 1 or j < len(sb) - 1:
        length = a_left if j == len(sb) - 1 or i < len(sa) - 1 and a_left < b_left else b_left
        cells.append((length, la, lb, length * da, length * db))
        a_left -= length
        b_left -= length
        if not a_left and i < len(sa) - 1:
            i += 1
            a_left, da, la = sa[i]
        if not b_left and j < len(sb) - 1:
            j += 1
            b_left, db, lb = sb[j]
    cells.append((a_left, la, lb, a_left * da, a_left * db))
    return cells


def fraction_comparison(cells):
    """The CurveComparison of Fraction cells: dips (x, depth) as Fractions,
    the extreme gaps rounded once to floats."""
    from itertools import accumulate

    from thermoorder import ABOVE, BELOW, CROSSING, EQUAL, CurveComparison

    gaps = list(accumulate(mass_a - mass_b for *_, mass_a, mass_b in cells[:-1]))
    if not gaps:
        return CurveComparison(EQUAL, (), False, 0.0, 0.0)
    xs = accumulate(length for length, *_ in cells)
    dips = tuple((x, -d) for x, d in zip(xs, gaps) if d < 0)
    rises = any(d > 0 for d in gaps)
    verdict = CROSSING if dips and rises else BELOW if dips else ABOVE if rises else EQUAL
    min_gap, max_gap = float(min(gaps)), float(max(gaps))
    return CurveComparison(verdict, dips, verdict == ABOVE and min_gap <= 0, min_gap, max_gap)


def fraction_construct(cells, gibbs, n: int) -> tuple:
    """The d-majorization witness in Fractions on Fraction cells: each cell's
    row starts as its share of its level's Gibbs weight, weighted
    T-transforms move mass from the last cell with a surplus to the first
    later cell with a deficit, and the rows of each target level add up to
    the matrix."""
    rows, mass, target = [], [a for *_, a, _ in cells], [b for *_, b in cells]
    for length, i, *_ in cells:
        rows.append([Fraction(0)] * n)
        rows[-1][i] = length / gibbs[i]
    while any(a > b for a, b in zip(mass, target)):
        j = max(c for c in range(len(cells)) if mass[c] > target[c])
        k = min(c for c in range(j + 1, len(cells)) if mass[c] < target[c])
        (lj, *_), (lk, *_) = cells[j], cells[k]
        surplus, deficit = mass[j] - target[j], target[k] - mass[k]
        delta, denom = min(surplus, deficit), mass[j] * lk - mass[k] * lj
        if denom > 0:
            s, t = min(1, delta * lk / denom), min(1, delta * lj / denom)
            rj, rk = rows[j], rows[k]
            rows[j] = [(1 - s) * u + t * v for u, v in zip(rj, rk)]
            rows[k] = [s * u + (1 - t) * v for u, v in zip(rj, rk)]
        mass[j], mass[k] = mass[j] - delta, mass[k] + delta
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for (_, _, j, _, _), row in zip(cells, rows):
        matrix[j] = [a + b for a, b in zip(matrix[j], row)]
    return tuple(map(tuple, matrix))


def oracle_comparison(a: BlockState, b: BlockState):
    """Dominance of a over b on the Fraction cells of their exact copies."""
    return fraction_comparison(fraction_cells(a, b))
