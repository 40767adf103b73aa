"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, nothing is deferred to configuration.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from thermoorder import (
    ABOVE,
    ALPHA_1,
    Alpha,
    BlockState,
    EmbeddingSpec,
    Hamiltonian,
    JointCatalyst,
    delta_f_sweep,
    embed,
    embedding_identity_check,
    find_witness,
    free_energy_gap,
    gibbs_state,
    marginal,
    product_joint,
    qubit_pair_catalyst,
    random_gibbs_stochastic,
    renyi_divergence,
    renyi_entropy,
    shrinking_epsilon_demo,
    tensor,
    thermomajorizes,
    total_correlation,
    unembed,
    verify_correlating_transition,
    work_bit_delta_f,
    work_quantities,
)
from thermoorder.catalysis import verify_correlating_transition as verify
from thermoorder.demo import (
    BETA_E,
    BETA_W,
    CATALYST_Q,
    CATALYST_S,
    CATALYST_X10,
    FAIL_PROB,
    GROUND_POP,
    SMOOTHING_GRID,
    work_extraction_pair,
)
from thermoorder.entropies import default_alpha_grid, nonnegative_alpha_grid

from conftest import (
    random_distribution,
    random_hamiltonian,
    random_rational_distribution,
    random_rational_gibbs_ham,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {title}")
        raise
    print(f"[criterion {number:02d}] PASS  {title}")


def test_criterion_01_sweep_sign_pattern_and_closed_form():
    with criterion(1, "delta-F sign pattern and closed-form agreement"):
        initial, final = work_extraction_pair()
        profile = delta_f_sweep(initial, final)
        assert profile.value_at(ALPHA_1) < 0
        assert profile.value_at(Alpha(4.0)) > 0
        for order in (0.5, 2.0, 4.0, 10.0):
            generic = profile.value_at(Alpha(order))
            closed = work_bit_delta_f(BETA_E, BETA_W, GROUND_POP, FAIL_PROB, order)
            assert abs(generic - closed) < 1e-10


def test_criterion_02_correlating_catalyst_reproduction():
    with criterion(2, "correlated joint certifies, product joint crosses"):
        initial, final = work_extraction_pair()
        joint = qubit_pair_catalyst(CATALYST_S, CATALYST_Q, CATALYST_X10)
        assert verify_correlating_transition(initial, final, joint).verdict == ABOVE
        # marginals exact in rational arithmetic
        assert marginal(joint, 0).probs == (Fraction(19, 20), Fraction(1, 20))
        assert marginal(joint, 1).probs == (Fraction(7, 10), Fraction(3, 10))
        product = product_joint([marginal(joint, 0).probs, marginal(joint, 1).probs])
        assert verify_correlating_transition(initial, final, product).verdict == "crossing"


def _random_above_instance(rng: random.Random):
    """(a, b, joint) with the correlated transition certified, or None."""
    n = rng.choice((2, 3))
    ham = random_hamiltonian(rng, n)
    a = BlockState(random_distribution(rng, n), ham)
    mixer = random_gibbs_stochastic(ham, seed=rng.randrange(2**30))
    b = BlockState(mixer.apply(a.probs), ham)
    s, q = 0.05 + 0.9 * rng.random(), 0.05 + 0.9 * rng.random()
    lo, hi = max(0.0, q - s), min(q, 1 - s)
    prod = q * (1 - s)
    x10 = prod + (rng.random() - 0.5) * 0.2 * (hi - lo)
    x10 = min(max(x10, lo), hi)
    joint = qubit_pair_catalyst(s, q, x10)
    result = verify(a, b, joint)
    if result.verdict != ABOVE:
        return None
    return a, b, joint


def test_criterion_03_necessity_on_random_above_instances():
    with criterion(3, "free-energy necessity on 500 certified instances"):
        rng = random.Random(90210)
        grid = default_alpha_grid()
        count = 0
        while count < 500:
            instance = _random_above_instance(rng)
            if instance is None:
                continue
            a, b, joint = instance
            count += 1
            assert free_energy_gap(a, ALPHA_1) >= free_energy_gap(b, ALPHA_1) - 1e-10
            c1, c2 = marginal(joint, 0), marginal(joint, 1)
            for alpha in grid:
                lhs = free_energy_gap(a, alpha)
                if math.isinf(lhs) and lhs > 0:
                    continue
                lhs -= renyi_entropy(c1.probs, alpha) + renyi_entropy(c2.probs, alpha)
                rhs = free_energy_gap(b, alpha) - renyi_entropy(joint.probs, alpha)
                assert lhs >= rhs - 1e-9
        assert count == 500


def test_criterion_04_witness_oracle_equivalence():
    with criterion(4, "curve verdicts match witness existence on 200 seeded pairs"):
        rng = random.Random(424242)
        agreements = 0
        for trial in range(200):
            n = rng.randint(2, 6)
            if trial % 4 == 0:
                ham = random_hamiltonian(rng, n)
                p = BlockState(random_distribution(rng, n), ham)
                q = BlockState(random_distribution(rng, n), ham)
            else:
                ham = random_rational_gibbs_ham(rng, n)
                p = BlockState(random_rational_distribution(rng, n), ham)
                q = BlockState(random_rational_distribution(rng, n), ham)
            witness = find_witness(p, q)
            dominates = thermomajorizes(p, q).dominates
            assert (witness is not None) == dominates
            agreements += 1
            if witness is not None:
                gamma = gibbs_state(ham).probs
                res = witness.residuals(p.probs, q.probs, gamma)
                assert res["map"] < 1e-8
                assert res["gibbs"] < 1e-12
        assert agreements == 200


def test_criterion_05_embedding_identity():
    with criterion(5, "embedding identity and exact round trips (100 states)"):
        rng = random.Random(5150)
        grid = nonnegative_alpha_grid()
        for _ in range(100):
            n = rng.randint(2, 4)
            while True:
                d = tuple(rng.randint(1, 20) for _ in range(n))
                if sum(d) <= 60:
                    break
            spec = EmbeddingSpec(d)
            ham = Hamiltonian.from_gibbs_factors(spec.gibbs_probs())
            p = random_rational_distribution(rng, n)
            state = BlockState(p, ham)
            assert embedding_identity_check(state, spec, grid) < 1e-10
            assert unembed(embed(p, spec), spec) == p


def test_criterion_06_anomalous_order_entropy():
    with criterion(6, "anomalous order entropy on the reference joint"):
        c12 = (0.66, 0.29, 0.04, 0.01)
        prod = tuple(a * b for a in (0.95, 0.05) for b in (0.70, 0.30))
        assert renyi_entropy(prod, ALPHA_1) - renyi_entropy(c12, ALPHA_1) > 1e-6
        best = max(
            renyi_entropy(c12, a) - renyi_entropy(prod, a)
            for a in default_alpha_grid()
            if a.value >= 0
        )
        assert best > 1e-6


def test_criterion_07_entropic_property_suite():
    with criterion(7, "data processing, Schur concavity, additivity, correlation sign"):
        rng = random.Random(77007)
        grid = nonnegative_alpha_grid()

        # data processing under 1000 random Gibbs-preserving maps
        for trial in range(1000):
            n = rng.randint(2, 5)
            ham = random_hamiltonian(rng, n)
            channel = random_gibbs_stochastic(ham, seed=trial)
            p = random_distribution(rng, n)
            gamma = gibbs_state(ham).probs
            after = channel.apply(p)
            for alpha in grid:
                assert renyi_divergence(after, gamma, alpha) <= (
                    renyi_divergence(p, gamma, alpha) + 1e-9
                )

        # Schur concavity on 500 majorizing pairs
        for _ in range(500):
            n = rng.randint(2, 6)
            p = random_distribution(rng, n)
            mix = [list(p) for _ in range(3)]
            for row in mix:
                rng.shuffle(row)
            weights = [rng.random() for _ in range(3)]
            total = sum(weights)
            q = tuple(
                sum(w * row[i] for w, row in zip(weights, mix)) / total
                for i in range(n)
            )
            for alpha in grid:
                assert renyi_entropy(p, alpha) <= renyi_entropy(q, alpha) + 1e-9

        # additivity of the free-energy gap on tensor products
        for _ in range(50):
            na, nb = rng.randint(2, 3), rng.randint(2, 3)
            a = BlockState(random_distribution(rng, na), random_hamiltonian(rng, na))
            b = BlockState(random_distribution(rng, nb), random_hamiltonian(rng, nb))
            ab = tensor(a, b)
            for alpha in grid:
                lhs = free_energy_gap(ab, alpha)
                rhs = free_energy_gap(a, alpha) + free_energy_gap(b, alpha)
                assert abs(lhs - rhs) < 1e-10

        # total correlation: non-negative, zero exactly on products
        for _ in range(100):
            p = random_distribution(rng, 2)
            q = random_distribution(rng, rng.choice((2, 3)))
            product = product_joint([p, q])
            assert total_correlation(product) <= 1e-12
            assert total_correlation(product) >= 0.0
            joint = JointCatalyst(random_distribution(rng, 4), (2, 2))
            info = total_correlation(joint)
            assert info >= 0.0
            c1, c2 = marginal(joint, 0).probs, marginal(joint, 1).probs
            off_product = max(
                abs(joint.probs[2 * i + j] - c1[i] * c2[j])
                for i in range(2) for j in range(2)
            )
            if off_product > 1e-3:
                assert info > 1e-12


def test_criterion_08_vanishing_correlation_trend():
    with criterion(8, "shrinking smoothing keeps correlations within budget"):
        initial, final = work_extraction_pair()
        records = shrinking_epsilon_demo(initial, final, SMOOTHING_GRID)
        assert all(r.found for r in records)
        infos = [r.total_correlation for r in records]
        for earlier, later in zip(infos, infos[1:]):
            assert later <= earlier + 1e-12
        for r in records:
            assert r.total_correlation <= r.correlation_budget + 1e-9


def test_criterion_09_work_quantities():
    with criterion(9, "work quantities: order, full-rank yield, equilibrium"):
        rng = random.Random(909)
        for _ in range(100):
            n = rng.randint(2, 5)
            s = BlockState(random_distribution(rng, n), random_hamiltonian(rng, n))
            wq = work_quantities(s)
            assert abs(wq.f0) < 1e-12
            assert wq.f0 <= wq.f1 + 1e-12
            assert wq.f1 <= wq.finf + 1e-12
        ham = random_hamiltonian(rng, 4)
        wq = work_quantities(gibbs_state(ham))
        assert abs(wq.f0) < 1e-12 and abs(wq.f1) < 1e-12 and abs(wq.finf) < 1e-12


def test_criterion_10_cli_end_to_end(tmp_path):
    with criterion(10, "demo pipeline passes and is byte-reproducible"):
        def run(outdir):
            return subprocess.run(
                [sys.executable, "-m", "thermoorder.cli", "example",
                 "--outdir", str(outdir)],
                capture_output=True, text=True, env=dict(os.environ),
            )

        out1, out2 = tmp_path / "a", tmp_path / "b"
        res1, res2 = run(out1), run(out2)
        assert res1.returncode == 0, res1.stdout + res1.stderr
        assert res2.returncode == 0
        assert not [l for l in res1.stdout.splitlines() if l.startswith("FAIL")]
        assert res1.stdout.replace(str(out1), "") == res2.stdout.replace(str(out2), "")
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir()) and names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
