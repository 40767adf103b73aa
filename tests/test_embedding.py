import itertools
import math
from fractions import Fraction

import pytest

from thermoorder import (
    BlockState,
    EmbeddingSpec,
    Hamiltonian,
    embed,
    embedding_identity_check,
    gibbs_state,
    majorizes,
    rational_gibbs,
    renyi_entropy,
    thermomajorizes,
    unembed,
)
from thermoorder.entropies import ALPHA_0, nonnegative_alpha_grid

from conftest import random_rational_distribution


def brute_force_best_error(gamma, max_denominator):
    """Optimal max-error apportionment by exhaustive composition search."""
    n = len(gamma)
    best = None
    for D in range(n, max_denominator + 1):
        for combo in itertools.product(range(1, D + 1), repeat=n - 1):
            last = D - sum(combo)
            if last < 1:
                continue
            d = combo + (last,)
            err = max(abs(di / D - g) for di, g in zip(d, gamma))
            if best is None or err < best:
                best = err
    return best


def test_rational_gibbs_trivial_ham_is_exact():
    spec, err = rational_gibbs(Hamiltonian.trivial(3), 9)
    assert spec.d == (3, 3, 3) or sum(spec.d) % 3 == 0
    assert err == 0.0


def test_rational_gibbs_exact_two_thirds():
    ham = Hamiltonian((0.0, math.log(2)))
    spec, err = rational_gibbs(ham, 3)
    assert spec.d == (2, 1)
    assert err < 1e-15


def test_rational_gibbs_unit_gap_under_thousandth():
    spec, err = rational_gibbs(Hamiltonian((0.0, 1.0)), 1000)
    assert err < 1e-3
    gamma = [float(p) for p in gibbs_state(Hamiltonian((0.0, 1.0))).probs]
    for di, g in zip(spec.d, gamma):
        assert abs(di / spec.D - g) <= err


def test_rational_gibbs_matches_brute_force_optimum(rng):
    for _ in range(10):
        n = rng.randint(2, 3)
        levels = tuple(rng.uniform(0.0, 2.0) for _ in range(n))
        ham = Hamiltonian(levels)
        cap = rng.randint(n, 14)
        spec, err = rational_gibbs(ham, cap)
        gamma = [float(p) for p in gibbs_state(ham).probs]
        assert err == pytest.approx(brute_force_best_error(gamma, cap), abs=1e-12)


def test_rational_gibbs_rejects_small_cap():
    with pytest.raises(ValueError):
        rational_gibbs(Hamiltonian.trivial(3), 2)


@pytest.mark.parametrize("d", [(2.9, 1), (True, 2), ("3", 2), (2, 1.0)])
def test_spec_rejects_block_sizes_that_are_not_plain_ints(d):
    # each was truncated or coerced to an int block size: (2, 1), (1, 2), (3, 2), (2, 1)
    with pytest.raises(ValueError):
        EmbeddingSpec(d)
    with pytest.raises(ValueError):
        EmbeddingSpec.from_json_obj({"d": list(d)})


def test_embed_examples():
    spec = EmbeddingSpec((2, 1))
    assert embed((1, 0), spec) == (Fraction(1, 2), Fraction(1, 2), 0)
    assert embed((0.73, 0.27), spec) == (0.365, 0.365, 0.27)


def test_embed_gibbs_gives_uniform():
    spec = EmbeddingSpec((3, 2, 1))
    gamma = spec.gibbs_probs()
    assert embed(gamma, spec) == (Fraction(1, 6),) * 6


def test_unembed_examples():
    spec = EmbeddingSpec((2, 1))
    assert unembed((Fraction(1, 2), Fraction(1, 2), 0), spec) == (1, 0)
    assert unembed((Fraction(1, 3),) * 3, spec) == (Fraction(2, 3), Fraction(1, 3))


def test_unembed_inverts_embed_exactly(rng):
    for _ in range(20):
        n = rng.randint(2, 4)
        d = tuple(rng.randint(1, 5) for _ in range(n))
        spec = EmbeddingSpec(d)
        p = random_rational_distribution(rng, n)
        assert unembed(embed(p, spec), spec) == p


def test_embedded_uniform_block_mix_has_full_entropy():
    spec = EmbeddingSpec((3, 2, 1))
    v = embed(spec.gibbs_probs(), spec)
    for a in nonnegative_alpha_grid():
        assert renyi_entropy(v, a) == pytest.approx(math.log(6), abs=1e-12)


def test_identity_check_on_gibbs_state_itself():
    spec = EmbeddingSpec((2, 1))
    ham = Hamiltonian.from_gibbs_factors(spec.gibbs_probs())
    assert embedding_identity_check(gibbs_state(ham), spec) == pytest.approx(0.0, abs=1e-12)


def test_identity_check_hand_example_order_zero():
    spec = EmbeddingSpec((2, 1))
    ham = Hamiltonian.from_gibbs_factors(spec.gibbs_probs())
    s = BlockState((Fraction(1), Fraction(0)), ham)
    from thermoorder import free_energy_gap

    lhs = free_energy_gap(s, ALPHA_0)
    rhs = math.log(3) - renyi_entropy(embed(s.probs, spec), ALPHA_0)
    assert lhs == pytest.approx(math.log(Fraction(3, 2)), abs=1e-15)
    assert rhs == pytest.approx(math.log(Fraction(3, 2)), abs=1e-15)
    assert embedding_identity_check(s, spec) < 1e-10


def test_identity_check_random_rational_states(rng):
    for _ in range(20):
        n = rng.randint(2, 4)
        d = tuple(rng.randint(1, 8) for _ in range(n))
        spec = EmbeddingSpec(d)
        ham = Hamiltonian.from_gibbs_factors(spec.gibbs_probs())
        s = BlockState(random_rational_distribution(rng, n), ham)
        assert embedding_identity_check(s, spec) < 1e-10


def test_identity_check_rejects_wrong_blocks():
    spec = EmbeddingSpec((2, 1))
    ham = Hamiltonian.from_gibbs_factors((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        embedding_identity_check(gibbs_state(ham), spec)


def test_embed_turns_thermomajorization_into_majorization(rng):
    for _ in range(25):
        n = rng.randint(2, 3)
        d = tuple(rng.randint(1, 6) for _ in range(n))
        spec = EmbeddingSpec(d)
        ham = Hamiltonian.from_gibbs_factors(spec.gibbs_probs())
        p = BlockState(random_rational_distribution(rng, n), ham)
        q = BlockState(random_rational_distribution(rng, n), ham)
        thermo = thermomajorizes(p, q).dominates
        plain = majorizes(embed(p.probs, spec), embed(q.probs, spec)).dominates
        assert thermo == plain


def test_embed_length_mismatch():
    with pytest.raises(ValueError):
        embed((0.5, 0.5), EmbeddingSpec((2, 1, 1)))
    with pytest.raises(ValueError):
        unembed((0.5, 0.5), EmbeddingSpec((2, 1)))


def test_identity_check_with_zero_support(rng):
    spec = EmbeddingSpec((3, 2, 1))
    ham = Hamiltonian.from_gibbs_factors(spec.gibbs_probs())
    s = BlockState((Fraction(3, 4), Fraction(1, 4), Fraction(0)), ham)
    assert embedding_identity_check(s, spec) < 1e-10
