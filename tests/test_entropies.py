import math
import struct
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoorder import (
    ALPHA_0,
    ALPHA_1,
    ALPHA_INF,
    ALPHA_NEG_INF,
    Alpha,
    BlockState,
    Hamiltonian,
    JointCatalyst,
    default_alpha_grid,
    delta_f_sweep,
    free_energy_alpha,
    free_energy_gap,
    gibbs_state,
    mutual_info_bound,
    product_joint,
    renyi_divergence,
    renyi_entropy,
    tensor,
    total_correlation,
    work_bit_delta_f,
)
from thermoorder.demo import work_extraction_pair
from thermoorder.entropies import nonnegative_alpha_grid

from conftest import random_distribution, random_state

mp.mp.dps = 40


def shannon_mp(values):
    terms = [mp.mpf(v) for v in values]
    return float(-sum(t * mp.log(t) for t in terms if t > 0))


# -- Alpha -------------------------------------------------------------------

def test_alpha_snaps_near_one():
    assert Alpha(1.0 + 1e-9).is_one
    assert not Alpha(1.01).is_one


def test_alpha_labels_round_trip():
    for a in (ALPHA_NEG_INF, ALPHA_0, ALPHA_1, ALPHA_INF, Alpha(2.5)):
        assert Alpha.from_label(a.label()) == a


def test_alpha_rejects_nan():
    with pytest.raises(ValueError):
        Alpha(float("nan"))


def test_default_grid_contents():
    grid = default_alpha_grid()
    values = [a.value for a in grid]
    assert values == sorted(values)
    assert len(grid) == 64  # 60 log-spaced orders plus the four limit cases
    for needed in (-math.inf, 0.0, 0.5, 1.0, 2.0, 4.0, 10.0, 20.0, math.inf):
        assert needed in values
    finite = [v for v in values if 0 < v < math.inf and v != 1.0]
    assert len(finite) == 60
    assert min(finite) == 0.05 and max(finite) == 20.0


# -- Renyi entropy -----------------------------------------------------------

def test_uniform_entropy_is_log_d_for_nonnegative_orders():
    u = (0.25,) * 4
    for a in nonnegative_alpha_grid():
        assert renyi_entropy(u, a) == pytest.approx(math.log(4), abs=1e-12)


def test_shannon_value_against_high_precision():
    # frozen from a 40-digit evaluation of -sum p ln p
    expected = 0.19851524334587256
    assert renyi_entropy((0.95, 0.05), ALPHA_1) == pytest.approx(expected, abs=1e-15)
    assert renyi_entropy((0.95, 0.05), ALPHA_1) == pytest.approx(
        shannon_mp(("0.95", "0.05")), abs=1e-15
    )


def test_order_zero_counts_support():
    assert renyi_entropy((0.5, 0.5, 0.0), ALPHA_0) == pytest.approx(math.log(2), abs=0)


def test_entropy_limit_orders():
    p = (0.7, 0.2, 0.1)
    assert renyi_entropy(p, ALPHA_INF) == pytest.approx(-math.log(0.7), abs=1e-15)
    assert renyi_entropy(p, ALPHA_NEG_INF) == pytest.approx(math.log(0.1), abs=1e-15)
    assert renyi_entropy((0.5, 0.5, 0.0), ALPHA_NEG_INF) == -math.inf
    assert renyi_entropy((0.5, 0.5, 0.0), Alpha(-2.0)) == -math.inf


def test_entropy_negative_order_uniform():
    # sign convention: negative orders of the uniform give -ln d
    assert renyi_entropy((0.5, 0.5), Alpha(-1.0)) == pytest.approx(-math.log(2), abs=1e-12)


def test_entropy_monotone_in_order(rng):
    grid = [a for a in nonnegative_alpha_grid() if a.value >= 0]
    for _ in range(40):
        p = random_distribution(rng, rng.randint(2, 6))
        values = [renyi_entropy(p, a) for a in grid]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-10


def test_entropy_rejects_invalid_distribution():
    with pytest.raises(ValueError):
        renyi_entropy((0.5, 0.6), ALPHA_1)


# -- Renyi divergence --------------------------------------------------------

def test_divergence_of_state_from_itself_vanishes(rng):
    p = random_distribution(rng, 5)
    for a in default_alpha_grid():
        assert renyi_divergence(p, p, a) == pytest.approx(0.0, abs=1e-12)


def test_divergence_from_uniform_matches_entropy_gap(rng):
    d = 5
    u = (1.0 / d,) * d
    p = random_distribution(rng, d)
    for a in nonnegative_alpha_grid():
        expected = math.log(d) - renyi_entropy(p, a)
        assert renyi_divergence(p, u, a) == pytest.approx(expected, abs=1e-11)


def test_divergence_order_zero_support_weight():
    assert renyi_divergence((1.0, 0.0), (0.5, 0.5), ALPHA_0) == pytest.approx(
        math.log(2), abs=1e-15
    )


def test_divergence_infinite_when_target_misses_support():
    assert renyi_divergence((0.5, 0.5), (1.0, 0.0), Alpha(2.0)) == math.inf
    assert renyi_divergence((0.5, 0.5), (1.0, 0.0), ALPHA_1) == math.inf
    assert renyi_divergence((0.5, 0.5), (1.0, 0.0), ALPHA_INF) == math.inf


def test_divergence_minus_infinity_swaps_arguments(rng):
    p = random_distribution(rng, 4)
    q = random_distribution(rng, 4)
    assert renyi_divergence(p, q, ALPHA_NEG_INF) == pytest.approx(
        renyi_divergence(q, p, ALPHA_INF), abs=0
    )


def test_divergence_length_mismatch():
    with pytest.raises(ValueError):
        renyi_divergence((1.0,), (0.5, 0.5), ALPHA_1)


# -- free energies -----------------------------------------------------------

def test_gibbs_state_free_energy_is_minus_log_z(rng):
    from conftest import random_hamiltonian

    ham = random_hamiltonian(rng, 4)
    g = gibbs_state(ham)
    # absolute: the Gibbs weights are relative to the ground level, F_alpha is not
    logz = math.log(math.fsum(math.exp(-e) for e in ham.levels))
    for a in default_alpha_grid():
        assert free_energy_alpha(g, a) == pytest.approx(-logz, abs=1e-11)


def test_trivial_hamiltonian_free_energy_is_minus_entropy(rng):
    p = random_distribution(rng, 4)
    s = BlockState(p, Hamiltonian.trivial(4))
    for a in nonnegative_alpha_grid():
        assert free_energy_alpha(s, a) == pytest.approx(-renyi_entropy(p, a), abs=1e-11)


def test_pure_state_order_zero_trivial():
    s = BlockState((1, 0), Hamiltonian.trivial(2))
    assert free_energy_alpha(s, ALPHA_0) == pytest.approx(0.0, abs=1e-15)


def test_free_energy_additive_on_tensor_products(rng):
    for _ in range(20):
        a = random_state(rng, rng.randint(2, 3))
        b = random_state(rng, rng.randint(2, 3))
        ab = tensor(a, b)
        for alpha in nonnegative_alpha_grid():
            fa = free_energy_gap(a, alpha)
            fb = free_energy_gap(b, alpha)
            assert free_energy_gap(ab, alpha) == pytest.approx(fa + fb, abs=1e-10)


# -- sweeps ------------------------------------------------------------------

def test_sweep_reference_sign_pattern():
    initial, final = work_extraction_pair()
    profile = delta_f_sweep(initial, final)
    assert profile.value_at(ALPHA_1) < 0
    assert profile.value_at(Alpha(4.0)) > 0


def test_sweep_identical_states_vanishes():
    initial, _ = work_extraction_pair()
    profile = delta_f_sweep(initial, initial)
    for entry in profile:
        if entry.finite:
            assert entry.value == pytest.approx(0.0, abs=1e-12)


def test_sweep_matches_closed_form():
    initial, final = work_extraction_pair()
    profile = delta_f_sweep(initial, final, [Alpha(v) for v in (0.5, 2.0, 4.0, 10.0)])
    for entry in profile:
        closed = work_bit_delta_f(1.0, 0.01, 0.73, 0.007, entry.alpha)
        assert entry.value == pytest.approx(closed, abs=1e-10)


def test_sweep_requires_matching_hamiltonians():
    a = BlockState((0.5, 0.5), Hamiltonian((0.0, 1.0)))
    b = BlockState((0.5, 0.5), Hamiltonian((0.0, 2.0)))
    with pytest.raises(ValueError):
        delta_f_sweep(a, b)


def test_sweep_csv_serialization():
    import io

    initial, final = work_extraction_pair()
    profile = delta_f_sweep(initial, final)
    buf = io.StringIO()
    profile.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "alpha,delta_f,finite"
    assert lines[1].startswith("-inf,")
    assert lines[2].startswith("0,")
    assert lines[-1].startswith("inf,")
    assert any(line.startswith("1,") for line in lines)


# -- one evaluator: properties against per-order and closed-form values -------

ORDERS = default_alpha_grid() + tuple(Alpha(v) for v in (-0.5, -2.0, -7.5))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def weights(n):
    return st.lists(st.integers(0, 30), min_size=n, max_size=n).filter(any)


def to_vector(w, exact):
    total = sum(w)
    return tuple(Fraction(x, total) if exact else x / total for x in w)


@st.composite
def vectors(draw):
    n = draw(st.integers(1, 8))
    return to_vector(draw(weights(n)), draw(st.booleans()))


@st.composite
def state_pairs(draw):
    n = draw(st.integers(1, 8))
    exact = draw(st.booleans())
    if exact:
        factors = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        ham = Hamiltonian.from_gibbs_factors([Fraction(f, 4) for f in factors])
    else:
        ham = Hamiltonian(tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))))
    return tuple(BlockState(to_vector(draw(weights(n)), exact), ham) for _ in range(2))


def closed_form_entropy(p, a):
    """H_alpha(p) from its own closed forms, independent of the divergence."""
    support = [float(x) for x in p if x > 0]
    has_zero = len(support) < len(p)
    if a.is_one:
        return -math.fsum(x * math.log(x) for x in support)
    if a.is_zero:
        return math.log(len(support))
    if a.is_inf:
        return -math.log(max(support))
    if a.is_neg_inf:
        return -math.inf if has_zero else math.log(min(support))
    v = a.value
    if v < 0 and has_zero:
        return -math.inf
    terms = [v * math.log(x) for x in support]
    m = max(terms)
    lse = m + math.log(math.fsum(math.exp(t - m) for t in terms))
    return (1.0 if v > 0 else -1.0) / (1.0 - v) * lse


def closed_form_divergence(p, q, a):
    """S_alpha(p||q) from its own closed forms, one order at a time."""
    pairs = [(float(x), float(y)) for x, y in zip(p, q) if x > 0 or y > 0]
    p_only = any(y == 0 for x, y in pairs if x > 0)
    q_only = any(x == 0 for x, y in pairs if y > 0)
    if a.is_zero:
        covered = math.fsum(y for x, y in pairs if x > 0)
        return -math.log(covered) if covered > 0 else math.inf
    if a.is_neg_inf:
        return closed_form_divergence(q, p, ALPHA_INF)
    v = a.value
    if (v >= 1 and p_only) or (v < 0 and q_only):
        return math.inf
    joint = [(x, y) for x, y in pairs if x > 0 and y > 0]
    if a.is_one:
        return math.fsum(x * math.log(x / y) for x, y in joint)
    if a.is_inf:
        return math.log(max(x / y for x, y in joint))
    terms = [v * math.log(x) + (1.0 - v) * math.log(y) for x, y in joint]
    m = max(terms)
    lse = m + math.log(math.fsum(math.exp(t - m) for t in terms))
    return (1.0 if v > 0 else -1.0) / (v - 1.0) * lse


@settings(max_examples=200, deadline=None)
@given(state_pairs())
def test_sweep_is_the_per_order_divergence_difference(pair):
    initial, final = pair
    gamma = gibbs_state(initial.ham).probs
    profile = delta_f_sweep(initial, final, ORDERS)
    assert [e.alpha for e in profile] == list(ORDERS)
    for e in profile:
        fv = renyi_divergence(final.probs, gamma, e.alpha)
        iv = renyi_divergence(initial.probs, gamma, e.alpha)
        if math.isinf(fv) and fv == iv:
            assert math.isnan(e.value) and not e.finite
        else:
            assert bits(e.value) == bits(fv - iv), e.alpha.label()
            assert bits(free_energy_gap(final, e.alpha)) == bits(fv)
        assert bits(fv) == bits(closed_form_divergence(final.probs, gamma, e.alpha))


@settings(max_examples=300, deadline=None)
@given(vectors())
def test_renyi_entropy_matches_the_closed_forms(p):
    for a in ORDERS:
        got, want = renyi_entropy(p, a), closed_form_entropy(p, a)
        if a.is_neg_inf:
            # 1/min(p) is rounded before its log is taken: one ulp, or -0.0
            assert got == want or abs(got - want) <= math.ulp(want), (got, want)
        else:
            assert bits(got) == bits(want), a.label()


# -- correlation measures ----------------------------------------------------

def test_total_correlation_of_product_vanishes(rng):
    p = random_distribution(rng, 2)
    q = random_distribution(rng, 3)
    joint = product_joint([p, q])
    assert total_correlation(joint) == pytest.approx(0.0, abs=1e-12)


def test_total_correlation_reference_joint():
    joint = JointCatalyst((0.66, 0.29, 0.04, 0.01), (2, 2))
    # frozen from a 40-digit evaluation of H(c1) + H(c2) - H(c12)
    expected = 0.0013490542909886383
    assert total_correlation(joint) == pytest.approx(expected, abs=1e-15)
    oracle = (
        shannon_mp(("0.95", "0.05"))
        + shannon_mp(("0.7", "0.3"))
        - shannon_mp(("0.66", "0.29", "0.04", "0.01"))
    )
    assert total_correlation(joint) == pytest.approx(oracle, abs=1e-14)


def test_total_correlation_perfectly_correlated_pair():
    joint = JointCatalyst((0.5, 0.0, 0.0, 0.5), (2, 2))
    assert total_correlation(joint) == pytest.approx(math.log(2), abs=1e-14)


def test_anomalous_order_entropy_on_reference_joint():
    c12 = (0.66, 0.29, 0.04, 0.01)
    prod = tuple(a * b for a in (0.95, 0.05) for b in (0.70, 0.30))
    assert renyi_entropy(prod, ALPHA_1) > renyi_entropy(c12, ALPHA_1)
    gaps = [
        renyi_entropy(c12, a) - renyi_entropy(prod, a)
        for a in default_alpha_grid()
        if a.value >= 0
    ]
    assert max(gaps) > 1e-6


def test_mutual_info_bound_values():
    assert mutual_info_bound(0.5, 0.0) == pytest.approx(math.log(2), abs=1e-15)
    # work amount from the demo state's free-energy gap, frozen from a
    # 40-digit evaluation
    w = 2.8473896258402804e-06
    assert mutual_info_bound(0.007, w) == pytest.approx(0.04170837847362086, abs=1e-15)
    assert mutual_info_bound(1e-12, 5.0) == pytest.approx(0.0, abs=1e-9)


def test_mutual_info_bound_domain():
    with pytest.raises(ValueError):
        mutual_info_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        mutual_info_bound(1.0, 1.0)
