import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoorder import (
    ABOVE,
    BELOW,
    CROSSING,
    EQUAL,
    BlockState,
    Hamiltonian,
    free_energy_gap,
    gibbs_state,
    lorenz,
    majorizes,
    tensor,
    thermal_lorenz,
    thermomajorizes,
)
from thermoorder.entropies import nonnegative_alpha_grid
from thermoorder.majorization import beta_segments
from thermoorder.modes import CMP_TOL

from conftest import gibbs_mixture, random_distribution, random_hamiltonian, random_state


# -- beta ordering -----------------------------------------------------------

def beta_perm(s):
    """A state's levels in beta order."""
    return [i for *_, i in beta_segments(s.probs, s.ham.gibbs, s.exact)]


def beta_densities(s):
    """A state's rescaled probabilities p_i/g_i in beta order."""
    return [r for _, r, _ in beta_segments(s.probs, s.ham.gibbs, s.exact)]


def test_beta_order_trivial_is_descending_sort(rng):
    p = random_distribution(rng, 5)
    assert beta_densities(BlockState(p, Hamiltonian.trivial(5))) == sorted(p, reverse=True)


def test_beta_order_rescale_flips_reference_state():
    s = BlockState((0.73, 0.27), Hamiltonian((0.0, 1.0)))
    # 0.27 * e > 0.73, so the excited level leads
    assert beta_perm(s) == [1, 0]


def test_beta_order_gibbs_breaks_ties_by_probability_then_index():
    s = gibbs_state(Hamiltonian((0.0, 1.0, 1.0)))
    assert beta_perm(s) == [0, 1, 2]
    densities = beta_densities(s)
    assert densities[0] == pytest.approx(densities[1], abs=1e-12)


def test_beta_order_keeps_integer_weights_exact():
    densities = beta_densities(BlockState((0, 1), Hamiltonian.from_gibbs_factors((1, 3))))
    assert densities == [Fraction(1, 3), 0]
    assert all(type(r) is Fraction for r in densities)


# -- curves ------------------------------------------------------------------

def test_thermal_lorenz_gibbs_is_diagonal(rng):
    ham = random_hamiltonian(rng, 4)
    curve = thermal_lorenz(gibbs_state(ham))
    z = float(ham.partition_function)
    for x, y in curve.points:
        assert y == pytest.approx(x / z, abs=1e-12)


def test_thermal_lorenz_pure_ground_state():
    curve = thermal_lorenz(BlockState((1.0, 0.0), Hamiltonian((0.0, 1.0))))
    z = 1 + math.exp(-1)
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[1] == (1.0, 1.0)
    assert curve.points[2] == (z, 1.0)


def test_thermal_lorenz_reference_two_level():
    curve = thermal_lorenz(BlockState((0.73, 0.27), Hamiltonian((0.0, 1.0))))
    e = math.exp(-1)
    assert curve.points[1][0] == pytest.approx(e, abs=1e-15)
    assert curve.points[1][1] == pytest.approx(0.27, abs=1e-15)
    assert curve.points[2][0] == pytest.approx(1 + e, abs=1e-15)
    assert curve.points[2][1] == 1.0


def test_plain_lorenz_breakpoints_count_levels():
    curve = lorenz((0.2, 0.5, 0.3))
    xs = [float(x) for x, _ in curve.points]
    ys = [float(y) for _, y in curve.points]
    assert xs == [0.0, 1.0, 2.0, 3.0]
    assert ys == pytest.approx([0.0, 0.5, 0.8, 1.0], abs=1e-15)


def test_curve_csv_export():
    curve = lorenz((0.5, 0.5))
    buf = io.StringIO()
    curve.write_csv(buf)
    assert buf.getvalue().splitlines() == ["x,y", "0,0", "1,0.5", "2,1"]


# -- comparisons -------------------------------------------------------------

def test_compare_curve_with_itself_equal(rng):
    s = random_state(rng, 4)
    assert thermomajorizes(s, s).verdict == EQUAL


def test_any_state_dominates_its_gibbs(rng):
    for _ in range(20):
        s = random_state(rng, rng.randint(2, 5))
        cmp_result = thermomajorizes(s, gibbs_state(s.ham))
        assert cmp_result.verdict in (ABOVE, EQUAL)


def test_crossing_reports_violations_in_both_directions():
    p = BlockState((0.6, 0.25, 0.15), Hamiltonian.trivial(3))
    q = BlockState((0.5, 0.4, 0.1), Hamiltonian.trivial(3))
    forward = thermomajorizes(p, q)
    backward = thermomajorizes(q, p)
    assert forward.verdict == CROSSING
    assert forward.violations and backward.violations


def test_thermomajorizes_requires_same_hamiltonian():
    a = BlockState((0.5, 0.5), Hamiltonian((0.0, 1.0)))
    b = BlockState((0.5, 0.5), Hamiltonian((0.0, 2.0)))
    with pytest.raises(ValueError):
        thermomajorizes(a, b)


def test_majorizes_examples():
    assert majorizes((1, 0), (0.5, 0.5)).verdict == ABOVE
    assert majorizes((0.5, 0.5), (1, 0)).verdict == BELOW
    assert majorizes((0.6, 0.25, 0.15), (0.5, 0.4, 0.1)).verdict == CROSSING
    assert majorizes((0.5, 0.5), (0.5, 0.5)).verdict == EQUAL


def test_majorizes_zero_pads_shorter_vector():
    assert majorizes((1.0,), (0.5, 0.5)).verdict == ABOVE
    assert majorizes((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2), 0)).verdict == EQUAL


def _partial_sum_gaps(p, q):
    """Sorted partial sums of p minus q's, zero-padded, over k = 1..n-1."""
    n = max(len(p), len(q))
    ps = sorted(list(p) + [0] * (n - len(p)), reverse=True)
    qs = sorted(list(q) + [0] * (n - len(q)), reverse=True)
    return [sum(ps[:k]) - sum(qs[:k]) for k in range(1, n)]


def _partial_sum_reference(p, q):
    """(verdict, marginal, violations) of exact vectors from sorted partial sums."""
    gaps = _partial_sum_gaps(p, q)
    dips = tuple((k, -d) for k, d in enumerate(gaps, 1) if d < 0)
    rises = any(d > 0 for d in gaps)
    verdict = CROSSING if dips and rises else BELOW if dips else ABOVE if rises else EQUAL
    return verdict, verdict == ABOVE and min(gaps) <= 0, dips


@st.composite
def exact_vector_pairs(draw):
    """Rational distributions of 1..8 entries, zeros allowed; a quarter of
    the pairs are one vector against a zero-padded permutation of itself."""
    def distribution():
        weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8).filter(any))
        return [Fraction(w, sum(weights)) for w in weights]

    p = distribution()
    if draw(st.integers(0, 3)) == 0:
        return p, draw(st.permutations(p)) + [0] * draw(st.integers(0, 2))
    return p, distribution()


@settings(max_examples=300, deadline=None)
@given(exact_vector_pairs())
def test_majorizes_matches_partial_sums(pair):
    p, q = pair
    want = _partial_sum_reference(p, q)
    result = majorizes(p, q)
    assert (result.verdict, result.marginal, result.violations) == want
    # float copies decide alike wherever no exact gap sits inside the slack
    if all(d == 0 or abs(d) > 100 * CMP_TOL for d in _partial_sum_gaps(p, q)):
        result = majorizes([float(v) for v in p], [float(v) for v in q])
        assert result.verdict == want[0]
        assert [x for x, _ in result.violations] == [x for x, _ in want[2]]


def test_majorizes_rejects_non_distributions():
    with pytest.raises(ValueError):
        majorizes((2, 1), (1, 0))


def test_thermomajorization_reduces_to_majorization_for_trivial_ham(rng):
    for _ in range(50):
        n = rng.randint(2, 6)
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        ham = Hamiltonian.trivial(n)
        lhs = thermomajorizes(BlockState(p, ham), BlockState(q, ham)).verdict
        rhs = majorizes(p, q).verdict
        assert lhs == rhs


def test_dominance_is_transitive_on_gibbs_mixtures(rng):
    for _ in range(25):
        a = random_state(rng, rng.randint(2, 5))
        b = gibbs_mixture(a, rng.random())
        c = gibbs_mixture(b, rng.random())
        ab = thermomajorizes(a, b)
        bc = thermomajorizes(b, c)
        ac = thermomajorizes(a, c)
        assert ab.dominates and bc.dominates
        assert ac.dominates


def test_tensoring_with_common_state_preserves_dominance(rng):
    for _ in range(15):
        a = random_state(rng, 3)
        b = gibbs_mixture(a, 0.5 + 0.5 * rng.random())
        extra = random_state(rng, 2)
        assert thermomajorizes(a, b).dominates
        assert thermomajorizes(tensor(a, extra), tensor(b, extra)).dominates


def test_dominance_implies_free_energy_ordering(rng):
    for _ in range(15):
        a = random_state(rng, rng.randint(2, 4))
        b = gibbs_mixture(a, rng.random())
        assert thermomajorizes(a, b).dominates
        for alpha in nonnegative_alpha_grid():
            assert free_energy_gap(a, alpha) >= free_energy_gap(b, alpha) - 1e-10


def test_exact_and_float_modes_agree_on_verdicts(rng):
    from conftest import random_rational_distribution, random_rational_gibbs_ham

    for _ in range(40):
        n = rng.randint(2, 5)
        ham = random_rational_gibbs_ham(rng, n)
        a = BlockState(random_rational_distribution(rng, n), ham)
        b = BlockState(random_rational_distribution(rng, n), ham)
        exact_verdict = thermomajorizes(a, b).verdict
        float_verdict = thermomajorizes(a.to_float(), b.to_float()).verdict
        cmp_exact = thermomajorizes(a, b)
        gap = max(abs(cmp_exact.min_gap), abs(cmp_exact.max_gap))
        if gap > 1e-9:
            assert exact_verdict == float_verdict


def test_marginal_flag_on_tangent_curves():
    # second state shares the first segment with the first state's curve
    ham = Hamiltonian.trivial(4)
    a = BlockState((Fraction(1, 2), Fraction(1, 2), 0, 0), ham)
    b = BlockState((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0), ham)
    result = thermomajorizes(a, b)
    assert result.verdict == ABOVE
    assert result.marginal


def test_comparison_json_shape():
    p = BlockState((0.6, 0.25, 0.15), Hamiltonian.trivial(3))
    q = BlockState((0.5, 0.4, 0.1), Hamiltonian.trivial(3))
    obj = thermomajorizes(p, q).to_json_obj()
    assert obj["verdict"] == CROSSING
    assert isinstance(obj["marginal"], bool)
    assert obj["violations"] and set(obj["violations"][0]) == {"x", "gap"}
    assert obj["violations"][0]["gap"] > 0


# -- the cells against the interpolating reference -----------------------------

def _value_at(curve, x):
    for (x0, y0), (x1, y1) in zip(curve.points, curve.points[1:]):
        if x == x1:
            return y1
        if x < x1:
            return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    return curve.points[-1][1]


def union_gaps(above, below):
    """(x, gap) at every interior point of the sorted union of both curves'
    breakpoints, each curve interpolated there."""
    xs = sorted({x for curve in (above, below) for x, _ in curve.points})[1:-1]
    return [(x, _value_at(above, x) - _value_at(below, x)) for x in xs]


def union_reference(above, below, tol):
    """(verdict, violations, marginal, min_gap, max_gap) of the union-of-breakpoints
    comparison, the direct algorithm the cells replace."""
    gaps = union_gaps(above, below)
    dips = tuple((x, -d) for x, d in gaps if d < -tol)
    rises = any(d > tol for _, d in gaps)
    verdict = CROSSING if dips and rises else BELOW if dips else ABOVE if rises else EQUAL
    floats = [float(d) for _, d in gaps] or [0.0]
    return verdict, dips, verdict == ABOVE and min(floats) <= tol, min(floats), max(floats)


def _clear_of_tolerance(gaps):
    """Exact gaps that a float comparison cannot misread: each is 0 or far
    outside the comparison slack."""
    return all(d == 0 or abs(d) > 100 * CMP_TOL for _, d in gaps)


def _beta_order_sum(s):
    total = 0.0
    for i in beta_perm(s):
        total += float(s.ham.gibbs[i])
    return total


def test_walk_ends_when_float_partitions_sum_differently():
    # 96 levels: the two beta orders add the same Gibbs weights in different
    # orders, so the two partitions end apart in the last bits
    rng = random.Random(96)
    ended_apart = checked = 0
    for k in range(40):
        a = random_state(rng, 96)
        b = gibbs_mixture(a, 0.3) if k % 2 else random_state(rng, 96, a.ham)
        if k % 4 == 1:  # swap two levels' probabilities: a new order, still a float pair
            probs = list(b.probs)
            i, j = beta_perm(b)[:2]
            probs[i], probs[j] = probs[j], probs[i]
            b = BlockState(tuple(probs), a.ham)
        ended_apart += _beta_order_sum(a) != _beta_order_sum(b)
        clear = _clear_of_tolerance(union_gaps(thermal_lorenz(a.to_exact()), thermal_lorenz(b.to_exact())))
        for x, y in ((a, b), (b, a)):
            verdict = thermomajorizes(x, y).verdict  # every call returns, checked or not
            if clear:
                assert verdict == thermomajorizes(x.to_exact(), y.to_exact()).verdict
        checked += clear
    assert ended_apart >= 10 and checked >= 30
