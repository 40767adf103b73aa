import io
import math
import random
from fractions import Fraction
from itertools import accumulate

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
from thermoorder.majorization import LorenzCurve, beta_order, integer_data
from thermoorder.modes import NORM_TOL

from conftest import (fraction_segments, gibbs_mixture, oracle_comparison, random_distribution,
                      random_hamiltonian, random_state)


# -- beta ordering -----------------------------------------------------------

def beta_perm(s):
    """A state's levels in beta order."""
    lengths, (nums,), _, _ = integer_data(s.ham.gibbs, (s.probs,))
    return beta_order(nums, lengths)


def test_beta_order_trivial_is_descending_sort(rng):
    p = random_distribution(rng, 5)
    assert [p[i] for i in beta_perm(BlockState(p, Hamiltonian.trivial(5)))] == sorted(p, reverse=True)


def test_beta_order_rescale_flips_reference_state():
    s = BlockState((0.73, 0.27), Hamiltonian((0.0, 1.0)))
    # 0.27 * e > 0.73, so the excited level leads
    assert beta_perm(s) == [1, 0]


def test_beta_order_gibbs_breaks_ties_by_probability_then_index():
    # every level of a Gibbs state has the density 1/Z: the larger
    # probability leads, then the smaller index
    s = gibbs_state(Hamiltonian.from_gibbs_factors((Fraction(1, 2), Fraction(1, 2), 1)))
    assert beta_perm(s) == [2, 0, 1]
    # a float Gibbs state's densities tie only up to rounding: its order is
    # the exact order of the rationals it holds
    s = gibbs_state(Hamiltonian((0.0, 1.0, 1.0)))
    assert beta_perm(s) == [i for *_, i in fraction_segments(s.to_exact())]


def test_beta_order_resolves_equal_float_keys_exactly():
    # 2**60 + 1 and 2**60 round to one float: the keys tie, the densities do not
    assert beta_order([2 ** 60, 2 ** 60 + 1, 0, 0], [1, 1, 3, 1]) == [1, 0, 2, 3]
    assert beta_order([2 ** 60, 2 ** 60 * 3 + 2, 2 ** 60 + 1], [1, 3, 1]) == [2, 1, 0]
    # densities beyond the float range are ordered exactly too
    assert beta_order([2 ** 1100, 2 ** 1100 + 1, 1], [1, 1, 1]) == [1, 0, 2]


def test_beta_order_keeps_integer_weights_exact():
    ham = Hamiltonian.from_gibbs_factors((1, 3))
    assert beta_perm(BlockState((0, 1), ham)) == [1, 0]
    # both densities are exactly 1/4: the larger probability leads
    assert beta_perm(BlockState((Fraction(1, 4), Fraction(3, 4)), ham)) == [1, 0]


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


@st.composite
def curve_states(draw):
    """Float states of 1..24 levels, zeros allowed, whose probabilities sum
    to 1 only up to a relative error of NORM_TOL, on random float levels or
    on Gibbs weights from a small set, so densities tie."""
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        ham = Hamiltonian(tuple(draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))))
    else:
        ham = Hamiltonian(tuple(-math.log(draw(st.sampled_from((1, 2, 3, 4, 6)))) for _ in range(n)))
    weights = draw(st.lists(st.sampled_from((0.0, 1.0, 2.0, 3.0)) | st.floats(0, 1),
                            min_size=n, max_size=n).filter(any))
    off = 1 + draw(st.floats(-NORM_TOL, NORM_TOL)) * 0.99
    return BlockState(tuple(w / sum(weights) * off for w in weights), ham)


def _fraction_curve(s):
    """The curve of an exact state as Fraction prefix sums of its levels'
    weights and probabilities, in the Fraction beta order."""
    order = [i for *_, i in fraction_segments(s)]
    xs = accumulate((s.ham.gibbs[i] for i in order), initial=Fraction(0))
    ys = accumulate((s.probs[i] for i in order), initial=Fraction(0))
    return LorenzCurve(tuple(zip(xs, ys)))


@settings(max_examples=150, deadline=None)
@given(curve_states())
def test_float_curve_points_are_the_rounded_exact_points(s):
    # the float curve is its exact copy's, every point rounded once: the
    # probabilities renormalised exactly, so it ends at (Z, 1.0) to the bit
    exact = thermal_lorenz(s.to_exact())
    assert repr(exact) == repr(_fraction_curve(s.to_exact()))
    got = thermal_lorenz(s)
    assert repr(got) == repr(LorenzCurve(tuple((float(x), float(y)) for x, y in exact.points)))
    assert got.points[-1] == (s.ham.partition_function, 1.0)


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
    # float copies are decided as the rationals they hold, each vector
    # renormalised exactly
    fp, fq = ([float(v) for v in vector] for vector in (p, q))
    want = _partial_sum_reference(*([Fraction(v) / sum(map(Fraction, vector)) for v in vector]
                                    for vector in (fp, fq)))
    result = majorizes(fp, fq)
    assert (result.verdict, result.marginal, result.violations) == want


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
        # exact products keep the dominance exactly
        exact = [s.to_exact() for s in (a, b, extra)]
        assert thermomajorizes(tensor(exact[0], exact[2]), tensor(exact[1], exact[2])).dominates
        # float products round, so the composites may dip, but only by a rounding error
        composite = thermomajorizes(tensor(a, extra), tensor(b, extra))
        assert all(gap < 1e-15 for _, gap in composite.violations)


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
        fa, fb = a.to_float(), b.to_float()
        assert thermomajorizes(fa, fb) == thermomajorizes(fa.to_exact(), fb.to_exact())


# Gibbs weights times this constant stay near 1 as floats, but their
# numerators and denominators lie beyond the float range
BEYOND_FLOAT = Fraction(3 ** 700, 2 ** 1109)


@st.composite
def tied_rational_pairs(draw):
    """Exact pairs of 2..32 levels with Gibbs weights from a small set, so
    levels tie; a's rescaled values p_i/g_i come from {0, .., 3}, so they
    repeat, and both states may hold zeros. Returned as (Gibbs weights, a's
    probabilities, b's), which no scaling of the weights changes."""
    n = draw(st.integers(2, 32))
    gibbs = [Fraction(draw(st.sampled_from((1, 2, 3, 4, 6))), draw(st.sampled_from((1, 2, 3, 5))))
             for _ in range(n)]
    rescaled = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    weights = [r * g for r, g in zip(rescaled, gibbs)]
    counts = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any))
    return (gibbs, tuple(w / sum(weights) for w in weights),
            tuple(Fraction(c, sum(counts)) for c in counts))


@settings(max_examples=80, deadline=None)
@given(tied_rational_pairs())
def test_exact_decision_matches_the_fraction_cells(pair):
    gibbs, p, q = pair
    for scale in (1, BEYOND_FLOAT):
        ham = Hamiltonian.from_gibbs_factors([g * scale for g in gibbs])
        a, b = BlockState(p, ham), BlockState(q, ham)
        for x, y in ((a, b), (b, a)):
            result = thermomajorizes(x, y)
            assert result == oracle_comparison(x, y)
            assert all(type(v) is Fraction for dip in result.violations for v in dip)
            assert type(result.min_gap) is type(result.max_gap) is float


@st.composite
def walk_pairs(draw):
    """Pairs of 2..48 levels in every arithmetic: float, exact, and an exact
    state against a float one. Gibbs weights come from a small set, so
    levels tie, and exact ones may be scaled beyond the float range; both
    states may hold zeros. Targets are random, or the initial state mixed
    with its Gibbs state at weights down to tangency (0 and 1e-15); either
    state may come first."""
    n = draw(st.integers(2, 48))
    kind = draw(st.sampled_from(("float", "exact", "mixed")))
    factors = [Fraction(draw(st.sampled_from((1, 2, 3, 4, 6))), draw(st.sampled_from((1, 2, 3, 5))))
               for _ in range(n)]
    if kind != "float" and draw(st.booleans()):
        ham = Hamiltonian.from_gibbs_factors([draw(st.sampled_from((1, BEYOND_FLOAT))) * f for f in factors])
    elif draw(st.booleans()):
        ham = Hamiltonian(tuple(-math.log(f) for f in factors))
    else:
        ham = Hamiltonian(tuple(draw(st.lists(st.floats(0, 5), min_size=n, max_size=n))))

    def distribution():
        counts = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any))
        if kind == "float":
            return tuple(c / sum(counts) for c in counts)
        return tuple(Fraction(c, sum(counts)) for c in counts)

    p = distribution()
    if draw(st.booleans()):
        q = distribution()
    else:
        t = draw(st.sampled_from((0, Fraction(1, 10 ** 15), Fraction(3, 10), 1)))
        weights = [Fraction(g) for g in ham.gibbs]
        q = tuple((1 - t) * Fraction(v) + t * g / sum(weights) for v, g in zip(p, weights))
    if kind != "exact":
        q = tuple(map(float, q))
    pair = [BlockState(p, ham), BlockState(q, ham)]
    return pair[::-1] if draw(st.booleans()) else pair


@settings(max_examples=150, deadline=None)
@given(walk_pairs())
def test_the_walk_decides_like_the_fraction_cells(pair):
    got, want = thermomajorizes(*pair), oracle_comparison(*pair)
    # repr tells Fraction from int and float, so this compares types too
    assert got == want and repr(got) == repr(want)
    assert got.violations == tuple(got.violations) and len(got.violations) == len(want.violations)


@pytest.mark.parametrize("levels, p, q", [
    # a probability of 1e-300 or 5e-324 needs a scale of 2**1050 or more
    ((0.0, 1.0, 2.0), (0.5, 0.5, 1e-300), (0.5, 0.3, 0.2)),
    ((0.0, 1.0, 2.0), (0.6, 0.4, 5e-324), (0.6, 0.2, 0.2)),
    # a Gibbs weight of e^-700 does too; one of e^-400 next to e^300 scales past the float range
    ((0.0, 350.0, 700.0), (0.5, 0.3, 0.2), (0.4, 0.4, 0.2)),
    ((-300.0, 0.0, 400.0), (0.5, 0.3, 0.2), (0.2, 0.4, 0.4)),
])
def test_the_walk_reads_floats_that_scale_past_the_float_range(levels, p, q):
    ham = Hamiltonian(levels)
    a, b = BlockState(p, ham), BlockState(q, ham)
    for x, y in ((a, b), (b, a)):
        assert thermomajorizes(x, y) == oracle_comparison(x, y)


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


def _beta_order_sum(s):
    total = 0.0
    for i in beta_perm(s):
        total += float(s.ham.gibbs[i])
    return total


def test_walk_ends_when_float_partitions_sum_differently():
    # 96 levels: the two beta orders add the same Gibbs weights in different
    # orders, so the two partitions end apart in the last bits
    rng = random.Random(96)
    ended_apart = 0
    for k in range(40):
        a = random_state(rng, 96)
        b = gibbs_mixture(a, 0.3) if k % 2 else random_state(rng, 96, a.ham)
        if k % 4 == 1:  # swap two levels' probabilities: a new order, still a float pair
            probs = list(b.probs)
            i, j = beta_perm(b)[:2]
            probs[i], probs[j] = probs[j], probs[i]
            b = BlockState(tuple(probs), a.ham)
        ended_apart += _beta_order_sum(a) != _beta_order_sum(b)
        for x, y in ((a, b), (b, a)):
            assert thermomajorizes(x, y) == thermomajorizes(x.to_exact(), y.to_exact())
    assert ended_apart >= 10
