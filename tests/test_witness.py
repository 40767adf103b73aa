import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoorder import (
    BlockState,
    Hamiltonian,
    StochasticWitness,
    catalytic_possible,
    correlating_catalytic_possible,
    find_witness,
    gibbs_state,
    identity_witness,
    random_gibbs_stochastic,
    renyi_divergence,
    thermal_lorenz,
    thermomajorizes,
)
from thermoorder import majorization
from thermoorder.entropies import nonnegative_alpha_grid
from thermoorder.modes import WITNESS_GIBBS_TOL, WITNESS_MAP_TOL
from thermoorder.witness import EXACT_DIMENSION_LIMIT, _witness_or_comparison

from conftest import (
    count_fraction_calls,
    fraction_cells,
    fraction_comparison,
    fraction_construct,
    gibbs_mixture,
    random_distribution,
    random_hamiltonian,
    random_rational_distribution,
    random_rational_gibbs_ham,
    random_state,
)
from test_majorization import BEYOND_FLOAT, beta_perm, union_reference


def test_identity_fast_path(rng):
    s = random_state(rng, 4)
    w = find_witness(s, s)
    assert w.matrix == identity_witness(4).matrix
    assert w.apply(s.probs) == s.probs


def test_constant_gibbs_fast_path(rng):
    ham = random_hamiltonian(rng, 3)
    s = random_state(rng, 3, ham)
    gamma = gibbs_state(ham)
    w = find_witness(s, gamma)
    for j in range(3):
        col = tuple(w.matrix[i][j] for i in range(3))
        assert col == gamma.probs
    assert w.apply(s.probs) == pytest.approx(gamma.probs, abs=1e-12)


def test_exact_witness_on_rational_pair():
    ham = Hamiltonian.trivial(3)
    p = BlockState((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), ham)
    q = BlockState((Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)), ham)
    w = find_witness(p, q)
    assert w is not None and w.exact
    assert w.apply(p.probs) == q.probs
    gamma = gibbs_state(ham).probs
    assert w.apply(gamma) == gamma


def test_witness_verdict_matches_curve_oracle(rng):
    agree = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        ham = random_rational_gibbs_ham(rng, n)
        p = BlockState(random_rational_distribution(rng, n), ham)
        q = BlockState(random_rational_distribution(rng, n), ham)
        feasible = find_witness(p, q) is not None
        above = thermomajorizes(p, q).dominates
        assert feasible == above
        agree += 1
    assert agree == 60


def test_witness_validates_on_float_inputs(rng):
    for _ in range(10):
        n = rng.randint(2, 5)
        a = random_state(rng, n)
        b = gibbs_mixture(a, rng.random())
        w = find_witness(a, b)
        assert w is not None
        gamma = gibbs_state(a.ham).probs
        r = w.residuals(a.probs, b.probs, gamma)
        assert r["map"] < 1e-8
        assert r["gibbs"] < 1e-12


def _assert_valid_float_witness(a, b):
    w = find_witness(a, b)
    assert w is not None
    gamma = gibbs_state(a.ham).probs
    r = w.residuals(a.probs, b.probs, gamma)
    assert r["map"] < 1e-8 and r["gibbs"] < 1e-9


def test_float_witness_above_exact_limit(rng):
    # 16 levels builds the matrix in floats; a dominating pair stays feasible
    a = random_state(rng, 16)
    _assert_valid_float_witness(a, gibbs_mixture(a, 0.7))


def test_float_witness_at_96_levels(rng):
    # no dimension cap: 96 levels get a validated witness like any other size
    a = random_state(rng, 96)
    _assert_valid_float_witness(a, gibbs_mixture(a, 0.7))


def test_float_witness_with_gibbs_weights_below_float_resolution(rng):
    # empty levels come last in beta order, and e^-50 is below the float
    # spacing of the partial sums there; the cells are cut in exact
    # arithmetic, so none has zero length, and the pair stays as a
    # regression guard for Gibbs weights below float resolution
    levels = [rng.uniform(0.0, 2.0) for _ in range(13)]
    levels[3] = levels[8] = 50.0
    probs = list(random_distribution(rng, 11))
    probs[3:3] = [0.0]
    probs[8:8] = [0.0]
    a = BlockState(tuple(probs), Hamiltonian(tuple(levels)))
    _assert_valid_float_witness(a, gibbs_mixture(a, 0.3))


def _assert_witness_iff_exact_dominance(a, b):
    """A float pair gets a validated witness exactly when its lossless
    rational copy is dominated; returns whether it got one."""
    feasible = thermomajorizes(a.to_exact(), b.to_exact()).dominates
    w = find_witness(a, b)
    assert (w is not None) == feasible
    if w is not None:
        gamma = gibbs_state(a.ham).probs
        r = w.residuals(a.probs, b.probs, gamma)
        assert r["map"] < 1e-8 and r["gibbs"] < 1e-9
    return feasible


def test_float_witness_when_only_the_top_levels_change(rng):
    # one Gibbs-preserving exchange between the two highest-density levels:
    # both states give the lowest-density level the same probability, but the
    # two beta orders add the other Gibbs weights in different orders, so the
    # float starts of that last interval can differ in the last bits
    feasible = 0
    for _ in range(20):
        a = random_state(rng, 16)
        i, j = beta_perm(a)[:2]
        g = a.ham.gibbs
        s = rng.random() * min(1.0, g[j] / g[i])
        t = s * g[i] / g[j]
        probs = list(a.probs)
        probs[i] = (1 - s) * a.probs[i] + t * a.probs[j]
        probs[j] = s * a.probs[i] + (1 - t) * a.probs[j]
        feasible += _assert_witness_iff_exact_dominance(a, BlockState(tuple(probs), a.ham))
    assert feasible >= 10


@st.composite
def float_pairs(draw):
    """Float pairs with 2..24 levels, on both sides of the exact limit, the
    target the image of the initial state under a random Gibbs-preserving
    map; with few exchanges it leaves some levels alone."""
    n = draw(st.integers(2, 24))
    ham = Hamiltonian(tuple(draw(st.lists(st.floats(0, 4), min_size=n, max_size=n))))
    weights = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n).filter(lambda w: sum(w) > 0.1))
    p = BlockState(tuple(w / sum(weights) for w in weights), ham)
    m = random_gibbs_stochastic(ham, seed=draw(st.integers(0, 2**16)), weight=draw(st.floats(0, 1)),
                                exchanges=draw(st.integers(1, 2 * n)))
    return p, BlockState(m.apply(p.probs), ham)


@settings(max_examples=60, deadline=None)
@given(float_pairs())
def test_float_witness_exists_iff_dominance(pair):
    _assert_witness_iff_exact_dominance(*pair)


def test_witness_arithmetic_follows_the_inputs(rng):
    # float inputs get a float witness below the exact limit too, and exact
    # inputs an exact one
    for n in range(2, EXACT_DIMENSION_LIMIT + 1):
        a = random_state(rng, n)
        w = find_witness(a, gibbs_mixture(a, 0.5))
        assert not w.exact and all(type(v) is float for row in w.matrix for v in row)
        ham = random_rational_gibbs_ham(rng, n)
        p = BlockState(random_rational_distribution(rng, n), ham)
        gamma = gibbs_state(ham).probs
        q = BlockState(tuple((p_i + g) / 2 for p_i, g in zip(p.probs, gamma)), ham)
        w = find_witness(p, q)
        assert w.exact and all(type(v) is Fraction for row in w.matrix for v in row)
        assert w.apply(p.probs) == q.probs
        # the identity and Gibbs-target shortcuts too, float data on an
        # exact Hamiltonian included
        f = BlockState(tuple(float(x) for x in p.probs), ham)
        for s, number in ((a, float), (f, float), (p, Fraction)):
            for target in (s, gibbs_state(s.ham)):
                w = find_witness(s, target)
                assert w.exact == (number is Fraction)
                assert all(type(v) is number for row in w.matrix for v in row)


def test_exact_witness_from_int_weights_and_int_probabilities():
    # int lengths over int Gibbs weights would divide to floats; the exact
    # construction must stay in Fractions
    ham = Hamiltonian.from_gibbs_factors((1, 3, 2))
    p = BlockState((1, 0, 0), ham)
    q = BlockState((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), ham)
    w = find_witness(p, q)
    assert w is not None and w.exact
    assert w.apply(p.probs) == q.probs
    gamma = gibbs_state(ham).probs
    assert w.apply(gamma) == gamma


def test_exact_witness_at_exact_limit(rng):
    n = 12
    ham = random_rational_gibbs_ham(rng, n)
    p = BlockState(random_rational_distribution(rng, n), ham)
    gamma = gibbs_state(ham).probs
    t = Fraction(2, 5)
    q = BlockState(tuple((1 - t) * a + t * g for a, g in zip(p.probs, gamma)), ham)
    w = find_witness(p, q)
    assert w is not None and w.exact
    assert w.apply(p.probs) == q.probs
    assert w.apply(gamma) == gamma


@st.composite
def exact_pairs(draw):
    """Rational pairs on a rational Hamiltonian with 2..8 levels. A third of
    the targets are mixtures of the initial state with its Gibbs state and a
    third touch its curve at an interior breakpoint, so both verdicts and
    exact tangency occur."""
    n = draw(st.integers(2, 8))
    ham = Hamiltonian.from_gibbs_factors(
        tuple(Fraction(w, 17) for w in draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))))

    def distribution():
        weights = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n).filter(any))
        return tuple(Fraction(w, sum(weights)) for w in weights)

    p = BlockState(distribution(), ham)
    kind = draw(st.sampled_from(("random", "gibbs-mixture", "touching")))
    if kind == "random":
        return p, BlockState(distribution(), ham)
    t = Fraction(draw(st.integers(0, 8)), 8)
    gamma = gibbs_state(ham).probs
    if kind == "gibbs-mixture":
        return p, BlockState(tuple((1 - t) * a + t * g for a, g in zip(p.probs, gamma)), ham)
    # mix toward the Gibbs shape separately within p's first k beta-ordered
    # levels and within the rest: the first block keeps its mass and still
    # comes first, so the target's curve meets p's at p's k-th breakpoint
    head = set(beta_perm(p)[:draw(st.integers(1, n - 1))])
    blocks = [[i for i in range(n) if (i in head) == side] for side in (True, False)]
    probs = [None] * n
    for block in blocks:
        scale = sum(p.probs[i] for i in block) / sum(gamma[i] for i in block)
        for i in block:
            probs[i] = (1 - t) * p.probs[i] + t * scale * gamma[i]
    return p, BlockState(tuple(probs), ham)


@settings(max_examples=150, deadline=None)
@given(exact_pairs())
def test_witness_exists_iff_dominance_and_checks_out_exactly(pair):
    p, q = pair
    w = find_witness(p, q)
    assert (w is not None) == thermomajorizes(p, q).dominates
    if w is not None:
        gamma = gibbs_state(p.ham).probs
        assert w.exact
        assert w.apply(p.probs) == q.probs
        assert w.apply(gamma) == gamma


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exact_pairs(), st.fractions(Fraction(1, 64), 64, max_denominator=64))
def test_exact_verdicts_are_gauge_invariant(pair, c):
    # multiplying every Gibbs weight by c shifts every level by -ln c: the
    # cell masses stay and the cell lengths, so the breakpoints, scale by c
    p, q = pair
    ham = Hamiltonian.from_gibbs_factors(tuple(c * g for g in p.ham.gibbs))
    cp, cq = BlockState(p.probs, ham), BlockState(q.probs, ham)
    want, got = thermomajorizes(p, q), thermomajorizes(cp, cq)
    assert (got.verdict, got.marginal, got.min_gap, got.max_gap) == \
        (want.verdict, want.marginal, want.min_gap, want.max_gap)
    assert got.violations == tuple((c * x, gap) for x, gap in want.violations)
    assert (find_witness(cp, cq) is None) == (find_witness(p, q) is None)


@st.composite
def dyadic_pairs(draw):
    """Float pairs on 2..6 levels k/8 kT apart, spread at most 40 kT; half
    the targets are mixtures of the initial state with its Gibbs state."""
    n = draw(st.integers(2, 6))
    levels = tuple(k / 8 for k in draw(st.lists(st.integers(0, 320), min_size=n, max_size=n)))
    ham = Hamiltonian(levels)

    def distribution():
        weights = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n).filter(any))
        return tuple(w / sum(weights) for w in weights)

    p = distribution()
    if draw(st.booleans()):
        return p, distribution(), levels
    t = draw(st.integers(1, 8)) / 8
    return p, tuple((1 - t) * a + t * g for a, g in zip(p, ham.gibbs_probs)), levels


@settings(max_examples=150, deadline=None)
@given(dyadic_pairs(), st.integers(-800, 800))
def test_float_verdicts_are_gauge_invariant(pair, shift):
    # every level + shift is exact on this grid, and so is every difference
    # to the ground level: the weights, and so every verdict, stay to the bit
    p, q, levels = pair
    ham, moved = Hamiltonian(levels), Hamiltonian(tuple(e + shift for e in levels))
    assert moved.gibbs == ham.gibbs and max(ham.gibbs) == 1
    a, b = BlockState(p, ham), BlockState(q, ham)
    ma, mb = BlockState(p, moved), BlockState(q, moved)
    assert _fields(thermomajorizes(ma, mb)) == _fields(thermomajorizes(a, b))
    assert catalytic_possible(ma, mb) == catalytic_possible(a, b)
    assert correlating_catalytic_possible(ma, mb) == correlating_catalytic_possible(a, b)
    w, mw = find_witness(a, b), find_witness(ma, mb)
    assert (mw and mw.matrix) == (w and w.matrix)


@pytest.mark.parametrize("shift", [800.0, -800.0])
def test_the_benchmark_gauge_pair_keeps_its_verdict_at_800_kT(shift):
    # the benchmark's fault instance: at +800 kT the absolute weights
    # underflow to 0.0, at -800 kT they overflow
    levels = (0.0, 0.4, 1.1, 2.0)
    p, q = (0.4, 0.3, 0.2, 0.1), (0.3, 0.28, 0.24, 0.18)
    ham, moved = Hamiltonian(levels), Hamiltonian(tuple(e + shift for e in levels))
    a, b = BlockState(p, ham), BlockState(q, ham)
    ma, mb = BlockState(p, moved), BlockState(q, moved)
    assert thermomajorizes(ma, mb).verdict == thermomajorizes(a, b).verdict
    assert correlating_catalytic_possible(ma, mb).possible == correlating_catalytic_possible(a, b).possible
    assert (find_witness(ma, mb) is None) == (find_witness(a, b) is None)


def _fields(c):
    return c.verdict, c.violations, c.marginal, c.min_gap, c.max_gap


@settings(max_examples=200, deadline=None)
@given(exact_pairs())
def test_cells_decide_like_the_union_of_breakpoints(pair):
    p, q = pair
    want = union_reference(thermal_lorenz(p), thermal_lorenz(q), 0)
    assert _fields(thermomajorizes(p, q)) == want
    # float copies are decided as the rationals they hold
    fp, fq = p.to_float(), q.to_float()
    want = union_reference(thermal_lorenz(fp.to_exact()), thermal_lorenz(fq.to_exact()), 0)
    assert _fields(thermomajorizes(fp, fq)) == want


@pytest.mark.parametrize("empty_levels", [0, 12])
def test_float_near_tie_is_decided_exactly(empty_levels):
    # 1e-14 of mass moved between the two lowest levels puts the initial
    # curve just below the final one, inside any float comparison slack;
    # empty levels only extend both curves by one flat piece, so the verdicts
    # stay; the 16-level pair lies above the exact limit, which must not
    # matter, since float inputs are built in floats at every size
    levels = (0.0, 0.4, 1.1, 2.0) + tuple(2.5 + k / 4 for k in range(empty_levels))
    assert (len(levels) > EXACT_DIMENSION_LIMIT) == bool(empty_levels)
    ham = Hamiltonian(levels)
    pad = (0.0,) * empty_levels
    initial = BlockState((0.4 + 1e-14, 0.3 - 1e-14, 0.2, 0.1) + pad, ham)
    final = BlockState((0.4, 0.3, 0.2, 0.1) + pad, ham)
    assert find_witness(initial, final) is None
    _assert_valid_float_witness(final, initial)


def _witness_on_rational_copies(p, q):
    """(matrix, None) or (None, comparison) on the Fraction cells of the
    inputs' to_exact copies: the Fraction construction, or the comparison
    that rules a witness out."""
    cells = fraction_cells(p, q)
    comparison = fraction_comparison(cells)
    if not comparison.dominates:
        return None, comparison
    return fraction_construct(cells, [Fraction(g) for g in p.ham.gibbs], len(p)), None


@st.composite
def arithmetic_pairs(draw, exact_rows):
    """Pairs whose witness takes integer rows (exact pairs of 2 up to
    EXACT_DIMENSION_LIMIT levels) or, without exact_rows, float rows: float
    pairs, Fraction probabilities on a float Hamiltonian and a float target
    next to an exact initial state, of 2..24 levels, and exact pairs above
    the limit. Gibbs weights come from a small set, so levels tie, and exact
    ones may be scaled beyond the float range; both states may hold zeros.
    Half the targets mix the initial state with the Gibbs state, so both
    verdicts occur."""
    kind = "exact" if exact_rows else draw(st.sampled_from(("float", "exact", "mixed", "half")))
    limit = EXACT_DIMENSION_LIMIT
    n = draw(st.integers(2, limit) if exact_rows else st.integers(limit + 1, 24) if kind == "exact"
             else st.integers(2, 24))
    factors = [Fraction(draw(st.sampled_from((1, 2, 3, 4, 6))), draw(st.sampled_from((1, 2, 3, 5))))
               for _ in range(n)]
    if kind in ("exact", "half"):
        scale = draw(st.sampled_from((1, BEYOND_FLOAT)))
        ham = Hamiltonian.from_gibbs_factors([scale * f for f in factors])
    else:
        ham = Hamiltonian(tuple(-math.log(f) for f in factors))

    def distribution():
        counts = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any))
        if kind == "float":
            return tuple(c / sum(counts) for c in counts)
        return tuple(Fraction(c, sum(counts)) for c in counts)

    p = distribution()
    if draw(st.booleans()):
        q = distribution()
    else:
        t = Fraction(draw(st.integers(1, 7)), 8)
        weights = [Fraction(g) for g in ham.gibbs]
        q = tuple((1 - t) * a + t * g / sum(weights) for a, g in zip(p, weights))
        if kind == "float":
            q = tuple(map(float, q))
    if kind == "half":
        q = tuple(map(float, q))
    return BlockState(p, ham), BlockState(q, ham)


@settings(max_examples=120, deadline=None)
@given(arithmetic_pairs(exact_rows=True))
def test_witness_on_integer_cells_matches_the_rational_copies(pair):
    p, q = pair
    assume(p.probs != q.probs and q.probs != gibbs_state(p.ham).probs)
    witness, comparison = _witness_or_comparison(p, q)
    got = (None if witness is None else witness.matrix, comparison)
    # repr tells 1 from 1.0 and Fraction(1, 1), so this compares types too
    assert repr(got) == repr(_witness_on_rational_copies(p, q))


@settings(max_examples=120, deadline=None)
@given(arithmetic_pairs(exact_rows=False))
def test_float_row_witness_agrees_with_the_rational_copies(pair):
    # float rows round each share and each transform once, so they agree
    # with the Fraction construction only up to the rounding they gather
    p, q = pair
    assume(p.probs != q.probs and q.probs != gibbs_state(p.ham).probs)
    witness, comparison = _witness_or_comparison(p, q)
    want, want_comparison = _witness_on_rational_copies(p, q)
    assert repr(comparison) == repr(want_comparison) and (witness is None) == (want is None)
    if witness is not None:
        assert all(type(v) is float for row in witness.matrix for v in row)
        assert max(abs(v - float(w)) for row, want_row in zip(witness.matrix, want)
                   for v, w in zip(row, want_row)) <= 1e-12
        r = witness.residuals(p.probs, q.probs, gibbs_state(p.ham).probs)
        assert r["map"] <= WITNESS_MAP_TOL and r["gibbs"] <= WITNESS_GIBBS_TOL


@pytest.mark.parametrize("exact", [False, True])
def test_a_feasible_witness_reads_its_inputs_once(monkeypatch, rng, exact):
    # one integer reading and one beta order per state decide the pair and
    # cut the cells
    ham = random_rational_gibbs_ham(rng, 6) if exact else random_hamiltonian(rng, 6)
    p = BlockState(random_rational_distribution(rng, 6) if exact else random_distribution(rng, 6), ham)
    q = BlockState(tuple((a + g) / 2 for a, g in zip(p.probs, gibbs_state(ham).probs)), ham)
    calls = []
    for name in ("integer_data", "beta_order"):
        def counting(*args, _function=getattr(majorization, name), _name=name):
            calls.append(_name)
            return _function(*args)

        monkeypatch.setattr(majorization, name, counting)
    witness = find_witness(p, q)
    assert witness is not None and witness.exact == exact
    assert sorted(calls) == ["beta_order", "beta_order", "integer_data"]


def test_float_witness_does_no_fraction_arithmetic(monkeypatch, rng):
    a = random_state(rng, 16)
    b = gibbs_mixture(a, 0.3)
    calls = count_fraction_calls(monkeypatch)
    assert find_witness(a, b) is not None
    assert calls == []


def test_witness_requires_common_hamiltonian():
    a = BlockState((0.5, 0.5), Hamiltonian((0.0, 1.0)))
    b = BlockState((0.5, 0.5), Hamiltonian((0.0, 2.0)))
    with pytest.raises(ValueError):
        find_witness(a, b)


def test_apply_dimension_mismatch():
    w = identity_witness(3)
    with pytest.raises(ValueError):
        w.apply((0.5, 0.5))


def test_witness_json_round_trip_exact():
    w = StochasticWitness(((Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4))))
    again = StochasticWitness.from_json_obj(w.to_json_obj())
    assert again.matrix == w.matrix


def test_witness_rejects_bad_columns():
    with pytest.raises(ValueError):
        StochasticWitness(((0.5, 0.5), (0.4, 0.5)))
    with pytest.raises(ValueError):
        StochasticWitness(((1.2, 0.0), (-0.2, 1.0)))


def test_random_gibbs_stochastic_weight_zero_is_identity(rng):
    ham = random_hamiltonian(rng, 4)
    w = random_gibbs_stochastic(ham, seed=7, weight=0.0)
    expected = identity_witness(4)
    for i in range(4):
        for j in range(4):
            assert float(w.matrix[i][j]) == float(expected.matrix[i][j])


def test_random_gibbs_stochastic_preserves_gibbs(rng):
    for seed in range(10):
        ham = random_hamiltonian(rng, rng.randint(2, 6))
        w = random_gibbs_stochastic(ham, seed=seed)
        gamma = gibbs_state(ham).probs
        out = w.apply(gamma)
        assert max(abs(a - b) for a, b in zip(out, gamma)) < 1e-12


def test_random_gibbs_stochastic_seeded_reproducible():
    ham = Hamiltonian((0.0, 0.5, 1.5))
    w1 = random_gibbs_stochastic(ham, seed=123)
    w2 = random_gibbs_stochastic(ham, seed=123)
    w3 = random_gibbs_stochastic(ham, seed=124)
    assert w1.matrix == w2.matrix
    assert w1.matrix != w3.matrix


def test_applying_witness_never_raises_divergence(rng):
    # data processing: the divergence to Gibbs cannot grow under these maps
    for seed in range(15):
        n = rng.randint(2, 5)
        ham = random_hamiltonian(rng, n)
        w = random_gibbs_stochastic(ham, seed=seed)
        p = random_distribution(rng, n)
        gamma = gibbs_state(ham).probs
        mp_ = w.apply(p)
        for a in nonnegative_alpha_grid():
            before = renyi_divergence(p, gamma, a)
            after = renyi_divergence(mp_, gamma, a)
            assert after <= before + 1e-9
