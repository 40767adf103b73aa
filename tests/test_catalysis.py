import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoorder import (
    ABOVE,
    ALPHA_1,
    CROSSING,
    Alpha,
    BlockState,
    Hamiltonian,
    SearchConfig,
    catalytic_possible,
    correlating_catalytic_possible,
    ctrump_possible,
    free_energy_gap,
    gibbs_state,
    marginal,
    product_joint,
    qubit_pair_catalyst,
    search_correlating_catalyst,
    shrinking_epsilon_demo,
    smooth_toward_gibbs,
    thermomajorizes,
    total_correlation,
    verify_correlating_transition,
    work_quantities,
)
from thermoorder.demo import (
    CATALYST_Q,
    CATALYST_S,
    CATALYST_X10,
    SMOOTHING_GRID,
    work_extraction_pair,
)
from thermoorder.modes import CMP_TOL

from conftest import gibbs_mixture, random_distribution, random_state

mp.mp.dps = 40


@pytest.fixture(scope="module")
def demo_pair():
    return work_extraction_pair()


@pytest.fixture(scope="module")
def demo_joint():
    return qubit_pair_catalyst(CATALYST_S, CATALYST_Q, CATALYST_X10)


# -- possibility checks --------------------------------------------------------

def test_demo_transition_fails_catalytic_check(demo_pair):
    initial, final = demo_pair
    verdict = catalytic_possible(initial, final)
    assert not verdict.possible
    assert Alpha(4.0) in verdict.diagnostics


def test_catalytic_check_builds_the_gibbs_state_once(demo_pair, monkeypatch):
    import thermoorder.catalysis
    import thermoorder.entropies
    import thermoorder.states

    calls, validations = [], []

    def counting(ham):
        calls.append(ham)
        return gibbs_state(ham)

    def counting_validation(probs, _validate=thermoorder.states.validate_distribution):
        validations.append(probs)
        return _validate(probs)

    for module in (thermoorder.entropies, thermoorder.catalysis):
        monkeypatch.setattr(module, "gibbs_state", counting)
    for module in (thermoorder.states, thermoorder.entropies, thermoorder.catalysis):
        monkeypatch.setattr(module, "validate_distribution", counting_validation)
    initial, final = demo_pair
    assert not catalytic_possible(initial, final).possible
    assert len(calls) == 1
    # the Gibbs state's construction; the 64 orders re-validate nothing
    assert len(validations) <= 1

    joint = product_joint([(Fraction(1, 3), Fraction(2, 3))] * 3)
    validations.clear()
    total_correlation(joint)
    assert len(validations) == 3  # one per marginal state built


def test_catalytic_check_rejects_an_empty_order_list(demo_pair):
    initial, final = demo_pair
    with pytest.raises(ValueError, match="at least one order"):
        catalytic_possible(initial, final, ())


def test_catalytic_check_reflexive(demo_pair):
    initial, _ = demo_pair
    assert catalytic_possible(initial, initial).possible


def test_anything_reaches_its_gibbs_state(rng):
    for _ in range(10):
        s = random_state(rng, rng.randint(2, 4))
        assert catalytic_possible(s, gibbs_state(s.ham)).possible


def test_demo_transition_passes_correlating_check(demo_pair):
    initial, final = demo_pair
    assert correlating_catalytic_possible(initial, final).possible


def test_correlating_check_blocks_reverse_direction(demo_pair):
    initial, final = demo_pair
    assert not correlating_catalytic_possible(final, initial).possible


def test_gibbs_cannot_leave_equilibrium(rng):
    s = random_state(rng, 3)
    gamma = gibbs_state(s.ham)
    if free_energy_gap(s, ALPHA_1) > 1e-9:
        assert not correlating_catalytic_possible(gamma, s).possible


# -- c-trumping ----------------------------------------------------------------

def test_ctrump_permutation_always_possible():
    assert ctrump_possible((0.2, 0.5, 0.3), (0.3, 0.2, 0.5)).possible


def test_ctrump_entropy_must_grow():
    assert not ctrump_possible((0.5, 0.5), (1.0, 0.0)).possible
    verdict = ctrump_possible((0.7, 0.3), (0.6, 0.4))
    assert verdict.possible


def test_ctrump_rank_cannot_shrink():
    assert not ctrump_possible((0.5, 0.3, 0.2), (0.5, 0.5, 0.0)).possible


def test_ctrump_reflexive_and_transitive(rng):
    for _ in range(25):
        n = rng.randint(2, 5)
        p = random_distribution(rng, n)
        assert ctrump_possible(p, p).possible
        q = tuple(gibbs_mixture(BlockState(p, Hamiltonian.trivial(n)), rng.random()).probs)
        r = tuple(gibbs_mixture(BlockState(q, Hamiltonian.trivial(n)), rng.random()).probs)
        pq, qr, pr = ctrump_possible(p, q), ctrump_possible(q, r), ctrump_possible(p, r)
        if pq.possible and qr.possible:
            assert pr.possible


# -- catalyst construction -------------------------------------------------------

def test_qubit_pair_catalyst_reference_values(demo_joint):
    assert demo_joint.probs == (
        Fraction(33, 50), Fraction(29, 100), Fraction(1, 25), Fraction(1, 100)
    )
    assert tuple(float(x) for x in demo_joint.probs) == (0.66, 0.29, 0.04, 0.01)


def test_qubit_pair_catalyst_marginals_exact(demo_joint):
    assert marginal(demo_joint, 0).probs == (CATALYST_S, 1 - CATALYST_S)
    assert marginal(demo_joint, 1).probs == (CATALYST_Q, 1 - CATALYST_Q)


def test_qubit_pair_catalyst_product_point_uncorrelated():
    s, q = 0.95, 0.70
    joint = qubit_pair_catalyst(s, q, q * (1 - s))
    assert total_correlation(joint) == pytest.approx(0.0, abs=1e-12)


def test_qubit_pair_catalyst_infeasible_parameter_reports_interval():
    with pytest.raises(ValueError) as err:
        qubit_pair_catalyst(0.95, 0.70, 0.3)
    assert "feasible interval" in str(err.value)


def test_qubit_pair_catalyst_domain():
    with pytest.raises(ValueError):
        qubit_pair_catalyst(1.0, 0.5, 0.1)


# -- transition verification -----------------------------------------------------

def test_reference_instance_certified(demo_pair, demo_joint):
    initial, final = demo_pair
    assert verify_correlating_transition(initial, final, demo_joint).verdict == ABOVE


def test_reference_instance_fails_without_correlations(demo_pair, demo_joint):
    initial, final = demo_pair
    c1, c2 = marginal(demo_joint, 0), marginal(demo_joint, 1)
    product = product_joint([c1.probs, c2.probs])
    assert verify_correlating_transition(initial, final, product).verdict == CROSSING


def test_identity_transition_with_product_catalyst(demo_pair):
    initial, _ = demo_pair
    product = product_joint([(0.5, 0.5), (0.5, 0.5)])
    result = verify_correlating_transition(initial, initial, product)
    assert result.dominates


def test_verify_necessity_of_free_energy_drop(demo_pair, demo_joint):
    initial, final = demo_pair
    assert verify_correlating_transition(initial, final, demo_joint).verdict == ABOVE
    assert free_energy_gap(initial, ALPHA_1) >= free_energy_gap(final, ALPHA_1) - 1e-10


# -- search ----------------------------------------------------------------------

def test_search_finds_certificate_for_demo_pair(demo_pair):
    initial, final = demo_pair
    result = search_correlating_catalyst(initial, final)
    assert result is not None
    assert result.comparison.dominates
    assert 0 < result.total_correlation <= (
        free_energy_gap(initial, ALPHA_1) - free_energy_gap(final, ALPHA_1) + 1e-10
    )


def test_search_shortcuts_when_already_dominating(rng):
    a = random_state(rng, 3)
    b = gibbs_mixture(a, 0.6)
    result = search_correlating_catalyst(a, b)
    assert result is not None
    assert result.total_correlation == 0.0
    assert result.cells_evaluated == 0


def test_search_rejects_impossible_direction(demo_pair):
    initial, final = demo_pair
    with pytest.raises(ValueError):
        search_correlating_catalyst(final, initial)


def test_search_respects_budget(demo_pair):
    initial, final = demo_pair
    config = SearchConfig(budget_cells=3)
    assert search_correlating_catalyst(initial, final, config) is None


def test_search_config_json_round_trip():
    config = SearchConfig(dims=((2, 2),), marginal_grid=9, polytope_grid=11, budget_cells=50)
    again = SearchConfig.from_json_obj(config.to_json_obj())
    assert again == config



@pytest.mark.parametrize("bad", [
    {"marginal_grid": 0}, {"polytope_grid": 1}, {"budget_cells": 0}, {"dims": ((2, 3),)},
    {"dims": ()}, {"polytope_grid": 5.0}, {"marginal_grid": 2.5}, {"dims": ((2.0, 2),)},
    {"budget_cells": True},
])
def test_search_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        SearchConfig(**bad)

# -- work quantities --------------------------------------------------------------

def test_work_quantities_vanish_at_equilibrium(rng):
    from conftest import random_hamiltonian

    ham = random_hamiltonian(rng, 4)
    wq = work_quantities(gibbs_state(ham))
    assert wq.f0 == pytest.approx(0.0, abs=1e-12)
    assert wq.f1 == pytest.approx(0.0, abs=1e-12)
    assert wq.finf == pytest.approx(0.0, abs=1e-12)


def test_full_rank_state_has_no_deterministic_yield(rng):
    for _ in range(20):
        s = random_state(rng, rng.randint(2, 5))
        wq = work_quantities(s)
        assert wq.f0 == pytest.approx(0.0, abs=1e-12)
        assert wq.f0 <= wq.f1 + 1e-12 <= wq.finf + 2e-12


def test_work_quantities_of_demo_state():
    s = BlockState((0.73, 0.27), Hamiltonian((0.0, 1.0)))
    wq = work_quantities(s)
    # frozen from a 40-digit evaluation of sum p ln(p/gamma)
    assert wq.f1 == pytest.approx(2.8473896258402804e-06, abs=1e-15)
    z = 1 + mp.e ** -1
    oracle = float(
        mp.mpf("0.73") * mp.log(mp.mpf("0.73") * z)
        + mp.mpf("0.27") * mp.log(mp.mpf("0.27") * z * mp.e)
    )
    assert wq.f1 == pytest.approx(oracle, abs=1e-15)
    assert wq.f0 == pytest.approx(0.0, abs=1e-15)
    assert wq.finf == pytest.approx(0.003928367534460540, abs=1e-14)


# -- shrinking correlations --------------------------------------------------------

def test_smooth_toward_gibbs_limits(demo_pair):
    _, final = demo_pair
    assert smooth_toward_gibbs(final, 0) is final
    gamma = gibbs_state(final.ham)
    full = smooth_toward_gibbs(final, 1)
    assert full.probs == pytest.approx(gamma.probs, abs=1e-15)


def test_shrinking_epsilon_demo_reference_run(demo_pair):
    initial, final = demo_pair
    records = shrinking_epsilon_demo(initial, final, SMOOTHING_GRID)
    assert [r.epsilon for r in records] == list(SMOOTHING_GRID)
    assert all(r.found for r in records)
    infos = [r.total_correlation for r in records]
    for earlier, later in zip(infos, infos[1:]):
        assert later <= earlier + 1e-12
    for r in records:
        assert r.total_correlation <= r.correlation_budget + 1e-9
        for _, value in r.norm_probe:
            assert value >= 1.0 - 1e-12


def test_shrinking_epsilon_zero_identity(rng):
    a = random_state(rng, 3)
    records = shrinking_epsilon_demo(a, a, (0.0,))
    assert records[0].found
    assert records[0].total_correlation == 0.0


def test_shrinking_epsilon_requires_free_energy_drop(demo_pair):
    initial, final = demo_pair
    with pytest.raises(ValueError):
        shrinking_epsilon_demo(final, initial, (0.05,))


# -- necessity across the order grid ----------------------------------------------

def test_statement_five_inequality_on_demo_instance(demo_pair, demo_joint):
    from thermoorder.entropies import default_alpha_grid, renyi_entropy

    initial, final = demo_pair
    assert verify_correlating_transition(initial, final, demo_joint).verdict == ABOVE
    c1, c2 = marginal(demo_joint, 0), marginal(demo_joint, 1)
    joint_state = demo_joint.as_state()
    for alpha in default_alpha_grid():
        lhs = free_energy_gap(initial, alpha) - renyi_entropy(c1.probs, alpha) \
            - renyi_entropy(c2.probs, alpha)
        rhs = free_energy_gap(final, alpha) - renyi_entropy(joint_state.probs, alpha)
        if math.isinf(lhs) and lhs > 0:
            continue
        assert lhs >= rhs - 1e-9


def test_three_qubit_cells_preserve_marginals_and_order():
    import itertools

    from thermoorder import JointCatalyst
    from thermoorder.catalysis import _cells

    config = SearchConfig(marginal_grid=5, polytope_grid=5)
    first = list(itertools.islice(_cells(3, config), 200))
    second = list(itertools.islice(_cells(3, config), 200))
    assert first == second
    for margs, lam, probs in first:
        joint = JointCatalyst(probs, (2, 2, 2))
        assert sum(joint.probs, Fraction(0)) == 1
        assert all(p >= 0 for p in joint.probs)
        assert tuple(m.probs for m in joint.marginals()) == margs
        assert total_correlation(joint) >= 0.0
        assert (lam == 0) == (total_correlation(joint) == 0.0)
    # four correlation patterns of five cells each per marginal triple
    for start in range(0, 200, 20):
        assert len({margs for margs, _, _ in first[start:start + 20]}) == 1


# sha256 over "p0,p1,...\n" per cell (Fractions as str) of the first 20,000
# cells, recorded from the separate two- and three-qubit walkers this sweep
# replaced; any change to the cells or their order changes the digest
CELL_DIGESTS = {
    (2, 5, 5): "e84b9675258464a338e4994031506fdf978f73d14fa440a9f9613c457c6483de",
    (2, 19, 26): "4e4280444c7094affcd7b8cfdf737aa4aacf1654468c789dd90847c71df8faa2",
    (3, 5, 5): "bbb301d6045d58ba82450b2d45c8165284719ce2cced87dd4d3209ff3d9d2b7a",
    (3, 19, 26): "f81044f249fa65919d6719f1daf895571c796c45a09e4a3a79ee6d4ac60e6de7",
}


@pytest.mark.parametrize("k, marginal_grid, polytope_grid", sorted(CELL_DIGESTS))
def test_cell_sequence_is_pinned(k, marginal_grid, polytope_grid):
    import hashlib
    import itertools

    from thermoorder.catalysis import _cells

    config = SearchConfig(marginal_grid=marginal_grid, polytope_grid=polytope_grid)
    h = hashlib.sha256()
    for _, _, probs in itertools.islice(_cells(k, config), 20_000):
        assert len(probs) == 2 ** k
        h.update((",".join(map(str, probs)) + "\n").encode())
    assert h.hexdigest() == CELL_DIGESTS[k, marginal_grid, polytope_grid]


def test_search_three_qubit_stage_runs_within_budget():
    # no two-qubit cell at this resolution certifies this pair, so the
    # default dims walk all 125 of them and the first three-qubit cell does
    initial, final = work_extraction_pair(2.5, 0.05, 0.75, 0.02)
    config = SearchConfig(marginal_grid=5, polytope_grid=5, budget_cells=300)
    result = search_correlating_catalyst(initial, final, config)
    assert result is not None
    assert result.joint.dims == (2, 2, 2)
    assert result.cells_evaluated == 126
    assert result.comparison.dominates
    assert search_correlating_catalyst(
        initial, final, SearchConfig(dims=((2, 2),), marginal_grid=5, polytope_grid=5)
    ) is None


def test_three_subsystem_marginals():
    from thermoorder import JointCatalyst

    base = [Fraction(x) / 96 for x in (12, 4, 6, 2, 36, 12, 18, 6)]
    joint = JointCatalyst(tuple(base), (2, 2, 2))
    assert marginal(joint, 0).probs == (Fraction(1, 4), Fraction(3, 4))
    assert marginal(joint, 1).probs == (Fraction(2, 3), Fraction(1, 3))
    assert marginal(joint, 2).probs == (Fraction(3, 4), Fraction(1, 4))
    assert total_correlation(joint) == pytest.approx(0.0, abs=1e-12)


# -- equivalence with the composite-state path -------------------------------------

def _composite_verify(a, b, joint):
    """The comparison verify_correlating_transition and the search replaced:
    both sides built as validated composite states, compared on their
    Fraction or float cells."""
    from thermoorder import tensor, tensor_all
    from thermoorder.majorization import compare_cells, thermal_cells

    initial, final = tensor_all([a, *joint.marginals()]), tensor(b, joint.as_state())
    return compare_cells(thermal_cells(initial, final), 0 if initial.exact and final.exact else CMP_TOL)


def _per_cell_search(a, b, config):
    """The search as a validated joint, its total correlation and a
    composite-state comparison per cell."""
    from thermoorder import JointCatalyst, SearchResult, thermomajorizes
    from thermoorder.catalysis import _cells
    from thermoorder.modes import POSSIBLE_TOL

    if not correlating_catalytic_possible(a, b).possible:
        raise ValueError("correlating transition is impossible")
    if thermomajorizes(a, b).dominates:
        joint = product_joint([[Fraction(1, d)] * d for d in config.dims[0]])
        return SearchResult(joint, _composite_verify(a, b, joint), 0.0, 0)
    budget = free_energy_gap(a, ALPHA_1) - free_energy_gap(b, ALPHA_1)
    cells = 0
    for dims in config.dims:
        for _, _, probs in _cells(len(dims), config):
            if cells >= config.budget_cells:
                return None
            cells += 1
            joint = JointCatalyst(probs, dims)
            info = total_correlation(joint)
            if info > budget + POSSIBLE_TOL:
                continue
            comparison = _composite_verify(a, b, joint)
            if comparison.dominates:
                return SearchResult(joint, comparison, info, cells)
    return None


def _search_pairs():
    """Demo-family pairs certified directly, early, late, at three qubits or
    not at all on the reduced grid, and seeded random 3-level crossing pairs
    whose free energy drops; each in float and in exact arithmetic."""
    import random

    from thermoorder import thermomajorizes

    pairs = [work_extraction_pair(*point) for point in (
        (1.0, 0.01, 0.7, 0.03), (2.0, 0.01, 0.6, 0.005), (0.5, 0.01, 0.8, 0.004),
        (2.5, 0.05, 0.75, 0.02), (1.0, 0.01, 0.75, 0.006),
    )]
    # the three-qubit walk at grid (5, 5) certifies this one at cell 18,
    # after three repeats of its first product point
    ham = Hamiltonian((0.08832456224991658, 0.3628077645062876, 1.215838270188409))
    pairs.append((BlockState((0.010945686168071653, 0.6590757774333322, 0.32997853639859615), ham),
                  BlockState((0.33345215294519637, 0.328502229249655, 0.3380456178051487), ham)))
    rng = random.Random(401)
    while len(pairs) < 9:
        a = random_state(rng, 3)
        b = gibbs_mixture(BlockState(random_distribution(rng, 3), a.ham), rng.uniform(0.3, 0.9))
        if correlating_catalytic_possible(a, b).possible and not thermomajorizes(a, b).dominates:
            pairs.append((a, b))
    return pairs + [(a.to_exact(), b.to_exact()) for a, b in pairs]


@pytest.mark.parametrize("config", [
    SearchConfig(marginal_grid=5, polytope_grid=5, budget_cells=200),
    SearchConfig(dims=((2, 2),), marginal_grid=3, polytope_grid=4, budget_cells=40),
    SearchConfig(dims=((2, 2, 2),), marginal_grid=5, polytope_grid=5, budget_cells=60),
    SearchConfig(dims=((2, 2, 2), (2, 2)), marginal_grid=7, polytope_grid=6, budget_cells=90),
], ids=["both-5x5", "two-qubit", "three-qubit", "three-then-two"])
def test_search_matches_the_per_cell_composite_path(config):
    outcomes, late = set(), []
    for a, b in _search_pairs():
        result = search_correlating_catalyst(a, b, config)
        assert result == _per_cell_search(a, b, config)
        assert result is None or type(result.total_correlation) is float
        outcomes.add((a.exact, result is not None and result.cells_evaluated > 0))
        late.append(result is not None and result.cells_evaluated == 18)
    # found and not found, in both arithmetics
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}
    if config.dims == ((2, 2, 2),):
        assert late.count(True) == 2  # the pair after the repeats, float and exact


def test_three_qubit_product_point_is_compared_once(monkeypatch):
    import itertools

    import thermoorder.catalysis as catalysis

    compared = []
    segments = catalysis._segments

    def recording(s, factors, gibbs, exact):
        if len(factors) == 1:  # the final side: b next to one joint
            compared.append(tuple(factors[0]))
        return segments(s, factors, gibbs, exact)

    monkeypatch.setattr(catalysis, "_segments", recording)
    initial, final = work_extraction_pair(1.0, 0.01, 0.75, 0.006)
    config = SearchConfig(dims=((2, 2, 2),), marginal_grid=5, polytope_grid=5, budget_cells=100)
    assert search_correlating_catalyst(initial, final, config) is None
    # a float search compares the float copies of the cells
    walked = [(lam, tuple(map(float, probs)))
              for _, lam, probs in itertools.islice(catalysis._cells(3, config), 100)]
    products = {probs for lam, probs in walked if lam == 0}
    # four slices of five cells per marginal triple, each starting at its product point
    assert len(products) == 5 and sum(lam == 0 for lam, _ in walked) == 20
    assert len(compared) == len(set(compared))
    assert products <= set(compared) <= {probs for _, probs in walked}


def _count_fraction_calls(monkeypatch) -> list:
    """The list every later call of a Fraction arithmetic method is appended to."""
    calls = []
    for name in ("__float__", "__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        method = getattr(Fraction, name)

        def counting(*args, _method=method, _name=name):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(Fraction, name, counting)
    return calls


def test_float_search_does_no_fraction_arithmetic(monkeypatch):
    calls = _count_fraction_calls(monkeypatch)
    initial, final = work_extraction_pair(1.0, 0.01, 0.75, 0.006)
    config = SearchConfig(dims=((2, 2, 2),), marginal_grid=5, polytope_grid=5, budget_cells=100)
    assert search_correlating_catalyst(initial, final, config) is None
    assert calls == []


def test_exact_search_does_no_fraction_arithmetic_per_cell(monkeypatch):
    # the Fraction work of an exact search is its set-up (precondition,
    # direct curves, scaling to integers), whatever the number of cells
    initial, final = (s.to_exact() for s in work_extraction_pair(1.0, 0.01, 0.75, 0.006))
    calls = _count_fraction_calls(monkeypatch)
    counts = []
    for budget in (50, 100):
        config = SearchConfig(dims=((2, 2, 2),), marginal_grid=5, polytope_grid=5, budget_cells=budget)
        assert search_correlating_catalyst(initial, final, config) is None
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == counts[1] > 0


def test_exact_thermomajorizes_does_no_fraction_arithmetic_per_cell(monkeypatch):
    from conftest import random_rational_distribution, random_rational_gibbs_ham

    rng = random.Random(8)
    pairs = []
    for n in (8, 32):
        ham = random_rational_gibbs_ham(rng, n)
        pairs.append([BlockState(random_rational_distribution(rng, n), ham) for _ in range(2)])
    calls = _count_fraction_calls(monkeypatch)
    counts = []
    for a, b in pairs:
        assert thermomajorizes(a, b).verdict == CROSSING
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == counts[1]


@st.composite
def correlating_pairs(draw):
    """Float 2..4-level pairs that a correlated catalyst can link but the
    direct curves do not: two random states, the one of higher free energy
    first."""
    n = draw(st.integers(2, 4))
    ham = Hamiltonian(tuple(draw(st.lists(st.floats(0, 3), min_size=n, max_size=n))))

    def state():
        weights = draw(st.lists(st.floats(0.01, 1), min_size=n, max_size=n))
        return BlockState(tuple(w / sum(weights) for w in weights), ham)

    a, b = sorted((state(), state()), key=lambda s: -free_energy_gap(s, ALPHA_1))
    assume(correlating_catalytic_possible(a, b).possible and not thermomajorizes(a, b).dominates)
    return a, b


@settings(max_examples=17, deadline=None)
@given(correlating_pairs())
def test_search_matches_the_per_cell_search_on_generated_pairs(pair):
    exact = tuple(s.to_exact() for s in pair)
    # rational probabilities on the float Hamiltonian: a float state whose
    # entries are Fractions
    mixed = tuple(BlockState(e.probs, s.ham) for e, s in zip(exact, pair))
    for a, b in (pair, exact, mixed):
        for config in (SearchConfig(dims=((2, 2),), marginal_grid=3, polytope_grid=4, budget_cells=40),
                       SearchConfig(dims=((2, 2, 2),), marginal_grid=5, polytope_grid=5, budget_cells=60)):
            assert search_correlating_catalyst(a, b, config) == _per_cell_search(a, b, config)


def test_search_counts_the_cells_it_compares(monkeypatch):
    import thermoorder.catalysis as catalysis

    refined = []
    refine = catalysis.refine

    def recording(a, b):
        refined.append(1)
        return refine(a, b)

    monkeypatch.setattr(catalysis, "refine", recording)
    pair = work_extraction_pair(2.5, 0.05, 0.75, 0.02)
    config = SearchConfig(marginal_grid=5, polytope_grid=5, budget_cells=300)
    counts = []
    for initial, final in (pair, [s.to_exact() for s in pair]):
        refined.clear()
        result = search_correlating_catalyst(initial, final, config)
        assert 0 < result.cells_compared <= result.cells_evaluated == 126
        # an exact search also refines once to verify the returned cell
        assert len(refined) == result.cells_compared + initial.exact
        counts.append((result.cells_evaluated, result.cells_compared))
    assert counts[0] == counts[1]


def test_exact_search_raises_when_the_verification_disagrees(monkeypatch):
    import thermoorder.catalysis as catalysis

    initial, final = (s.to_exact() for s in work_extraction_pair(2.0, 0.01, 0.6, 0.005))
    config = SearchConfig(marginal_grid=5, polytope_grid=5, budget_cells=200)
    assert search_correlating_catalyst(initial, final, config).cells_evaluated > 0
    crossing = catalysis.CurveComparison(CROSSING, ((Fraction(1, 2), Fraction(1, 100)),))
    monkeypatch.setattr(catalysis, "verify_correlating_transition", lambda a, b, joint: crossing)
    with pytest.raises(RuntimeError, match="exact verification rejects"):
        search_correlating_catalyst(initial, final, config)


def test_exact_search_matches_the_per_cell_search_on_tied_rational_pairs():
    import random

    # Gibbs weights over mixed small denominators give a non-trivial lcm; the
    # initial state's rescaled values come from {1, .., 4}, so its levels tie
    rng = random.Random(13)
    configs = (SearchConfig(dims=((2, 2),), marginal_grid=3, polytope_grid=4, budget_cells=40),
               SearchConfig(dims=((2, 2, 2),), marginal_grid=5, polytope_grid=5, budget_cells=60))
    pairs = ties = 0
    found = set()
    while pairs < 24:
        n = rng.randint(2, 4)
        ham = Hamiltonian.from_gibbs_factors([Fraction(rng.choice((1, 2, 3, 4, 6)), rng.choice((1, 2, 3, 5)))
                                              for _ in range(n)])
        weights = [rng.randint(1, 4) * g for g in ham.gibbs]
        counts = [rng.randint(1, 12) for _ in range(n)]
        a, b = sorted((BlockState(tuple(w / sum(weights) for w in weights), ham),
                       BlockState(tuple(Fraction(c, sum(counts)) for c in counts), ham)),
                      key=lambda s: -free_energy_gap(s, ALPHA_1))
        if not correlating_catalytic_possible(a, b).possible or thermomajorizes(a, b).dominates:
            continue
        pairs += 1
        ties += any(len({p / g for p, g in zip(s.probs, ham.gibbs)}) < n for s in (a, b))
        for config in configs:
            result = search_correlating_catalyst(a, b, config)
            assert result == _per_cell_search(a, b, config)
            found.add(result is not None)
    assert ties and found == {False, True}


def test_exact_search_is_gauge_invariant_beyond_float_range():
    # scaling every Gibbs weight by one constant leaves each decision as it
    # was; this one pushes the integer masses past the float range, which
    # compare_cells reads in their unit, so nothing overflows
    scale = Fraction(3 ** 700, 2 ** 1109)
    config = SearchConfig(marginal_grid=5, polytope_grid=5, budget_cells=200)
    outcomes = set()
    for point in ((2.0, 0.01, 0.6, 0.005), (1.0, 0.01, 0.75, 0.006)):
        a, b = (s.to_exact() for s in work_extraction_pair(*point))
        ham = Hamiltonian.from_gibbs_factors([g * scale for g in a.ham.gibbs])
        result = search_correlating_catalyst(BlockState(a.probs, ham), BlockState(b.probs, ham), config)
        assert result == search_correlating_catalyst(a, b, config)
        outcomes.add(result and result.cells_evaluated > 0)
    assert outcomes == {None, True}


def _exact_gibbs_mixture(state, weight):
    gamma = gibbs_state(state.ham)
    return BlockState(tuple((1 - weight) * p + weight * g
                            for p, g in zip(state.probs, gamma.probs)), state.ham)


def test_verify_matches_the_composite_state_comparison(rng):
    from thermoorder import JointCatalyst

    from conftest import random_rational_distribution, random_rational_gibbs_ham

    verdicts = set()
    scaled = 0
    for trial in range(160):
        n = rng.randint(2, 5)
        dims = ((2, 2), (2, 3), (3, 2), (2, 2, 2))[trial % 4]
        size = math.prod(dims)
        exact_states, exact_joint = (trial // 4) % 2 == 0, (trial // 8) % 2 == 0
        if exact_states:
            a = BlockState(random_rational_distribution(rng, n), random_rational_gibbs_ham(rng, n))
            b = _exact_gibbs_mixture(a, Fraction(rng.randint(0, 8), 8)) if trial % 3 \
                else BlockState(random_rational_distribution(rng, n), a.ham)
        else:
            a = random_state(rng, n)
            b = gibbs_mixture(a, rng.random()) if trial % 3 \
                else BlockState(random_distribution(rng, n), a.ham)
        if exact_joint:
            probs = random_rational_distribution(rng, size)
        else:
            probs = random_distribution(rng, size)
        joint = JointCatalyst(probs, dims)
        if trial % 5 == 0:  # the product of the joint's marginals
            joint = product_joint([m.probs for m in joint.marginals()])
        expected = _composite_verify(a, b, joint)
        assert verify_correlating_transition(a, b, joint) == expected
        verdicts.add(expected.verdict)
        if exact_states and exact_joint and trial < 16:
            # once per shape, Gibbs weights whose integers lie beyond the float range
            ham = Hamiltonian.from_gibbs_factors([g * Fraction(3 ** 700, 2 ** 1109) for g in a.ham.gibbs])
            a, b = (BlockState(s.probs, ham) for s in (a, b))
            assert verify_correlating_transition(a, b, joint) == _composite_verify(a, b, joint)
            scaled += 1
    assert scaled == 4
    assert {ABOVE, CROSSING} <= verdicts


def test_verify_rejects_states_on_different_hamiltonians(demo_pair, demo_joint):
    initial, final = demo_pair
    shifted = BlockState(final.probs, Hamiltonian(tuple(e + 1.0 for e in final.ham.levels)))
    with pytest.raises(ValueError, match="one Hamiltonian"):
        verify_correlating_transition(initial, shifted, demo_joint)
    qubit = BlockState((0.5, 0.5), Hamiltonian((0.0, 1.0)))
    with pytest.raises(ValueError, match="one Hamiltonian"):
        verify_correlating_transition(qubit, final, demo_joint)
