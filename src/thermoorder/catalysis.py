"""Catalytic and correlating-catalytic transition decisions and searches.

Auxiliary systems here always carry trivial Hamiltonians, get returned with
their local states untouched, and are allowed to end up correlated with one
another. Allowing those correlations collapses the full tower of
free-energy constraints down to the single requirement that the standard
free energy does not increase; this module decides the various regimes,
builds the two-qubit correlated family explicitly, and searches the
fixed-marginal polytope for a certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .entropies import (ALPHA_0, ALPHA_1, ALPHA_INF, _correlation, _divergences, _entropies,
                        delta_f_sweep, free_energy_gap)
from .majorization import (CurveComparison, beta_segments, compare_cells, integer_data,
                           integer_segments, refine, thermomajorizes)
from .modes import CMP_TOL, POSSIBLE_TOL, SPECTRUM_TOL, is_exact_number, to_fraction
from .states import BlockState, JointCatalyst, gibbs_state, product_joint, validate_distribution

PLAIN = "plain"
CATALYTIC = "catalytic"
CORRELATING = "correlating"


@dataclass(frozen=True)
class TransitionVerdict:
    possible: bool
    mode: str
    diagnostics: tuple = ()
    reason: str = ""


def catalytic_possible(a: BlockState, b: BlockState, alphas=None,
                       tol: float = POSSIBLE_TOL) -> TransitionVerdict:
    """Exact catalysts, no correlations: every order must not increase.

    The verdict samples the grid; diagnostics list the violating orders,
    those where F_alpha(b) - F_alpha(a) exceeds tol (+inf does, nan does not).
    """
    if a.ham != b.ham:
        raise ValueError("transition check needs both states on one Hamiltonian")
    violations = [e.alpha for e in delta_f_sweep(a, b, alphas) if e.value > tol]
    if violations:
        labels = ", ".join(v.label() for v in violations[:6])
        return TransitionVerdict(False, CATALYTIC, tuple(violations),
                                 f"free energy increases at alpha in {{{labels}}}")
    return TransitionVerdict(True, CATALYTIC)


def correlating_catalytic_possible(a: BlockState, b: BlockState,
                                   tol: float = POSSIBLE_TOL) -> TransitionVerdict:
    """Correlations allowed: only the standard free energy must not increase."""
    if a.ham != b.ham:
        raise ValueError("transition check needs both states on one Hamiltonian")
    fa, fb = free_energy_gap(a, ALPHA_1), free_energy_gap(b, ALPHA_1)
    if fa >= fb - tol:
        return TransitionVerdict(True, CORRELATING)
    return TransitionVerdict(False, CORRELATING, (ALPHA_1,),
                             f"free energy would increase by {fb - fa}")


def ctrump_possible(p, q) -> TransitionVerdict:
    """Trivial-Hamiltonian correlating transition between bare vectors.

    Identical multisets of entries (within SPECTRUM_TOL for floats) always
    pass (relabeling); otherwise the support must not shrink and the Shannon
    entropy must strictly grow.
    """
    p, q = list(p), list(q)
    n = max(len(p), len(q))
    p += [0] * (n - len(p))
    q += [0] * (n - len(q))
    exact_p, exact_q = validate_distribution(p), validate_distribution(q)
    ps, qs = sorted(p), sorted(q)
    if exact_p and exact_q:
        same = ps == qs
    else:
        same = all(abs(float(x) - float(y)) <= SPECTRUM_TOL for x, y in zip(ps, qs))
    if same:
        return TransitionVerdict(True, CORRELATING, reason="identical spectra")
    rank_p = sum(1 for x in p if x > 0)
    rank_q = sum(1 for x in q if x > 0)
    if rank_p > rank_q:
        return TransitionVerdict(False, CORRELATING,
                                 reason=f"support would shrink ({rank_p} -> {rank_q})")
    (hp,), (hq,) = _entropies(p, [ALPHA_1]), _entropies(q, [ALPHA_1])
    if hp < hq:
        return TransitionVerdict(True, CORRELATING)
    return TransitionVerdict(False, CORRELATING,
                             reason=f"entropy does not strictly grow ({hp} vs {hq})")


def qubit_pair_catalyst(s, q, x10) -> JointCatalyst:
    """Two-qubit joint with marginals (s, 1-s) and (q, 1-q), correlation set
    by the one free transportation-polytope parameter x10 = P(1, 0)."""
    if not 0 < s < 1 or not 0 < q < 1:
        raise ValueError("marginal ground populations must lie strictly in (0,1)")
    x00 = q - x10
    x01 = x10 + s - q
    x11 = 1 - s - x10
    entries = (x00, x01, x10, x11)
    if any(v < 0 for v in entries):
        lo = max(0 * s, q - s)
        hi = min(q, 1 - s)
        raise ValueError(
            f"x10={x10!r} leaves a negative entry {tuple(entries)}; "
            f"feasible interval is [{lo}, {hi}]"
        )
    return JointCatalyst(entries, (2, 2))


def _products(probs, factors) -> list:
    """The probabilities of a system next to catalysts with the given
    probabilities, in the order of ``tensor_all``."""
    for f in factors:
        probs = [p * c for p in probs for c in f]
    return probs


def _segments(s: BlockState, factors, gibbs, exact: bool) -> list:
    """Beta-ordered segments of s next to catalysts with the given probabilities;
    gibbs repeats each of s's weights once per catalyst level (catalyst
    weights are all 1)."""
    return beta_segments(_products(s.probs, factors), gibbs, exact)


def verify_correlating_transition(a: BlockState, b: BlockState,
                                  joint: JointCatalyst) -> CurveComparison:
    """Thermal-curve dominance of a next to the uncorrelated catalysts over
    b next to the correlated joint; local catalyst states match by
    construction. No composite state is built.

    Exact data is decided on integer cells: with every vector's numerators
    over one denominator m, a's side is over m^(k+1) for k marginals and b's
    over m^2, so b's side is scaled by m^(k-1)."""
    if a.ham != b.ham:
        raise ValueError("thermomajorization compares states on one Hamiltonian")
    marginals = [c.probs for c in joint.marginals()]
    if a.exact and b.exact and joint.exact:
        lengths, weights, (pa, pb, pj, *pm), g, m, top = integer_data(
            a.ham.gibbs, (a.probs, b.probs, joint.probs, *marginals), len(joint))
        initial = integer_segments(_products(pa, pm), lengths, weights)
        final = integer_segments(_products(pb, [pj, [m ** (len(pm) - 1)]]), lengths, weights)
        return compare_cells(refine(initial, final), 0, (g, m ** (len(pm) + 1) * top))
    gibbs = [g for g in a.ham.gibbs for _ in joint.probs]
    initial = _segments(a, marginals, gibbs, a.exact and joint.exact)
    final = _segments(b, [joint.probs], gibbs, b.exact and joint.exact)
    return compare_cells(refine(initial, final), CMP_TOL)


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic grid search over catalyst marginals and correlations."""

    dims: tuple = ((2, 2), (2, 2, 2))
    marginal_grid: int = 19
    polytope_grid: int = 26
    budget_cells: int = 200_000

    def __post_init__(self):
        # bools and floats are rejected, not truncated
        for name, least in (("marginal_grid", 1), ("polytope_grid", 2), ("budget_cells", 1)):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, not {value}")
        if not self.dims:
            raise ValueError("dims must name at least one catalyst shape")
        for dims in self.dims:
            if any(type(d) is not int for d in dims) or tuple(dims) not in ((2, 2), (2, 2, 2)):
                raise ValueError(f"unsupported catalyst dimensions {dims!r}")

    def to_json_obj(self) -> dict:
        return {
            "dims": [list(d) for d in self.dims],
            "marginal_grid": self.marginal_grid,
            "polytope_grid": self.polytope_grid,
            "budget_cells": self.budget_cells,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SearchConfig":
        """Config from parsed JSON; unknown keys are rejected rather than
        ignored, and the values are checked by the constructor."""
        if not isinstance(obj, dict):
            raise ValueError(f"search config must be a JSON object, not {type(obj).__name__}")
        kwargs = {}
        for key, value in obj.items():
            if key not in ("dims", "marginal_grid", "polytope_grid", "budget_cells"):
                raise ValueError(f"unknown search config key {key!r}")
            if key == "dims":
                if not isinstance(value, list) or not all(isinstance(d, list) for d in value):
                    raise ValueError(f"dims must be a list of lists, not {value!r}")
                value = tuple(tuple(d) for d in value)
            kwargs[key] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class SearchResult:
    joint: JointCatalyst
    comparison: CurveComparison
    total_correlation: float
    cells_evaluated: int
    # curve comparisons the walk ran; cells skipped by the correlation budget
    # or as a repeated product point are evaluated but not compared
    cells_compared: int = field(default=0, compare=False)


def _lattice(k: int, config: SearchConfig):
    """Single-direction slices of the k-qubit fixed-marginal polytope in
    integers, as (n, d, walk).

    Every grid value is x/n for the marginal grid's n, so with the product
    point scaled by polytope_grid - 1 every joint entry and every lambda is
    an integer over the one denominator d = n^k (polytope_grid - 1). The walk
    yields, per marginal tuple, the ground-population numerators over n, the
    product point's numerators over d and its cells as (lambda, joint)
    numerators over d.

    For each marginal tuple, every qubit subset of size >= 2 gives one
    correlation pattern: entry i of the product point moves by +-lambda, the
    sign being (-1)^|subset & i|. Each slice is walked outward from the
    product point, so low-correlation joints come first.
    """
    n = 1 + (config.marginal_grid if k == 2 else max(3, config.marginal_grid // 2))
    scale = config.polytope_grid - 1
    masks = sorted((m for m in range(1, 1 << k) if bin(m).count("1") >= 2),
                   key=lambda m: (bin(m).count("1"), -m))
    # two qubits flip the sign, so that lambda runs along x10 = P(1, 0)
    even_up = k != 2
    patterns = [[(bin(m & i).count("1") % 2 == 0) == even_up for i in range(1 << k)]
                for m in masks]

    def cells(base):
        for up in patterns:
            lo = max(-v for v, u in zip(base, up) if u)
            hi = min(v for v, u in zip(base, up) if not u)
            # lo and hi are multiples of scale, so the step is exact
            for lam in sorted(range(lo, hi + 1, (hi - lo) // scale), key=lambda v: (abs(v), v)):
                yield lam, tuple(v + lam if u else v - lam for v, u in zip(base, up))

    def walk():
        for xs in itertools.product(range(1, n), repeat=k):
            base = [math.prod(ys) * scale for ys in itertools.product(*((x, n - x) for x in xs))]
            yield xs, base, cells(base)

    return n, n ** k * scale, walk()


def _cells(k: int, config: SearchConfig):
    """The cells of ``_lattice`` as Fractions: (marginal distributions,
    lambda, joint probabilities) per cell."""
    n, d, walk = _lattice(k, config)
    for xs, _, cells in walk:
        margs = tuple((Fraction(x, n), Fraction(n - x, n)) for x in xs)
        for lam, joint in cells:
            yield margs, Fraction(lam, d), tuple(Fraction(v, d) for v in joint)


def search_correlating_catalyst(a: BlockState, b: BlockState,
                                config: SearchConfig | None = None):
    """First grid joint certifying the correlating transition, or None.

    A failed search means "not found at this resolution", never that the
    transition is impossible; possibility was already settled by the
    free-energy precondition.
    """
    if config is None:
        config = SearchConfig()
    verdict = correlating_catalytic_possible(a, b)
    if not verdict.possible:
        raise ValueError(f"correlating transition is impossible: {verdict.reason}")

    if thermomajorizes(a, b).dominates:
        joint = product_joint([[Fraction(1, d)] * d for d in config.dims[0]])
        return SearchResult(joint, verify_correlating_transition(a, b, joint), 0.0, 0)

    # correlations above the free-energy gap can never certify (the gap caps
    # the total correlation), so such cells are skipped without curve work
    budget_i = free_energy_gap(a, ALPHA_1) - free_energy_gap(b, ALPHA_1)
    tol, units = (0 if a.exact and b.exact else CMP_TOL), None
    # Fraction entries take Fraction cells (unless exact integer cells decide,
    # below), so p * c is rounded once, as the composite state rounds it; float
    # states (ints are only 0 or 1 here) multiply by the float copies and
    # never touch a Fraction
    a_rational, b_rational = (s.exact or any(isinstance(p, Fraction) for p in s.probs)
                              for s in (a, b))
    cells = compared = 0
    for dims in config.dims:
        # the cells of verify_correlating_transition, with a's side and the
        # marginal entropies built once per marginal tuple. Entropies read the
        # float copies v / d of the integer cells, and so do a float state's
        # segments: float * Fraction is float * float(Fraction), and
        # float(Fraction(v, d)) is v / d (both correctly rounded), so these
        # are the bits Fraction cells would give. Exact states decide every
        # cell in integers over one denominator: each segment's probability is
        # scaled by m d and its Gibbs weight by one constant, so the order is
        # beta_segments' own and every cell mass is the true one times
        # m d lcm(G). Only the returned cell goes back to Fractions, checked
        # by verify_correlating_transition.
        reps = 2 ** len(dims)
        gibbs = [g for g in a.ham.gibbs for _ in range(reps)]
        n, d, walk = _lattice(len(dims), config)
        integer = a.exact and b.exact
        if integer:
            lengths, weights, (a_nums, b_nums), g, m, top = integer_data(
                a.ham.gibbs, (a.probs, b.probs), reps)
            units = (g, m * d * top)
        for xs, base, tuple_cells in walk:
            margs = [(x / n, (n - x) / n) for x in xs]
            if integer:
                initial = integer_segments([p * v for p in a_nums for v in base], lengths, weights)
            else:
                factors = [(Fraction(x, n), Fraction(n - x, n)) for x in xs] if a_rational else margs
                initial = _segments(a, factors, gibbs, a.exact)
            parts = math.fsum(_entropies(m, [ALPHA_1])[0] for m in margs)
            product_seen = False
            for lam, joint in tuple_cells:
                if cells >= config.budget_cells:
                    return None
                cells += 1
                if not lam:
                    # the product point recurs in every slice that holds it
                    if product_seen:
                        continue
                    product_seen = True
                probs = [v / d for v in joint]
                info = _correlation(parts, probs)
                if info > budget_i + POSSIBLE_TOL:
                    continue
                compared += 1
                if integer:
                    final = integer_segments([p * v for p in b_nums for v in joint], lengths, weights)
                else:
                    if b_rational:
                        probs = [Fraction(v, d) for v in joint]
                    final = _segments(b, [probs], gibbs, b.exact)
                comparison = compare_cells(refine(initial, final), tol, units)
                if comparison.dominates:
                    catalyst = JointCatalyst(tuple(Fraction(v, d) for v in joint), dims)
                    if integer:
                        comparison = verify_correlating_transition(a, b, catalyst)
                        if not comparison.dominates:
                            raise RuntimeError(f"the integer cell walk certified {catalyst!r}, "
                                               "which the exact verification rejects")
                    return SearchResult(catalyst, comparison, info, cells, compared)
    return None


@dataclass(frozen=True)
class WorkQuantities:
    """Free-energy gaps to the Gibbs state at orders 0, 1, infinity (kT=1)."""

    f0: float
    f1: float
    finf: float


def work_quantities(s: BlockState) -> WorkQuantities:
    gamma = gibbs_state(s.ham).probs
    return WorkQuantities(*_divergences(s.probs, gamma, (ALPHA_0, ALPHA_1, ALPHA_INF)))


def smooth_toward_gibbs(b: BlockState, epsilon) -> BlockState:
    """Mix the target with its Gibbs state; full rank for epsilon > 0 and the
    free energy strictly drops, which is what buys the search its slack."""
    if not 0 <= epsilon <= 1:
        raise ValueError("smoothing weight must lie in [0, 1]")
    if epsilon == 0:
        return b
    gamma = gibbs_state(b.ham)
    eps = to_fraction(epsilon) if (b.exact and is_exact_number(epsilon)) else float(epsilon)
    probs = tuple((1 - eps) * p + eps * g for p, g in zip(b.probs, gamma.probs))
    return BlockState(probs, b.ham)


@dataclass(frozen=True)
class SmoothingRecord:
    epsilon: float
    found: bool
    total_correlation: float
    correlation_budget: float
    norm_probe: tuple
    result: SearchResult | None


def _norm_probe(joint: JointCatalyst, orders=(2.0, 4.0, 10.0)) -> tuple:
    """Values n^(1-1/alpha) * ||c||_alpha, each >= 1 for any distribution;
    recorded so shrinking-correlation runs expose the dimension pressure."""
    n = len(joint)
    out = []
    for a in orders:
        norm = math.fsum(float(p) ** a for p in joint.probs) ** (1.0 / a)
        out.append((a, n ** (1.0 - 1.0 / a) * norm))
    peak = max(float(p) for p in joint.probs)
    out.append((math.inf, n * peak))
    return tuple(out)


def shrinking_epsilon_demo(a: BlockState, b: BlockState, epsilons,
                           config: SearchConfig | None = None) -> list:
    """Search a catalyst for each smoothed target b_eps and record how much
    correlation was needed next to the free-energy budget F(b) - F(b_eps).

    Search failures are recorded, not raised.
    """
    verdict = correlating_catalytic_possible(a, b)
    if not verdict.possible:
        raise ValueError(f"free energy increases from a to b: {verdict.reason}")
    fb = free_energy_gap(b, ALPHA_1)
    records = []
    for eps in epsilons:
        smoothed = smooth_toward_gibbs(b, eps)
        budget = fb - free_energy_gap(smoothed, ALPHA_1)
        try:
            result = search_correlating_catalyst(a, smoothed, config)
        except ValueError:
            result = None
        if result is None:
            records.append(SmoothingRecord(float(eps), False, math.nan, budget, (), None))
        else:
            records.append(SmoothingRecord(
                float(eps), True, result.total_correlation, budget,
                _norm_probe(result.joint), result,
            ))
    return records
