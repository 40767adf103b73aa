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

import math
from dataclasses import dataclass
from fractions import Fraction

from .entropies import (
    ALPHA_1,
    Alpha,
    default_alpha_grid,
    free_energy_gap,
    renyi_entropy,
    total_correlation,
)
from .majorization import CurveComparison, thermomajorizes
from .modes import MARGINAL_TOL, POSSIBLE_TOL, SPECTRUM_TOL, is_exact_number, to_fraction
from .states import (
    BlockState,
    JointCatalyst,
    gibbs_state,
    marginal,
    product_joint,
    tensor,
    tensor_all,
    validate_distribution,
)

PLAIN = "plain"
CATALYTIC = "catalytic"
CORRELATING = "correlating"


@dataclass(frozen=True)
class TransitionVerdict:
    possible: bool
    mode: str
    diagnostics: tuple = ()
    reason: str = ""


def _gap_pair(a: BlockState, b: BlockState, alpha: Alpha):
    # free energies share -ln Z, so compare the divergence parts directly
    return free_energy_gap(a, alpha), free_energy_gap(b, alpha)


def catalytic_possible(a: BlockState, b: BlockState, alphas=None,
                       tol: float = POSSIBLE_TOL) -> TransitionVerdict:
    """Exact catalysts, no correlations: every order must not increase.

    The verdict samples the grid; diagnostics list the violating orders.
    """
    if a.ham != b.ham:
        raise ValueError("transition check needs both states on one Hamiltonian")
    if alphas is None:
        alphas = default_alpha_grid()
    violations = []
    for alpha in alphas:
        alpha = Alpha.coerce(alpha)
        fa, fb = _gap_pair(a, b, alpha)
        if math.isinf(fa) and fa > 0:
            continue
        if (math.isinf(fb) and fb > 0) or fa < fb - tol:
            violations.append(alpha)
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
    fa, fb = _gap_pair(a, b, ALPHA_1)
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
    hp = renyi_entropy(p, ALPHA_1)
    hq = renyi_entropy(q, ALPHA_1)
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


def verify_correlating_transition(a: BlockState, b: BlockState, joint: JointCatalyst,
                                  expected_marginals=None) -> CurveComparison:
    """Thermal-curve dominance of a next to the uncorrelated catalysts over
    b next to the correlated joint; local catalyst states match by
    construction, and against expected_marginals when given."""
    margs = joint.marginals()
    if expected_marginals is not None:
        for k, expected in enumerate(expected_marginals):
            got = margs[k].probs
            want = tuple(expected)
            if joint.exact and all(is_exact_number(x) for x in want):
                ok = got == want
            else:
                ok = all(abs(float(x) - float(y)) <= MARGINAL_TOL for x, y in zip(got, want))
            if not ok:
                raise ValueError(
                    f"declared marginal {k} is {want}, joint gives {got}"
                )
    initial = tensor_all([a, *margs])
    final = tensor(b, joint.as_state())
    return thermomajorizes(initial, final)


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic grid search over catalyst marginals and correlations."""

    dims: tuple = ((2, 2), (2, 2, 2))
    marginal_grid: int = 19
    polytope_grid: int = 26
    budget_cells: int = 200_000

    def __post_init__(self):
        if self.marginal_grid < 1:
            raise ValueError(f"marginal_grid must be at least 1, not {self.marginal_grid}")
        if self.polytope_grid < 2:
            raise ValueError(f"polytope_grid must be at least 2, not {self.polytope_grid}")
        if self.budget_cells < 1:
            raise ValueError(f"budget_cells must be at least 1, not {self.budget_cells}")
        for dims in self.dims:
            if tuple(dims) not in ((2, 2), (2, 2, 2)):
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
        kwargs = {}
        if "dims" in obj:
            kwargs["dims"] = tuple(tuple(d) for d in obj["dims"])
        for key in ("marginal_grid", "polytope_grid", "budget_cells"):
            if key in obj:
                kwargs[key] = int(obj[key])
        return cls(**kwargs)


@dataclass(frozen=True)
class SearchResult:
    joint: JointCatalyst
    comparison: CurveComparison
    total_correlation: float
    cells_evaluated: int


def _marginal_values(k: int):
    return [Fraction(i, k + 1) for i in range(1, k + 1)]


def _lattice(lo: Fraction, hi: Fraction, count: int):
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _two_qubit_cells(config: SearchConfig):
    """(s, q, x10) cells; within a marginal pair, x10 walks outward from the
    uncorrelated product point so low-correlation joints come first."""
    grid = _marginal_values(config.marginal_grid)
    for s in grid:
        for q in grid:
            lo = max(Fraction(0), q - s)
            hi = min(q, 1 - s)
            product_point = q * (1 - s)
            xs = _lattice(lo, hi, config.polytope_grid)
            xs.sort(key=lambda x: (abs(x - product_point), x))
            for x10 in xs:
                yield qubit_pair_catalyst(s, q, x10)


def _three_qubit_cells(config: SearchConfig):
    """Single-direction slices of the three-qubit fixed-marginal polytope:
    each pairwise (and the triple) correlation pattern is swept on its own."""
    grid = _marginal_values(max(3, config.marginal_grid // 2))
    patterns = []
    for mask in (0b110, 0b101, 0b011, 0b111):
        patterns.append(tuple(
            (-1) ** (bin(mask & idx).count("1"))
            for idx in range(8)
        ))
    for s in grid:
        for q in grid:
            for r in grid:
                base = [x * y * z for x in (s, 1 - s) for y in (q, 1 - q) for z in (r, 1 - r)]
                for pat in patterns:
                    lo = max(-base[i] / pat[i] for i in range(8) if pat[i] > 0)
                    hi = min(base[i] / -pat[i] for i in range(8) if pat[i] < 0)
                    if hi <= lo:
                        continue
                    lams = _lattice(lo, hi, config.polytope_grid)
                    lams.sort(key=lambda v: (abs(v), v))
                    for lam in lams:
                        probs = tuple(base[i] + lam * pat[i] for i in range(8))
                        if any(v < 0 for v in probs):
                            continue
                        yield JointCatalyst(probs, (2, 2, 2))


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

    direct = thermomajorizes(a, b)
    if direct.dominates:
        dims = config.dims[0] if config.dims else (2, 2)
        joint = product_joint([[Fraction(1, d)] * d for d in dims])
        comparison = verify_correlating_transition(a, b, joint)
        return SearchResult(joint, comparison, 0.0, 0)

    # correlations above the free-energy gap can never certify (the gap caps
    # the total correlation), so such cells are skipped without curve work
    budget_i = free_energy_gap(a, ALPHA_1) - free_energy_gap(b, ALPHA_1)
    cells = 0
    for dims in config.dims:
        if tuple(dims) == (2, 2):
            generator = _two_qubit_cells(config)
        else:
            generator = _three_qubit_cells(config)
        for joint in generator:
            if cells >= config.budget_cells:
                return None
            cells += 1
            info = total_correlation(joint)
            if info > budget_i + POSSIBLE_TOL:
                continue
            comparison = verify_correlating_transition(a, b, joint)
            if comparison.dominates:
                return SearchResult(joint, comparison, info, cells)
    return None


@dataclass(frozen=True)
class WorkQuantities:
    """Free-energy gaps to the Gibbs state at orders 0, 1, infinity (kT=1)."""

    f0: float
    f1: float
    finf: float

    @property
    def w_ext_deterministic(self) -> float:
        return self.f0

    @property
    def w_correlated(self) -> float:
        return self.f1

    @property
    def w_form(self) -> float:
        return self.finf


def work_quantities(s: BlockState) -> WorkQuantities:
    return WorkQuantities(
        f0=free_energy_gap(s, Alpha(0.0)),
        f1=free_energy_gap(s, ALPHA_1),
        finf=free_energy_gap(s, Alpha(math.inf)),
    )


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
