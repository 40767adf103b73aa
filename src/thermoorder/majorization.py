"""Beta-ordering, Lorenz curves, and the (thermo)majorization decision.

A thermal Lorenz curve plots cumulative beta-ordered probability against
cumulative Gibbs weight; one state can reach another through a
Gibbs-preserving stochastic map exactly when its curve lies everywhere on
or above the target's. Every dominance question is decided on the common
cells of two states' partitions of [0, Z], each its levels' Gibbs weights
in beta order. Curves are concave and piecewise linear, so the running
sums of the two cell masses, the curve gaps at the breakpoints of both
curves, decide dominance everywhere; plain majorization is the case of a
trivial Hamiltonian. Exact data is decided on the same cells scaled to
integers over one denominator. Curves themselves are built only for export.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .entropies import format_number
from .modes import CMP_TOL, TIE_TOL
from .states import BlockState, Hamiltonian

ABOVE = "above"
BELOW = "below"
CROSSING = "crossing"
EQUAL = "equal"


def beta_segments(probs, gibbs, exact: bool) -> list:
    """A state's partition of [0, Z] from raw data: segments (g_i, p_i/g_i, i)
    in beta order, by decreasing Gibbs-rescaled probability p_i/g_i; exact
    is the state's flag.

    Ties break toward the larger probability, then the smaller original
    index; the curve itself does not depend on the resolution, but exports
    do, so the rule is pinned.
    """
    # Fraction(p, g) keeps two ints exact, where p / g would give a float
    ratios = [Fraction(p, g) if exact else p / g for p, g in zip(probs, gibbs)]
    idx = _beta_order(ratios, probs)
    if not exact:
        # chain-group nearly equal rescaled values, then re-break by (p, index)
        groups = []
        for i in idx:
            if groups and float(ratios[groups[-1][-1]]) - float(ratios[i]) <= TIE_TOL:
                groups[-1].append(i)
            else:
                groups.append([i])
        idx = [i for grp in groups for i in sorted(grp, key=lambda i: (-probs[i], i))]
    return [(gibbs[i], ratios[i], i) for i in idx]


def integer_segments(probs, lengths, weights) -> list:
    """beta_segments of exact data scaled to integers: probs are the
    probabilities' numerators over one denominator, lengths the Gibbs weights'
    numerators over another, and weights[i] = lcm(lengths) / lengths[i].

    The density probs[i] * weights[i] is p_i/g_i times one positive constant
    and probs[i] is p_i times another, so the order is beta_segments' own, and
    every cell mass is an integer: the true mass times one constant.
    """
    values = [p * w for p, w in zip(probs, weights)]
    return [(lengths[i], values[i], i) for i in _beta_order(values, probs)]


def integer_data(gibbs, vectors, reps: int = 1) -> tuple:
    """Exact Gibbs weights and probability vectors in integers, for
    integer_segments: (lengths, weights, numerators, g, m, top).

    lengths are the Gibbs weights' numerators G over their least common
    denominator g, each repeated reps times (once per catalyst level, whose
    Gibbs weight is 1); weights are top / G_i with top = lcm(G); numerators
    holds each vector's numerators over the one common denominator m of all
    of them. On these lengths and weights, a cell's length is its true length
    times g, and the mass of numerators over a denominator D is the true mass
    times D top.
    """
    m = math.lcm(*(v.denominator for vector in vectors for v in vector))
    numerators = [[v.numerator * (m // v.denominator) for v in vector] for vector in vectors]
    g = math.lcm(*(v.denominator for v in gibbs))
    lengths = [v.numerator * (g // v.denominator) for v in gibbs for _ in range(reps)]
    top = math.lcm(*lengths)
    return lengths, [top // v for v in lengths], numerators, g, m, top


def _beta_order(values, probs) -> list:
    """Indices by decreasing rescaled value; ties break toward the larger
    probability, then the smaller original index."""
    return sorted(range(len(values)), key=lambda i: (-values[i], -probs[i], i))


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear curve from (0,0) to (X_total, 1), for export; points
    at one x are merged into one."""

    points: tuple

    def __post_init__(self):
        pts = [(x, y) for x, y in self.points]
        if not pts or pts[0][0] != 0 or pts[0][1] != 0:
            raise ValueError("curve must start at (0, 0)")
        merged = [pts[0]]
        for x, y in pts[1:]:
            px, py = merged[-1]
            if x == px:
                if y != py:
                    raise ValueError(f"two heights at x={x!r}")
                continue
            if x < px:
                raise ValueError("x coordinates must be non-decreasing")
            merged.append((x, y))
        object.__setattr__(self, "points", tuple(merged))

    @property
    def x_extent(self):
        return self.points[-1][0]

    def write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x", "y"])
        for x, y in self.points:
            w.writerow([format_number(float(x)), format_number(float(y))])


def thermal_lorenz(s: BlockState) -> LorenzCurve:
    """Cumulative beta-ordered probability against cumulative Gibbs weight.

    Zero-probability levels land at the end as flat segments, keeping the
    full partition-function extent."""
    perm = [i for *_, i in beta_segments(s.probs, s.ham.gibbs, s.exact)]
    if s.exact:
        xs = accumulate((s.ham.gibbs[i] for i in perm), initial=Fraction(0))
        ys = accumulate((s.probs[i] for i in perm), initial=Fraction(0))
        return LorenzCurve(tuple(zip(xs, ys)))
    # float path: running sums depend on the summation order, so pin the
    # endpoint to the order-independent compensated totals; two states on one
    # Hamiltonian then share their extent to the bit
    xs = accumulate((float(s.ham.gibbs[i]) for i in perm[:-1]), initial=0.0)
    ys = accumulate((float(s.probs[i]) for i in perm[:-1]), initial=0.0)
    pts = tuple((x, min(y, 1.0)) for x, y in zip(xs, ys))
    return LorenzCurve(pts + ((float(s.ham.partition_function), 1.0),))


def lorenz(p) -> LorenzCurve:
    """Ordinary Lorenz curve: trivial Hamiltonian, x counts levels."""
    return thermal_lorenz(BlockState(tuple(p), Hamiltonian.trivial(len(p))))


@dataclass(frozen=True)
class CurveComparison:
    """Outcome of a dominance check between two curves.

    ``violations`` lists breakpoints of either curve where the candidate-above
    curve dips below the other one (x, positive gap). ``min_gap``/``max_gap``
    are the extreme signed differences over interior breakpoints; ``marginal``
    flags an Above verdict that touches tangency within tolerance.
    """

    verdict: str
    violations: tuple
    marginal: bool = False
    min_gap: float = math.nan
    max_gap: float = math.nan

    @property
    def dominates(self) -> bool:
        return self.verdict in (ABOVE, EQUAL)

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "violations": [{"x": float(x), "gap": float(g)} for x, g in self.violations],
            "marginal": self.marginal,
            "min_gap": None if math.isnan(self.min_gap) else self.min_gap,
            "max_gap": None if math.isnan(self.max_gap) else self.max_gap,
        }


def refine(a, b) -> list:
    """Common cells, left to right, of two ordered partitions of one interval.

    A partition is a non-empty list of segments (length, density, label), a
    cell is (length, a's label, b's label, a's mass, b's mass). The last
    segment of each runs to the common end, which float partitions can sum
    to differently in the last bits; the last cell takes what remains of a's.
    """
    last_a, last_b = len(a) - 1, len(b) - 1
    i = j = 0
    (a_left, da, la), (b_left, db, lb) = a[0], b[0]  # what remains of the current segments
    cells = []
    while i < last_a or j < last_b:
        # cut at the nearer segment end; a last segment has none before the end
        length = a_left if j == last_b or i < last_a and a_left < b_left else b_left
        cells.append((length, la, lb, length * da, length * db))
        a_left -= length
        b_left -= length
        if not a_left and i < last_a:
            i += 1
            a_left, da, la = a[i]
        if not b_left and j < last_b:
            j += 1
            b_left, db, lb = b[j]
    cells.append((a_left, la, lb, a_left * da, a_left * db))
    return cells


def compare_cells(cells, tol, units=None) -> CurveComparison:
    """Dominance of a over b from the gaps at the interior cell boundaries,
    the running sums of a's minus b's cell mass, under slack tol (0 if exact).

    Integer cells (see integer_data) come with units = (x_unit, mass_unit),
    the factors their lengths and masses carry: violations are then read as
    Fraction(x, x_unit) and Fraction(gap, mass_unit), the extreme gaps as
    g / mass_unit, which is float(Fraction(g, mass_unit)) and never
    overflows, since a gap is at most one side's total mass.
    """
    gaps = list(accumulate(mass_a - mass_b for *_, mass_a, mass_b in cells[:-1]))
    if not gaps:
        return CurveComparison(EQUAL, (), False, 0.0, 0.0)
    x_unit, mass_unit = units or (None, None)
    dips = ()
    if any(d < -tol for d in gaps):
        xs = accumulate(length for length, *_ in cells)
        dips = tuple((x, -d) if units is None else (Fraction(x, x_unit), Fraction(-d, mass_unit))
                     for x, d in zip(xs, gaps) if d < -tol)
    has_pos = any(d > tol for d in gaps)
    verdict = CROSSING if dips and has_pos else BELOW if dips else ABOVE if has_pos else EQUAL
    if units is None:
        min_gap, max_gap = float(min(gaps)), float(max(gaps))
    else:
        min_gap, max_gap = min(gaps) / mass_unit, max(gaps) / mass_unit
    marginal = verdict == ABOVE and min_gap <= float(tol)
    return CurveComparison(verdict, dips, marginal, min_gap, max_gap)


def thermal_cells(a: BlockState, b: BlockState) -> list:
    """Common cells of the beta-ordered partitions of [0, Z] of a and b by level."""
    return refine(*(beta_segments(s.probs, s.ham.gibbs, s.exact) for s in (a, b)))


def thermomajorizes(a: BlockState, b: BlockState, cmp_tol: float = CMP_TOL) -> CurveComparison:
    """Thermal-curve dominance of a over b, read off their common cells
    without building a curve; identical Hamiltonians required. Exact states
    are decided on integer cells, with the result compare_cells would give
    on their Fraction cells."""
    if a.ham != b.ham:
        raise ValueError("thermomajorization compares states on one Hamiltonian")
    if not (a.exact and b.exact):
        return compare_cells(thermal_cells(a, b), cmp_tol)
    lengths, weights, (pa, pb), g, m, top = integer_data(a.ham.gibbs, (a.probs, b.probs))
    cells = refine(*(integer_segments(p, lengths, weights) for p in (pa, pb)))
    return compare_cells(cells, 0, (g, m * top))


def majorizes(p, q) -> CurveComparison:
    """Partial-sum dominance of sorted probability vectors: thermomajorization
    on the trivial Hamiltonian, with the shorter input zero-padded."""
    n = max(len(p), len(q))
    ham = Hamiltonian.trivial(n)
    return thermomajorizes(*(BlockState((*v, *(0,) * (n - len(v))), ham) for v in (p, q)))
