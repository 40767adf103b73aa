"""Explicit Gibbs-preserving stochastic witnesses, built on the curve cells.

A transition between block-diagonal states is possible through a thermal
process exactly when some column-stochastic matrix fixes the Gibbs state and
maps the initial distribution to the target, that is, when the initial
thermal curve dominates the target's. Both states are read once, as the
integers the dominance verdict uses (``majorization.exact_cells``), float
entries as the rationals they are: one exact walk decides feasibility with
no tolerance, and only a dominating pair goes on to the integer cells. The
matrix is built on them by the d-majorization construction (Horodecki &
Oppenheim, Nat. Commun. 4, 2059 (2013); Shiraishi, "Two constructive proofs
on d-majorization and thermo-majorization"): weighted T-transforms between
cells, each decided on the integer masses, and a sum back into levels. For
exact inputs of up to 12 levels the rows are integers and the matrix is
checked by exact equality; for float inputs, and exact inputs above 12
levels, the rows are floats, each share and transform coefficient rounded
once from the integers, and the matrix must pass residual bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .majorization import _integers, exact_cells
from .modes import (
    GIBBS_DRIFT_TOL,
    WITNESS_ENTRY_TOL,
    WITNESS_GIBBS_TOL,
    WITNESS_MAP_TOL,
    all_exact,
    encode_number,
    parse_number,
)
from .states import BlockState, Hamiltonian

# Up to this many levels a witness for exact inputs is built exactly; above,
# rational bit sizes grow too costly and it is built in floats, as for floats.
EXACT_DIMENSION_LIMIT = 12


class WitnessNumericalError(RuntimeError):
    """A constructed witness failed validation; this is not a certified infeasibility."""


@dataclass(frozen=True)
class StochasticWitness:
    """Column-stochastic matrix, row-major; columns act on input levels."""

    matrix: tuple
    exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.matrix)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must be non-empty and equal length")
        cleaned = []
        for r in rows:
            out = []
            for v in r:
                if v < 0:
                    if float(v) < -WITNESS_ENTRY_TOL:
                        raise ValueError(f"negative matrix entry {v!r}")
                    v = type(v)(0)  # clamp tiny negatives, keeping the numeric type
                out.append(v)
            cleaned.append(tuple(out))
        rows = tuple(cleaned)
        n_rows, n_cols = len(rows), len(rows[0])
        for j in range(n_cols):
            colsum = math.fsum(float(rows[i][j]) for i in range(n_rows))
            if abs(colsum - 1.0) > WITNESS_ENTRY_TOL:
                raise ValueError(f"column {j} sums to {colsum!r}, not 1")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "exact", all(all_exact(r) for r in rows))

    @property
    def dims(self) -> tuple:
        return (len(self.matrix), len(self.matrix[0]))

    def apply(self, p) -> tuple:
        """Matrix-vector product; length must match the column count."""
        n_cols = self.dims[1]
        if len(p) != n_cols:
            raise ValueError(f"vector of length {len(p)} against {n_cols} columns")
        if self.exact and all_exact(p):  # the entries read over one denominator b, p over d
            (nums, b), (xs, d) = _integers([v for row in self.matrix for v in row]), _integers(p)
            rows = (nums[i:i + n_cols] for i in range(0, len(nums), n_cols))
            return tuple(Fraction(sum(v * x for v, x in zip(row, xs)), b * d) for row in rows)
        x = [float(v) for v in p]
        return tuple(math.fsum(float(v) * x_j for v, x_j in zip(row, x)) for row in self.matrix)

    def residuals(self, p, q, gamma) -> dict:
        mp = self.apply(p)
        mg = self.apply(gamma)
        return {
            "map": max(abs(float(a) - float(b)) for a, b in zip(mp, q)),
            "gibbs": max(abs(float(a) - float(b)) for a, b in zip(mg, gamma)),
            "columns": max(
                abs(math.fsum(float(self.matrix[i][j]) for i in range(self.dims[0])) - 1.0)
                for j in range(self.dims[1])
            ),
            "negativity": 0.0,
        }

    def to_json_obj(self, p=None, q=None, gamma=None) -> dict:
        obj = {
            "matrix": [[encode_number(v) for v in row] for row in self.matrix],
            "row_labels": [str(i) for i in range(self.dims[0])],
            "validated": True,
        }
        if p is not None and q is not None and gamma is not None:
            obj["residuals"] = self.residuals(p, q, gamma)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "StochasticWitness":
        return cls(tuple(tuple(parse_number(v) for v in row) for row in obj["matrix"]))


def identity_witness(n: int) -> StochasticWitness:
    return StochasticWitness(tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    ))


def _construct(cells, gibbs, n: int, exact: bool):
    """Rows of a column-stochastic M with M g = g and M p = q, from the cells.

    Cells and the Gibbs numerators are ints, as exact_cells gives them, and
    every running sum of p's minus q's cell mass is >= 0. Row c of ``rows``
    is the map from p's levels to the mass in cell c; it starts as the
    proportional split of each level's interval. Weighted T-transforms then
    move mass from the last cell with a surplus over q to the first later
    cell with a deficit, preserving the cell lengths, until every cell holds
    q's mass (each step settles one cell). Summing the rows of each q level
    gives M. Every transform is decided on the integer masses; ``exact``
    picks only the rows' arithmetic. Integer rows are numerators over
    ``dens``, so M is exact and takes integer arithmetic only, down to one
    Fraction per entry; float rows take each share and each transform's s
    and t as one correctly rounded quotient of the integers.
    """
    rows, dens, mass, target = [], [], [], []
    for length, i, _, p_mass, q_mass in cells:
        row = [0] * n
        row[i] = length if exact else length / gibbs[i]
        rows.append(row)
        dens.append(gibbs[i])
        mass.append(p_mass)
        target.append(q_mass)
    m = len(cells)
    # a transform fills a later deficit and creates no surplus, so the cells
    # are settled from the last one back; the running sums leave every
    # surplus a later deficit
    for j in range(m - 1, -1, -1):
        while mass[j] > target[j]:
            k = next(c for c in range(j + 1, m) if mass[c] < target[c])
            lj, lk = cells[j][0], cells[k][0]
            delta = min(mass[j] - target[j], target[k] - mass[k])
            # T = [[1-s, t], [s, 1-t]] on (j, k) with s*lj = t*lk fixes the
            # lengths and moves s*mass[j] - t*mass[k] = delta; s and t are
            # numerators over denom
            denom = mass[j] * lk - mass[k] * lj
            if denom > 0:
                s_num, t_num, rj, rk = min(denom, delta * lk), min(denom, delta * lj), rows[j], rows[k]
                if exact:  # rows j, k over dj, dk
                    dj, dk = dens[j], dens[k]
                    rows[j] = [(denom - s_num) * dk * u + t_num * dj * v for u, v in zip(rj, rk)]
                    rows[k] = [s_num * dk * u + (denom - t_num) * dj * v for u, v in zip(rj, rk)]
                    for c in (j, k):  # both new rows lie over denom dj dk; reduce them
                        g = math.gcd(denom * dj * dk, *rows[c])
                        rows[c], dens[c] = [u // g for u in rows[c]], denom * dj * dk // g
                else:
                    s, t = s_num / denom, t_num / denom
                    rows[j] = [(1 - s) * u + t * v for u, v in zip(rj, rk)]
                    rows[k] = [s * u + (1 - t) * v for u, v in zip(rj, rk)]
            mass[j], mass[k] = mass[j] - delta, mass[k] + delta
    if exact:  # the rows read over one denominator, so the sums below add integers
        scales, top = _integers([Fraction(1, d) for d in dens])
        rows = [[u * f for u in row] for row, f in zip(rows, scales)]
    matrix = [[0 if exact else 0.0] * n for _ in range(n)]
    for (_, _, j, _, _), row in zip(cells, rows):
        out = matrix[j]
        for i, v in enumerate(row):
            out[i] += v
    return tuple(tuple(Fraction(v, top) if exact else v for v in r) for r in matrix)


def find_witness(p: BlockState, q: BlockState):
    """Gibbs-preserving stochastic matrix with M p = q, or None if none exists.

    Feasibility is decided and the matrix built as the module docstring says,
    exact inputs of up to EXACT_DIMENSION_LIMIT levels in integers; any
    returned witness has been re-validated by direct multiplication.
    """
    return _witness_or_comparison(p, q)[0]


def _witness_or_comparison(p: BlockState, q: BlockState) -> tuple:
    """(witness, None) as find_witness builds it, or (None, the exact
    comparison that rules one out), for callers that report why."""
    if p.ham != q.ham:
        raise ValueError("witness search needs both states on the same Hamiltonian")
    n = len(p)
    gamma = p.ham.gibbs_probs
    if p.probs == q.probs:
        return identity_witness(n), None
    if q.probs == gamma:
        rows = tuple(tuple(gamma[i] for _ in range(n)) for i in range(n))
        return StochasticWitness(rows), None
    comparison, cells, weights = exact_cells(p, q)
    if cells is None:
        return None, comparison
    exact = p.exact and q.exact and n <= EXACT_DIMENSION_LIMIT
    witness = StochasticWitness(_construct(cells, weights, n, exact))
    if exact:  # exact arithmetic, so equality is strict
        if witness.apply(p.probs) != q.probs or witness.apply(gamma) != gamma:
            raise WitnessNumericalError("exact construction produced an invalid witness")
        return witness, None
    r = witness.residuals(p.probs, q.probs, gamma)
    if r["map"] > WITNESS_MAP_TOL or r["gibbs"] > WITNESS_GIBBS_TOL:
        raise WitnessNumericalError(f"witness failed validation: residuals {r}")
    return witness, None


def random_gibbs_stochastic(ham: Hamiltonian, seed: int, weight: float = 1.0,
                            exchanges: int | None = None) -> StochasticWitness:
    """Random column-stochastic matrix fixing the Gibbs state.

    Composes random two-level Gibbs-preserving exchanges, then mixes the
    product with the identity: weight 0 returns the identity exactly.
    Seeded runs are bit-reproducible.
    """
    import random as _random

    if not 0 <= weight <= 1:
        raise ValueError("mixing weight must lie in [0, 1]")
    n = len(ham)
    gamma = [float(g) for g in ham.gibbs_probs]
    rng = _random.Random(seed)
    if exchanges is None:
        exchanges = 2 * n
    m = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(exchanges):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        # two-level exchange: move a fraction a of column i's mass to j and
        # the gamma-balancing fraction b of column j's back, so gamma stays fixed
        cap = min(1.0, gamma[j] / gamma[i])
        a = rng.random() * cap
        b = a * gamma[i] / gamma[j]
        ri, rj = m[i], m[j]
        m[i] = [(1.0 - a) * u + b * v for u, v in zip(ri, rj)]
        m[j] = [a * u + (1.0 - b) * v for u, v in zip(ri, rj)]
    m = [[(1.0 - weight) * (1.0 if i == j else 0.0) + weight * v for j, v in enumerate(row)]
         for i, row in enumerate(m)]
    witness = StochasticWitness(tuple(tuple(row) for row in m))
    drift = max(
        abs(math.fsum(witness.matrix[i][j] * gamma[j] for j in range(n)) - gamma[i])
        for i in range(n)
    )
    if drift > GIBBS_DRIFT_TOL:
        raise WitnessNumericalError(f"generated map drifts off the Gibbs state by {drift}")
    return witness
