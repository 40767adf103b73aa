"""Renyi entropies, Renyi divergences, and generalized free energies.

All values are in nats (natural log, kT = 1). The order parameter alpha
lives on the extended real line; the four limit orders {-inf, 0, 1, +inf}
are handled by their own formulas, never by plugging a large float into the
generic expression. Divergent results are a deliberate ``math.inf``, not an
overflow artifact: all power sums are evaluated in log space.

One evaluator, ``_divergences``, holds those formulas and the zero
conventions, and an entropy is minus the divergence to the all-ones measure:
H_alpha(p) = -S_alpha(p || 1). Only the raw-sequence entry points
(``renyi_entropy``, ``renyi_divergence``) validate; states and joints were
validated when built, and each function taking them makes one evaluator call.

Zero-probability conventions (fixed here so verdicts are deterministic):

* entropy, alpha > 0: sum over the support.
* entropy, alpha < 0 or alpha = -inf: any zero entry diverges to -inf.
* divergence: terms with p_i = q_i = 0 are dropped; alpha > 1 with some
  p_i > 0 = q_i gives +inf; alpha in (0,1) sums over the joint support;
  alpha < 0 with some q_i > 0 = p_i gives +inf.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .modes import ALPHA_ONE_WINDOW, CORRELATION_CLAMP, POSSIBLE_TOL
from .states import BlockState, JointCatalyst, validate_distribution


@dataclass(frozen=True, order=True)
class Alpha:
    """Order on the extended real line, with exact limit cases."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v):
            raise ValueError("alpha cannot be NaN")
        # the alpha = 1 formula dodges the 1/(alpha-1) cancellation
        if v != 1.0 and abs(v - 1.0) < ALPHA_ONE_WINDOW:
            v = 1.0
        object.__setattr__(self, "value", v)

    @classmethod
    def coerce(cls, x) -> "Alpha":
        return x if isinstance(x, Alpha) else cls(x)

    @property
    def is_zero(self) -> bool:
        return self.value == 0.0

    @property
    def is_one(self) -> bool:
        return self.value == 1.0

    @property
    def is_inf(self) -> bool:
        return self.value == math.inf

    @property
    def is_neg_inf(self) -> bool:
        return self.value == -math.inf

    def label(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_one:
            return "1"
        if self.is_inf:
            return "inf"
        if self.is_neg_inf:
            return "-inf"
        return repr(self.value)

    @classmethod
    def from_label(cls, text: str) -> "Alpha":
        t = text.strip()
        special = {"0": 0.0, "1": 1.0, "inf": math.inf, "-inf": -math.inf}
        if t in special:
            return cls(special[t])
        return cls(float(t))


ALPHA_NEG_INF = Alpha(-math.inf)
ALPHA_0 = Alpha(0.0)
ALPHA_1 = Alpha(1.0)
ALPHA_INF = Alpha(math.inf)


@functools.cache
def default_alpha_grid() -> tuple:
    """60 log-spaced orders in (0, 20] plus the four limit cases.

    The nearest grid points to 0.5, 2, 4 and 10 are snapped onto those
    values exactly, so sweeps and diagnostics quote round benchmark orders.
    Built once per process: every call returns the same immutable tuple.
    """
    lo, hi, count = math.log(0.05), math.log(20.0), 60
    pts = [math.exp(lo + i * (hi - lo) / (count - 1)) for i in range(count)]
    pts[0], pts[-1] = 0.05, 20.0
    for anchor in (0.5, 2.0, 4.0, 10.0):
        idx = min(range(count), key=lambda i: abs(pts[i] - anchor))
        pts[idx] = anchor
    finite = sorted(set(pts))
    grid = [ALPHA_NEG_INF, ALPHA_0] + [Alpha(v) for v in finite] + [ALPHA_1, ALPHA_INF]
    return tuple(sorted(grid, key=lambda a: a.value))


@functools.cache
def nonnegative_alpha_grid() -> tuple:
    return tuple(a for a in default_alpha_grid() if a.value >= 0)


def _log_power_sum(terms: Iterable[float]) -> float:
    """log(sum(exp(t))) over the given log-terms, overflow-safe."""
    logs = list(terms)
    if not logs:
        return -math.inf
    m = max(logs)
    if m == -math.inf:
        return -math.inf
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(math.exp(t - m) for t in logs))


def _divergences(p, q, alphas) -> list:
    """S_alpha(p||q) at each ``Alpha`` in alphas, reading p and q once.
    Unvalidated: p must be a probability vector and q a nonnegative vector
    of the same length (all ones gives -H_alpha(p))."""
    # drop levels unoccupied on both sides
    pairs = [(float(x), float(y)) for x, y in zip(p, q) if x > 0 or y > 0]
    p_only = any(y == 0 for x, y in pairs if x > 0)
    q_only = any(x == 0 for x, y in pairs if y > 0)
    joint = [(x, y) for x, y in pairs if x > 0 and y > 0]
    logs = None  # taken at the first generic order; the limit orders need none
    out = []
    for a in alphas:
        v = a.value
        if v == 0.0:
            covered = math.fsum(y for x, y in pairs if x > 0)
            out.append(-math.log(covered) if covered > 0 else math.inf)
        elif v == -math.inf:
            out.append(math.inf if q_only else math.log(max(y / x for x, y in joint)))
        elif (v >= 1 and p_only) or (v < 0 and q_only) or not joint:
            out.append(math.inf)
        elif v == 1.0:
            out.append(math.fsum(x * math.log(x / y) for x, y in joint))
        elif v == math.inf:
            out.append(math.log(max(x / y for x, y in joint)))
        else:
            # log sum_i p_i^v q_i^(1-v) as _log_power_sum takes it, inline
            # because a default sweep runs this branch 60 times per state
            if logs is None:
                logs = [(math.log(x), math.log(y)) for x, y in joint]
            w = 1.0 - v
            ts = [v * lx + w * ly for lx, ly in logs]
            m = max(ts)
            if m == -math.inf or m == math.inf:
                lse = m
            else:
                lse = m + math.log(math.fsum([math.exp(t - m) for t in ts]))
            out.append((1.0 if v > 0 else -1.0) / (v - 1.0) * lse)
    return out


def _entropies(p, alphas) -> list:
    """H_alpha(p) = -S_alpha(p || all ones) at each order, unvalidated."""
    return [-d for d in _divergences(p, (1,) * len(p), alphas)]


def renyi_entropy(p: Sequence, a) -> float:
    """H_alpha(p); +-inf are legitimate values for degenerate inputs."""
    a = Alpha.coerce(a)
    validate_distribution(p)
    return _entropies(p, [a])[0]


def renyi_divergence(p: Sequence, q: Sequence, a) -> float:
    """S_alpha(p||q) for classical distributions of equal length."""
    a = Alpha.coerce(a)
    validate_distribution(p)
    validate_distribution(q)
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return _divergences(p, q, [a])[0]


def free_energy_alpha(s: BlockState, a) -> float:
    """F_alpha relative to nothing: -ln Z + S_alpha(p || gibbs), with the
    absolute ln Z = ln sum e^{-E_i} taken from the levels in log space."""
    div = free_energy_gap(s, a)
    return div if math.isinf(div) else -_log_power_sum(-float(e) for e in s.ham.levels) + div


def free_energy_gap(s: BlockState, a) -> float:
    """F_alpha(s) - F_alpha(gibbs), i.e. S_alpha(p || gibbs) directly.

    Evaluating the divergence avoids the -ln Z cancellation, so gaps near
    zero keep full precision."""
    a = Alpha.coerce(a)
    return _divergences(s.probs, s.ham.gibbs_probs, [a])[0]


@dataclass(frozen=True)
class ProfileEntry:
    alpha: Alpha
    value: float
    finite: bool


@dataclass(frozen=True)
class AlphaProfile:
    """Sampled map alpha -> value over a grid including the limit orders."""

    entries: tuple

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def value_at(self, a) -> float:
        a = Alpha.coerce(a)
        for e in self.entries:
            if e.alpha == a:
                return e.value
        raise KeyError(f"alpha {a.label()} not in profile")

    def sign_intervals(self) -> list:
        """Compressed runs of the sign of the value along the grid; values
        within POSSIBLE_TOL of zero count as zero."""
        runs = []
        for e in self.entries:
            if not e.finite and math.isnan(e.value):
                sign = "undefined"
            elif e.value > POSSIBLE_TOL:
                sign = "+"
            elif e.value < -POSSIBLE_TOL:
                sign = "-"
            else:
                sign = "0"
            if runs and runs[-1][0] == sign:
                runs[-1][2] = e.alpha
            else:
                runs.append([sign, e.alpha, e.alpha])
        return [(s, lo, hi) for s, lo, hi in runs]

    def to_rows(self) -> list:
        return [(e.alpha.label(), e.value, e.finite) for e in self.entries]

    def write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["alpha", "delta_f", "finite"])
        for label, value, finite in self.to_rows():
            w.writerow([label, format_number(value), "true" if finite else "false"])

    def to_json_obj(self) -> list:
        out = []
        for label, value, finite in self.to_rows():
            if math.isinf(value):
                enc = "inf" if value > 0 else "-inf"
            elif math.isnan(value):
                enc = "nan"
            else:
                enc = value
            out.append({"alpha": label, "delta_f": enc, "finite": finite})
        return out


def format_number(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return "%.17g" % x


def delta_f_sweep(initial: BlockState, final: BlockState, alphas=None) -> AlphaProfile:
    """F_alpha(final) - F_alpha(initial) over the grid (at least one order)."""
    if initial.ham != final.ham:
        raise ValueError("sweep needs both states on the same Hamiltonian")
    alphas = [Alpha.coerce(a) for a in (default_alpha_grid() if alphas is None else alphas)]
    if not alphas:
        raise ValueError("sweep needs at least one order")
    # both free energies share -ln Z, so their difference is one of
    # divergences to the one Gibbs vector, with -ln Z cancelled exactly
    gamma = initial.ham.gibbs_probs
    entries = []
    for a, fv, iv in zip(alphas, _divergences(final.probs, gamma, alphas),
                         _divergences(initial.probs, gamma, alphas)):
        value = math.nan if math.isinf(fv) and fv == iv else fv - iv
        entries.append(ProfileEntry(a, value, math.isfinite(value)))
    return AlphaProfile(tuple(entries))


def total_correlation(joint: JointCatalyst) -> float:
    """Sum of marginal Shannon entropies minus the joint Shannon entropy."""
    parts = math.fsum(_entropies(m.probs, [ALPHA_1])[0] for m in joint.marginals())
    return _correlation(parts, joint.probs)


def _correlation(parts: float, probs) -> float:
    """parts, the marginals' summed Shannon entropy, minus that of probs;
    rounding negatives within CORRELATION_CLAMP read as 0."""
    value = parts - _entropies(probs, [ALPHA_1])[0]
    return 0.0 if -CORRELATION_CLAMP < value < 0 else value


def mutual_info_bound(epsilon: float, w: float) -> float:
    """Correlation budget H(eps, 1-eps) + eps*w for a work-bit failure
    probability eps and work amount w (kT = 1)."""
    eps = float(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie strictly in (0,1), got {epsilon!r}")
    binary = -(eps * math.log(eps) + (1 - eps) * math.log(1 - eps))
    return binary + eps * float(w)


def work_bit_delta_f(beta_e: float, beta_w: float, ground_pop: float, fail_prob: float, a) -> float:
    """Closed-form Delta F_alpha for the qubit work-extraction pair.

    Initial: (p, 1-p) on levels (0, beta_e) next to a work bit fixed in its
    ground state on levels (0, beta_w). Final: the Gibbs state of the qubit
    next to the work bit raised with failure probability eps. Valid for
    alpha >= 0; the generic sweep covers everything else.
    """
    a = Alpha.coerce(a)
    p, eps = float(ground_pop), float(fail_prob)
    if not 0 < p < 1:
        raise ValueError("ground population must lie strictly in (0,1)")
    if not 0 < eps < 1:
        raise ValueError("failure probability must lie strictly in (0,1)")
    if a.value < 0:
        raise ValueError("closed form is stated for alpha >= 0")
    log_zs = math.log1p(math.exp(-beta_e))
    if a.is_one:
        h = lambda x: -(x * math.log(x) + (1 - x) * math.log(1 - x))
        return -log_zs - h(eps) + (1 - eps) * beta_w + h(p) - (1 - p) * beta_e
    if a.is_zero:
        return -math.log1p(math.exp(-beta_w))
    if a.is_inf:
        num = max(math.log(eps), math.log1p(-eps) + beta_w)
        den = max(math.log(p), math.log1p(-p) + beta_e)
        return -log_zs + num - den
    v = a.value
    log_num = _log_power_sum([v * math.log(eps), v * math.log1p(-eps) - beta_w * (1 - v)])
    log_den = _log_power_sum([v * math.log(p), v * math.log1p(-p) - beta_e * (1 - v)])
    return -log_zs + (log_num - log_den) / (v - 1.0)
