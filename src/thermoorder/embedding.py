"""Block-expansion map turning rational Gibbs references into uniform ones.

Splitting level i into d_i equal sub-levels sends a Gibbs state with entries
d_i/D to the uniform distribution on D = sum(d_i) levels. Free-energy
questions against the rational Gibbs reference then become plain entropy /
majorization questions on the expanded space, which is the reduction the
transition machinery leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .entropies import Alpha, _divergences, _entropies, nonnegative_alpha_grid
from .modes import EMBEDDING_TOL, is_exact_number
from .states import BlockState


@dataclass(frozen=True)
class EmbeddingSpec:
    """Positive block sizes d_i; the expanded dimension is their sum."""

    d: tuple

    def __post_init__(self):
        d = tuple(self.d)
        # bools, floats and strings are rejected, not truncated
        if not d or any(type(x) is not int or x < 1 for x in d):
            raise ValueError(f"block sizes must be positive integers, not {self.d!r}")
        object.__setattr__(self, "d", d)

    @property
    def D(self) -> int:
        return sum(self.d)

    @property
    def n(self) -> int:
        return len(self.d)

    def gibbs_probs(self) -> tuple:
        D = self.D
        return tuple(Fraction(x, D) for x in self.d)

    def to_json_obj(self) -> dict:
        return {"d": list(self.d)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EmbeddingSpec":
        return cls(tuple(obj["d"]))


def _apportion(gamma, D):
    """Best integer split of D proportional to gamma with every part >= 1,
    minimizing the worst |d_i/D - gamma_i|. Returns None if D is too small."""
    n = len(gamma)
    if D < n:
        return None
    target = [g * D for g in gamma]
    d = [max(1, round(t)) for t in target]
    # greedy unit moves toward the worst deviation fix the total
    while sum(d) > D:
        candidates = [i for i in range(n) if d[i] > 1]
        i = max(candidates, key=lambda k: (d[k] - target[k], k))
        d[i] -= 1
    while sum(d) < D:
        i = max(range(n), key=lambda k: (target[k] - d[k], -k))
        d[i] += 1
    return d


def rational_gibbs(ham, max_denominator: int):
    """(EmbeddingSpec, error): rational approximation d_i/D of the Gibbs state
    with D <= max_denominator, every d_i >= 1, by exhaustive denominator scan.

    error is the worst entrywise deviation actually achieved.
    """
    n = len(ham)
    if max_denominator < n:
        raise ValueError(
            f"max_denominator {max_denominator} cannot give {n} positive blocks"
        )
    gamma = [float(p) for p in ham.gibbs_probs]
    best_d, best_err = None, None
    for D in range(n, max_denominator + 1):
        d = _apportion(gamma, D)
        if d is None:
            continue
        err = max(abs(di / D - g) for di, g in zip(d, gamma))
        if best_err is None or err < best_err:
            best_d, best_err = d, err
    return EmbeddingSpec(tuple(best_d)), best_err


def embed(p, spec: EmbeddingSpec) -> tuple:
    """Spread each p_i uniformly over its d_i sub-levels."""
    if len(p) != spec.n:
        raise ValueError(f"vector of length {len(p)} against {spec.n} blocks")
    out = []
    for pi, di in zip(p, spec.d):
        share = Fraction(pi, di) if is_exact_number(pi) else pi / di
        out.extend([share] * di)
    return tuple(out)


def unembed(v, spec: EmbeddingSpec) -> tuple:
    """Left inverse of embed: sum each block back together."""
    if len(v) != spec.D:
        raise ValueError(f"vector of length {len(v)} against expanded dimension {spec.D}")
    out = []
    pos = 0
    for di in spec.d:
        block = v[pos:pos + di]
        out.append(sum(block[1:], block[0]))
        pos += di
    return tuple(out)


def embedding_identity_check(s: BlockState, spec: EmbeddingSpec, alphas=None) -> float:
    """Worst deviation over the grid between the free-energy gap of s and
    ln D - H_alpha of the embedded distribution.

    The identity needs the state's Gibbs entries to be exactly the block
    fractions d_i/D (within EMBEDDING_TOL for floats), and it holds on the
    nonnegative alpha line (the sign convention flips the ln D term for
    negative orders), so the default grid is alpha >= 0.
    """
    gamma = s.ham.gibbs_probs
    ref = spec.gibbs_probs()
    if s.ham.exact:
        if tuple(gamma) != tuple(ref):
            raise ValueError("embedding blocks do not reproduce the Gibbs state")
    else:
        worst = max(abs(float(a) - float(b)) for a, b in zip(gamma, ref))
        if worst > EMBEDDING_TOL:
            raise ValueError(
                f"embedding blocks miss the Gibbs state by {worst} (> {EMBEDDING_TOL})"
            )
    alphas = [Alpha.coerce(a) for a in (nonnegative_alpha_grid() if alphas is None else alphas)]
    if any(a.value < 0 for a in alphas):
        raise ValueError("the embedding identity is stated for alpha >= 0")
    gaps = _divergences(s.probs, gamma, alphas)
    entropies = _entropies(embed(s.probs, spec), alphas)
    log_d = math.log(spec.D)
    worst = 0.0
    for lhs, h in zip(gaps, entropies):
        rhs = log_d - h
        if math.isinf(lhs) or math.isinf(rhs):
            if lhs != rhs:
                return math.inf
            continue
        worst = max(worst, abs(lhs - rhs))
    return worst
