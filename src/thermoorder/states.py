"""Energy-block-diagonal states, Gibbs states, and composite systems.

Conventions, fixed once for the whole library:

* Energies are stored pre-multiplied by the inverse temperature (beta*E,
  dimensionless), so kT = 1 and every entropic quantity is in nats.
* Gibbs weights derived from levels are relative to the ground level,
  e^{-(E_i - E_min)}, so a constant added to every level changes none of
  them; Z is their sum. ``Hamiltonian`` holds them, Z and the Gibbs
  distribution, and every other module reads them from there.
* Zero probabilities are kept, never pruned: support counts feed the
  rank-based transition criteria downstream.
* Tensor products flatten in row-major order (left factor is the slow
  index), which pins curve breakpoints down to the bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .modes import (
    NORM_TOL,
    all_exact,
    encode_number,
    is_exact_number,
    parse_number,
    to_fraction,
)


def _is_finite(x) -> bool:
    if type(x) is float:  # the common case, checked first
        return math.isfinite(x)
    return is_exact_number(x) or isinstance(x, float) and math.isfinite(x)


def validate_distribution(probs: Sequence) -> bool:
    """Raise ValueError unless probs is a probability vector; return whether
    it is exact (all entries rational).

    Exact input must sum to 1 exactly; float input within NORM_TOL. Nothing
    is ever silently renormalized.
    """
    if len(probs) == 0:
        raise ValueError("empty probability vector")
    exact = True
    for i, p in enumerate(probs):
        if not is_exact_number(p):
            if not (isinstance(p, float) and math.isfinite(p)):
                raise ValueError(f"probability {i} is not finite: {p!r}")
            exact = False
        if p < 0:
            raise ValueError(f"negative probability at index {i}: {p!r}")
    if exact:
        total = sum(probs, Fraction(0))
        if total != 1:
            raise ValueError(f"exact probabilities sum to {total}, not 1")
        return True
    total = math.fsum(float(p) for p in probs)
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, off by more than {NORM_TOL}")
    return False


def _exp_neg(level):
    # an exact level at the ground keeps an exact unit Gibbs weight, so
    # trivial Hamiltonians stay inside the rational world
    if is_exact_number(level) and level == 0:
        return Fraction(1)
    try:
        level = float(level)
    except OverflowError:  # an exact level beyond the float range above the ground
        return 0.0
    return math.exp(-level)


@dataclass(frozen=True)
class Hamiltonian:
    """Energy levels in kT units; index i labels level i.

    ``gibbs`` holds the Boltzmann weights relative to the ground level,
    e^{-(E_i - E_min)}, so the largest is exactly 1. They are derived from
    the levels unless given explicitly (``from_gibbs_factors``, ``tensor``,
    ``BlockState.to_exact`` / ``to_float``), which is how exactly-rational
    Gibbs states enter; explicit weights are kept as given. Z
    (``partition_function``) is their sum and ``gibbs_probs`` the Gibbs
    distribution g_i / Z, each computed once, on first use.
    """

    levels: tuple
    gibbs: tuple = None
    exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels:
            raise ValueError("Hamiltonian needs at least one level")
        for i, e in enumerate(levels):
            if not _is_finite(e):
                raise ValueError(f"level {i} is not finite: {e!r}")
        object.__setattr__(self, "levels", levels)
        if self.gibbs is None:
            ground = min(levels)
            gibbs = tuple(_exp_neg(e - ground) for e in levels)
        else:
            gibbs = tuple(self.gibbs)
            if len(gibbs) != len(levels):
                raise ValueError("levels and Gibbs weights differ in length")
        for i, g in enumerate(gibbs):
            # a level some 745 kT above the ground underflows to 0.0
            if not _is_finite(g) or g <= 0:
                raise ValueError(f"Gibbs weight of level {i} ({levels[i]!r}) is {g!r}; "
                                 "weights must be finite and positive")
        object.__setattr__(self, "gibbs", gibbs)
        object.__setattr__(self, "exact", all_exact(gibbs))

    @classmethod
    def trivial(cls, n: int) -> "Hamiltonian":
        """n degenerate levels at energy 0 (exact unit weights)."""
        if n < 1:
            raise ValueError("need at least one level")
        return cls((0,) * n)

    @classmethod
    def from_gibbs_factors(cls, weights: Sequence) -> "Hamiltonian":
        """Build from Boltzmann weights directly. Rational weights make the
        Hamiltonian exact; the stored levels are then float renderings only."""
        w = tuple(weights)
        levels = tuple(-math.log(float(x)) for x in w)
        return cls(levels, w)

    def __len__(self) -> int:
        return len(self.levels)

    @cached_property
    def partition_function(self):
        if self.exact:
            return sum(self.gibbs, Fraction(0))
        return math.fsum(float(g) for g in self.gibbs)

    @cached_property
    def gibbs_probs(self) -> tuple:
        """The Gibbs distribution g_i / Z."""
        Z = self.partition_function
        return tuple(g / Z for g in self.gibbs)

    def tensor(self, other: "Hamiltonian") -> "Hamiltonian":
        """Composite Hamiltonian: pairwise level sums, row-major order."""
        levels = tuple(a + b for a in self.levels for b in other.levels)
        gibbs = tuple(ga * gb for ga in self.gibbs for gb in other.gibbs)
        return Hamiltonian(levels, gibbs)


@dataclass(frozen=True)
class BlockState:
    """Probability vector over the levels of a Hamiltonian."""

    probs: tuple
    ham: Hamiltonian
    exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        probs = tuple(self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != len(self.ham):
            raise ValueError(
                f"{len(probs)} probabilities for {len(self.ham)} levels"
            )
        exact = validate_distribution(probs) and self.ham.exact
        object.__setattr__(self, "exact", exact)

    def __len__(self) -> int:
        return len(self.probs)

    @property
    def support_size(self) -> int:
        return sum(1 for p in self.probs if p > 0)

    def to_exact(self) -> "BlockState":
        """Exact-rational version: the state itself if already exact (it is
        immutable, so a copy would equal it), else a rational copy.

        Floats convert losslessly as dyadic rationals; since their exact sum
        then differs from 1 by rounding, the probabilities are renormalized
        exactly (a relative adjustment within the construction tolerance).
        majorization.integer_data reads a float state the same way without
        making this copy.
        """
        if self.exact:
            return self
        ham = Hamiltonian(self.ham.levels, tuple(to_fraction(g) for g in self.ham.gibbs))
        probs = [to_fraction(p) for p in self.probs]
        total = sum(probs, Fraction(0))
        return BlockState(tuple(p / total for p in probs), ham)

    def to_float(self) -> "BlockState":
        ham = Hamiltonian(self.ham.levels, tuple(float(g) for g in self.ham.gibbs))
        return BlockState(tuple(float(p) for p in self.probs), ham)


def gibbs_state(ham: Hamiltonian) -> BlockState:
    """Thermal equilibrium state g_i/Z for the given Hamiltonian."""
    return BlockState(ham.gibbs_probs, ham)


def tensor(a: BlockState, b: BlockState) -> BlockState:
    """Composite state: outer product flattened row-major."""
    probs = tuple(pa * pb for pa in a.probs for pb in b.probs)
    return BlockState(probs, a.ham.tensor(b.ham))


def tensor_all(states: Sequence[BlockState]) -> BlockState:
    out = states[0]
    for s in states[1:]:
        out = tensor(out, s)
    return out


@dataclass(frozen=True)
class JointCatalyst:
    """Joint distribution over a product of auxiliary systems.

    The auxiliary Hamiltonians are trivial by construction, so the joint is
    fully described by its probabilities and the declared subsystem
    dimensions (row-major flattening, consistent with ``tensor``).
    """

    probs: tuple
    dims: tuple
    exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        probs = tuple(self.probs)
        dims = tuple(self.dims)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "dims", dims)
        # bools and floats are rejected, not truncated
        if not dims or any(type(d) is not int or d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive integers, not {self.dims!r}")
        total = math.prod(dims)
        if total != len(probs):
            raise ValueError(
                f"dims {dims} multiply to {total}, but joint has {len(probs)} entries"
            )
        object.__setattr__(self, "exact", validate_distribution(probs))

    def __len__(self) -> int:
        return len(self.probs)

    @property
    def subsystems(self) -> int:
        return len(self.dims)

    def as_state(self) -> BlockState:
        return BlockState(self.probs, Hamiltonian.trivial(len(self.probs)))

    def marginals(self) -> tuple:
        return tuple(marginal(self, k) for k in range(self.subsystems))


def marginal(joint: JointCatalyst, which: int) -> BlockState:
    """Sum out every subsystem except ``which``."""
    dims = joint.dims
    if not 0 <= which < len(dims):
        raise ValueError(f"subsystem {which} out of range for dims {dims}")
    stride = math.prod(dims[which + 1:])
    d = dims[which]
    acc = [Fraction(0) if joint.exact else 0.0] * d
    for flat, p in enumerate(joint.probs):
        acc[(flat // stride) % d] += p
    return BlockState(tuple(acc), Hamiltonian.trivial(d))


def product_joint(marginals: Sequence[Sequence]) -> JointCatalyst:
    """Uncorrelated joint with the given subsystem distributions."""
    probs = (1,)
    for m in marginals:
        probs = tuple(a * b for a in probs for b in m)
    return JointCatalyst(probs, tuple(len(m) for m in marginals))


# ---------------------------------------------------------------------------
# JSON state files: {"levels": [...], "probs": [...]} with optional "dims".
# Rational entries are written as "n/d" strings and round-trip bit-exactly.

def state_to_dict(s: BlockState) -> dict:
    return {
        "levels": [encode_number(e) for e in s.ham.levels],
        "probs": [encode_number(p) for p in s.probs],
    }


def _numbers(d: dict, key: str) -> tuple:
    """The numbers of the JSON array d[key]; a missing key or any other value
    is a ValueError."""
    if not isinstance(d.get(key), (list, tuple)):
        found = type(d[key]).__name__ if key in d else "no such key"
        raise ValueError(f"expected a '{key}' array, found {found}")
    return tuple(parse_number(x) for x in d[key])


def state_from_dict(d: dict) -> BlockState:
    if not isinstance(d, dict):
        raise ValueError(f"state file must hold a JSON object, not {type(d).__name__}")
    probs = _numbers(d, "probs")
    if "levels" in d:
        ham = Hamiltonian(_numbers(d, "levels"))
    else:
        ham = Hamiltonian.trivial(len(probs))
    return BlockState(probs, ham)


def joint_to_dict(j: JointCatalyst) -> dict:
    return {
        "probs": [encode_number(p) for p in j.probs],
        "dims": list(j.dims),
    }


def joint_from_dict(d: dict) -> JointCatalyst:
    if isinstance(d, dict) and "dims" not in d and isinstance(d.get("joint"), dict):
        d = d["joint"]  # accept search-result payloads directly
    if not isinstance(d, dict) or not isinstance(d.get("dims"), list):
        raise ValueError("joint file needs an object with a 'dims' array")
    if "levels" in d and any(e != 0 for e in _numbers(d, "levels")):
        raise ValueError("joint catalysts carry trivial Hamiltonians (all levels 0)")
    return JointCatalyst(_numbers(d, "probs"), tuple(d["dims"]))


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name!r} in JSON input")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def load_state(path) -> BlockState:
    return state_from_dict(load_json(path))


def load_joint(path) -> JointCatalyst:
    return joint_from_dict(load_json(path))


def save_json(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")
