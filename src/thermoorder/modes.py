"""Numeric policy: which arithmetic a value uses, and how much slack floats get.

Every quantity in the library is either a float or an exact
``fractions.Fraction`` (or int). Exactness is decided once, when a value
object (``Hamiltonian``, ``BlockState``, ``JointCatalyst``,
``StochasticWitness``) is constructed, and stored in its ``exact`` field;
nothing re-scans the data afterwards. Each computation takes the arithmetic
of its inputs; the CLI's --numeric-mode only decides whether the files it
loads become rationals or floats. Curve dominance is decided exactly for
every arithmetic (``majorization`` reads floats as the rationals they are),
so no slack enters a curve verdict. Other float computations get the slack
in the table below, the only place these values live. ``POSSIBLE_TOL`` is
the one free-energy slack: the default of the CLI's ``--tol`` and of the
catalytic criteria's ``tol``, and the zero band of ``sign_intervals``;
``tol`` is also a parameter, because callers use more than one value (the
CLI passes ``max(cmp_tol, FREE_ENERGY_FLOOR)``).
"""

from __future__ import annotations

import math
from fractions import Fraction

# Tolerance table (float data only; exact data is compared exactly).
NORM_TOL = 1e-12              # |sum(p) - 1| allowed at state construction
POSSIBLE_TOL = 1e-10          # free-energy slack: --tol default, sign_intervals' zero band
FREE_ENERGY_FLOOR = 1e-15     # the CLI's free-energy slack is max(cmp_tol, this)
ALPHA_ONE_WINDOW = 1e-6       # orders closer to 1 use the alpha = 1 formula
CORRELATION_CLAMP = 1e-12     # total correlations in (-this, 0) read as 0
SPECTRUM_TOL = 1e-12          # entrywise match of two sorted spectra
EMBEDDING_TOL = 1e-12         # embedding blocks against a float Gibbs state
WITNESS_ENTRY_TOL = 1e-9      # clamped negative entries and column sums of a witness
WITNESS_MAP_TOL = 1e-8        # float witness residual |M p - q|
WITNESS_GIBBS_TOL = 1e-9      # float witness residual |M g - g|
GIBBS_DRIFT_TOL = 1e-12       # |M g - g| of a random Gibbs-preserving map
CLOSED_FORM_TOL = 1e-10       # demo: sweep against the closed-form work-bit gaps
BUDGET_TOL = 1e-12            # demo: total correlation against its free-energy budget


def is_exact_number(x) -> bool:
    """True for values carried exactly (ints and Fractions, not bools)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(values) -> bool:
    return all(is_exact_number(v) for v in values)


def to_fraction(x) -> Fraction:
    """Exact conversion; floats are dyadic rationals, so nothing is lost."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot represent {x!r} as a rational")
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def parse_number(obj):
    """JSON value -> number. Strings are exact rationals ('2/3'), ints stay
    exact, floats stay floats. NaN and infinities are rejected."""
    if isinstance(obj, bool):
        raise ValueError("booleans are not numbers here")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number {obj!r} in input")
        return obj
    if isinstance(obj, str):
        return Fraction(obj)
    raise ValueError(f"expected a number, got {type(obj).__name__}")


def encode_number(x):
    """Number -> JSON value, bit-exact round trip in both modes."""
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x
    raise TypeError(f"cannot encode {type(x).__name__}")
