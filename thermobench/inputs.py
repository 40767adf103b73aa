"""Seeded raw inputs: plain tuples of floats and Fractions.

Nothing here imports the library, so the inputs a seed produces do not
depend on the code under test. An instance is a dict with the energy
levels, the Boltzmann weights the oracle uses, and the probability vectors;
``exact_copy`` turns a float instance into its exact-rational counterpart
(floats rationalised losslessly, then renormalised exactly).
"""

from __future__ import annotations

import math
from fractions import Fraction


def distribution(rng, n, floor=0.01):
    weights = [rng.random() + floor for _ in range(n)]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def levels(rng, n, top=3.0):
    return tuple(rng.uniform(0.0, top) for _ in range(n))


def weights(lv):
    """Boltzmann weights exactly as a float-mode Hamiltonian derives them."""
    return tuple(math.exp(-float(e)) for e in lv)


def gibbs(lv):
    g = weights(lv)
    z = math.fsum(g)
    return tuple(x / z for x in g)


def exchange_map(rng, lv, count=None):
    """Random Gibbs-preserving stochastic matrix (row-major, float).

    Composes two-level exchanges that each fix the Gibbs state: column j
    sends a share a to level i and column i sends the balancing share
    a*g_i/g_j back. The construction lives here, not in the library, so a
    change to the library cannot change the inputs.
    """
    g = gibbs(lv)
    n = len(lv)
    m = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(count if count is not None else 2 * n):
        i, j = rng.sample(range(n), 2)
        a = rng.random() * min(1.0, g[j] / g[i])
        b = a * g[i] / g[j]
        # left-multiply by the exchange on levels (i, j)
        ri, rj = m[i], m[j]
        m[i] = [(1.0 - a) * x + b * y for x, y in zip(ri, rj)]
        m[j] = [a * x + (1.0 - b) * y for x, y in zip(ri, rj)]
    return m


def apply(m, p):
    return tuple(math.fsum(row[j] * p[j] for j in range(len(p))) for row in m)


def normalised(v):
    total = math.fsum(v)
    return tuple(x / total for x in v)


def thermal_image(rng, lv, p, t):
    """(1-t) M p + t gamma for a random Gibbs-preserving M: a state that p
    reaches by a thermal process, strictly inside p's curve for t > 0."""
    mp = apply(exchange_map(rng, lv), p)
    g = gibbs(lv)
    return normalised(tuple((1.0 - t) * x + t * y for x, y in zip(mp, g)))


def instance(lv, a, b, **extra):
    out = {"levels": tuple(lv), "gibbs": weights(lv), "a": tuple(a), "b": tuple(b), "exact": False}
    out.update(extra)
    return out


def exact_vector(v):
    fr = [Fraction(x) for x in v]
    total = sum(fr, Fraction(0))
    return tuple(x / total for x in fr)


def exact_copy(inst):
    out = dict(inst)
    out["gibbs"] = tuple(Fraction(g) for g in inst["gibbs"])
    for key in ("a", "b"):
        out[key] = exact_vector(inst[key])
    if "joint" in inst:
        out["joint"] = exact_vector(inst["joint"])
    out["exact"] = True
    return out


def demo_pair(beta_e, beta_w, ground_pop, fail_prob):
    """The work-extraction pair on qubit (0, beta_e) next to a work bit
    (0, beta_w), flattened row-major: levels (0, bw, be, be+bw)."""
    lv = (0.0, beta_w, beta_e, beta_e + beta_w)
    z = 1.0 + math.exp(-beta_e)
    thermal = (1.0 / z, math.exp(-beta_e) / z)
    a = (ground_pop, 0.0, 1.0 - ground_pop, 0.0)
    b = tuple(t * w for t in thermal for w in (fail_prob, 1.0 - fail_prob))
    return lv, a, b


def jitter(rng, value, rel):
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


def smoothed(b, lv, eps):
    g = gibbs(lv)
    return normalised(tuple((1.0 - eps) * x + eps * y for x, y in zip(b, g)))


def encode(obj):
    """Instance -> JSON value; Fractions become {"q": "n/d"}."""
    if isinstance(obj, Fraction):
        return {"q": f"{obj.numerator}/{obj.denominator}"}
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


def decode(obj):
    if isinstance(obj, dict):
        if set(obj) == {"q"}:
            return Fraction(obj["q"])
        return {k: decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return tuple(decode(v) for v in obj)
    return obj
