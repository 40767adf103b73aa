"""Independent oracle: exact thermal curves and mpmath Renyi divergences.

Nothing here imports the library. Curves are built from the definitions in
exact Fractions, with floats rationalised losslessly (every float is a
dyadic rational), and divergences are evaluated with mpmath at 40 digits.
The checks below accept or reject a library answer against these values or
against a stated property (witness <=> dominance, I(C) <= F_1(a) - F_1(b)).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

import mpmath

DPS = 40
# Float-mode residual limits the library states for a returned witness.
WITNESS_MAP_TOL = Fraction(1, 10**8)
WITNESS_GIBBS_TOL = Fraction(1, 10**9)
WITNESS_COLUMN_TOL = Fraction(1, 10**9)


def rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not a number: {x!r}")


def is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)


# -- thermal curves ------------------------------------------------------------

def curve(probs, weights):
    """Breakpoints of the thermal Lorenz curve, sorted by p_i/g_i."""
    p = [rational(x) for x in probs]
    g = [rational(x) for x in weights]
    order = sorted(range(len(p)), key=lambda i: p[i] / g[i], reverse=True)
    xs, ys = [Fraction(0)], [Fraction(0)]
    for i in order:
        xs.append(xs[-1] + g[i])
        ys.append(ys[-1] + p[i])
    return xs, ys


def height(xs, ys, x):
    k = bisect_left(xs, x)
    if xs[k] == x:
        return ys[k]
    return ys[k - 1] + (x - xs[k - 1]) * (ys[k] - ys[k - 1]) / (xs[k] - xs[k - 1])


def dominance(pa, pb, weights):
    """(verdict, smallest |gap|) of curve(pa) against curve(pb) over the
    interior union breakpoints; verdicts use the library's names."""
    ca, cb = curve(pa, weights), curve(pb, weights)
    xs = sorted(set(ca[0]) | set(cb[0]))[1:-1]
    gaps = [height(*ca, x) - height(*cb, x) for x in xs]
    neg = any(d < 0 for d in gaps)
    pos = any(d > 0 for d in gaps)
    verdict = "crossing" if neg and pos else "below" if neg else "above" if pos else "equal"
    closest = min((abs(d) for d in gaps), default=Fraction(0))
    return verdict, closest


def dominates(verdict: str) -> bool:
    return verdict in ("above", "equal")


# -- product systems -----------------------------------------------------------

def kron(u, v):
    return tuple(x * y for x in u for y in v)


def marginals(joint, dims):
    """Exact marginals of a row-major joint distribution."""
    out = []
    for k, d in enumerate(dims):
        stride = math.prod(dims[k + 1:])
        acc = [Fraction(0)] * d
        for flat, p in enumerate(joint):
            acc[(flat // stride) % d] += rational(p)
        out.append(tuple(acc))
    return out


def correlating_dominance(a, b, weights, joint, dims):
    """Dominance of a (x) c_1 (x) ... over b (x) C, catalysts on trivial
    Hamiltonians, with the marginals c_k taken exactly from C."""
    ra = tuple(rational(x) for x in a)
    rb = tuple(rational(x) for x in b)
    rj = tuple(rational(x) for x in joint)
    initial = ra
    for m in marginals(rj, dims):
        initial = kron(initial, m)
    final = kron(rb, rj)
    w = kron(tuple(rational(x) for x in weights), (Fraction(1),) * len(rj))
    return dominance(initial, final, w)


# -- Renyi divergences -----------------------------------------------------------

def _mp(x):
    r = rational(x)
    return mpmath.mpf(r.numerator) / r.denominator


def gibbs(weights):
    g = [rational(w) for w in weights]
    z = sum(g, Fraction(0))
    return tuple(x / z for x in g)


def divergence(p, q, alpha: float):
    """D_alpha(p||q) on the extended order line, sgn(alpha)/(alpha-1) form;
    zero-probability conventions as stated in the library's documentation."""
    with mpmath.workdps(DPS):
        pairs = [(_mp(x), _mp(y)) for x, y in zip(p, q) if x > 0 or y > 0]
        p_only = any(y == 0 for x, y in pairs if x > 0)
        q_only = any(x == 0 for x, y in pairs if y > 0)
        inf = mpmath.inf
        if alpha == 1.0:
            return inf if p_only else mpmath.fsum(x * mpmath.log(x / y) for x, y in pairs if x > 0)
        if alpha == 0.0:
            covered = mpmath.fsum(y for x, y in pairs if x > 0)
            return -mpmath.log(covered) if covered > 0 else inf
        if alpha == math.inf:
            return inf if p_only else mpmath.log(max(x / y for x, y in pairs if x > 0))
        if alpha == -math.inf:
            return inf if q_only else mpmath.log(max(y / x for x, y in pairs if y > 0))
        if (alpha > 1 and p_only) or (alpha < 0 and q_only):
            return inf
        joint = [(x, y) for x, y in pairs if x > 0 and y > 0]
        if not joint:
            return inf
        a = mpmath.mpf(alpha)
        s = mpmath.fsum(x ** a * y ** (1 - a) for x, y in joint)
        return (1 if alpha > 0 else -1) / (a - 1) * mpmath.log(s)


def delta_f(a, b, weights, alpha: float):
    """F_alpha(b) - F_alpha(a) as a float; nan when both sides diverge."""
    gamma = gibbs(weights)
    fb, fa = divergence(b, gamma, alpha), divergence(a, gamma, alpha)
    if mpmath.isinf(fb) and mpmath.isinf(fa) and fb == fa:
        return math.nan
    with mpmath.workdps(DPS):
        return float(fb - fa)


def shannon(p):
    with mpmath.workdps(DPS):
        return -mpmath.fsum(_mp(x) * mpmath.log(_mp(x)) for x in p if x > 0)


def total_correlation(joint, dims) -> float:
    rj = tuple(rational(x) for x in joint)
    with mpmath.workdps(DPS):
        return float(mpmath.fsum(shannon(m) for m in marginals(rj, dims)) - shannon(rj))


# -- certificates ------------------------------------------------------------------

def valid_joint(probs) -> bool:
    if any(p < 0 for p in probs):
        return False
    total = sum((rational(p) for p in probs), Fraction(0))
    if is_exact(probs):
        return total == 1
    return abs(total - 1) <= Fraction(1, 10**12)


def witness_ok(matrix, p, q, weights) -> bool:
    """Exact check of a column-stochastic, Gibbs-fixing M with M p = q.

    An all-rational matrix for all-rational inputs must satisfy every
    equation exactly; otherwise the residuals must stay within the limits
    the library states for float witnesses.
    """
    n = len(p)
    m = [[rational(v) for v in row] for row in matrix]
    if len(m) != n or any(len(row) != n for row in m):
        return False
    if any(v < 0 for row in m for v in row):
        return False
    rp = [rational(x) for x in p]
    rq = [rational(x) for x in q]
    gamma = gibbs(weights)
    columns = [sum((m[i][j] for i in range(n)), Fraction(0)) - 1 for j in range(n)]
    image = [sum((m[i][j] * rp[j] for j in range(n)), Fraction(0)) - rq[i] for i in range(n)]
    fixed = [sum((m[i][j] * gamma[j] for j in range(n)), Fraction(0)) - gamma[i] for i in range(n)]
    if is_exact(v for row in matrix for v in row) and is_exact(p) and is_exact(q):
        return not any(columns) and not any(image) and not any(fixed)
    return (max(map(abs, columns)) <= WITNESS_COLUMN_TOL
            and max(map(abs, image)) <= WITNESS_MAP_TOL
            and max(map(abs, fixed)) <= WITNESS_GIBBS_TOL)
