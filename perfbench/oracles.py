"""Reference values the benchmark checks logvol's answers against.

Each oracle is independent of logvol: closed forms, mpmath, or exact
rational arithmetic on the generated parameters.
"""

import math
from fractions import Fraction
from itertools import combinations

import mpmath


class OracleError(RuntimeError):
    """Two independent evaluations of one reference value disagree."""


def li2_series(x: float, terms: int = 60) -> float:
    """Partial sum of Li2(x) = sum x^k / k^2."""
    return sum(x**k / k**2 for k in range(1, terms + 1))


def li2(a: Fraction) -> float:
    """Li2(a) for rational 0 < a < 1, from mpmath.polylog.

    Cross-checked against the 60-term series, taken through Euler's
    reflection Li2(x) + Li2(1 - x) = pi^2/6 - ln(x) ln(1 - x) when a > 1/2
    so that the series argument stays at most 1/2 (truncation below 1e-21).
    """
    if not 0 < a < 1:
        raise ValueError(f"li2 oracle needs 0 < a < 1, got {a}")
    value = float(mpmath.polylog(2, mpmath.mpf(a.numerator) / a.denominator))
    x, rest = float(a), float(1 - a)
    if a <= Fraction(1, 2):
        series = li2_series(x)
    else:
        series = math.pi**2 / 6 - math.log(x) * math.log(rest) - li2_series(rest)
    if abs(value - series) > 1e-12:
        raise OracleError(f"Li2({a}): mpmath {value!r} vs series {series!r}")
    return value


def box_rung(c: Fraction, eps: float) -> float:
    """Rung value of dr1/r1 ^ dr2/r2 over [0, c]^2 with |r_i| >= eps excised."""
    return math.log(float(c) / eps) ** 2 if eps < c else 0.0


def violated_faces(w, c: Fraction) -> set:
    """Faces I (0-based) of {0 <= r_i <= 1, sum w_i r_i >= c} that break
    allowability: A cap H_I is full-dimensional in H_I exactly when the
    remaining weights can exceed c, i.e. sum_{j not in I} w_j > c."""
    n = len(w)
    out = set()
    for k in range(1, n + 1):
        for face in combinations(range(n), k):
            if sum(w[j] for j in range(n) if j not in face) > c:
                out.add(face)
    return out


def quarter_disk_value(rho: Fraction) -> complex:
    """dz1/z1 ^ dzbar1 over the quarter disk of radius rho: (-2 - 2i) rho."""
    return complex(-2.0, -2.0) * float(rho)


def annulus_slice_volume(t: float) -> float:
    """|dz1/z1 ^ dz2/z2 ^ dzbar2| over {|z1| = t >= |z2|}: 8 pi^2 t."""
    return 8.0 * math.pi**2 * t
