"""Reference values the benchmark checks job outputs against.

All of these are computed outside the timed region, from closed forms that
do not share code with the Monte Carlo sampler they check.

* ``staircase_densities``: exact (rho_12, rho_123, rho_321) of gamma_{a,b}.
  The staircase steps are boxes placed along an ascent, each carrying a
  slope -1 segment, and the long descent lies left of and above all of them.
  Two points in different steps therefore ascend and every other pair
  descends, so with step masses s_i and descent mass d = 1 - a
  rho_12 = e1^2 - p2, rho_123 = 6 e3, rho_321 = d^3 + 3 d^2 e1 + 3 d p2 + p3
  (e, p the elementary and power sums of the s_i).  For b = 0 the staircase
  is one ascending diagonal of mass a.
* ``star_density``: exact rho of the star class *...*ell of length k on a
  step permuton.  The x-largest of k points has rank ell exactly when the
  other k - 1 points lie left of it with ell - 1 of them below, so
  rho = k C(k-1, ell-1) E_P[A^(ell-1) C^(k-ell)] with A = G(x, y) and
  C = x - G(x, y).  ``12`` is the star class *2.
* ``monotone3_density``: exact rho_123 and rho_321 of a step permuton, from
  the middle point z = (x, y) of the three: rho_123 = 6 E_P[G (1 - x - y + G)]
  (one point below-left of z, one above-right) and
  rho_321 = 6 E_P[(x - G)(y - G)] (one above-left, one below-right).
* Both are expectations over P of a polynomial in x, y and G(x, y).  Inside a
  cell G is bilinear, so the integrand is a polynomial of degree at most k - 1
  in each cell coordinate and Gauss-Legendre quadrature with k // 2 + 2 nodes
  is exact.  G is summed here from the cell masses, not taken from the package.
* ``criterion7_envelope``: the upper envelope of the (rho_123, rho_321)
  feasible region used by acceptance criterion 7, the cubic arc and its
  mirror across y = x.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss


def staircase_densities(a: float, b: float) -> tuple[float, float, float]:
    d = 1.0 - a
    if b == 0.0:
        return a * a, a ** 3, d ** 3 + 3.0 * d * d * a
    steps = _staircase_steps(a, b)
    e1, p2, p3 = steps.sum(), (steps ** 2).sum(), (steps ** 3).sum()
    e3 = (e1 ** 3 - 3.0 * e1 * p2 + 2.0 * p3) / 6.0
    return e1 * e1 - p2, 6.0 * e3, d ** 3 + 3.0 * d * d * e1 + 3.0 * d * p2 + p3


def _staircase_steps(a: float, b: float) -> np.ndarray:
    """Masses of the b-steps and the remainder step, as ``gamma_ab`` lays them."""
    k = int(math.floor(a / b + 1e-12))
    rest = a - k * b
    steps = [b] * k + ([rest] if rest > 1e-12 else [])
    return np.array(steps)


def corner_cdf(w: np.ndarray) -> np.ndarray:
    """G[i, j]: mass of the cells left of column i and below row j (axis 0 is x)."""
    m = w.shape[0]
    G = np.zeros((m + 1, m + 1))
    G[1:, 1:] = np.cumsum(np.cumsum(w, axis=0), axis=1)
    return G


def _expectation(w: np.ndarray, k: int, f) -> float:
    """E_P[f(x, y, G(x, y))] on the step permuton with cell masses ``w``."""
    m = w.shape[0]
    G = corner_cdf(w)
    z, wq = leggauss(k // 2 + 2)
    nodes, weights = 0.5 * (z + 1.0), 0.5 * wq
    col, row = np.arange(m)[:, None], np.arange(m)[None, :]
    total = 0.0
    for u, wu in zip(nodes, weights):
        for v, wv in zip(nodes, weights):
            g = ((1 - u) * (1 - v) * G[:-1, :-1] + u * (1 - v) * G[1:, :-1]
                 + (1 - u) * v * G[:-1, 1:] + u * v * G[1:, 1:])
            total += wu * wv * float(np.sum(w * f((col + u) / m, (row + v) / m, g)))
    return total


def star_density(w: np.ndarray, k: int, ell: int) -> float:
    """Exact star-class density *...*ell of length k on a step permuton."""
    return k * math.comb(k - 1, ell - 1) * _expectation(
        w, k, lambda x, y, g: g ** (ell - 1) * (x - g) ** (k - ell))


def monotone3_density(w: np.ndarray, label: str) -> float:
    """Exact rho_123 or rho_321 on a step permuton."""
    if label == "123":
        return 6.0 * _expectation(w, 3, lambda x, y, g: g * (1.0 - x - y + g))
    if label == "321":
        return 6.0 * _expectation(w, 3, lambda x, y, g: (x - g) * (y - g))
    raise ValueError(f"no monotone reference for {label!r}")


def criterion7_envelope(x: float) -> float:
    """Largest rho_321 attainable with rho_123 = x (criterion 7's envelope)."""
    t = np.linspace(0.0, 1.0, 4001)
    xs = t ** 3
    ys = _cubic(xs)
    return max(_cubic(x), float(np.interp(x, ys[::-1], xs[::-1])))


def _cubic(x):
    c = np.cbrt(x)
    return 1.0 - 3.0 * c * c + 2.0 * x
