"""Poisson and binomial probabilities on numpy and math alone.

The package imports no scipy module here: scipy.special takes about 0.3 s
to load, more than the rest of the package and a routing solve together.

* `poisson_pmf` gives, bit for bit, what scipy.stats.poisson.pmf gives: it
  evaluates the same formula, exp(xlogy(k, mu) - gammaln(k + 1) - mu), with
  `_lgam` a port of the Cephes `lgam` routine that scipy.special.gammaln runs
  (Moshier 1989, *Methods and Programs for Mathematical Functions*), at the
  integer arguments the pmf needs.
* `poisson_cutoff` gives the integer the scipy.stats isf + sf search gave,
  from the upper tail summed smallest terms first.
* `binom_pmf` is the closed form comb(n, k) p^k (1 - p)^(n - k).  On
  n <= 20 it is within 17 ulp of the exact value of that expression and
  within 4e-14 relative of scipy.stats.binom.pmf (boost), which is itself up
  to 220 ulp from the exact value; no float formula reproduces boost's bits.
"""

from __future__ import annotations

import math

import numpy as np

# Cephes lgam: Stirling series coefficients of log Gamma and log sqrt(2 pi)
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178


def _lgam(x: int) -> float:
    """log Gamma(x) = log((x - 1)!) for an integer x >= 1, as Cephes lgam rounds it."""
    if x < 13:
        return math.log(float(math.factorial(x - 1)))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    s = _STIRLING[0]
    for c in _STIRLING[1:]:
        s = s * p + c
    return q + s / x


def poisson_pmf(k, mu: float) -> np.ndarray:
    """P(A = k) for A ~ Poisson(mu), mu > 0, and integers k >= 0 (scipy.stats.poisson.pmf)."""
    k = np.asarray(k)
    # math.log, not np.log: numpy's SIMD log may round differently from libm
    xlogy = np.where(k == 0, 0.0, k * math.log(mu))
    lgam = np.array([_lgam(j + 1) for j in k.ravel().tolist()]).reshape(k.shape)
    return np.clip(np.exp(xlogy - lgam - mu), 0.0, 1.0)


def poisson_cutoff(lam: float, tail: float) -> int:
    """The smallest k past the (1 - tail)-quantile with P(A > k) < tail, A ~ Poisson(lam).

    The quantile is the smallest k with P(A <= k) >= 1 - tail, the
    complement rounded to a float as scipy.stats.poisson.isf(tail, lam)
    rounds it.  P(A > k) is the pmf summed from far out in the tail
    downwards, so a tail of 1e-12 keeps its digits (1 - cdf would not).
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"Poisson rate lam must be positive and finite, got {lam!r}")
    if not 0.0 < tail < 1.0:
        raise ValueError(f"Poisson tail must lie in (0, 1), got {tail!r}")
    # grow the support until the mass past it is negligible next to tail
    n = int(lam + 10.0 * math.sqrt(lam)) + 20
    while True:
        pmf = poisson_pmf(np.arange(n + 1), lam)
        if pmf[-1] < tail * 2.0 ** -60:
            break
        n *= 2
    sf = np.append(np.cumsum(pmf[::-1])[::-1][1:], 0.0)   # sf[k] = P(A > k)
    quantile = int(np.argmax(sf <= 1.0 - (1.0 - tail)))
    k = quantile + 1
    return k + int(np.argmax(sf[k:] < tail))


def binom_pmf(k, n: int, p: float) -> np.ndarray:
    """P(D = k) for D ~ Binomial(n, p) and integers 0 <= k <= n (scipy.stats.binom.pmf)."""
    if not n >= 0:
        raise ValueError(f"binomial n must be >= 0, got {n!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binomial p must lie in [0, 1], got {p!r}")
    k = np.asarray(k)
    q = 1.0 - p
    return np.array([math.comb(n, j) * p ** j * q ** (n - j)
                     for j in k.ravel().tolist()]).reshape(k.shape)
