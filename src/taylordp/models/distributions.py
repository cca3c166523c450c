"""Poisson and binomial probabilities on scipy.special.

Each function gives, bit for bit, what the scipy.stats call named in its
docstring gives, without importing scipy.stats: that subpackage alone takes
about half a second to load, more than the rest of the package together.
"""

from __future__ import annotations

import numpy as np
from scipy import special

try:
    from scipy.special._ufuncs import _binom_pmf
except ImportError:  # scipy releases without the boost binomial ufunc
    _binom_pmf = None


def poisson_pmf(k, mu) -> np.ndarray:
    """P(A = k) for A ~ Poisson(mu) and integers k >= 0 (scipy.stats.poisson.pmf)."""
    return np.clip(np.exp(special.xlogy(k, mu) - special.gammaln(np.add(k, 1)) - mu), 0.0, 1.0)


def poisson_cutoff(lam: float, tail: float) -> int:
    """The smallest k past the (1 - tail)-quantile with P(A > k) < tail, A ~ Poisson(lam).

    The quantile is scipy.stats.poisson.isf(tail, lam) and P(A > k) is
    scipy.stats.poisson.sf(k, lam).
    """
    q = 1.0 - tail
    v = float(np.ceil(special.pdtrik(q, lam)))
    v1 = max(v - 1.0, 0.0)
    k = int(v1 if special.pdtr(v1, lam) >= q else v) + 1
    while special.pdtrc(k, lam) >= tail:
        k += 1
    return k


def binom_pmf(k, n: int, p: float) -> np.ndarray:
    """P(D = k) for D ~ Binomial(n, p) and integers 0 <= k <= n (scipy.stats.binom.pmf)."""
    if _binom_pmf is None:
        from scipy import stats
        return stats.binom.pmf(k, n, p)
    return np.clip(_binom_pmf(k, n, p), 0.0, 1.0)
