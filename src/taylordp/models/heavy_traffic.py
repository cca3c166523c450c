"""Uncontrolled single-server queue used as a closed-form consistency oracle.

Random walk on [0, M] with P(x, x+1) = lam, P(x, x-1) = mu = 1 - lam > 1/2,
reward r(x) = x, and lazy reflection at 0 (stay with probability mu).  The
Taylored equation

    0 = x + alpha ((lam - mu) V' + V''/2) - (1 - alpha) V,   V'(0) = 0

has the explicit solution

    Vhat(x) = -alpha (mu - lam)/(1-alpha)^2 + x/(1-alpha) + c1 exp(gamma_- x)

    gamma_- = (mu - lam) - sqrt((mu - lam)^2 + 2 (1 - alpha)/alpha) < 0
    c1      = -1 / ((1 - alpha) gamma_-)

Relating utilization to the discount through alpha_rho = 1 - (1 - rho)^2
turns this into the discounted heavy-traffic approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bounds import SmoothFunction
from ..lattice import ExplicitActionSet, LatticeMdp, StateLattice, pack_rows
from ..taylor import TaylorProblem


@dataclass(frozen=True)
class HeavyTrafficParams:
    lam: float = 0.4
    alpha: float = 0.99
    M: int = 200

    def __post_init__(self):
        if not 0.0 < self.lam < 0.5:
            raise ValueError("need lam < 1/2 < mu = 1 - lam")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.M < 1:
            raise ValueError("need M >= 1")

    @property
    def mu(self) -> float:
        return 1.0 - self.lam


class HeavyTrafficQueue:
    def __init__(self, params: HeavyTrafficParams):
        self.params = params
        lam, mu, M = params.lam, params.mu, params.M
        lattice = StateLattice((0,), (M,))

        # batch hooks over k pairs: states (k, 1), the one action 0 (k,)
        def kernel(states, U):
            x = np.asarray(states, dtype=np.int64)[:, 0]
            targets = np.stack([x - 1, x + 1], axis=1)
            probs = np.tile([mu, lam], (len(x), 1))
            targets[x == 0, 0] = 0                                 # lazy reflection at 0
            targets[x == M, 0], probs[x == M, 0] = M - 1, 1.0      # down surely from M
            return pack_rows(targets, probs, np.where(x == M, 1, 2))

        def reward(states, U):
            return np.asarray(states, dtype=np.float64)[:, 0]

        self.mdp = LatticeMdp(lattice, ExplicitActionSet((0,)), kernel, reward, params.alpha)

        def moments_batch(states, actions):
            # drift lam and second moment lam at 0 (lazy reflection), lam - mu and 1 above
            x = np.asarray(states)[:, 0]
            mu_b = np.where(x == 0, lam, lam - mu)
            return mu_b[:, None], np.where(x == 0, lam, 1.0)[:, None, None]

        self.problem = TaylorProblem(self.mdp, moments_batch)

    def mass_conserving_states(self) -> np.ndarray:
        mask = np.ones(self.mdp.n_states, dtype=bool)
        mask[self.params.M] = False
        return mask

    def oracle(self) -> SmoothFunction:
        return heavy_traffic_oracle_fn(self.params.lam, self.params.alpha)


def ode_coefficients(lam: float, alpha: float):
    mu = 1.0 - lam
    gamma = (mu - lam) - math.sqrt((mu - lam) ** 2 + 2.0 * (1.0 - alpha) / alpha)
    c1 = -1.0 / ((1.0 - alpha) * gamma)
    return gamma, c1


def heavy_traffic_oracle(lam: float, alpha: float, x) -> np.ndarray:
    """Vhat^alpha(x), the closed-form solution of the Taylored ODE."""
    mu = 1.0 - lam
    gamma, c1 = ode_coefficients(lam, alpha)
    x = np.asarray(x, dtype=np.float64)
    return (-alpha * (mu - lam) / (1.0 - alpha) ** 2
            + x / (1.0 - alpha) + c1 * np.exp(gamma * x))


def heavy_traffic_oracle_fn(lam: float, alpha: float) -> SmoothFunction:
    """Vhat^alpha and its derivatives as a SmoothFunction of (n, 1) coordinates."""
    gamma, c1 = ode_coefficients(lam, alpha)
    one = 1.0 - alpha

    def value(x):
        return heavy_traffic_oracle(lam, alpha, x[:, 0])

    def grad(x):
        return 1.0 / one + c1 * gamma * np.exp(gamma * x)

    def hess(x):
        return (c1 * gamma ** 2 * np.exp(gamma * x))[:, :, None]

    fn = SmoothFunction(value, grad, hess)
    fn.third = lambda x: c1 * gamma ** 3 * np.exp(gamma * np.asarray(x, dtype=np.float64))
    return fn


def build_heavy_traffic(params: HeavyTrafficParams) -> HeavyTrafficQueue:
    return HeavyTrafficQueue(params)
