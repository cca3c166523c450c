"""Single-item inventory control with Poisson demand and backlogging.

State is the inventory position on [-M, M]; the order u in {0, ..., u_max}
arrives immediately, then demand D ~ Poisson(lam) is realized:

    X -> X + u - D,   cost  c u + H E[(x + u - D)^+] + b E[(D - x - u)^+].

The per-period cost is computed by exact summation over the truncated
demand support (tail mass below `tail` dropped, pmf renormalized).  The
lattice truncation keeps rows inside [-M, M] by renormalization; at the
edges the dynamics collapse: at -M the demand is suppressed (deterministic
move to -M + u, so the boundary drift is u with second moment u^2) and at
+M the order is suppressed (move M - D, drift -lam, second moment
lam + lam^2).  Both edges reflect, giving V'(-M) = V'(M) = 0.

Away from the edges the moments are state-independent:

    mu_u = u - lam,    sigma2_u = (u - lam)^2 + lam  >= lam  > 0,

so strict ellipticity holds with constant lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..lattice import ExplicitActionSet, LatticeMdp, StateLattice, truncate_renormalize
from ..taylor import TaylorProblem
from .distributions import poisson_cutoff, poisson_pmf


@dataclass(frozen=True)
class InventoryParams:
    lam: float = 2.0
    c: float = 1.0
    H: float = 2.0
    b: float = 10.0
    M: int = 40
    u_max: int = 10
    alpha: float = 0.99
    tail: float = 1e-12

    def __post_init__(self):
        if self.u_max > 2 * self.M:
            raise ValueError("orders larger than the state range are not representable")
        if self.u_max < 0:
            raise ValueError("u_max must be >= 0")
        if not 0.0 < self.lam < math.inf:
            raise ValueError("demand mean lam must be positive and finite")
        if not 0.0 < self.tail < 1.0:
            raise ValueError("tail must lie in (0, 1)")


def truncated_poisson_pmf(lam: float, tail: float):
    """(pmf, d_max): Poisson pmf on 0..d_max with sf(d_max) < tail, renormalized."""
    d_max = poisson_cutoff(lam, tail)
    pmf = poisson_pmf(np.arange(d_max + 1), lam)
    return pmf / math.fsum(pmf.tolist()), d_max


class InventoryModel:
    def __init__(self, params: InventoryParams):
        self.params = params
        lam, M = params.lam, params.M
        self.demand_pmf, self.d_max = truncated_poisson_pmf(lam, params.tail)
        lattice = StateLattice((-M,), (M,))
        demands = np.arange(self.d_max + 1)

        def raw_kernel(states, U):
            # padded raw rows x + u - D: M - D at M, the sure step -M + u at -M
            x = np.asarray(states, dtype=np.int64)[:, 0]
            u = np.asarray(U, dtype=np.int64)
            coords = np.where((x == M)[:, None], M - demands, (x + u)[:, None] - demands)
            probs = np.tile(self.demand_pmf, (len(x), 1))
            lengths = np.full(len(x), len(demands))
            low = x == -M
            coords[low, 0], probs[low, 0], lengths[low] = -M + u[low], 1.0, 1
            return coords[:, :, None], probs, lengths

        # exact expected one-period cost over the truncated demand
        def cost(state, u) -> float:
            (x,) = state
            y = x + u - demands
            holding = params.H * float(self.demand_pmf @ np.maximum(y, 0))
            backlog = params.b * float(self.demand_pmf @ np.maximum(-y, 0))
            return params.c * u + holding + backlog

        # holding and backlog at each post-order level x + u in [-M, M + u_max]
        levels = np.arange(-M, M + params.u_max + 1)
        hold = params.H * np.array([self.demand_pmf @ np.maximum(s - demands, 0) for s in levels])
        back = params.b * np.array([self.demand_pmf @ np.maximum(demands - s, 0) for s in levels])

        def reward(states, U):
            s = np.asarray(states, dtype=np.int64)[:, 0] + U + M
            return -((params.c * U + hold[s]) + back[s])

        self.cost = cost
        actions = tuple(range(params.u_max + 1))
        self.mdp = LatticeMdp(lattice, ExplicitActionSet(actions),
                              truncate_renormalize(raw_kernel, lattice), reward, params.alpha)

        def moments_batch(states, actions_):
            # interior moments do not depend on the state
            us = np.asarray(actions_, dtype=np.float64)
            mu = us - lam
            return mu[:, None], (mu ** 2 + lam)[:, None, None]

        self.problem = TaylorProblem(self.mdp, moments_batch)

    def fot_boundary_problem(self) -> TaylorProblem:
        """Same model with first-order Tayloring at -M and M: drift lam at -M, -lam at M."""
        lam, M = self.params.lam, self.params.M
        return TaylorProblem(self.mdp, self.problem.moments_batch,
                             fot_drift=lambda states: np.where(states == -M, lam, -lam))

    def mass_conserving_states(self) -> np.ndarray:
        """States whose raw row X + u - D keeps mass >= 1 - tail for every order."""
        xs = np.arange(-self.params.M, self.params.M + 1)
        return (xs - self.d_max >= -self.params.M) & (xs + self.params.u_max <= self.params.M)

    def one_period_optimal_order(self, x: int) -> int:
        """Brute-force minimizer of the single-period cost at state x."""
        costs = [self.cost((x,), u) for u in range(self.params.u_max + 1)]
        return int(np.argmin(costs))


def build_inventory(params: InventoryParams) -> InventoryModel:
    return InventoryModel(params)
