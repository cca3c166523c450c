"""Overflow routing between J server pools with dedicated buffers.

x_j counts type-j customers in the system, x_j in [0, N_j + M] (buffer cap
M).  Each period: waiting customers may be overflowed (u_ij of them from
buffer i into idle servers of pool j, cost B_ij each), a holding cost H_i
is charged per customer still waiting, then departures from pool i are
Binomial(x_i^P ^ N_i, p_i) on the post-action state
x_i^P = x_i + sum_j (u_ji - u_ij), and Poisson(lam_i) arrivals come in.

The transition kernel therefore factors across pools given the post-action
state; the per-pool one-step matrices drive all bulk solves without ever
materializing joint rows.  Arrivals that would exceed a pool's buffer cap
are blocked and lost (the excess probability mass is censored onto the cap
state), which keeps the cap a genuine finite-buffer boundary.

Feasible actions are the integer points of

    sum_j u_ji <= (N_i - x_i)^+       (idle servers available in pool i)
    sum_j u_ij <= (x_i - N_i)^+       (customers actually waiting in buffer i)

Moments at (x, u), writing n_i = (x_i + net_i) ^ N_i:

    mu_i       = net_i + lam_i - p_i n_i
    sigma2_ii  = lam_i + n_i p_i (1 - p_i) + mu_i^2
    sigma2_ij  = mu_i mu_j   (i != j, independence across pools)

The boundary reflects: each boundary grid point of the K-D chain steps to
its inward neighbour on every binding axis, at the empty faces x_i = 0 and
at the buffer-cap faces alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exact import FactoredAssembly
from ..lattice import LatticeMdp, PolyhedralActionSet, StateLattice
from ..taylor import TaylorProblem
from .distributions import binom_pmf, poisson_cutoff, poisson_pmf


@dataclass(frozen=True)
class RoutingParams:
    J: int
    N: tuple
    M: int
    p: tuple
    lam: tuple
    B: tuple              # row-major off-diagonal costs, pair order (i, j), i != j
    H: tuple
    alpha: float
    tail: float = 1e-12

    def __post_init__(self):
        J = self.J
        if not (len(self.N) == len(self.p) == len(self.lam) == len(self.H) == J):
            raise ValueError("N, p, lam, H must have length J")
        if len(self.B) != J * (J - 1):
            raise ValueError("B must list costs for every ordered pool pair")


def pool_pairs(J: int):
    """Ordered pairs (i, j), i != j, row-major; the action coordinate order."""
    return [(i, j) for i in range(J) for j in range(J) if i != j]


def pool_step_matrix(upper: int, n_servers: int, p: float, lam: float, tail: float) -> np.ndarray:
    """One-step matrix K[z, w] = P((z - D(z) + A) ^ upper = w).

    Arrivals that would push the pool past its buffer cap are blocked
    (lost), i.e. the excess mass is censored onto the cap state; the demand
    tail beyond `tail` is dropped and the row renormalized.
    """
    a_max = poisson_cutoff(lam, tail)
    arr = poisson_pmf(np.arange(a_max + 1), lam)
    K = np.zeros((upper + 1, upper + 1))
    for z in range(upper + 1):
        n = min(z, n_servers)
        dep = binom_pmf(np.arange(n + 1), n, p)
        # pmf of (z - D) + A on offsets z - n .. z + a_max
        conv = np.convolve(dep[::-1], arr)
        idx = np.minimum(z - n + np.arange(len(conv)), upper)
        np.add.at(K[z], idx, conv)
        K[z] /= math.fsum(K[z].tolist())
    return K


class RoutingModel:
    def __init__(self, params: RoutingParams):
        self.params = params
        J, M = params.J, params.M
        upper = tuple(n + M for n in params.N)
        lattice = StateLattice((0,) * J, upper)
        self.pairs = pool_pairs(J)
        m = len(self.pairs)

        # net_i = sum_j u_ji - sum_j u_ij as a (J, m) matrix
        net = np.zeros((J, m))
        for k, (i, j) in enumerate(self.pairs):
            net[i, k] -= 1.0
            net[j, k] += 1.0
        self.net = net

        # constraints A u <= b(x): into-pool rows then out-of-buffer rows
        A = np.zeros((2 * J, m))
        for k, (i, j) in enumerate(self.pairs):
            A[j, k] = 1.0        # into pool j
            A[J + i, k] = 1.0    # out of buffer i

        N = np.asarray(params.N)
        src = np.array([i for i, _ in self.pairs], dtype=np.int64)
        dst = np.array([j for _, j in self.pairs], dtype=np.int64)

        def b(states):
            x = np.asarray(states)
            return np.concatenate([np.maximum(N - x, 0), np.maximum(x - N, 0)], axis=-1)

        def box(states):
            x = np.asarray(states)
            bounds = np.zeros(x.shape[:-1] + (m, 2), dtype=np.int64)
            bounds[..., 1] = np.minimum(np.maximum(x - N, 0)[..., src],
                                        np.maximum(N - x, 0)[..., dst])
            return bounds

        actions = PolyhedralActionSet(A, b, box)

        self.K = [pool_step_matrix(upper[i], params.N[i], params.p[i], params.lam[i], params.tail)
                  for i in range(J)]

        Bcost = np.asarray(params.B, dtype=np.float64)
        Hcost = np.asarray(params.H, dtype=np.float64)
        out_of = np.zeros((J, m))
        for k, (i, j) in enumerate(self.pairs):
            out_of[i, k] = 1.0

        # batch hooks over k pairs: states (k, J), actions (k, m)
        def cost_batch(states, U) -> np.ndarray:
            x = np.asarray(states, dtype=np.float64)
            uv = np.asarray(U, dtype=np.float64).reshape(-1, m)
            waiting = np.maximum(x - uv @ out_of.T - N, 0.0)
            return uv @ Bcost + waiting @ Hcost

        def post_states(states, U) -> np.ndarray:
            return np.asarray(states) + (np.asarray(U, dtype=np.float64).reshape(-1, m)
                                         @ net.T).astype(np.int64)

        self.cost_batch = cost_batch
        self.post_states = post_states

        def kernel(states, U):
            # K_0[z_0] x K_1[z_1] x ... per pair, multiplied in pool order by
            # broadcasting into one dense (pairs, n_states) block; its nonzero
            # entries in C order are the rows, pair i's at i * n_states + target
            z = post_states(states, U)
            joint = self.K[0][z[:, 0]]
            for i in range(1, J):
                joint = joint[..., None] * self.K[i][z[:, i]].reshape(
                    (len(z),) + (1,) * i + (-1,))
            flat = joint.ravel()
            live = np.flatnonzero(flat > 0.0)
            n = lattice.n_states
            return np.searchsorted(live, np.arange(len(z) + 1) * n), live % n, flat[live]

        self.mdp = LatticeMdp(lattice, actions, kernel, lambda states, U: -cost_batch(states, U),
                              params.alpha, factored=self._build_factored)

        lam = np.asarray(params.lam, dtype=np.float64)
        p = np.asarray(params.p, dtype=np.float64)

        def moments_batch(states, action_list):
            x = np.asarray(states, dtype=np.float64)          # (k, J)
            U = np.asarray(action_list, dtype=np.float64).reshape(-1, m)
            nets = U @ net.T                                  # (k, J)
            n_busy = np.minimum(x + nets, N)                  # ceil(x) = x on the lattice
            mu = nets + lam - p * n_busy
            s2 = mu[:, :, None] * mu[:, None, :]
            diag = lam + n_busy * p * (1.0 - p) + mu ** 2
            s2[:, np.arange(J), np.arange(J)] = diag
            return mu, s2

        # the moments see a pair only through (nets, n_busy); both are
        # integers bounded by the lattice, so one mixed-radix code names them
        span = np.asarray(upper) - np.asarray(lattice.lower)
        class_dims = tuple(2 * span + 1) + tuple(N + 1)

        def moment_classes(states, U) -> np.ndarray:
            # pool-major (J, k) columns: long inner loops for the elementwise steps
            x = np.asarray(states, dtype=np.int64).T
            nets = (net @ np.asarray(U, dtype=np.float64).reshape(-1, m).T).astype(np.int64)
            n_busy = np.minimum(x + nets, N[:, None])
            digits = tuple(nets + span[:, None]) + tuple(n_busy)
            return np.ravel_multi_index(digits, class_dims).astype(np.int64, copy=False)

        self.problem = TaylorProblem(self.mdp, moments_batch, moment_classes=moment_classes)

    def _build_factored(self) -> FactoredAssembly:
        mdp = self.mdp
        lattice = mdp.lattice
        shape = lattice.shape
        U, offsets = mdp.action_table()
        states = mdp.pair_states()
        rewards = mdp.rewards(states, U)
        post_idx = lattice.indices_of(self.post_states(states, U))

        # per axis: K, the transpose bringing that axis first, its inverse and
        # the shape in between.  np.dot(K, t.transpose(perm).reshape(n, -1)) is
        # the product np.tensordot(K, t, axes=(1, axis)) forms, same operands
        # and layout, so the result is bit for bit that of tensordot + moveaxis
        plan = []
        for axis, K in enumerate(self.K):
            perm = (axis,) + tuple(a for a in range(len(shape)) if a != axis)
            plan.append((K, perm, tuple(np.argsort(perm)), tuple(shape[a] for a in perm)))

        def apply_expectation(values: np.ndarray) -> np.ndarray:
            t = values.reshape(shape)
            for K, perm, inverse, moved in plan:
                t = np.dot(K, t.transpose(perm).reshape(moved[0], -1))
                t = t.reshape(moved).transpose(inverse)
            return t.ravel()

        return FactoredAssembly(offsets, rewards, post_idx, apply_expectation, mdp.discount)

    def mass_conserving_states(self) -> np.ndarray:
        """States where no action can push arrival mass past the buffer cap."""
        params = self.params
        a_max = [poisson_cutoff(lam, params.tail) for lam in params.lam]
        states = self.mdp.lattice.states()
        ok = np.ones(len(states), dtype=bool)
        for i in range(params.J):
            upper = params.N[i] + params.M
            ok &= np.maximum(states[:, i], params.N[i]) + a_max[i] <= upper
        return ok


def build_routing(params: RoutingParams) -> RoutingModel:
    return RoutingModel(params)


def table_params(J: int, alpha: float, lam_factor: float) -> RoutingParams:
    """The benchmark parameter sets: the 2-pool instance and 3-pool instance #1."""
    if J == 2:
        N, M, p, B, H = (10, 10), 10, (0.56, 0.56), (5.0, 1.0), (1.0, 4.0)
    elif J == 3:
        N, M, p, H = (10, 10, 10), 14, (0.8, 0.8, 0.8), (1.0, 2.0, 3.0)
        B = (1.0, 1.0, 4.0, 1.0, 2.0, 1.0)
    else:
        raise ValueError("benchmark parameters are defined for J = 2 and J = 3")
    return RoutingParams(J=J, N=N, M=M, p=p, lam=tuple(lam_factor * n * q for n, q in zip(N, p)),
                         B=B, H=H, alpha=alpha)
