"""Ingredients of the second-order Taylor (TCP) approximation.

The one-step jump moments

    mu_u(x)_i      = E_x^u[(X_1 - x)_i]
    sigma2_u(x)_ij = E_x^u[(X_1 - x)_i (X_1 - x)_j]

collapse the transition matrix into the drift vector and the (raw, uncentered)
second-moment matrix that drive the differential operator

    L_u V = mu_u . DV + 1/2 trace(sigma2_u D^2 V).

The boundary is a rule unless a problem asks otherwise.  Reflecting rows
step to the inward neighbour on every binding axis and need no data: on a
face the paper's reflection direction eta is the inward normal, so that
step is the whole condition, and at a corner the chain steps along every
binding axis whatever eta would say.  A problem may instead carry a
first-order Taylor (FOT) boundary, driven by the control-independent
boundary drift its fot_drift hook returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeMdp, action_tuple

NU0 = 1e-6


def not_inward(drift: np.ndarray, on_lower: np.ndarray, on_upper: np.ndarray) -> np.ndarray:
    """Which of k boundary drifts break the inward rule, a (k,) bool array.

    drift, on_lower and on_upper are (k, d): the directions and the axes at
    their lower and upper faces.  On the axis-aligned box a direction is
    inward when drift_i >= NU0 |drift| at lower faces, drift_i <= -NU0 |drift|
    at upper faces and drift_i = 0 on the other axes; a zero vector breaks
    the rule, and so does any NaN component.
    """
    norm = np.linalg.norm(drift, axis=1)[:, None]
    return ((norm[:, 0] == 0.0)
            | (on_lower & ~(drift >= NU0 * norm)).any(axis=1)
            | (on_upper & ~(drift <= -NU0 * norm)).any(axis=1)
            | (~on_lower & ~on_upper & (drift != 0.0)).any(axis=1))


class TaylorProblem:
    """An MDP together with its drift/diffusion hook and boundary rule.

    moments_batch(states, actions) -> (mu, sigma2) stacks the moments of k
    (state, action) pairs as (k, d) and (k, d, d): states is (k, d), one
    state per pair, and actions the k matching actions, a sequence of the
    action set's actions or an action-table slice.  It must be defined for
    every lattice state and every feasible action there.  Models with closed
    forms pass their own hook; kernel_moment_provider(mdp) sums the moments
    from the truncated kernel rows instead.  The hook is the only form of
    the moments: one pair is a call with a (1, d) state array and a
    one-action slice.

    moment_classes(states, U), when given, returns one int64 code per
    (state, action) pair, over the same (k, d) states as moments_batch;
    pairs with equal codes must have bit-equal moments_batch rows.  The
    fine-lattice Taylored greedy then computes moments and stencil rates
    once per code.  Without it every pair is its own class.

    fot_drift(states), when given, makes the boundary first-order (FOT): it
    maps a (k, d) array of boundary states to their (k, d) control-independent
    drifts, each of which must point inward (see not_inward).  Without it the
    boundary reflects: each boundary row steps to its inward neighbour.
    """

    def __init__(self, mdp: LatticeMdp, moments_batch, fot_drift=None, moment_classes=None):
        self.mdp = mdp
        self.moments_batch = moments_batch
        self.fot_drift = fot_drift
        self.moment_classes = moment_classes


def kernel_moment_provider(mdp: LatticeMdp):
    """A moments_batch hook that sums each pair's moments from its kernel row.

    One call reads the rows of all its k pairs through one mdp.rows() call.
    Components are accumulated with exact compensated summation, so Poisson
    and binomial tails do not lose mass to rounding.  It is the reference
    the closed-form hooks are tested against.
    """

    def moments_batch(states, actions):
        states = np.asarray(states)
        row_ptr, targets, probs = mdp.rows(states, np.asarray(actions))
        diff = (mdp.lattice.states()[targets]
                - np.repeat(states, np.diff(row_ptr), axis=0)).astype(np.float64)
        k, d = len(states), mdp.lattice.dim
        mu = np.empty((k, d))
        sigma2 = np.empty((k, d, d))
        for p in range(k):
            w, dx = probs[row_ptr[p]:row_ptr[p + 1]], diff[row_ptr[p]:row_ptr[p + 1]]
            for i in range(d):
                mu[p, i] = math.fsum((w * dx[:, i]).tolist())
                for j in range(i, d):
                    sigma2[p, i, j] = sigma2[p, j, i] = math.fsum(
                        (w * dx[:, i] * dx[:, j]).tolist())
        return mu, sigma2

    return moments_batch


@dataclass(frozen=True)
class EllipticityReport:
    lambda_min: float
    lambda_max: float
    passed: bool
    argmin_state: tuple
    argmin_action: object


def ellipticity_check(problem: TaylorProblem) -> EllipticityReport:
    """Extreme eigenvalues of sigma2_u(x) over all states and feasible actions.

    Diagnostic only: reports (lambda_min, lambda_max) and pass = lambda_min > 0;
    the reported state and action are those of the first minimizing pair.
    """
    mdp = problem.mdp
    U = mdp.action_table()[0]
    states = mdp.pair_states()
    _, s2 = problem.moments_batch(states, U)
    eig = np.linalg.eigvalsh(s2)
    k = int(np.argmin(eig[:, 0]))
    lam_min = float(eig[k, 0])
    return EllipticityReport(lam_min, float(eig[:, -1].max()), lam_min > 0.0,
                             tuple(states[k].tolist()), action_tuple(U[k:k + 1])[0])
