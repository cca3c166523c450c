"""Ingredients of the second-order Taylor (TCP) approximation.

The one-step jump moments

    mu_u(x)_i      = E_x^u[(X_1 - x)_i]
    sigma2_u(x)_ij = E_x^u[(X_1 - x)_i (X_1 - x)_j]

collapse the transition matrix into the drift vector and the (raw, uncentered)
second-moment matrix that drive the differential operator

    L_u V = mu_u . DV + 1/2 trace(sigma2_u D^2 V).

Boundary behaviour is described by a BoundarySpec: either an oblique
reflecting direction eta (eta . DV = 0 on the boundary) or a first-order
Taylor (FOT) condition driven by the control-independent boundary drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import MissingBoundaryData, NonInwardEta
from .lattice import LatticeMdp, StateLattice, action_tuple

NU0 = 1e-6


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary condition for the TCP on the truncated box.

    Both hooks are batch: they map a (k, d) array of boundary states to the
    (k, d) array of their directions, one row per state.

    kind "oblique": eta(states) gives the reflecting directions; each must
    vanish in non-binding coordinates and point into the domain in binding
    ones (positive at a lower face, negative at an upper face).

    kind "fot": first-order Tayloring with the control-independent boundary
    drifts returned by fot_drift(states).
    """

    kind: str
    eta: Optional[Callable] = None
    fot_drift: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("oblique", "fot"):
            raise ValueError("kind must be 'oblique' or 'fot'")
        if self.kind == "oblique" and self.eta is None:
            raise MissingBoundaryData("oblique boundary requires eta")
        if self.kind == "fot" and self.fot_drift is None:
            raise MissingBoundaryData("FOT boundary requires the boundary drift")

    def direction(self, states) -> np.ndarray:
        """The (k, d) directions of a (k, d) state array, in one hook call."""
        states = np.atleast_2d(np.asarray(states))
        fn = self.eta if self.kind == "oblique" else self.fot_drift
        directions = np.asarray(fn(states), dtype=np.float64)
        if directions.shape != states.shape:
            raise ValueError(f"boundary hook returned shape {directions.shape} "
                             f"for states of shape {states.shape}")
        return directions

    def validate_inward(self, lattice: StateLattice, nu0: float = NU0) -> None:
        """Check eta points inward on every boundary state of the lattice (see not_inward).

        The first offending state in lattice order is reported.
        """
        states = lattice.states()
        on_lower = states == np.asarray(lattice.lower)
        on_upper = states == np.asarray(lattice.upper)
        boundary = (on_lower | on_upper).any(axis=1)
        states = states[boundary]
        eta = self.direction(states)
        bad = not_inward(eta, on_lower[boundary], on_upper[boundary], nu0)
        if bad.any():
            k = int(np.argmax(bad))
            raise NonInwardEta(tuple(states[k].tolist()), eta[k])


def not_inward(eta: np.ndarray, on_lower: np.ndarray, on_upper: np.ndarray,
               nu0: float = NU0) -> np.ndarray:
    """Which of k boundary directions break the inward rule, a (k,) bool array.

    eta, on_lower and on_upper are (k, d): the directions and the axes at
    their lower and upper faces.  For the axis-aligned box the obliqueness
    requirement reduces to eta_i >= nu0 |eta| at lower faces and
    eta_i <= -nu0 |eta| at upper faces, with eta_i = 0 on the other axes;
    a zero vector breaks it, and so does any NaN component.
    """
    norm = np.linalg.norm(eta, axis=1)[:, None]
    return ((norm[:, 0] == 0.0)
            | (on_lower & ~(eta >= nu0 * norm)).any(axis=1)
            | (on_upper & ~(eta <= -nu0 * norm)).any(axis=1)
            | (~on_lower & ~on_upper & (eta != 0.0)).any(axis=1))


class TaylorProblem:
    """An MDP together with its drift/diffusion hook and boundary spec.

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
    """

    def __init__(self, mdp: LatticeMdp, moments_batch, boundary: BoundarySpec,
                 name: str = "", moment_classes=None):
        self.mdp = mdp
        self.moments_batch = moments_batch
        self.boundary = boundary
        self.moment_classes = moment_classes
        self.name = name or mdp.name


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
