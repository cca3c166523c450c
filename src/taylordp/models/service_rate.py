"""Single-server queue with controlled service probability.

Random walk on {0, ..., M}: from x >= 1 the chain moves down with
probability u and up with probability 1 - u; from 0 it moves up surely, and
the truncated row at M moves down surely.  The control grid is
{0, 1/K, ..., (K-1)/K}.

Two cost variants share the dynamics:

    quadratic:  x^2 + c_s / (1 - u)      (control experiments, Fig.-2 style)
    quartic:    x^4 + c_s / (1 - u)      (closed-form oracle at fixed u = 1/2)

Costs are negated into rewards; drift is 1 - 2u away from the lower
boundary and +1 at x = 0 (the one-step move is deterministic there), the
second moment is identically 1.  The drift jump at 0 is proportional to -1,
so the oblique boundary direction is eta(0) = +1 (V'(0) = 0), and the
truncation at M reflects likewise (V'(M) = 0).

With u fixed at 1/2 the quartic-cost Taylored equation has the closed-form
solution

    Vhat(x) = -x^4/(1-a) - 6 a x^2/(1-a)^2 - 6 a^2/(1-a)^3 - 2 c_s/(1-a),

exposed here with its derivatives as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..bounds import SmoothFunction
from ..lattice import ExplicitActionSet, LatticeMdp, StateLattice, pack_rows
from ..taylor import BoundarySpec, TaylorProblem


@dataclass(frozen=True)
class ServiceRateParams:
    M: int = 100
    alpha: float = 0.99
    cost: str = "quadratic"          # quadratic | quartic
    c_s: float = 1.0
    n_controls: int = 100            # K: controls {0, 1/K, ..., (K-1)/K}
    fixed_u: Optional[float] = None  # evaluation-only variant

    def __post_init__(self):
        if self.M < 4:
            raise ValueError("need M >= 4")
        if self.cost not in ("quadratic", "quartic"):
            raise ValueError("cost must be 'quadratic' or 'quartic'")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")


class ServiceRateModel:
    def __init__(self, params: ServiceRateParams):
        self.params = params
        M, alpha = params.M, params.alpha
        lattice = StateLattice((0,), (M,))
        if params.fixed_u is not None:
            controls = (float(params.fixed_u),)
        else:
            controls = tuple(k / params.n_controls for k in range(params.n_controls))
        self.controls = controls
        power = 2 if params.cost == "quadratic" else 4

        # batch hooks over k pairs: states (k, 1), controls (k,)
        def kernel(states, us):
            x = np.asarray(states, dtype=np.int64)[:, 0]
            us = np.asarray(us, dtype=np.float64)
            targets = np.stack([x - 1, x + 1], axis=1)
            probs = np.stack([us, 1.0 - us], axis=1)
            targets[x == 0, 0], probs[x == 0, 0] = 1, 1.0          # up surely from 0
            targets[x == M, 0], probs[x == M, 0] = M - 1, 1.0      # down surely from M
            return pack_rows(targets, probs, np.where((x == 0) | (x == M), 1, 2))

        def reward(states, us):
            x = np.asarray(states, dtype=np.float64)[:, 0]
            x_power = x * x if power == 2 else (x * x) * (x * x)
            return -(x_power + params.c_s / (1.0 - np.asarray(us, dtype=np.float64)))

        self.mdp = LatticeMdp(lattice, ExplicitActionSet(controls), kernel, reward, alpha)

        def moments_batch(states, actions):
            x = np.asarray(states)[:, 0]
            us = np.asarray(actions, dtype=np.float64)
            mu = np.where(x == 0, 1.0, 1.0 - 2.0 * us)
            return mu[:, None], np.ones((len(us), 1, 1))

        self.boundary_spec = BoundarySpec(
            kind="oblique",
            eta=lambda states: np.where(states == 0, 1.0, -1.0),
            fot_drift=lambda states: np.where(states == 0, 1.0, -1.0),
        )
        self.problem = TaylorProblem(self.mdp, moments_batch, self.boundary_spec)

    def fot_boundary_problem(self) -> TaylorProblem:
        """Same model with first-order Tayloring at 0 and M."""
        spec = BoundarySpec(kind="fot", fot_drift=self.boundary_spec.fot_drift)
        return TaylorProblem(self.mdp, self.problem.moments_batch, spec)

    def mass_conserving_states(self) -> np.ndarray:
        """States whose raw random-walk row keeps all mass inside [0, M]."""
        mask = np.ones(self.mdp.n_states, dtype=bool)
        mask[self.params.M] = False
        return mask

    # ---- closed-form oracle for the quartic cost at fixed u = 1/2 ----

    def oracle(self) -> SmoothFunction:
        if self.params.cost != "quartic" or self.params.fixed_u != 0.5:
            raise ValueError("closed form available for the quartic cost at fixed u = 1/2")
        return quartic_oracle(self.params.alpha, self.params.c_s)


def quartic_oracle(alpha: float, c_s: float = 1.0) -> SmoothFunction:
    """The quartic closed form and its derivatives (u = 1/2), of (n, 1) coordinates."""
    a = alpha
    one = 1.0 - a

    def value(x):
        x = x[:, 0]
        return (-x ** 4 / one - 6 * a * x ** 2 / one ** 2
                - 6 * a ** 2 / one ** 3 - 2 * c_s / one)

    def grad(x):
        return -4 * x ** 3 / one - 12 * a * x / one ** 2

    def hess(x):
        return (-12 * x ** 2 / one - 12 * a / one ** 2)[:, :, None]

    fn = SmoothFunction(value, grad, hess)
    fn.third = lambda x: -24.0 * np.asarray(x, dtype=np.float64) / one
    return fn


def continuous_one_step_control(model: ServiceRateModel, fine_value: np.ndarray) -> np.ndarray:
    """Closed-form greedy control in [0, 1) against an extended value.

    For either cost variant, maximizing -c_s/(1-u) + alpha u (V(x-1) - V(x+1))
    over continuous u gives u* = 1 - sqrt(c_s / (alpha Delta)) with
    Delta = V(x-1) - V(x+1), clipped into [0, 1); endpoints keep u = 0.
    """
    p = model.params
    v = np.asarray(fine_value, dtype=np.float64)
    out = np.zeros(p.M + 1)
    delta = v[:-2] - v[2:]
    good = delta > 0
    inner = np.zeros(p.M - 1)
    inner[good] = 1.0 - np.sqrt(p.c_s / (p.alpha * delta[good]))
    out[1:-1] = np.clip(inner, 0.0, 1.0 - 1e-9)
    return out


def build_service_rate(params: ServiceRateParams) -> ServiceRateModel:
    return ServiceRateModel(params)
