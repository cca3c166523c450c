"""Computable optimality-gap diagnostics.

The central object is the Taylor remainder of a smooth candidate function
Phi under a fixed policy U:

    A_U[Phi](x) = alpha ((P^U - I) Phi)(x) - alpha L_U Phi(x),

the gap between the true one-step expectation and its second-order expansion.
A_U vanishes identically on quadratics.  Discounted accumulations of |A_U|
along the chain (computed exactly by a linear solve) bound |Phi - V_U|
pointwise whenever Phi solves the Taylored equation at every lattice state.

Also here: the central-difference third-derivative proxy, an empirical
Holder seminorm estimator for second derivatives on grids, corner-state
sets (within a radius of two or more boundary faces), and relative-error
gap reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientNeighborhood, OutOfStencilRange
from .exact import discounted_functional, get_assembly
from .lattice import LatticeMdp
from .taylor import TaylorProblem


class SmoothFunction:
    """A function of the state with analytic gradient and Hessian, as batch hooks.

    value, grad and hess each take an (n, d) coordinate array and return
    (n,), (n, d) and (n, d, d) arrays, one row per coordinate; any other
    shape, in or out, raises ValueError.
    """

    def __init__(self, value: Callable, grad: Callable, hess: Callable):
        self._value = value
        self._grad = grad
        self._hess = hess

    def value(self, coords) -> np.ndarray:
        return _batch_call(self._value, coords, 0)

    def grad(self, coords) -> np.ndarray:
        return _batch_call(self._grad, coords, 1)

    def hess(self, coords) -> np.ndarray:
        return _batch_call(self._hess, coords, 2)


def _batch_call(fn: Callable, coords, order: int) -> np.ndarray:
    """fn on an (n, d) float array, checked to return shape (n,) + (d,) * order."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2:
        raise ValueError(f"coordinates must be an (n, d) array, not shape {coords.shape}")
    out = np.asarray(fn(coords), dtype=np.float64)
    want = coords.shape[:1] + coords.shape[1:] * order
    if out.shape != want:
        raise ValueError(f"order-{order} hook returned shape {out.shape} "
                         f"for coordinates of shape {coords.shape}")
    return out


class GridFunction1d(SmoothFunction):
    """Values on a one-dimensional grid lower, lower + h, ... with finite-difference derivatives.

    Centered differences inside, one-sided at the two edge states; the
    one_sided mask flags where the fallback was used.  The gradient and
    Hessian (fd_hessian_1d) arrays are computed once; coordinates off the
    grid points raise OutOfStencilRange, and so do fewer than 3 values.
    """

    def __init__(self, values: np.ndarray, lower: int = 0, h: float = 1.0):
        v = np.asarray(values, dtype=np.float64)
        self.values_arr = v
        self.lower = lower
        self.h = float(h)
        d2, self.one_sided = fd_hessian_1d(v, self.h)
        d1 = np.empty(len(v))
        d1[1:-1] = (v[2:] - v[:-2]) / (2 * self.h)
        d1[0] = (v[1] - v[0]) / self.h
        d1[-1] = (v[-1] - v[-2]) / self.h

        def index(coords):
            c = coords.reshape(-1)
            pos = (c - lower) / self.h
            idx = np.rint(pos).astype(int)
            off = (idx < 0) | (idx >= len(v)) | (np.abs(pos - idx) > 1e-9)
            if off.any():
                raise OutOfStencilRange(f"coordinate {c[off][0]} is not a grid point")
            return idx

        super().__init__(lambda coords: v[index(coords)],
                         lambda coords: d1[index(coords)][:, None],
                         lambda coords: d2[index(coords)][:, None, None])


def taylor_remainder(problem: TaylorProblem, policy, phi: SmoothFunction) -> np.ndarray:
    """A_U[Phi](x) for every lattice state, in one array pass.

    P^U Phi is the assembly's expectations of Phi at every pair, read at
    the pairs mdp.validate_policy checks and returns; the moments come from
    one moments_batch call, and Phi's derivatives from one grad and one
    hess call over all states.
    """
    mdp = problem.mdp
    alpha = mdp.discount
    pairs = mdp.validate_policy(policy)
    states = mdp.lattice.states()
    coords = states.astype(np.float64)
    phi_states = phi.value(coords)
    mu, sigma2 = problem.moments_batch(states, mdp.action_table()[0][pairs])
    p_phi = get_assembly(mdp).expectations(phi_states)[pairs]
    lu = (np.einsum("nd,nd->n", mu, phi.grad(coords))
          + 0.5 * np.einsum("nij,nji->n", sigma2, phi.hess(coords)))     # mu.DPhi + tr(s2 D2Phi)/2
    return alpha * (p_phi - phi_states) - alpha * lu


def discounted_accumulation(mdp: LatticeMdp, policy, g: np.ndarray) -> np.ndarray:
    """E_x[sum_t alpha^t g(X_t)] for a nonnegative per-state vector g (exact solve)."""
    g = np.asarray(g, dtype=np.float64)
    if g.min() < 0.0:
        raise ValueError("discounted_accumulation expects nonnegative g; "
                         "use discounted_functional for signed integrands")
    return discounted_functional(mdp, policy, g)


def third_derivative_proxy(values: np.ndarray, h: int = 1) -> np.ndarray:
    """Central-difference proxy for the third derivative on an h-spaced grid.

    proxy[i] = (V[i+2] - 2 V[i+1] + 2 V[i-1] - V[i-2]) / (2 h^3); the two
    points nearest each edge are marked absent (NaN).  With h = 1 this is
    (1/2)(V(x+2) - 2V(x+1) + 2V(x-1) - V(x-2)).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or len(v) < 5:
        raise OutOfStencilRange("need a one-dimensional grid with at least 5 points")
    out = np.full(len(v), np.nan)
    out[2:-2] = (v[4:] - 2 * v[3:-1] + 2 * v[1:-3] - v[:-4]) / (2.0 * float(h) ** 3)
    return out


def fd_hessian_1d(values: np.ndarray, h: float = 1.0):
    """Second differences with one-sided copies at the edges; returns (H, one_sided).

    Fewer than 3 values raise OutOfStencilRange.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or len(v) < 3:
        raise OutOfStencilRange("need a one-dimensional grid with at least 3 points")
    hess = np.empty(len(v))
    hess[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
    hess[0] = hess[1]
    hess[-1] = hess[-2]
    mask = np.zeros(len(v), dtype=bool)
    mask[[0, -1]] = True
    return hess, mask


def holder_seminorm_estimate(hessians: np.ndarray, coords: np.ndarray,
                             radius: float, beta: float = 1.0) -> np.ndarray:
    """Empirical sup over pairs within radius of |H(y) - H(z)| / |y - z|^beta.

    hessians: (n,) for one dimension or (n, d, d); coords: (n,) or (n, d);
    the matrix max-norm is used.  beta defaults to 1 (Lipschitz).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    H = np.asarray(hessians, dtype=np.float64)
    if H.ndim == 1:
        H = H[:, None, None]
    X = np.asarray(coords, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    n = len(H)

    def distances(Y, Z):
        return np.sqrt(((Y[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2))

    # one distance row at a time: memory stays O(n) rather than O(n^2 d)
    out = np.empty(n)
    for k in range(n):
        row = distances(X[k:k + 1], X)[0]
        near = np.flatnonzero(row <= radius + 1e-12)
        if len(near) < 2:
            row[k] = np.inf
            raise InsufficientNeighborhood(f"state {k} has no neighbor within radius {radius}; "
                                           f"the nearest is {row.min()} away")
        sub = H[near]
        dd = distances(X[near], X[near])
        num = np.abs(sub[:, None] - sub[None, :]).max(axis=(2, 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = num / dd ** beta
        ratio[dd == 0.0] = 0.0
        out[k] = float(ratio.max())
    return out


def corner_states(lattice) -> np.ndarray:
    """States within 1 of at least two lower boundary faces (the 'corners').

    The faces are the axes B_i = {x_i = lower_i}; the truncation faces do
    not count, so the result is empty in one dimension.
    """
    close = (lattice.states() - np.asarray(lattice.lower)) <= 1
    return close.sum(axis=1) >= 2


@dataclass
class GapReport:
    abs_gap: np.ndarray
    rel_gap: np.ndarray            # NaN where |V_star| < 1e-9
    max_rel: float
    mean_rel: float
    excluded: int


def gap_report(v_candidate: np.ndarray, v_star: np.ndarray) -> GapReport:
    """Per-state |V_U - V_*| and relative errors |V_U - V_*| / |V_*|.

    States with |V_*| < 1e-9 are excluded from the ratios and counted.
    """
    v_candidate = np.asarray(v_candidate, dtype=np.float64)
    v_star = np.asarray(v_star, dtype=np.float64)
    if v_candidate.shape != v_star.shape:
        raise ValueError("value vectors must share a lattice")
    abs_gap = np.abs(v_candidate - v_star)
    ok = np.abs(v_star) >= 1e-9
    rel = np.full(v_star.shape, np.nan)
    rel[ok] = abs_gap[ok] / np.abs(v_star[ok])
    max_rel = float(np.nanmax(rel)) if ok.any() else float("nan")
    mean_rel = float(np.nanmean(rel)) if ok.any() else float("nan")
    return GapReport(abs_gap, rel, max_rel, mean_rel, int((~ok).sum()))
