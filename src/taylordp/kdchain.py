"""Kushner-Dupuis coarse chains that induce the same TCP as the fine MDP.

On the grid S_h (multiples of h per axis, with the truncation bound kept as
an extra point when h does not divide it), the second-order operator is
discretized into transition "rates" over neighboring grid points:

    interior, one dimension, spacing h (small drift sigma2 >= |mu| h):

        P(x, x+h) = (mu h + sigma2) / (2 Sigma(x))
        P(x, x-h) = (-mu h + sigma2) / (2 Sigma(x))
        P(x, x)   = 1 - sigma2 / Sigma(x),     Sigma(x) = sup_u sigma2_u(x)

    state-dependent discount and reward rescaling:

        alpha_h(x) = (1 + h^2/Sigma(x) (1/alpha - 1))^(-1)
        r~_h(x,u)  = alpha_h(x) h^2 r(x,u) / (alpha Sigma(x))
                   = (1 - alpha_h(x)) / (1 - alpha) * r(x,u)

In d dimensions cross-derivatives are handled by the sign-split corner
stencil (positive parts of sigma2_ij put mass on same-sign corners, negative
parts on opposite-sign corners), faces carry the remaining diagonal mass and
the drift.  The general normalizer is

    Q(x) = sup_u sum of stencil rates of u at x

which reduces to Sigma(x)/h^2 in one dimension with the central scheme; the
TCP-equivalence factor alpha (1 - alpha_h(x)) / (alpha_h(x) (1 - alpha))
equals 1/Q(x), and every interior row matches the first moment mu_u(x)/Q(x)
exactly.  See docs/kd_construction.md for the full derivation.

When the small-drift condition fails, two fallbacks are available
per (state, action, dimension):

    "upwind"  - classical one-sided differencing; second moment inflated
                by |mu| h,
    "inflate" - central stencil with the diagonal diffusion raised to the
                minimal feasible value max(sigma2_eff, mu+ hr, mu- hl);
                the inflation (and hence the second-moment slack) is the
                smaller of the two and the rates stay continuous in u.

"inflate" is the default: the hard switch of "upwind" creates spurious
argmax plateaus at the central/one-sided crossover.

Reflecting (oblique) boundary grid states get a deterministic step to the
inward neighbor in every binding coordinate, with zero reward and no
discounting, encoding V(0) = V(h) and V(M - h) = V(M).  First-order (FOT)
boundary rows instead keep the boundary reward and a discount derived from
the one-sided drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonInwardEta, NotDiagonallyDominant, SmallDriftViolated
from .exact import TabularAssembly
from .lattice import StateLattice
from .taylor import TaylorProblem

RATE_TOL = 1e-12
IDENTITY_RTOL = 1e-10


# ---------------------------------------------------------------------------
# coarse grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoarseGrid:
    """Per-axis grid {lower, lower+h, ...} with the upper bound always kept."""

    axes: tuple

    @classmethod
    def from_lattice(cls, lattice: StateLattice, h: int) -> "CoarseGrid":
        if int(h) != h or h < 1:
            raise ValueError("spacing h must be a positive integer")
        axes = []
        for lo, up in zip(lattice.lower, lattice.upper):
            pts = list(range(lo, up + 1, int(h)))
            if pts[-1] != up:
                pts.append(up)
            if len(pts) < 3:
                raise ValueError(f"axis [{lo}, {up}] has fewer than 3 grid points at h={h}")
            axes.append(np.asarray(pts, dtype=np.int64))
        return cls(tuple(axes))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(len(ax) for ax in self.axes)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    def point(self, index: int) -> tuple:
        pos = np.unravel_index(int(index), self.shape)
        return tuple(int(self.axes[i][p]) for i, p in enumerate(pos))

    def position(self, index: int) -> tuple:
        return tuple(int(p) for p in np.unravel_index(int(index), self.shape))

    def index_at(self, positions) -> int:
        return int(np.ravel_multi_index(tuple(positions), self.shape))

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def is_boundary(self, index: int) -> bool:
        pos = self.position(index)
        return any(p == 0 or p == len(ax) - 1 for p, ax in zip(pos, self.axes))

    def spacings(self, index: int):
        """(left, right) gap per axis at an interior position."""
        pos = self.position(index)
        hl, hr = [], []
        for p, ax in zip(pos, self.axes):
            hl.append(float(ax[p] - ax[p - 1]))
            hr.append(float(ax[p + 1] - ax[p]))
        return np.asarray(hl), np.asarray(hr)

    def nearest_index(self, coords: np.ndarray) -> np.ndarray:
        """Nearest grid point per fine state, per-axis ties toward the smaller point."""
        coords = np.atleast_2d(np.asarray(coords))
        pos = []
        for i, ax in enumerate(self.axes):
            c = coords[:, i]
            j = np.searchsorted(ax, c)            # ax[j-1] < c <= ax[j]
            j = np.clip(j, 1, len(ax) - 1)
            left, right = ax[j - 1], ax[j]
            use_left = (c - left) <= (right - c)  # tie -> smaller grid point
            pos.append(np.where(use_left, j - 1, j))
        return np.ravel_multi_index(tuple(pos), self.shape)


# ---------------------------------------------------------------------------
# one-dimensional row builders (the displayed construction)
# ---------------------------------------------------------------------------

def build_interior_row_1d(mu: float, sigma2: float, Sigma: float, h: float):
    """Central-difference row (p_plus, p_minus, p_stay) on an interior point.

    Requires the small-drift condition sigma2 >= |mu| h and Sigma >= sigma2.
    """
    if Sigma < sigma2 or Sigma <= 0.0:
        raise ValueError("need Sigma >= sigma2 > 0")
    if sigma2 < abs(mu) * h - RATE_TOL:
        raise SmallDriftViolated(mu, sigma2, h)
    p_plus = (mu * h + sigma2) / (2.0 * Sigma)
    p_minus = (-mu * h + sigma2) / (2.0 * Sigma)
    p_stay = 1.0 - sigma2 / Sigma
    return p_plus, p_minus, p_stay


def build_interior_row_upwind_1d(mu: float, sigma2: float, Sigma_up: float, h: float):
    """One-sided (upwind) row valid for any drift.

    With Q(x) = sup_u (|mu_u| h + sigma2_u):

        p_plus  = (mu+ h + sigma2/2) / Q
        p_minus = (mu- h + sigma2/2) / Q
        p_stay  = 1 - (|mu| h + sigma2) / Q

    First moment is exact; the second carries |mu| h slack.
    """
    if sigma2 <= 0.0:
        raise ValueError("need sigma2 > 0")
    if Sigma_up < abs(mu) * h + sigma2 - RATE_TOL:
        raise ValueError("normalizer smaller than |mu| h + sigma2")
    p_plus = (max(mu, 0.0) * h + sigma2 / 2.0) / Sigma_up
    p_minus = (max(-mu, 0.0) * h + sigma2 / 2.0) / Sigma_up
    p_stay = 1.0 - (abs(mu) * h + sigma2) / Sigma_up
    return p_plus, p_minus, p_stay


def state_discount(Sigma_or_Q: float, h: float, alpha: float) -> float:
    """alpha_h(x) = (1 + h^2/Sigma(x) (1/alpha - 1))^(-1)."""
    if Sigma_or_Q <= 0.0 or not (0.0 < alpha < 1.0) or h < 1:
        raise ValueError("need Sigma > 0, alpha in (0,1), h >= 1")
    return 1.0 / (1.0 + (h * h / Sigma_or_Q) * (1.0 / alpha - 1.0))


def rescale_reward(r: float, alpha_h: float, alpha: float, Sigma: float, h: float) -> float:
    """r~_h = alpha_h h^2 r / (alpha Sigma); checked against (1-alpha_h)/(1-alpha) r."""
    primary = alpha_h * h * h * r / (alpha * Sigma)
    identity = (1.0 - alpha_h) / (1.0 - alpha) * r
    scale = max(abs(primary), abs(identity), 1e-300)
    if abs(primary - identity) > IDENTITY_RTOL * scale:
        raise AssertionError(f"reward rescaling forms disagree: {primary} vs {identity}")
    return primary


# ---------------------------------------------------------------------------
# general stencil (vectorized over the action list of one state)
# ---------------------------------------------------------------------------

def _stencil_rates(mu_b: np.ndarray, s2_b: np.ndarray, hl: np.ndarray, hr: np.ndarray,
                   scheme: str, cross: str = "clip"):
    """Rates over face/corner offsets for all actions at one interior state.

    Returns (offsets, rates, slack, cross_scale, dominance_deficit):
    offsets is an (n_off, d) integer array of coordinate displacements,
    rates is (k, n_off) nonnegative, slack the per-(action, dim)
    second-moment inflation, cross_scale the per-action factor applied to
    the cross-derivative mass (1 when diagonally dominant), and
    dominance_deficit the per-(action, dim) dominance violation left after
    clipping (positive = offending; only in strict mode).
    """
    k, d = mu_b.shape
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    diag = np.stack([s2_b[:, i, i] for i in range(d)], axis=1)

    # corner loads of the sign-split stencil, before any clipping
    w_cols = []
    load = np.zeros((k, d))
    for (i, j) in pairs:
        a = s2_b[:, i, j]
        w_pos = np.maximum(a, 0.0) / (hr[i] * hr[j] + hl[i] * hl[j])
        w_neg = np.maximum(-a, 0.0) / (hr[i] * hl[j] + hl[i] * hr[j])
        w_cols.append((w_pos, w_neg))
        both = w_pos + w_neg
        load[:, i] += both * (hr[i] ** 2 + hl[i] ** 2)
        load[:, j] += both * (hr[j] ** 2 + hl[j] ** 2)

    # common per-action scale keeping every diagonal budget nonnegative
    cross_scale = np.ones(k)
    if pairs:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(load > 0.0, diag / load, np.inf)
        cross_scale = np.minimum(1.0, ratio.min(axis=1))
        cross_scale = np.maximum(cross_scale, 0.0)

    scale = np.maximum(np.abs(diag), 1.0)
    if cross == "strict":
        deficit = load - diag - 1e-9 * scale   # > 0 where dominance truly fails
        cross_scale = np.ones(k)
    elif cross == "clip":
        deficit = np.full((k, d), -1.0)
    else:
        raise ValueError(f"unknown cross-term mode {cross!r}")

    offsets = []
    rate_cols = []
    corner_drift = np.zeros((k, d))
    corner_sq = np.zeros((k, d))
    for (i, j), (w_pos, w_neg) in zip(pairs, w_cols):
        w_pos = w_pos * cross_scale
        w_neg = w_neg * cross_scale
        # same-sign corners carry w_pos, opposite-sign corners carry w_neg
        off = np.zeros(d); off[i] = hr[i]; off[j] = hr[j]
        offsets.append(off.copy()); rate_cols.append(w_pos)
        off = np.zeros(d); off[i] = -hl[i]; off[j] = -hl[j]
        offsets.append(off.copy()); rate_cols.append(w_pos)
        off = np.zeros(d); off[i] = hr[i]; off[j] = -hl[j]
        offsets.append(off.copy()); rate_cols.append(w_neg)
        off = np.zeros(d); off[i] = -hl[i]; off[j] = hr[j]
        offsets.append(off.copy()); rate_cols.append(w_neg)
        both = w_pos + w_neg
        corner_drift[:, i] += both * (hr[i] - hl[i])
        corner_drift[:, j] += both * (hr[j] - hl[j])
        corner_sq[:, i] += both * (hr[i] ** 2 + hl[i] ** 2)
        corner_sq[:, j] += both * (hr[j] ** 2 + hl[j] ** 2)

    m = mu_b - corner_drift
    b = diag - corner_sq
    b = np.maximum(b, 0.0)

    slack = np.zeros((k, d))
    for i in range(d):
        need = np.maximum(np.maximum(m[:, i], 0.0) * hr[i], np.maximum(-m[:, i], 0.0) * hl[i])
        central_ok = b[:, i] >= need - RATE_TOL
        if scheme == "inflate":
            b_eff = np.maximum(b[:, i], need)
            rp = (b_eff + m[:, i] * hl[i]) / (hr[i] * (hr[i] + hl[i]))
            rm = (b_eff - m[:, i] * hr[i]) / (hl[i] * (hr[i] + hl[i]))
            slack[:, i] = b_eff - b[:, i]
        elif scheme == "upwind":
            rp_c = (b[:, i] + m[:, i] * hl[i]) / (hr[i] * (hr[i] + hl[i]))
            rm_c = (b[:, i] - m[:, i] * hr[i]) / (hl[i] * (hr[i] + hl[i]))
            rp_u = np.maximum(m[:, i], 0.0) / hr[i] + b[:, i] / (hr[i] * (hr[i] + hl[i]))
            rm_u = np.maximum(-m[:, i], 0.0) / hl[i] + b[:, i] / (hl[i] * (hr[i] + hl[i]))
            rp = np.where(central_ok, rp_c, rp_u)
            rm = np.where(central_ok, rm_c, rm_u)
            up_sq = np.maximum(m[:, i], 0.0) * hr[i] + np.maximum(-m[:, i], 0.0) * hl[i]
            slack[:, i] = np.where(central_ok, 0.0, up_sq)
        else:
            raise ValueError(f"unknown drift scheme {scheme!r}")
        off = np.zeros(d); off[i] = hr[i]
        offsets.append(off.copy()); rate_cols.append(np.maximum(rp, 0.0))
        off = np.zeros(d); off[i] = -hl[i]
        offsets.append(off.copy()); rate_cols.append(np.maximum(rm, 0.0))

    offsets = np.stack(offsets).astype(np.int64)
    rates = np.stack(rate_cols, axis=1)
    return offsets, rates, slack, cross_scale, deficit


# ---------------------------------------------------------------------------
# chain container and builder
# ---------------------------------------------------------------------------

class KdChain:
    """TCP-equivalent coarse chain, ready for the exact_dp solvers."""

    def __init__(self, grid, alpha, actions_per_state, assembly, Q, interior_mask,
                 second_moment_slack, cross_scale, cost_oriented=False, name="kd-chain"):
        self.grid = grid
        self.alpha = float(alpha)
        self._actions = actions_per_state
        self._asm = assembly
        self.Q = Q                                # per-state normalizer (0 on boundary rows)
        self.interior_mask = interior_mask
        self.second_moment_slack = second_moment_slack
        self.cross_scale = cross_scale            # per-pair factor on cross-derivative mass
        self.cost_oriented = cost_oriented
        self.name = name

    @property
    def n_states(self) -> int:
        return self.grid.n_points

    @property
    def discounts(self) -> np.ndarray:
        return self._asm.discounts

    def actions_at(self, index: int):
        return self._actions[index]

    def assembly(self) -> TabularAssembly:
        return self._asm

    def pair_row(self, state_index: int, action_index: int):
        asm = self._asm
        pair = asm.offsets[state_index] + action_index
        lo, hi = asm.row_ptr[pair], asm.row_ptr[pair + 1]
        return asm.col_idx[lo:hi], asm.probs[lo:hi], asm.rewards[pair]


def build_multidim_chain(problem: TaylorProblem, grid, scheme: str = "inflate",
                         cross: str = "clip",
                         cost_oriented: Optional[bool] = None) -> KdChain:
    """Assemble the K-D chain for all grid states and feasible actions.

    grid is a CoarseGrid or an integer spacing h for CoarseGrid.from_lattice.
    Interior rows discretize L_u with the central/fallback stencil; boundary
    rows realize the problem's boundary condition.  Cross-derivative mass in
    excess of the diagonal budget is scaled down to the representable amount
    (cross="clip", recorded per pair) or raises NotDiagonallyDominant
    (cross="strict").
    """
    mdp = problem.mdp
    alpha = mdp.discount
    if isinstance(grid, int):
        grid = CoarseGrid.from_lattice(mdp.lattice, grid)
    boundary = problem.boundary
    n = grid.n_points
    d = grid.dim

    offsets = [0]
    rewards: list[float] = []
    row_ptr = [0]
    cols: list[np.ndarray] = []
    probs: list[np.ndarray] = []
    discounts = np.empty(n)
    Q_per_state = np.zeros(n)
    interior_mask = np.zeros(n, dtype=bool)
    actions_per_state: list[tuple] = []
    slack_rows: list[np.ndarray] = []
    cross_rows: list[np.ndarray] = []
    offenders: list[tuple] = []

    shape = grid.shape
    strides = np.array([int(np.prod(shape[i + 1:])) for i in range(d)], dtype=np.int64)

    for idx in range(n):
        pos = np.array(grid.position(idx), dtype=np.int64)
        point = grid.point(idx)
        acts = mdp.actions.at(point)
        if grid.is_boundary(idx):
            binding_lower = [i for i in range(d) if pos[i] == 0]
            binding_upper = [i for i in range(d) if pos[i] == len(grid.axes[i]) - 1]
            _check_eta(boundary, point, binding_lower, binding_upper, d)
            inward_pos = pos.copy()
            for i in binding_lower:
                inward_pos[i] += 1
            for i in binding_upper:
                inward_pos[i] -= 1
            if boundary.kind == "oblique":
                # deterministic reflection; no reward, no discounting
                target = int(inward_pos @ strides)
                actions_per_state.append(acts[:1])
                rewards.append(0.0)
                cols.append(np.array([target], dtype=np.int64))
                probs.append(np.array([1.0]))
                row_ptr.append(row_ptr[-1] + 1)
                offsets.append(offsets[-1] + 1)
                discounts[idx] = 1.0
                slack_rows.append(np.zeros((1, d)))
                cross_rows.append(np.ones(1))
            else:
                drift = boundary.direction(point)
                tgt, wgt = [], []
                for i in binding_lower + binding_upper:
                    step = pos.copy()
                    step[i] = inward_pos[i]
                    gap = abs(float(grid.axes[i][inward_pos[i]] - grid.axes[i][pos[i]]))
                    w = abs(float(drift[i])) / gap
                    if w > 0.0:
                        tgt.append(int(step @ strides))
                        wgt.append(w)
                W = math.fsum(wgt)
                if W <= 0.0:
                    raise NonInwardEta(point, drift)
                den = 1.0 - alpha + alpha * W
                actions_per_state.append(acts)
                for u in acts:
                    rewards.append(float(mdp.reward(point, u)) / den)
                    cols.append(np.asarray(tgt, dtype=np.int64))
                    probs.append(np.asarray(wgt) / W)
                    row_ptr.append(row_ptr[-1] + len(tgt))
                offsets.append(offsets[-1] + len(acts))
                discounts[idx] = alpha * W / den
                slack_rows.append(np.zeros((len(acts), d)))
                cross_rows.append(np.ones(len(acts)))
            continue

        interior_mask[idx] = True
        hl, hr = grid.spacings(idx)
        mu_b, s2_b = problem.moments_batch(point, acts)
        off, rates, slack, cscale, deficit = _stencil_rates(np.atleast_2d(mu_b), s2_b, hl, hr,
                                                            scheme, cross)
        bad = np.argwhere(deficit > 0.0)
        if bad.size:
            for a_i, dim_i in bad:
                offenders.append((point, acts[int(a_i)], int(dim_i), float(deficit[a_i, dim_i])))
            continue

        total = rates.sum(axis=1)
        Q = float(total.max())
        if Q <= 0.0:
            raise ValueError(f"degenerate (zero-diffusion) stencil at {point}")
        Q_per_state[idx] = Q
        discounts[idx] = 1.0 / (1.0 + (1.0 / alpha - 1.0) / Q)
        # offsets hold coordinate displacements; grid positions move by their sign
        tgt_flat = (pos + np.sign(off)) @ strides
        actions_per_state.append(acts)
        for a in range(len(acts)):
            p = rates[a] / Q
            keep = p > 0.0
            stay = 1.0 - float(p[keep].sum())
            t = tgt_flat[keep]
            pp = p[keep]
            if stay > RATE_TOL:
                t = np.concatenate([t, [idx]])
                pp = np.concatenate([pp, [stay]])
            rewards.append(discounts[idx] * float(mdp.reward(point, acts[a])) / (alpha * Q))
            cols.append(t.astype(np.int64))
            probs.append(pp)
            row_ptr.append(row_ptr[-1] + len(t))
        offsets.append(offsets[-1] + len(acts))
        slack_rows.append(slack)
        cross_rows.append(cscale)

    if offenders:
        raise NotDiagonallyDominant(offenders)

    asm = TabularAssembly(offsets, rewards, row_ptr,
                          np.concatenate(cols), np.concatenate(probs), discounts)
    if cost_oriented is None:
        cost_oriented = mdp.cost_oriented
    return KdChain(grid, alpha, actions_per_state, asm, Q_per_state, interior_mask,
                   np.concatenate(slack_rows, axis=0), np.concatenate(cross_rows),
                   cost_oriented, name=f"{mdp.name}-kd")


def _check_eta(boundary, point, binding_lower, binding_upper, d):
    direction = boundary.direction(point)
    if direction.shape != (d,):
        raise NonInwardEta(point, direction)
    for i in binding_lower:
        if direction[i] <= 0.0:
            raise NonInwardEta(point, direction)
    for i in binding_upper:
        if direction[i] >= 0.0:
            raise NonInwardEta(point, direction)


# ---------------------------------------------------------------------------
# TCP-equivalence verification
# ---------------------------------------------------------------------------

@dataclass
class TcpEquivalenceReport:
    max_first_moment_err: float
    max_cross_moment_err: float
    max_diag_moment_err: float
    max_reward_err: float
    checked_pairs: int
    worst: list

    @property
    def passed(self) -> bool:
        return (self.max_first_moment_err <= 1e-9 and self.max_cross_moment_err <= 1e-9
                and self.max_diag_moment_err <= 1e-9 and self.max_reward_err <= 1e-10)


def verify_tcp_equivalence(chain: KdChain, problem: TaylorProblem) -> TcpEquivalenceReport:
    """Check the coarse rows against the TCP-equivalence constraints.

    For every interior (grid state, action) the row must satisfy, with
    kappa(x) = alpha (1 - alpha_h(x)) / (alpha_h(x) (1 - alpha)) = 1/Q(x):

        sum_y P(x,y) (y - x)_i           = kappa mu_i            (exact)
        sum_y P(x,y) (y - x)_i (y - x)_j = kappa sigma2_ij       (i != j)
        sum_y P(x,y) (y - x)_i^2         = kappa (sigma2_ii + slack_i)

    where slack_i is the recorded second-moment inflation of the fallback
    stencil (zero on central rows), and the reward must satisfy
    r~ = (1 - alpha_h)/(1 - alpha) r to 1e-10 relative.  Boundary rows are
    excluded (they encode the reflecting condition, not the operator).
    Errors are reported relative to max(1, |target|).
    """
    mdp = problem.mdp
    alpha = mdp.discount
    grid = chain.grid
    pts = grid.points().astype(np.float64)
    asm = chain.assembly()
    worst: list[tuple] = []
    e1 = e_cross = e_diag = e_r = 0.0
    checked = 0
    d = grid.dim

    for idx in range(chain.n_states):
        if not chain.interior_mask[idx]:
            continue
        acts = chain.actions_at(idx)
        point = grid.point(idx)
        mu_b, s2_b = problem.moments_batch(point, acts)
        mu_b = np.atleast_2d(mu_b)
        alpha_h = chain.discounts[idx]
        kappa = alpha * (1.0 - alpha_h) / (alpha_h * (1.0 - alpha))
        for a, u in enumerate(acts):
            targets, p, r_tilde = chain.pair_row(idx, a)
            pair = asm.offsets[idx] + a
            diff = pts[targets] - pts[idx]
            checked += 1
            m1 = p @ diff
            err1 = np.abs(m1 - kappa * mu_b[a]) / np.maximum(1.0, np.abs(kappa * mu_b[a]))
            e1 = max(e1, float(err1.max()))
            if err1.max() > 1e-9:
                worst.append((point, u, "first-moment", float(err1.max())))
            m2 = (p[:, None, None] * diff[:, :, None] * diff[:, None, :]).sum(axis=0)
            slack = chain.second_moment_slack[pair]
            target2 = kappa * chain.cross_scale[pair] * s2_b[a]
            for i in range(d):
                target2[i, i] = kappa * (s2_b[a][i, i] + slack[i])
            err2 = np.abs(m2 - target2) / np.maximum(1.0, np.abs(target2))
            for i in range(d):
                e_diag = max(e_diag, float(err2[i, i]))
                if err2[i, i] > 1e-9:
                    worst.append((point, u, f"diag-moment[{i}]", float(err2[i, i])))
            if d > 1:
                off_mask = ~np.eye(d, dtype=bool)
                e_cross = max(e_cross, float(err2[off_mask].max()))
                if err2[off_mask].max() > 1e-9:
                    worst.append((point, u, "cross-moment", float(err2[off_mask].max())))
            r = float(mdp.reward(point, u))
            ident = (1.0 - alpha_h) / (1.0 - alpha) * r
            err_r = abs(r_tilde - ident) / max(1.0, abs(ident))
            e_r = max(e_r, err_r)
            if err_r > 1e-10:
                worst.append((point, u, "reward", err_r))

    worst.sort(key=lambda t: -t[-1])
    return TcpEquivalenceReport(e1, e_cross, e_diag, e_r, checked, worst[:10])
