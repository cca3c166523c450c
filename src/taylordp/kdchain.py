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
argmax plateaus at the central/one-sided crossover.  Cross-derivative mass
beyond the diagonal budget is clipped per pair (cross_scale < 1).  The
verifier checks rows against these clipped and inflated targets and counts
the pairs affected, so an exact equivalence can be told apart from one
after clipping or inflation.

A grid point's actions are the fine actions of its lattice state: the
chain reads every point's slice of mdp.action_table() in one gather and
keeps them as one array aligned with its pair axis (KdChain.actions), so
the fine action set is enumerated once per model.  The interior rows of all
(grid point, action) pairs are built in one array pass: one moments_batch
call, one _stencil_rates call with per-pair spacings and one shared
direction template.

Reflecting boundary grid states get a deterministic step to the inward
neighbour on every binding coordinate, with zero reward and no
discounting, encoding V(0) = V(h) and V(M - h) = V(M).  These rows need no
data: on a face the paper's reflection direction eta is the inward normal,
so the step is the whole condition, and at a corner the chain steps along
every binding axis whatever eta would say.  First-order (FOT) boundary
rows, built when the problem carries a fot_drift hook, instead keep the
boundary reward and a discount derived from the one-sided drift.  Either
kind is built in one array pass over the boundary points; the FOT kind
reads its drifts in one fot_drift call, and the first point whose drift
breaks the inward rule (taylor.not_inward) raises NonInwardEta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonInwardEta
from .exact import TabularAssembly, _ranges
from .lattice import StateLattice, action_tuple
from .taylor import TaylorProblem, not_inward

RATE_TOL = 1e-12
MOMENT_TOL = 1e-9      # TCP-equivalence bound on each moment error, relative to max(1, |target|)
REWARD_TOL = 1e-10     # the same for the rescaled reward


# ---------------------------------------------------------------------------
# coarse grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoarseGrid:
    """Per-axis grid {lower, lower+h, ...} with the upper bound always kept.

    Every axis has 2 or more strictly ascending points, checked once here.
    """

    axes: tuple

    def __post_init__(self):
        for i, ax in enumerate(self.axes):
            if len(ax) < 2 or (np.diff(ax) <= 0).any():
                raise ValueError(f"grid axis {i} needs 2 or more strictly ascending grid points, "
                                 f"got {np.asarray(ax).tolist()}")

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

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

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
# general stencil (vectorized over (state, action) pairs)
# ---------------------------------------------------------------------------

def _stencil_rates(mu_b: np.ndarray, s2_b: np.ndarray, hl, hr, scheme: str):
    """Rates over the face/corner directions of k (state, action) pairs.

    hl and hr are the left and right grid gaps per (pair, dimension), or
    anything that broadcasts to (k, d).  Returns (dirs, rates, slack,
    cross_scale): dirs is the (n_off, d) template of unit steps (-1, 0, 1)
    shared by every pair -- for each dimension pair (i, j) the corners
    (+,+), (-,-), (+,-), (-,+), then for each dimension the faces + and -;
    a step +1 in coordinate i moves by hr_i and -1 by hl_i.  rates is
    (k, n_off) nonnegative, slack the per-(pair, dim) second-moment
    inflation, and cross_scale the per-pair factor applied to the
    cross-derivative mass (1 when diagonally dominant).
    """
    k, d = mu_b.shape
    hl = np.broadcast_to(hl, (k, d))
    hr = np.broadcast_to(hr, (k, d))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    diag = np.stack([s2_b[:, i, i] for i in range(d)], axis=1)

    # corner loads of the sign-split stencil, before any clipping
    w_cols = []
    load = np.zeros((k, d))
    for (i, j) in pairs:
        a = s2_b[:, i, j]
        w_pos = np.maximum(a, 0.0) / (hr[:, i] * hr[:, j] + hl[:, i] * hl[:, j])
        w_neg = np.maximum(-a, 0.0) / (hr[:, i] * hl[:, j] + hl[:, i] * hr[:, j])
        w_cols.append((w_pos, w_neg))
        both = w_pos + w_neg
        load[:, i] += both * (hr[:, i] ** 2 + hl[:, i] ** 2)
        load[:, j] += both * (hr[:, j] ** 2 + hl[:, j] ** 2)

    # common per-pair scale keeping every diagonal budget nonnegative
    cross_scale = np.ones(k)
    if pairs:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(load > 0.0, diag / load, np.inf)
        cross_scale = np.minimum(1.0, ratio.min(axis=1))
        cross_scale = np.maximum(cross_scale, 0.0)

    dirs = []
    rate_cols = []
    corner_drift = np.zeros((k, d))
    corner_sq = np.zeros((k, d))
    for (i, j), (w_pos, w_neg) in zip(pairs, w_cols):
        w_pos = w_pos * cross_scale
        w_neg = w_neg * cross_scale
        # same-sign corners carry w_pos, opposite-sign corners carry w_neg
        for si, sj, w in ((1, 1, w_pos), (-1, -1, w_pos), (1, -1, w_neg), (-1, 1, w_neg)):
            e = np.zeros(d, dtype=np.int64); e[i] = si; e[j] = sj
            dirs.append(e); rate_cols.append(w)
        both = w_pos + w_neg
        corner_drift[:, i] += both * (hr[:, i] - hl[:, i])
        corner_drift[:, j] += both * (hr[:, j] - hl[:, j])
        corner_sq[:, i] += both * (hr[:, i] ** 2 + hl[:, i] ** 2)
        corner_sq[:, j] += both * (hr[:, j] ** 2 + hl[:, j] ** 2)

    m = mu_b - corner_drift
    b = diag - corner_sq
    b = np.maximum(b, 0.0)

    slack = np.zeros((k, d))
    for i in range(d):
        hli, hri = hl[:, i], hr[:, i]
        need = np.maximum(np.maximum(m[:, i], 0.0) * hri, np.maximum(-m[:, i], 0.0) * hli)
        central_ok = b[:, i] >= need - RATE_TOL
        if scheme == "inflate":
            b_eff = np.maximum(b[:, i], need)
            rp = (b_eff + m[:, i] * hli) / (hri * (hri + hli))
            rm = (b_eff - m[:, i] * hri) / (hli * (hri + hli))
            slack[:, i] = b_eff - b[:, i]
        elif scheme == "upwind":
            rp_c = (b[:, i] + m[:, i] * hli) / (hri * (hri + hli))
            rm_c = (b[:, i] - m[:, i] * hri) / (hli * (hri + hli))
            rp_u = np.maximum(m[:, i], 0.0) / hri + b[:, i] / (hri * (hri + hli))
            rm_u = np.maximum(-m[:, i], 0.0) / hli + b[:, i] / (hli * (hri + hli))
            rp = np.where(central_ok, rp_c, rp_u)
            rm = np.where(central_ok, rm_c, rm_u)
            up_sq = np.maximum(m[:, i], 0.0) * hri + np.maximum(-m[:, i], 0.0) * hli
            slack[:, i] = np.where(central_ok, 0.0, up_sq)
        else:
            raise ValueError(f"unknown drift scheme {scheme!r}")
        for s, r in ((1, rp), (-1, rm)):
            e = np.zeros(d, dtype=np.int64); e[i] = s
            dirs.append(e); rate_cols.append(np.maximum(r, 0.0))

    return np.stack(dirs), np.stack(rate_cols, axis=1), slack, cross_scale


# ---------------------------------------------------------------------------
# chain container and builder
# ---------------------------------------------------------------------------

class KdChain:
    """TCP-equivalent coarse chain; the exact.py solvers take it through assembly().

    It records what it was built from: problem, h, scheme and fine_state, the
    lattice index of every grid point.  Grid point i's actions are
    actions[offsets[i]:offsets[i+1]] (assembly().offsets), the fine actions of
    lattice state fine_state[i] in table order (a reflecting boundary point
    keeps only the first).
    """

    def __init__(self, problem, h, scheme, grid, fine_state, actions, assembly, Q,
                 interior_mask, second_moment_slack, cross_scale):
        self.problem = problem
        self.h = h
        self.scheme = scheme
        self.grid = grid
        self.fine_state = fine_state
        self.actions = actions
        self._asm = assembly
        self.Q = Q                                # per-state normalizer (0 on boundary rows)
        self.interior_mask = interior_mask
        self.second_moment_slack = second_moment_slack
        self.cross_scale = cross_scale            # per-pair factor on cross-derivative mass

    @property
    def n_states(self) -> int:
        return self.grid.n_points

    @property
    def discounts(self) -> np.ndarray:
        return self._asm.discounts

    def actions_at(self, index: int):
        offsets = self._asm.offsets
        return action_tuple(self.actions[offsets[index]:offsets[index + 1]])

    def assembly(self) -> TabularAssembly:
        return self._asm


def build_multidim_chain(problem: TaylorProblem, h: int, scheme: str = "inflate") -> KdChain:
    """Assemble the K-D chain for all grid states and feasible actions.

    The grid is CoarseGrid.from_lattice(problem.mdp.lattice, h).
    A grid point's actions are its lattice state's slice of
    mdp.action_table(), gathered for every point in one pass.  Interior rows
    discretize L_u with the central/fallback stencil, built in one pass over
    every interior (grid point, action) pair.  Boundary rows reflect, or
    follow the problem's first-order drift when it has a fot_drift hook.
    Cross-derivative mass in excess of the diagonal budget is scaled down to
    the representable amount and recorded per pair (cross_scale);
    verify_tcp_equivalence reports how many pairs were clipped or inflated.
    """
    mdp = problem.mdp
    alpha = mdp.discount
    grid = CoarseGrid.from_lattice(mdp.lattice, h)
    reflecting = problem.fot_drift is None
    n, d = grid.n_points, grid.dim
    shape = np.asarray(grid.shape)
    strides = np.array([int(np.prod(grid.shape[i + 1:])) for i in range(d)], dtype=np.int64)
    pos = np.stack(np.unravel_index(np.arange(n), grid.shape), axis=1)
    coords = grid.points()
    at_lower, at_upper = pos == 0, pos == shape - 1
    interior = ~(at_lower | at_upper).any(axis=1)
    inward_pos = np.clip(pos, 1, shape - 2)           # one step inward on every binding axis

    # every point's slice of the fine action table, gathered in one pass
    U, fine_offsets = mdp.action_table()
    fine_state = mdp.lattice.indices_of(coords)
    counts = np.diff(fine_offsets)[fine_state]
    if reflecting:
        # deterministic reflection keeps one action: no reward, no discounting
        counts[~interior] = 1
    actions = U[_ranges(fine_offsets[fine_state], counts)]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    pair_state = np.repeat(np.arange(n), counts)
    n_pairs = int(offsets[-1])

    # interior rows: one stencil over every interior (grid point, action) pair
    int_states = np.flatnonzero(interior)
    ip = np.flatnonzero(interior[pair_state])
    own = pair_state[ip]
    hl = np.empty((len(ip), d))
    hr = np.empty((len(ip), d))
    for i, ax in enumerate(grid.axes):
        gaps = np.diff(ax).astype(np.float64)
        hl[:, i] = gaps[pos[own, i] - 1]
        hr[:, i] = gaps[pos[own, i]]
    mu_b, s2_b = problem.moments_batch(coords[own], actions[ip])
    dirs, rates, slack_int, cscale = _stencil_rates(np.atleast_2d(mu_b), s2_b, hl, hr, scheme)

    total = rates.sum(axis=1)
    Q = np.maximum.reduceat(total, np.cumsum(counts[int_states]) - counts[int_states])
    if (Q <= 0.0).any():
        raise ValueError(f"degenerate (zero-diffusion) stencil at "
                         f"{tuple(coords[int_states[np.argmax(Q <= 0.0)]].tolist())}")
    Q_per_state = np.zeros(n)
    Q_per_state[int_states] = Q
    discounts = np.empty(n)
    discounts[int_states] = 1.0 / (1.0 + (1.0 / alpha - 1.0) / Q)
    q_pair = Q_per_state[own]
    p = rates / q_pair[:, None]
    keep = p > 0.0
    stay = _stay_mass(p, keep)

    # fine rewards of every pair in one call (reflecting boundary rows drop theirs)
    r = mdp.rewards(coords[pair_state], actions)
    rewards = np.zeros(n_pairs)
    rewards[ip] = discounts[own] * r[ip] / (alpha * q_pair)

    # rows as a padded (pair, n_off + 1) block, the stay entry last, masked into CSR
    width = len(dirs) + 1
    cols = np.zeros((n_pairs, width), dtype=np.int64)
    probs = np.zeros((n_pairs, width))
    mask = np.zeros((n_pairs, width), dtype=bool)
    cols[ip, :-1] = own[:, None] + dirs @ strides
    cols[ip, -1] = own
    probs[ip, :-1] = p
    probs[ip, -1] = stay
    mask[ip, :-1] = keep
    mask[ip, -1] = stay > RATE_TOL

    # boundary rows: one array pass over the boundary points
    bnd = np.flatnonzero(~interior)
    if reflecting:
        first = offsets[bnd]
        cols[first, 0], probs[first, 0], mask[first, 0] = inward_pos[bnd] @ strides, 1.0, True
        discounts[bnd] = 1.0
    else:
        lower, upper = at_lower[bnd], at_upper[bnd]
        drift = np.asarray(problem.fot_drift(coords[bnd]), dtype=np.float64)
        if drift.shape != (len(bnd), d):
            raise ValueError(f"fot_drift returned shape {drift.shape} "
                             f"for boundary states of shape {(len(bnd), d)}")
        bad = not_inward(drift, lower, upper)
        if bad.any():
            k = int(np.argmax(bad))
            raise NonInwardEta(tuple(coords[bnd[k]].tolist()), drift[k])
        # one-sided drift toward the inward neighbor per binding axis: a weight
        # per (face, axis), the lower faces' steps before the upper faces'.
        # The inward rule makes every binding axis's weight positive
        gap = np.column_stack([ax[inward_pos[bnd, i]] - ax[pos[bnd, i]]
                               for i, ax in enumerate(grid.axes)]).astype(np.float64)
        kept = np.concatenate([lower, upper], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(kept, np.tile(np.abs(drift) / np.abs(gap), 2), 0.0)
        W = np.array([math.fsum(row) for row in w.tolist()])   # exactly rounded
        # an axis binds at one face at most, so a row's kept steps fit in d columns
        order = np.argsort(~kept, axis=1, kind="stable")[:, :d]
        step = np.tile((inward_pos[bnd] - pos[bnd]) * strides, 2)
        tgt = np.take_along_axis(bnd[:, None] + step, order, axis=1)
        wgt = np.take_along_axis(w, order, axis=1) / W[:, None]
        kept = np.take_along_axis(kept, order, axis=1)
        owner = np.repeat(np.arange(len(bnd)), counts[bnd])
        bp = _ranges(offsets[bnd], counts[bnd])
        den = 1.0 - alpha + alpha * W
        rewards[bp] = r[bp] / den[owner]
        cols[bp, :d], probs[bp, :d], mask[bp, :d] = tgt[owner], wgt[owner], kept[owner]
        discounts[bnd] = alpha * W / den

    row_ptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    slack = np.zeros((n_pairs, d))
    slack[ip] = slack_int
    cross_scale = np.ones(n_pairs)
    cross_scale[ip] = cscale
    asm = TabularAssembly(offsets, rewards, row_ptr, cols[mask], probs[mask], discounts)
    return KdChain(problem, int(h), scheme, grid, fine_state, actions, asm, Q_per_state,
                   interior, slack, cross_scale)


def _stay_mass(p: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """1 - sum of each row's kept probabilities, summed as the kept entries alone.

    numpy sums fewer than 8 values left to right, so for a row with at most
    7 kept entries a left-to-right pass over the row with its dropped
    entries zeroed gives the same bits.  numpy sums 8 or more values in
    unrolled partial sums, so those rows are grouped by kept-entry count
    and each group sums a packed (rows, count) block.
    """
    total = np.zeros(len(p))
    for col in np.where(keep, p, 0.0).T:
        total += col
    kept = keep.sum(axis=1)
    wide = np.flatnonzero(kept >= 8)
    if len(wide):
        packed = np.take_along_axis(p[wide], np.argsort(~keep[wide], axis=1, kind="stable"),
                                    axis=1)
        for c in np.unique(kept[wide]):
            rows = kept[wide] == c
            total[wide[rows]] = packed[rows, :c].sum(axis=1)
    return 1.0 - total


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
    clipped_pairs: int = 0       # interior pairs with cross_scale < 1
    inflated_pairs: int = 0      # interior pairs with a positive second-moment slack
    max_clip: float = 0.0        # 1 - min cross_scale
    max_slack: float = 0.0

    @property
    def passed(self) -> bool:
        return (self.max_first_moment_err <= MOMENT_TOL and self.max_cross_moment_err <= MOMENT_TOL
                and self.max_diag_moment_err <= MOMENT_TOL and self.max_reward_err <= REWARD_TOL)

    @property
    def exact(self) -> bool:
        """Passed against the raw moments: no pair clipped, none inflated."""
        return self.passed and self.clipped_pairs == 0 and self.inflated_pairs == 0


def verify_tcp_equivalence(chain: KdChain, problem: TaylorProblem) -> TcpEquivalenceReport:
    """Check the coarse rows against the TCP-equivalence constraints.

    For every interior (grid state, action) the row must satisfy, with
    kappa(x) = alpha (1 - alpha_h(x)) / (alpha_h(x) (1 - alpha)) = 1/Q(x):

        sum_y P(x,y) (y - x)_i           = kappa mu_i                   (exact)
        sum_y P(x,y) (y - x)_i (y - x)_j = kappa cross_scale sigma2_ij  (i != j)
        sum_y P(x,y) (y - x)_i^2         = kappa (sigma2_ii + slack_i)

    where cross_scale and slack_i are the recorded clipping of the
    cross-derivative mass and the second-moment inflation of the fallback
    stencil (1 and 0 on rows that represent the raw moments), and the reward
    must satisfy r~ = (1 - alpha_h)/(1 - alpha) r, each moment to MOMENT_TOL
    and the reward to REWARD_TOL relative.
    Boundary rows are excluded (they encode the boundary condition, not the
    operator).  Errors are reported relative to max(1, |target|); the
    report also counts the clipped and inflated pairs, and `exact` holds
    only when the check passed with neither.
    """
    mdp = problem.mdp
    alpha = mdp.discount
    grid = chain.grid
    asm = chain.assembly()
    d = grid.dim
    pts = grid.points()
    pair_state = np.repeat(np.arange(chain.n_states), np.diff(asm.offsets))
    ip = np.flatnonzero(chain.interior_mask[pair_state])
    own = pair_state[ip]
    actions = chain.actions[ip]
    mu_b, s2_b = problem.moments_batch(pts[own], actions)
    mu_b = np.atleast_2d(mu_b)

    # first and second moments of every row, one reduction per moment entry
    starts = asm.row_ptr[:-1]
    diff = (pts[asm.col_idx] - pts[np.repeat(pair_state, np.diff(asm.row_ptr))]).astype(np.float64)
    pdiff = asm.probs[:, None] * diff
    m1 = np.add.reduceat(pdiff, starts)[ip]
    m2 = np.empty((len(ip), d, d))
    for i in range(d):
        for j in range(i, d):
            m2[:, i, j] = m2[:, j, i] = np.add.reduceat(pdiff[:, i] * diff[:, j], starts)[ip]

    alpha_h = chain.discounts[own]
    kappa = alpha * (1.0 - alpha_h) / (alpha_h * (1.0 - alpha))
    cross_scale = chain.cross_scale[ip]
    slack = chain.second_moment_slack[ip]
    target1 = kappa[:, None] * mu_b
    err1 = (np.abs(m1 - target1) / np.maximum(1.0, np.abs(target1))).max(axis=1)
    target2 = (kappa * cross_scale)[:, None, None] * s2_b
    diag = np.arange(d)
    target2[:, diag, diag] = kappa[:, None] * (s2_b[:, diag, diag] + slack)
    err2 = np.abs(m2 - target2) / np.maximum(1.0, np.abs(target2))
    err_cross = err2[:, ~np.eye(d, dtype=bool)].max(axis=1, initial=0.0)
    r = mdp.rewards(pts[own], actions)
    ident = (1.0 - alpha_h) / (1.0 - alpha) * r
    err_r = np.abs(asm.rewards[ip] - ident) / np.maximum(1.0, np.abs(ident))

    # worst offenders, pair by pair in check order, largest error first
    labels = ["first-moment"] + [f"diag-moment[{i}]" for i in range(d)] + ["cross-moment", "reward"]
    errs = np.column_stack([err1, err2[:, diag, diag], err_cross, err_r])
    tol = np.array([MOMENT_TOL] * (len(labels) - 1) + [REWARD_TOL])
    bad_pair, bad_check = np.nonzero(errs > tol)
    order = np.argsort(-errs[bad_pair, bad_check], kind="stable")[:10]
    worst = [(tuple(pts[own[bad_pair[k]]].tolist()), u, labels[bad_check[k]],
              float(errs[bad_pair[k], bad_check[k]]))
             for k, u in zip(order, action_tuple(actions[bad_pair[order]]))]

    return TcpEquivalenceReport(
        float(err1.max(initial=0.0)), float(err_cross.max(initial=0.0)),
        float(err2[:, diag, diag].max(initial=0.0)), float(err_r.max(initial=0.0)),
        len(ip), worst,
        clipped_pairs=int((cross_scale < 1.0).sum()),
        inflated_pairs=int((slack > 0.0).any(axis=1).sum()),
        max_clip=float(1.0 - cross_scale.min(initial=1.0)),
        max_slack=float(slack.max(initial=0.0)))
