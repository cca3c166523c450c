"""Taylored Approximate Policy Iteration.

TAPI is policy iteration run on the TCP-equivalent coarse chain: approximate
policy evaluation solves the chain's linear system (the discretized Taylored
equation, with state-dependent discount), and approximate policy improvement
is the greedy step on the same chain.  Because the chain is a finite MDP,
the loop terminates in finitely many iterations.

The returned fine-lattice policy is formed in one of four ways (TapiOptions
refuses a setting the chosen way does not read):

  * tcp_greedy (the default): at every fine state, the action maximizing
    r + alpha sum_e rho_e dV_e, its own drift/diffusion's stencil rates times
    the steps of the coarse values interpolated multilinearly,
  * policy_extension="pc": the chain's policy copied from the nearest
    interior grid point, infeasible actions projected to the nearest
    feasible one (L1 distance, first action on a tie); boundary grid
    states, whose reflecting rows identify no action, are completed by a
    one-step fine greedy against the extended value,
  * one_step: one exact improvement step on the fine lattice against the
    extended value,
  * improvement="exact": the chain's greedy step is replaced by the fine
    greedy against the extended value (the true kernel, not the Taylored
    operator), and the last such policy is returned; the loop has no
    convergence guarantee, so cycles are detected and capped at
    exact.MAX_ITERATIONS.

Each variant forms only the policy it returns: one taylored_greedy_policy,
disaggregate_policy or policy_improvement call (one an iteration in the
exact loop).

The extended value carries the coarse values to every lattice state,
piecewise-constant through the nearest-grid-point map or multilinearly (the
disaggregation setting).  Multilinear interpolation uses the interior grid
planes only (reflecting-boundary values are duplicates by construction) and
extrapolates linearly into the boundary cells.  It is evaluated on an
integer box as a tensor (_extension_box), each axis's cells and weights
computed once, and rounds exactly as scipy's RegularGridInterpolator does
at the box's points.

A grid point's chain actions are the fine actions of its lattice state (a
reflecting boundary point keeps only the first), so policies move between the
chain and the lattice by action-table index: the pc projection is one pass
over every fine (state, action) pair, and restricting a fine policy to the
grid is a gather.  The boundary completion is policy_improvement's action
at the boundary grid points, so it reads no kernel rows.  The fine-lattice
steps take the chain alone, which records its problem, h, scheme and
fine_state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .exact import (get_assembly, policy_evaluation, policy_improvement, policy_iteration,
                    segmented_argmax)
from .kdchain import CoarseGrid, KdChain, _stencil_rates, build_multidim_chain
from .lattice import policy_pairs, state_blocks
from .taylor import TaylorProblem

# the settings each way of forming the returned policy reads, besides h and scheme
_READS = {
    "improvement='exact'": ("disaggregation",),
    "one_step": ("one_step", "disaggregation"),
    "policy_extension='pc'": ("policy_extension", "disaggregation"),
    "policy_extension='tcp_greedy'": ("policy_extension",),
}


@dataclass(frozen=True)
class TapiOptions:
    """How tapi_solve runs.

    improvement, one_step and policy_extension pick one of four variants
    (_READS); a field set away from its default that the variant does not
    read raises ValueError naming it.
    """

    h: int = 2
    improvement: str = "approx"          # approx | exact
    disaggregation: str = "multilinear"  # value extension: multilinear | pc
    policy_extension: str = "tcp_greedy"  # tcp_greedy | pc
    one_step: bool = False               # final exact improvement on the fine lattice
    scheme: str = "inflate"              # small-drift fallback: inflate | upwind

    def __post_init__(self):
        if self.h < 1 or int(self.h) != self.h:
            raise ValueError("h must be a positive integer")
        object.__setattr__(self, "h", int(self.h))
        if self.improvement not in ("approx", "exact"):
            raise ValueError("improvement must be 'approx' or 'exact'")
        if self.disaggregation not in ("multilinear", "pc"):
            raise ValueError("disaggregation must be 'multilinear' or 'pc'")
        if self.policy_extension not in ("tcp_greedy", "pc"):
            raise ValueError("policy_extension must be 'tcp_greedy' or 'pc'")
        if self.scheme not in ("inflate", "upwind"):
            raise ValueError("scheme must be 'inflate' or 'upwind'")
        variant = ("improvement='exact'" if self.improvement == "exact" else "one_step"
                   if self.one_step else f"policy_extension={self.policy_extension!r}")
        ignored = [name for name, changed in (
            ("one_step", self.one_step),
            ("policy_extension", self.policy_extension != "tcp_greedy"),
            ("disaggregation", self.disaggregation != "multilinear"))
            if changed and name not in _READS[variant]]
        if ignored:
            raise ValueError(f"{' and '.join(ignored)} would be ignored with {variant}")


@dataclass
class TapiResult:
    """What tapi_solve returns.

    fine_policy is the returned policy and fine_values its exact evaluation;
    coarse_values are the chain values of coarse_policy.  oscillated is set
    by the exact-improvement loop when it stops on a cycle of fine policies
    or at exact.MAX_ITERATIONS.
    """

    chain: KdChain
    coarse_values: np.ndarray
    coarse_policy: np.ndarray
    fine_policy: np.ndarray              # the returned policy
    fine_values: np.ndarray              # exact evaluation of fine_policy
    iterations: int
    oscillated: bool = False


# ---------------------------------------------------------------------------
# disaggregation
# ---------------------------------------------------------------------------

def disaggregate_value(coarse_values: np.ndarray, grid: CoarseGrid, lattice,
                       mode: str = "multilinear") -> np.ndarray:
    """Extend a coarse value vector to every fine-lattice state.

    "multilinear" interpolates over interior grid planes only and
    extrapolates linearly into the boundary cells, because
    reflecting-boundary values are duplicates of their inward neighbors by
    construction; "pc" copies the nearest grid point's value.
    """
    v = np.asarray(coarse_values, dtype=np.float64)
    if mode == "pc":
        return v[grid.nearest_index(lattice.states().astype(np.float64))]
    if mode != "multilinear":
        raise ValueError(f"unknown disaggregation mode {mode!r}")
    return _extension_box(v, grid, lattice.lower, lattice.upper).ravel()


def _unique_classes(codes: np.ndarray):
    """np.unique(codes, return_index=True, return_inverse=True), from an unstable sort.

    The sorted distinct codes, the first position of each and every code's
    class; the first position is the least position in its run of the sort.
    """
    order = np.argsort(codes)
    ordered = codes[order]
    new = np.ones(len(codes), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    classes = np.empty(len(codes), dtype=np.intp)
    classes[order] = np.cumsum(new) - 1
    return ordered[starts], np.minimum.reduceat(order, starts), classes


def _nearest_actions(U: np.ndarray, offsets: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per state, the index of its action nearest the state's target action.

    U and offsets are an action table, targets one action per state in U's
    dtype, in which the L1 distance is taken (exact on integer actions); the
    first action within ARGMAX_TOL of the nearest wins.
    """
    U = U.reshape(len(U), -1)
    targets = targets.reshape(len(offsets) - 1, -1)
    dist = np.abs(U - np.repeat(targets, np.diff(offsets), axis=0)).sum(axis=1)
    return segmented_argmax(-dist, offsets)[1]


def disaggregate_policy(chain: KdChain, coarse_policy: np.ndarray,
                        fine_value: np.ndarray) -> np.ndarray:
    """Piecewise-constant policy extension to the chain's lattice, with boundary completion.

    Non-grid states copy the action of the nearest interior grid point (the
    reflecting rows carry no action information); grid states keep their own.
    Boundary grid states take policy_improvement's action against
    fine_value, a fine one-step greedy that reads no kernel rows.
    Inherited actions infeasible at the destination are projected to the
    nearest feasible action (_nearest_actions).  A non-integral coarse
    action index raises ValueError and one outside its grid point's range
    InfeasibleAction, as policy_evaluation on the chain does.
    """
    grid = chain.grid
    mdp = chain.problem.mdp
    U, offsets = mdp.action_table()

    # the (state, action) pair each grid point chose: chain action indices
    # are action-table indices at the grid point's lattice state, and
    # policy_pairs refuses a non-integral one or one outside its point's range
    coarse = chain.assembly().offsets
    chosen = offsets[chain.fine_state] + policy_pairs(coarse, coarse_policy) - coarse[:-1]

    # completion at boundary grid states: the fine greedy step's action there
    boundary = ~chain.interior_mask
    points = chain.fine_state[boundary]
    chosen[boundary] = offsets[points] + policy_improvement(mdp, fine_value)[points]

    # nearest interior grid point for every fine state: the nearest grid
    # position clamped into the interior on every axis
    states = mdp.lattice.states()
    pos = np.unravel_index(grid.nearest_index(states), grid.shape)
    source = np.ravel_multi_index(tuple(np.clip(p, 1, n - 2) for p, n in zip(pos, grid.shape)),
                                  grid.shape)

    # grid states keep their own action, every other state its nearest interior one
    source[chain.fine_state] = np.arange(chain.n_states)
    return _nearest_actions(U, offsets, U[chosen[source]])


def taylored_greedy_policy(chain: KdChain, coarse_values: np.ndarray) -> np.ndarray:
    """Approximate (Taylored) policy improvement at every state of the chain's lattice.

    Each state maximizes r(x,u) + alpha sum_e rho_e dV_e, the discretized
    r + alpha L_u V: rho_e are the stencil rates of its own drift/diffusion
    at the chain's spacing h and small-drift scheme, and dV_e = V(x + h e) -
    V(x) the steps of the extended coarse values, which extrapolate near the
    boundary.  The chain's normalizer, discount and stay mass are left out:
    they only scale a state's scores by a positive factor and shift them by
    a constant.  Ties go to the first action within ARGMAX_TOL.

    With a problem.moment_classes hook, moments and stencil rates are
    computed once per moment class; without it, once per pair.  Every
    stencil target x + h e is a point of the lattice grown by h on each
    side, so the extension is evaluated once on that box: the centers are
    its interior, and direction e's steps the interior shifted by h e minus
    the centers.
    The pairs are scored in blocks of consecutive states of about
    lattice.BLOCK (pair, direction) entries (state_blocks), each block
    gathering its rates from the per-class table, so no (pairs x
    directions) array is formed for the whole action table.
    """
    problem, h = chain.problem, chain.h
    mdp = problem.mdp
    lattice = mdp.lattice
    alpha = mdp.discount
    hvec = np.full(lattice.dim, float(h))

    offsets = mdp.action_table()[1]
    counts = np.diff(offsets)
    dirs, rates, classes = _pair_stencils(problem, hvec, chain.scheme)

    # the extension on the padded box: its interior at the centers, shifted by h e at the targets
    padded = _extension_box(coarse_values, chain.grid, [lo - h for lo in lattice.lower],
                            [up + h for up in lattice.upper])
    shape = lattice.shape
    center_vals = padded[tuple(slice(h, h + n) for n in shape)]
    steps = np.empty(shape + (len(dirs),))
    for k, e in enumerate(dirs):
        np.subtract(padded[tuple(slice(h + h * s, h + h * s + n) for s, n in zip(e, shape))],
                    center_vals, out=steps[..., k])
    steps = steps.reshape(-1, len(dirs))

    rew = get_assembly(mdp).rewards
    q = np.empty(len(rew))
    for s0, s1 in state_blocks(offsets, len(dirs)):
        p0, p1 = offsets[s0], offsets[s1]
        generator = np.einsum("pc,pc->p", rates.take(classes[p0:p1], axis=0),
                              np.repeat(steps[s0:s1], counts[s0:s1], axis=0))
        q[p0:p1] = rew[p0:p1] + alpha * generator
    return segmented_argmax(q, offsets)[1]


def _pair_stencils(problem: TaylorProblem, hvec: np.ndarray, scheme: str):
    """(dirs, rates, classes): the stencil rates of the lattice's pairs, one row per moment class.

    Pair p's rates are rates[classes[p]]; without a problem.moment_classes
    hook each pair is its own class.
    """
    mdp = problem.mdp
    U = mdp.action_table()[0]
    pair_states, pair_U = mdp.pair_states(), U
    if problem.moment_classes is None:
        classes = np.arange(len(U))
    else:
        _, first, classes = _unique_classes(problem.moment_classes(pair_states, U))
        pair_states, pair_U = pair_states[first], U[first]
    mu_b, s2_b = problem.moments_batch(pair_states, pair_U)
    dirs, rates, _, _ = _stencil_rates(np.atleast_2d(mu_b), s2_b, hvec, hvec, scheme)
    return dirs, rates, classes


def _extension_box(coarse_values: np.ndarray, grid: CoarseGrid, lower, upper) -> np.ndarray:
    """The multilinear extension on the integer box lower..upper, as a tensor.

    It interpolates over the interior grid planes and extrapolates past
    them; axes with fewer than 4 grid points keep all of them (CoarseGrid
    guarantees 2 or more ascending points an axis).  Each axis places its
    box coordinates in the cells [ax[j], ax[j+1]] (the first or last cell
    past the ends, which extrapolates linearly) and weighs them once; the
    2^d corner terms are summed, each corner's values taken axis by axis.
    """
    cells, weights, planes = [], [], []
    for k, (ax, lo, up) in enumerate(zip(grid.axes, lower, upper)):
        keep = slice(1, -1) if len(ax) >= 4 else slice(None)
        ax = ax[keep].astype(np.float64)
        x = np.arange(lo, up + 1, dtype=np.float64)
        j = np.clip(np.searchsorted(ax, x, "right") - 1, 0, len(ax) - 2)
        y = (x - ax[j]) / (ax[j + 1] - ax[j])
        axis = (-1,) + (1,) * (len(grid.axes) - 1 - k)     # broadcast along axis k
        planes.append(keep)
        cells.append(j)
        weights.append(((1.0 - y).reshape(axis), y.reshape(axis)))
    tensor = np.asarray(coarse_values, dtype=np.float64).reshape(grid.shape)[tuple(planes)]
    # each corner's values taken one axis at a time, the corners in itertools.product order
    corners = {(): tensor}
    for k, j in enumerate(cells):
        corners = {c + (b,): t.take(j + b, axis=k) for c, t in corners.items() for b in (0, 1)}
    value = 0.0
    # rounding as scipy's RegularGridInterpolator(method="linear"): v * ((w0 * w1) * ...),
    # but (v * w0) * w1 in 2-D, where it takes a compiled path
    for corner, v in corners.items():
        w = [wt[c] for wt, c in zip(weights, corner)]
        value = value + ((v * w[0]) * w[1] if len(w) == 2 else v * math.prod(w))
    return value


# ---------------------------------------------------------------------------
# the TAPI loop
# ---------------------------------------------------------------------------

def tapi_solve(problem: TaylorProblem, options: TapiOptions = TapiOptions()) -> TapiResult:
    """Policy iteration on the K-D chain, then the returned policy and its exact evaluation.

    improvement="exact" runs the exact-improvement loop (_tapi_exact_loop)
    on the same chain instead of policy iteration on it; the three
    approximate variants differ only in how the fine policy is formed.
    """
    mdp = problem.mdp
    chain = build_multidim_chain(problem, options.h, scheme=options.scheme)
    oscillated = False
    if options.improvement == "exact":
        (coarse_values, coarse_policy, fine_policy, iterations,
         oscillated) = _tapi_exact_loop(chain, options.disaggregation)
    else:
        pi = policy_iteration(chain)
        coarse_values, coarse_policy, iterations = pi.values, pi.policy, pi.iterations
        if options.one_step or options.policy_extension == "pc":
            fine_v = disaggregate_value(coarse_values, chain.grid, mdp.lattice,
                                        options.disaggregation)
            fine_policy = (policy_improvement(mdp, fine_v) if options.one_step
                           else disaggregate_policy(chain, coarse_policy, fine_v))
        else:
            fine_policy = taylored_greedy_policy(chain, coarse_values)
    fine_values = policy_evaluation(mdp, fine_policy)
    return TapiResult(chain, coarse_values, coarse_policy, fine_policy, fine_values,
                      iterations, oscillated)


def _tapi_exact_loop(chain: KdChain, disaggregation: str):
    """Evaluate on the chain, improve on the fine lattice, restrict back to the grid.

    Returns (coarse_values, coarse_policy, fine_policy, iterations,
    oscillated): coarse_values are the chain values of coarse_policy, and
    fine_policy the exact greedy policy of their extension.  The loop stops
    when that policy repeats, unchanged (converged) or an earlier one (a
    cycle, oscillated), or at exact.MAX_ITERATIONS (oscillated unless it
    converged there).
    """
    mdp = chain.problem.mdp
    coarse_policy = np.zeros(chain.n_states, dtype=np.int64)
    seen: set[bytes] = set()
    fine_policy = None
    for iterations in range(1, exact.MAX_ITERATIONS + 1):
        coarse_values = policy_evaluation(chain, coarse_policy)
        fine_v = disaggregate_value(coarse_values, chain.grid, mdp.lattice, disaggregation)
        new_fine = policy_improvement(mdp, fine_v)
        if new_fine.tobytes() in seen or iterations == exact.MAX_ITERATIONS:
            return (coarse_values, coarse_policy, new_fine, iterations,
                    not np.array_equal(new_fine, fine_policy))
        seen.add(new_fine.tobytes())
        fine_policy = new_fine
        coarse_policy = _restrict_policy(chain, fine_policy)


def _restrict_policy(chain: KdChain, fine_policy: np.ndarray) -> np.ndarray:
    """The fine policy at the grid points, as chain action indices.

    A grid point's chain actions are the fine actions of its lattice state,
    so the index carries over; a point left with one action (a reflecting
    boundary point keeps only the first) takes it.
    """
    single = np.diff(chain.assembly().offsets) == 1
    return np.where(single, 0, fine_policy[chain.fine_state])
