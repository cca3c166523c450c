"""Taylored Approximate Policy Iteration.

TAPI is policy iteration run on the TCP-equivalent coarse chain: approximate
policy evaluation solves the chain's linear system (the discretized Taylored
equation, with state-dependent discount), and approximate policy improvement
is the greedy step on the same chain.  Because the chain is a finite MDP,
the loop terminates in finitely many iterations.

The coarse solution is then carried back to the fine lattice:

  * values are extended piecewise-constant through the nearest-grid-point
    map, or multilinearly; multilinear interpolation uses the interior grid
    planes only (reflecting-boundary values are duplicates by construction)
    and extrapolates linearly into the boundary cells,
  * policies are extended either by re-running the approximate (Taylored)
    improvement at every fine state -- the same stencil greedy the chain
    uses, fed with each state's own drift/diffusion and interpolated coarse
    values ("tcp_greedy", the default) -- or piecewise-constant from the
    nearest interior grid point with infeasible actions projected to the
    nearest feasible one (L1 distance, lexicographic tie).  In the pc mode,
    actions at boundary grid states are not identified by the chain's
    reflecting rows and are completed by a one-step greedy on the fine
    model against the extended value.

With improvement="exact", the greedy-on-the-chain step is replaced by a
fine-lattice greedy against the disaggregated value (the true kernel, not
the Taylored operator); that loop has no convergence guarantee, so cycles
are detected and capped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .exact import (SolveOptions, get_assembly, policy_evaluation, policy_improvement,
                    policy_iteration, segmented_argmax)
from .kdchain import CoarseGrid, KdChain, _stencil_rates, build_multidim_chain
from .lattice import LatticeMdp
from .taylor import TaylorProblem


@dataclass(frozen=True)
class TapiOptions:
    h: int = 2
    max_iterations: int = 100
    improvement: str = "approx"          # approx | exact
    disaggregation: str = "multilinear"  # value extension: multilinear | pc
    policy_extension: str = "tcp_greedy"  # tcp_greedy | pc
    one_step: bool = False               # final exact improvement on the fine lattice
    scheme: str = "inflate"              # small-drift fallback: inflate | upwind
    evaluate_fine: bool = True
    solve: SolveOptions = field(default_factory=SolveOptions)

    def __post_init__(self):
        if self.h < 1 or int(self.h) != self.h:
            raise ValueError("h must be a positive integer")
        if self.improvement not in ("approx", "exact"):
            raise ValueError("improvement must be 'approx' or 'exact'")
        if self.disaggregation not in ("multilinear", "pc"):
            raise ValueError("disaggregation must be 'multilinear' or 'pc'")
        if self.policy_extension not in ("tcp_greedy", "pc"):
            raise ValueError("policy_extension must be 'tcp_greedy' or 'pc'")
        if self.scheme not in ("inflate", "upwind"):
            raise ValueError("scheme must be 'inflate' or 'upwind'")


@dataclass
class TapiResult:
    chain: KdChain
    coarse_values: np.ndarray
    coarse_policy: np.ndarray
    fine_policy: np.ndarray              # policy actually returned (after one-step if enabled)
    disaggregated_policy: np.ndarray     # fine-lattice extension of the coarse policy
    fine_values: Optional[np.ndarray]    # exact evaluation of fine_policy, if requested
    iterations: int
    wall_time: float
    oscillated: bool = False


# ---------------------------------------------------------------------------
# disaggregation
# ---------------------------------------------------------------------------

def disaggregate_value(coarse_values: np.ndarray, grid: CoarseGrid, lattice,
                       mode: str = "multilinear", boundary: str = "include") -> np.ndarray:
    """Extend a coarse value vector to every fine-lattice state.

    boundary="drop" interpolates over interior grid planes only and
    extrapolates linearly into the boundary cells; it is what TAPI uses
    internally, because reflecting-boundary values are duplicates of their
    inward neighbors by construction.
    """
    fine = lattice.states().astype(np.float64)
    v = np.asarray(coarse_values, dtype=np.float64)
    if mode == "pc":
        return v[grid.nearest_index(fine)]
    if mode != "multilinear":
        raise ValueError(f"unknown disaggregation mode {mode!r}")
    return _extension_interpolator(v, grid, boundary)(fine)


def _action_vec(u):
    return np.atleast_1d(np.asarray(u, dtype=np.float64))


def project_action(action, feasible):
    """Nearest feasible action in L1 distance; lexicographic tie-break."""
    if action in feasible:
        return feasible.index(action)
    target = _action_vec(action)
    best, best_idx = None, 0
    for k, cand in enumerate(feasible):
        dist = float(np.abs(_action_vec(cand) - target).sum())
        if best is None or dist < best - 1e-12:
            best, best_idx = dist, k
    return best_idx


def disaggregate_policy(chain: KdChain, coarse_policy: np.ndarray, mdp: LatticeMdp,
                        fine_value: np.ndarray) -> np.ndarray:
    """Piecewise-constant policy extension with boundary completion.

    Non-grid states copy the action of the nearest interior grid point (the
    reflecting rows carry no action information); grid states keep their own.
    Boundary grid states are completed by a fine one-step greedy against
    fine_value.  Inherited actions infeasible at the destination are
    projected to the nearest feasible action.
    """
    grid = chain.grid
    lattice = mdp.lattice
    if not chain.interior_mask.any():
        raise ValueError("chain has no interior states")

    # coarse actions as objects
    coarse_actions = [chain.actions_at(i)[int(coarse_policy[i])] for i in range(chain.n_states)]

    # completion at boundary grid states
    grid_state = lattice.indices_of(grid.points())
    for gi in np.flatnonzero(~chain.interior_mask):
        si = int(grid_state[gi])
        acts = mdp.actions_at(si)
        q = np.empty(len(acts))
        for a in range(len(acts)):
            row = mdp.row(si, a)
            q[a] = mdp.reward_value(si, a) + mdp.discount * row.expectation(fine_value)
        coarse_actions[gi] = acts[int(np.flatnonzero(q >= q.max() - 1e-12)[0])]

    # nearest source grid point for every fine state
    fine_states = lattice.states()
    # restricted nearest over interior grid points (per-axis clamp into interior)
    clamped_axes = []
    for ax in grid.axes:
        clamped_axes.append(ax[1:-1] if len(ax) >= 3 else ax)
    interior_grid = CoarseGrid(tuple(clamped_axes))
    near_int = interior_grid.nearest_index(fine_states)
    # map interior-grid flat index -> chain grid flat index
    int_shape = interior_grid.shape
    pos = np.unravel_index(near_int, int_shape)
    full_pos = tuple(p + (1 if len(ax) >= 3 else 0) for p, ax in zip(pos, grid.axes))
    near_int_full = np.ravel_multi_index(full_pos, grid.shape)

    # grid states keep their own action, every other state its nearest interior one
    source = near_int_full.copy()
    source[grid_state] = np.arange(chain.n_states)
    policy = np.empty(lattice.n_states, dtype=np.int64)
    for si, gi in enumerate(source.tolist()):
        policy[si] = project_action(coarse_actions[gi], mdp.actions_at(si))
    return policy


def taylored_greedy_policy(problem: TaylorProblem, chain: KdChain,
                           coarse_values: np.ndarray, scheme: str = "inflate") -> np.ndarray:
    """Approximate (Taylored) policy improvement at every fine-lattice state.

    Each state gets the same stencil greedy the chain's improvement uses,
    built from the state's own drift/diffusion at spacing h and fed with the
    extended coarse values at the stencil targets; near the boundary the
    extension extrapolates.  This is the discretized form of maximizing
    r(x,u) + alpha L_u V(x) - (1-alpha) V(x) over the feasible actions.
    All (state, action) pairs are scored in one pass over the action table;
    ties go to the first action within 1e-12.
    """
    mdp = problem.mdp
    lattice = mdp.lattice
    alpha = mdp.discount
    grid = chain.grid
    d = lattice.dim
    h = float(max(int(ax[1] - ax[0]) for ax in grid.axes))
    hvec = np.full(d, h)

    # one stencil over every (state, action) pair
    U, offsets = mdp.action_table()
    counts = np.diff(offsets)
    mu_b, s2_b = problem.moments_batch(mdp.pair_states(), U)
    dirs, rates, _, _ = _stencil_rates(np.atleast_2d(mu_b), s2_b, hvec, hvec, scheme)

    states = lattice.states().astype(np.float64)
    # one batched interpolation for all stencil targets of all states
    probe = _extension_interpolator(coarse_values, grid)
    offs = dirs * h
    neighbor_vals = probe((states[:, None, :] + offs[None, :, :]).reshape(-1, d))
    neighbor_vals = neighbor_vals.reshape(len(states), len(offs))
    center_vals = probe(states)

    tot = rates.sum(axis=1)
    q_max = np.maximum(np.maximum.reduceat(tot, offsets[:-1]), 1e-300)
    a_h = 1.0 / (1.0 + (1.0 / alpha - 1.0) / q_max)
    q_max, a_h = np.repeat(q_max, counts), np.repeat(a_h, counts)
    rew = get_assembly(mdp).rewards
    rates /= q_max[:, None]
    expect = (np.einsum("pc,pc->p", rates, np.repeat(neighbor_vals, counts, axis=0))
              + (1.0 - tot / q_max) * np.repeat(center_vals, counts))
    q = a_h * rew / (alpha * q_max) + a_h * expect
    return segmented_argmax(q, offsets, 1e-12)[1]


def _extension_interpolator(coarse_values: np.ndarray, grid: CoarseGrid,
                            boundary: str = "drop"):
    axes, slices = [], []
    for ax in grid.axes:
        if boundary == "drop" and len(ax) >= 4:
            axes.append(ax[1:-1].astype(np.float64))
            slices.append(slice(1, -1))
        else:
            axes.append(ax.astype(np.float64))
            slices.append(slice(None))
    tensor = np.asarray(coarse_values, dtype=np.float64).reshape(grid.shape)[tuple(slices)]
    return RegularGridInterpolator(axes, tensor, method="linear",
                                   bounds_error=False, fill_value=None)


# ---------------------------------------------------------------------------
# the TAPI loop
# ---------------------------------------------------------------------------

def tapi_solve(problem: TaylorProblem, options: TapiOptions = TapiOptions()) -> TapiResult:
    """Policy iteration on the K-D chain, then disaggregation to the lattice.

    improvement="exact" runs the exact-improvement loop (_tapi_exact_loop)
    on the same chain instead of policy iteration on it.
    """
    t0 = time.perf_counter()
    mdp = problem.mdp
    chain = build_multidim_chain(problem, options.h, scheme=options.scheme)

    if options.improvement == "exact":
        return _tapi_exact_loop(problem, chain, options, t0)

    pi = policy_iteration(chain, options=SolveOptions(max_iterations=options.max_iterations))
    fine_v = disaggregate_value(pi.values, chain.grid, mdp.lattice, options.disaggregation,
                                boundary="drop")
    if options.policy_extension == "tcp_greedy":
        disagg = taylored_greedy_policy(problem, chain, pi.values, options.scheme)
    else:
        disagg = disaggregate_policy(chain, pi.policy, mdp, fine_value=fine_v)
    fine_policy = disagg
    if options.one_step:
        fine_policy = policy_improvement(mdp, fine_v)
    fine_values = None
    if options.evaluate_fine:
        fine_values = policy_evaluation(mdp, fine_policy, options.solve)
    return TapiResult(chain, pi.values, pi.policy, fine_policy, disagg, fine_values,
                      pi.iterations, time.perf_counter() - t0)


def _tapi_exact_loop(problem, chain, options, t0):
    mdp = problem.mdp
    grid = chain.grid
    lattice = mdp.lattice
    grid_state_idx = lattice.indices_of(grid.points())

    coarse_policy = np.zeros(chain.n_states, dtype=np.int64)
    seen: dict[bytes, int] = {}
    fine_policy = None
    oscillated = False
    iterations = 0

    for it in range(1, options.max_iterations + 1):
        iterations = it
        coarse_values = policy_evaluation(chain, coarse_policy)
        fine_v = disaggregate_value(coarse_values, grid, lattice, options.disaggregation,
                                    boundary="drop")
        new_fine = policy_improvement(mdp, fine_v)
        if fine_policy is not None and np.array_equal(new_fine, fine_policy):
            fine_policy = new_fine
            break
        fine_policy = new_fine
        key = fine_policy.tobytes()
        if key in seen:
            oscillated = True
            break
        seen[key] = it
        # restrict the fine policy to the grid for the next evaluation
        for g in range(chain.n_states):
            acts = chain.actions_at(g)
            if len(acts) == 1:
                coarse_policy[g] = 0
                continue
            fine_action = mdp.actions_at(int(grid_state_idx[g]))[int(fine_policy[grid_state_idx[g]])]
            coarse_policy[g] = project_action(fine_action, list(acts))
    else:
        oscillated = True

    # fine_v is the extension of the last coarse_values
    disagg = disaggregate_policy(chain, coarse_policy, mdp, fine_value=fine_v)
    if options.one_step:
        fine_policy = policy_improvement(mdp, fine_v)
    fine_values = None
    if options.evaluate_fine:
        fine_values = policy_evaluation(mdp, fine_policy, options.solve)
    return TapiResult(chain, coarse_values, coarse_policy, fine_policy, disagg, fine_values,
                      iterations, time.perf_counter() - t0, oscillated)
