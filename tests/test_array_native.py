"""The whole-lattice array passes against per-state reference loops.

Action tables, the kernel and reward batch hooks, the tabular assembly and
its row checks, the routing factored arrays, the Taylored greedy, the
ellipticity scan, policy validation, the max-overflow heuristic, the K-D
chain build, the TCP-equivalence check and the moves of a policy between
the chain and the lattice are each computed once over every (state, action)
pair.  The reference functions below are the per-state
loops they replaced, kept here only as oracles; every comparison is exact
(the verifier's error maxima, sums in a different order, agree to 1e-15).
Every model's moments_batch hook, kernel and reward are checked bit for
bit against the per-pair definitions they replaced: the closed forms, the
routing product kernel multiplied out per pair with np.multiply.outer, and
the inventory rows truncated and renormalized one pair at a time.
The multilinear value extension is checked bit for bit against the scipy
RegularGridInterpolator it replaced, the routing matvec against the
np.tensordot loop, the direct evaluation system's band, expanded, against
scipy's sparse algebra and its banded LU values against a dense solve,
the row-sum test against math.fsum, the chain's stay mass
against the packed per-count sums, and the in-place bracketed evaluation
against its loop forming r_u + alpha (P v) anew.  The columnar CSV writers
are checked byte for byte against the per-row writers they replaced.  The
boundary completion, read in row blocks, is checked bit for bit against
the one-point-at-a-time loop it replaced, and its memory peak is bounded.
The polyhedral action table, decoded over each state's active
coordinates only, is checked against the all-coordinate enumeration it
replaced (kept verbatim as _reference_at) and a per-state
itertools.product, and its memory peak is bounded; the moment classes from
an unstable sort are checked against np.unique's three arrays.  The table
and the routing factored arrays are built in blocks of consecutive states,
and both are checked with blocks cut after one or a few entries as well as
at the default block size, and their memory peaks bounded by the outputs
and one block.
"""

import csv
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator

import taylordp as tdp
from taylordp.cli import _policy_for
from taylordp.config import ExperimentConfig
from taylordp.errors import EmptyActionSet, InfeasibleAction, MaxIterationsExceeded
from taylordp import exact
from taylordp.exact import _evaluation_band, _evaluation_rows, _tabulate, get_assembly
from taylordp.errors import NonInwardEta
from taylordp.exact import TabularAssembly
from taylordp.kdchain import (RATE_TOL, CoarseGrid, KdChain, _stay_mass,
                              _stencil_rates, verify_tcp_equivalence)
from taylordp.lattice import (PROB_TOL, ExplicitActionSet, LatticeMdp, StateLattice,
                              _table_offsets, action_tuple, pack_rows, policy_pairs,
                              row_sums)
from taylordp.models import build
from taylordp.models.routing import RoutingParams, build_routing, table_params
from taylordp.tapi import _extension_box, _restrict_policy, _unique_classes
from taylordp.taylor import TaylorProblem, ellipticity_check

from conftest import one_reward, one_row, pair_hooks


def _routing3(n, M):
    return build_routing(RoutingParams(
        J=3, N=(n, n, n), M=M, p=(0.8, 0.8, 0.8), lam=(0.7 * n * 0.8,) * 3,
        B=(1.0, 1.0, 4.0, 1.0, 2.0, 1.0), H=(1.0, 2.0, 3.0), alpha=0.99))


@pytest.fixture(scope="module")
def routing3_smoke():
    return _routing3(3, 2)


@pytest.fixture(scope="module")
def routing3_mid():
    return _routing3(4, 5)


@pytest.fixture(scope="module")
def routing3_bench():
    return _routing3(6, 6)


@pytest.fixture(scope="module")
def routing2_a0999():
    return build_routing(table_params(J=2, alpha=0.999, lam_factor=0.8))


@pytest.fixture(scope="module")
def routing3_paper():
    return build_routing(table_params(J=3, alpha=0.99, lam_factor=0.7))


# ---------------------------------------------------------------------------
# per-state reference implementations
# ---------------------------------------------------------------------------

def meshgrid_actions(action_set, state):
    """Box points of one state filtered by A u <= b, lexicographic."""
    x = np.asarray(state)
    bounds = np.asarray(action_set.box(x))
    axes = [np.arange(lo, hi + 1) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    cand = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.all(cand @ action_set.A.T <= np.asarray(action_set.b(x)), axis=1)
    return tuple(tuple(int(v) for v in row) for row in cand[keep])


def per_pair_cost(model, state, u) -> float:
    """The routing cost of one pair: B per moved customer plus H per one left waiting."""
    params = model.params
    out_of = np.zeros((params.J, len(model.pairs)))
    for k, (i, _) in enumerate(model.pairs):
        out_of[i, k] = 1.0
    x = np.asarray(state, dtype=np.float64)
    uv = np.asarray(u, dtype=np.float64)
    waiting = np.maximum(x - out_of @ uv - np.asarray(params.N), 0.0)
    return float(np.asarray(params.B) @ uv + np.asarray(params.H) @ waiting)


def per_pair_post_state(model, state, u) -> tuple:
    post = np.asarray(state) + (model.net @ np.asarray(u, dtype=np.float64)).astype(np.int64)
    return tuple(int(v) for v in post)


def per_pair_routing_row(model, state, u):
    """(targets, probs) of one routing pair: the pools' one-step rows at the
    post-action state multiplied out with np.multiply.outer, zeros dropped."""
    z = per_pair_post_state(model, state, u)
    joint = model.K[0][z[0]]
    for i in range(1, len(z)):
        joint = np.multiply.outer(joint, model.K[i][z[i]])
    flat = joint.ravel()
    live = flat > 0.0
    return np.flatnonzero(live), flat[live]


def per_pair_factored(model):
    """offsets, rewards, post_idx from one cost/post-state evaluation per pair."""
    lattice = model.mdp.lattice
    offsets, rewards, post_idx = [0], [], []
    for i in range(lattice.n_states):
        state = lattice.state(i)
        acts = meshgrid_actions(model.mdp.actions, state)
        for u in acts:
            rewards.append(-per_pair_cost(model, state, u))
            post_idx.append(lattice.index(per_pair_post_state(model, state, u)))
        offsets.append(offsets[-1] + len(acts))
    return np.array(offsets), np.array(rewards), np.array(post_idx)


def _stencil_offsets(d, h):
    """The fixed displacement template used by uniform-spacing stencils."""
    offs = []
    for i in range(d):
        for j in range(i + 1, d):
            for si, sj in ((h, h), (-h, -h), (h, -h), (-h, h)):
                v = np.zeros(d); v[i] = si; v[j] = sj
                offs.append(v)
    for i in range(d):
        for s in (h, -h):
            v = np.zeros(d); v[i] = s
            offs.append(v)
    return np.stack(offs)


def _offset_columns(off, template):
    cols = np.empty(len(off), dtype=np.int64)
    for k, row in enumerate(off):
        cols[k] = int(np.flatnonzero((template == row).all(axis=1))[0])
    return cols


def per_state_taylored_greedy(problem, chain, coarse_values, scheme="inflate"):
    """One moments/stencil/argmax evaluation per fine state."""
    mdp = problem.mdp
    lattice = mdp.lattice
    alpha = mdp.discount
    grid = chain.grid
    d = lattice.dim
    h = float(max(int(ax[1] - ax[0]) for ax in grid.axes))
    hvec = np.full(d, h)
    states = lattice.states().astype(np.float64)
    lower = np.asarray(lattice.lower) - int(h)
    box = _extension_box(coarse_values, grid, lower, np.asarray(lattice.upper) + int(h))

    def probe(points):
        return box[tuple((points - lower).astype(np.int64).T)]

    offs = _stencil_offsets(d, h)
    neighbor_vals = probe((states[:, None, :] + offs[None, :, :]).reshape(-1, d))
    neighbor_vals = neighbor_vals.reshape(len(states), len(offs))
    center_vals = probe(states)
    policy = np.empty(lattice.n_states, dtype=np.int64)
    for si in range(lattice.n_states):
        point = lattice.state(si)
        acts = mdp.actions_at(si)
        mu_b, s2_b = problem.moments_batch(np.tile(point, (len(acts), 1)), acts)
        dirs, rates, _, _ = _stencil_rates(mu_b, s2_b, hvec, hvec, scheme)
        cols = _offset_columns(dirs * h, offs)
        tot = rates.sum(axis=1)
        q_max = float(max(tot.max(), 1e-300))
        a_h = 1.0 / (1.0 + (1.0 / alpha - 1.0) / q_max)
        rew = np.array([one_reward(mdp, point, u) for u in acts], dtype=np.float64)
        expect = (rates / q_max) @ neighbor_vals[si, cols] + (1.0 - tot / q_max) * center_vals[si]
        q = a_h * rew / (alpha * q_max) + a_h * expect
        policy[si] = int(np.flatnonzero(q >= q.max() - 1e-12)[0])
    return policy


def _spacings(grid, pos):
    """(left, right) gap per axis at an interior position."""
    hl = [float(ax[p] - ax[p - 1]) for p, ax in zip(pos, grid.axes)]
    hr = [float(ax[p + 1] - ax[p]) for p, ax in zip(pos, grid.axes)]
    return np.asarray(hl), np.asarray(hr)


def _fot_drift_at(problem, point, binding_lower, binding_upper, d, nu0=1e-6):
    """One point's first-order drift, checked against the inward rule.

    Inward and at least nu0 |drift| on binding axes, zero off them.
    """
    direction = np.asarray(problem.fot_drift(np.array([point])), dtype=np.float64)[0]
    if direction.shape != (d,):
        raise NonInwardEta(point, direction)
    norm = math.sqrt(math.fsum(float(e) ** 2 for e in direction))
    if not norm > 0.0:                                   # zero or NaN
        raise NonInwardEta(point, direction)
    for i in range(d):
        if i in binding_lower:
            ok = direction[i] >= nu0 * norm
        elif i in binding_upper:
            ok = direction[i] <= -nu0 * norm
        else:
            ok = direction[i] == 0.0
        if not ok:
            raise NonInwardEta(point, direction)
    return direction


def per_point_chain(problem, h, scheme="inflate"):
    """The K-D chain with one moments and one stencil evaluation per grid point."""
    mdp = problem.mdp
    alpha = mdp.discount
    grid = tdp.CoarseGrid.from_lattice(mdp.lattice, h)
    n, d = grid.n_points, grid.dim
    offsets, rewards, row_ptr, cols, probs = [0], [], [0], [], []
    discounts = np.empty(n)
    Q_per_state = np.zeros(n)
    interior_mask = np.zeros(n, dtype=bool)
    chain_actions, slack_rows, cross_rows, fine_state = [], [], [], []
    shape = grid.shape
    strides = np.array([int(np.prod(shape[i + 1:])) for i in range(d)], dtype=np.int64)
    points = grid.points().tolist()

    for idx in range(n):
        pos = np.array(np.unravel_index(idx, shape), dtype=np.int64)
        point = tuple(points[idx])
        fine_state.append(mdp.lattice.index(point))
        U_point = mdp.actions.at([point])[0]         # this point's own enumeration
        acts = action_tuple(U_point)
        if any(p == 0 or p == len(ax) - 1 for p, ax in zip(pos, grid.axes)):
            binding_lower = [i for i in range(d) if pos[i] == 0]
            binding_upper = [i for i in range(d) if pos[i] == len(grid.axes[i]) - 1]
            inward_pos = pos.copy()
            for i in binding_lower:
                inward_pos[i] += 1
            for i in binding_upper:
                inward_pos[i] -= 1
            if problem.fot_drift is None:
                chain_actions.append(U_point[:1])
                rewards.append(0.0)
                cols.append(np.array([int(inward_pos @ strides)], dtype=np.int64))
                probs.append(np.array([1.0]))
                row_ptr.append(row_ptr[-1] + 1)
                offsets.append(offsets[-1] + 1)
                discounts[idx] = 1.0
                slack_rows.append(np.zeros((1, d)))
                cross_rows.append(np.ones(1))
            else:
                drift = _fot_drift_at(problem, point, binding_lower, binding_upper, d)
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
                chain_actions.append(U_point)
                for u in acts:
                    rewards.append(one_reward(mdp, point, u) / den)
                    cols.append(np.asarray(tgt, dtype=np.int64))
                    probs.append(np.asarray(wgt) / W)
                    row_ptr.append(row_ptr[-1] + len(tgt))
                offsets.append(offsets[-1] + len(acts))
                discounts[idx] = alpha * W / den
                slack_rows.append(np.zeros((len(acts), d)))
                cross_rows.append(np.ones(len(acts)))
            continue

        interior_mask[idx] = True
        hl, hr = _spacings(grid, pos)
        mu_b, s2_b = problem.moments_batch(np.tile(point, (len(acts), 1)), acts)
        dirs, rates, slack, cscale = _stencil_rates(mu_b, s2_b, hl, hr, scheme)
        Q = float(rates.sum(axis=1).max())
        Q_per_state[idx] = Q
        discounts[idx] = 1.0 / (1.0 + (1.0 / alpha - 1.0) / Q)
        tgt_flat = (pos + dirs) @ strides
        chain_actions.append(U_point)
        for a in range(len(acts)):
            p = rates[a] / Q
            keep = p > 0.0
            stay = 1.0 - float(p[keep].sum())
            t, pp = tgt_flat[keep], p[keep]
            if stay > RATE_TOL:
                t = np.concatenate([t, [idx]])
                pp = np.concatenate([pp, [stay]])
            rewards.append(discounts[idx] * one_reward(mdp, point, acts[a]) / (alpha * Q))
            cols.append(t.astype(np.int64))
            probs.append(pp)
            row_ptr.append(row_ptr[-1] + len(t))
        offsets.append(offsets[-1] + len(acts))
        slack_rows.append(slack)
        cross_rows.append(cscale)

    asm = TabularAssembly(offsets, rewards, row_ptr, np.concatenate(cols),
                          np.concatenate(probs), discounts)
    return KdChain(problem, h, scheme, grid, np.asarray(fine_state, dtype=np.int64),
                   np.concatenate(chain_actions), asm, Q_per_state, interior_mask,
                   np.concatenate(slack_rows, axis=0), np.concatenate(cross_rows))


def per_point_verify(chain, problem):
    """(max errors: first, cross, diag, reward; checked pairs; worst 10), pair by pair."""
    mdp = problem.mdp
    alpha = mdp.discount
    grid = chain.grid
    points = grid.points().tolist()
    pts = np.asarray(points, dtype=np.float64)
    asm = chain.assembly()
    worst = []
    e1 = e_cross = e_diag = e_r = 0.0
    checked = 0
    d = grid.dim
    for idx in np.flatnonzero(chain.interior_mask):
        acts = chain.actions_at(idx)
        point = tuple(points[idx])
        mu_b, s2_b = problem.moments_batch(np.tile(point, (len(acts), 1)), acts)
        alpha_h = chain.discounts[idx]
        kappa = alpha * (1.0 - alpha_h) / (alpha_h * (1.0 - alpha))
        for a, u in enumerate(acts):
            pair = asm.offsets[idx] + a
            lo, hi = asm.row_ptr[pair], asm.row_ptr[pair + 1]
            targets, p, r_tilde = asm.col_idx[lo:hi], asm.probs[lo:hi], asm.rewards[pair]
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
            r = one_reward(mdp, point, u)
            ident = (1.0 - alpha_h) / (1.0 - alpha) * r
            err_r = abs(r_tilde - ident) / max(1.0, abs(ident))
            e_r = max(e_r, err_r)
            if err_r > 1e-10:
                worst.append((point, u, "reward", err_r))
    worst.sort(key=lambda t: -t[-1])
    return (e1, e_cross, e_diag, e_r), checked, worst[:10]


def per_state_ellipticity(problem):
    """(lambda_min, lambda_max, argmin state, argmin action), first minimum kept."""
    mdp = problem.mdp
    lam_min, lam_max, arg = np.inf, -np.inf, None
    for i in range(mdp.n_states):
        state = mdp.lattice.state(i)
        acts = mdp.actions_at(i)
        _, s2 = problem.moments_batch(np.tile(state, (len(acts), 1)), acts)
        eig = np.linalg.eigvalsh(s2)
        k = int(np.argmin(eig[:, 0]))
        if eig[k, 0] < lam_min:
            lam_min, arg = float(eig[k, 0]), (state, acts[k])
        lam_max = max(lam_max, float(eig[:, -1].max()))
    return lam_min, lam_max, arg


# ---------------------------------------------------------------------------
# action tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("J", [2, 3])
def test_table_matches_meshgrid_on_random_states(J, routing2, routing3_mid):
    model = routing2 if J == 2 else routing3_mid
    lattice = model.mdp.lattice
    rng = np.random.default_rng(J)
    states = lattice.states()[rng.choice(lattice.n_states, size=60, replace=False)]
    states = np.concatenate([states, [lattice.lower], [lattice.upper]])
    U, offsets = model.mdp.actions.at(states)
    counts = np.diff(offsets)
    assert counts.min() == 1                        # single-action states are covered
    assert counts.max() > 1
    for s, lo, hi in zip(states, offsets[:-1], offsets[1:]):
        assert tuple(map(tuple, U[lo:hi].tolist())) == meshgrid_actions(model.mdp.actions, s)


def test_actions_at_matches_meshgrid_on_every_state(routing3_smoke):
    mdp = routing3_smoke.mdp
    for i in range(mdp.n_states):
        assert mdp.actions_at(i) == meshgrid_actions(mdp.actions, mdp.lattice.state(i))
    assert mdp.action_table()[0].dtype == np.int64


def test_explicit_table_constant():
    states = StateLattice((0,), (3,)).states()
    U, offsets = ExplicitActionSet((0.5, 0.0, 0.5)).at(states)
    assert U.tolist() == [0.0, 0.5] * 4 and offsets.tolist() == [0, 2, 4, 6, 8]


def test_actions_at_keeps_python_scalars(service_quadratic, inventory_model):
    acts = service_quadratic.mdp.actions_at(3)
    assert acts == service_quadratic.controls
    assert all(type(u) is float for u in acts)
    assert all(type(u) is int for u in inventory_model.mdp.actions_at(0))
    assert inventory_model.mdp.actions_at(0)[4] == 4


def _reference_at(action_set, states):
    """PolyhedralActionSet.at as it was: all m coordinates of all box points, (N, m)."""
    states = np.atleast_2d(states)
    n = len(states)
    c, m = action_set.A.shape
    box = np.asarray(action_set.box(states), dtype=np.int64).reshape(n, m, 2)
    lo = box[:, :, 0]
    width = np.maximum(box[:, :, 1] - lo + 1, 0)
    n_cand = width.prod(axis=1)
    owner = np.repeat(np.arange(n), n_cand)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(n_cand) - n_cand, n_cand)
    width = width[owner]
    cand = lo[owner]
    for j in range(m - 1, -1, -1):
        rank, digit = np.divmod(rank, width[:, j])
        cand[:, j] += digit
    bvec = np.asarray(action_set.b(states)).reshape(n, c)
    keep = (cand @ action_set.A.T <= bvec[owner]).all(axis=1)
    offsets = _table_offsets(np.bincount(owner[keep], minlength=n), states)
    return cand[keep], offsets


def _table_or_empty(at, action_set, states):
    """at(action_set, states), or the state named by its EmptyActionSet."""
    try:
        return at(action_set, states)
    except EmptyActionSet as err:
        return err.state


def _random_action_set(rng):
    """A random polyhedral set over n states addressed by index, with its state array.

    A is integral with negative entries and halves; lower bounds fall on
    both sides of 0 and box widths mix 0 (some below 0), 1 and wide.  Each
    state's low corner is feasible unless one of its constraints is cut
    below the box's minimum.
    """
    m, c = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    n = int(rng.choice([0, 1, int(rng.integers(2, 30))], p=[0.05, 0.15, 0.8]))
    A = rng.integers(-3, 4, size=(c, m)) + 0.5 * rng.integers(0, 2, size=(c, m))
    lo = rng.integers(-4, 4, size=(n, m))
    width = rng.choice([0, 1, 2, 3, 4, 5], size=(n, m), p=[0.004, 0.5, 0.124, 0.124, 0.124, 0.124])
    width[rng.random((n, m)) < 0.002] = -1
    boxes = np.stack([lo, lo + width - 1], axis=-1)
    b = lo @ A.T + 0.5 * rng.integers(0, 12, size=(n, c))
    cut = rng.random(n) < 0.01
    low = lo @ A.T + np.maximum(width - 1, 0) @ np.minimum(A, 0).T
    b[cut, 0] = low[cut, 0] - 0.5
    action_set = tdp.PolyhedralActionSet(A, lambda x: b[x[:, 0]], lambda x: boxes[x[:, 0]])
    return action_set, np.arange(n).reshape(n, 1)


def _product_table(action_set, states):
    """Per state, the feasible points of itertools.product over its box."""
    rows, offsets = [], [0]
    for x in states:
        bounds = np.asarray(action_set.box(x[None]))[0]
        rhs = np.asarray(action_set.b(x[None]), dtype=np.float64)[0]
        pts = [u for u in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))
               if np.all(action_set.A @ np.asarray(u, dtype=np.float64) <= rhs)]
        if not pts:
            return tuple(x.tolist())
        rows += pts
        offsets.append(len(rows))
    return (np.asarray(rows, dtype=np.int64).reshape(len(rows), action_set.A.shape[1]),
            np.asarray(offsets))


def _is_table(result):
    return isinstance(result[0], np.ndarray)


def assert_same_table(got, expect):
    if not _is_table(expect):
        assert got == expect                                   # the same empty state
        return
    (U, offsets), (U_ref, offsets_ref) = got, expect
    assert U.dtype == np.int64 and U.flags.c_contiguous and U.shape == U_ref.shape
    assert np.array_equal(U, U_ref)
    assert offsets.dtype == np.int64 and np.array_equal(offsets, offsets_ref)


# BLOCK values that cut the states into blocks of one or a few entries
TINY_BLOCKS = (1, 7, 50)


def test_table_matches_reference_on_random_sets(monkeypatch):
    rng = np.random.default_rng(23)
    seen = dict.fromkeys(["empty state", "no states", "one state", "states", "filtered"], 0)
    for _ in range(600):
        action_set, states = _random_action_set(rng)
        expect = _table_or_empty(_reference_at, action_set, states)
        assert_same_table(expect, _product_table(action_set, states))
        for block in (tdp.lattice.BLOCK,) + TINY_BLOCKS:
            with monkeypatch.context() as patch:
                patch.setattr(tdp.lattice, "BLOCK", block)
                got = _table_or_empty(tdp.PolyhedralActionSet.at, action_set, states)
            assert_same_table(got, expect)
        if not _is_table(got):
            seen["empty state"] += 1
            continue
        seen[("no states", "one state", "states")[min(len(states), 2)]] += 1
        widths = np.diff(action_set.box(states), axis=-1) + 1
        seen["filtered"] += int(len(got[0]) < widths.prod(axis=(1, 2)).sum())
    assert min(seen.values()) >= 20, seen


def _counted_blocks(monkeypatch):
    """The number of _feasible calls, one a block of the action table, as at() runs."""
    calls = []
    feasible = tdp.PolyhedralActionSet._feasible

    def counted(self, lo, *args):
        calls.append(len(lo))
        return feasible(self, lo, *args)

    monkeypatch.setattr(tdp.PolyhedralActionSet, "_feasible", counted)
    return calls


@pytest.mark.parametrize("name", ["routing2", "routing3_smoke", "routing3_bench",
                                  pytest.param("routing3_paper", marks=pytest.mark.slow)])
def test_table_matches_reference_on_routing_lattices(name, request, monkeypatch):
    mdp = request.getfixturevalue(name).mdp
    states = mdp.lattice.states()
    expect = _reference_at(mdp.actions, states)
    calls = _counted_blocks(monkeypatch)
    for block in (tdp.lattice.BLOCK,) + TINY_BLOCKS:
        monkeypatch.setattr(tdp.lattice, "BLOCK", block)
        calls.clear()
        assert_same_table(mdp.actions.at(states), expect)
        assert sum(calls) == mdp.n_states
        if block == 1:
            assert len(calls) == mdp.n_states           # every state a block of its own
        if name == "routing2":
            assert (len(calls) == 1) == (block not in TINY_BLOCKS)   # the 2-pool table fits one
    assert 1 < len(calls) < mdp.n_states                # the largest tiny block holds a few states


def _traced_peak(build):
    """(result, tracemalloc peak in bytes) of build()."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_memory_stays_bounded(routing3_bench):
    # the tracemalloc peak of one at() over the 2,197-state 3-pool lattice
    # (14,461 actions, a 0.66 MiB table) is 1.57 MiB, reached while the blocks
    # are enumerated: the kept blocks (up to the table), the box, widths and
    # right-hand sides of every state (0.45 MiB) and one block's candidates
    # and (c, N) test (0.46 MiB).  Copying the kept blocks into the table
    # then holds two tables, 1.42 MiB.  It was 3.54 MiB when every candidate
    # was enumerated in one pass, and 4.3 MiB as an (N, m) array
    actions, states = routing3_bench.mdp.actions, routing3_bench.mdp.lattice.states()
    actions.at(states)
    _, peak = _traced_peak(lambda: actions.at(states))
    assert peak < 1.6 * 2**20


def _assembly_bytes(asm) -> int:
    """Bytes of the arrays a FactoredAssembly holds besides the action table's offsets."""
    return sum(a.nbytes for a in (asm.rewards, asm.post_idx, asm.discounts))


@pytest.mark.slow
def test_paper_cell_table_and_assembly_stay_within_one_block(routing3_paper):
    # one block's temporaries (its candidates or pairs' actions, the (c, N)
    # test, index arrays) are at most eight arrays of BLOCK 8-byte entries.
    # The table peaks while the kept blocks are copied into it, the assembly
    # while its last block is formed; both formed all-pair temporaries of
    # 54.0 and 33.2 MiB before they were built in blocks
    one_block = 8 * tdp.lattice.BLOCK * 8
    mdp = routing3_paper.mdp
    states = mdp.lattice.states()
    (U, offsets), peak = _traced_peak(lambda: mdp.actions.at(states))
    assert peak <= 2 * (U.nbytes + offsets.nbytes) + one_block
    mdp.action_table()
    asm, peak = _traced_peak(routing3_paper._build_factored)
    assert peak <= _assembly_bytes(asm) + one_block


# ---------------------------------------------------------------------------
# factored assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["routing2", "routing3_smoke", "routing3_mid", "routing3_bench"])
def test_routing_factored_arrays_match_per_pair_build(name, request, monkeypatch):
    model = request.getfixturevalue(name)
    offsets, rewards, post_idx = per_pair_factored(model)
    mdp = model.mdp
    blocks = []
    rewards_of = mdp.rewards
    monkeypatch.setattr(mdp, "rewards", lambda states, U: blocks.append(len(U)) or
                        rewards_of(states, U))
    for block in (tdp.lattice.BLOCK,) + TINY_BLOCKS:
        monkeypatch.setattr(tdp.lattice, "BLOCK", block)
        blocks.clear()
        asm = model._build_factored()
        assert np.array_equal(asm.offsets, offsets)
        assert np.array_equal(asm.rewards, rewards)
        assert np.array_equal(asm.post_idx, post_idx)
        assert sum(blocks) == len(rewards)
        if block == 1:
            assert len(blocks) == mdp.n_states          # every state a block of its own
        if name == "routing2":
            assert (len(blocks) == 1) == (block not in TINY_BLOCKS)


def test_routing_factored_memory_stays_bounded(routing3_bench):
    # the tracemalloc peak of one _build_factored() on the 2,197-state 3-pool
    # cell is 0.92 MiB: its outputs (rewards, post-state indices and per-pair
    # discounts, 24 bytes a pair, 0.35 MiB), the lattice's states and one
    # block's pair states, float actions and post states.  It was 2.05 MiB
    # when every pair's state, float action and post state was formed at once
    routing3_bench.mdp.action_table()
    _, peak = _traced_peak(routing3_bench._build_factored)
    assert peak < 1.0 * 2**20


def test_routing_cost_and_post_state_per_pair(routing3_smoke):
    mdp = routing3_smoke.mdp
    asm = get_assembly(mdp)
    for i in range(0, mdp.n_states, 7):
        state = mdp.lattice.state(i)
        for a, u in enumerate(mdp.actions_at(i)):
            pair = asm.offsets[i] + a
            assert -per_pair_cost(routing3_smoke, state, u) == asm.rewards[pair]
            assert -routing3_smoke.cost_batch([state], [u])[0] == asm.rewards[pair]
            post = per_pair_post_state(routing3_smoke, state, u)
            assert mdp.lattice.index(post) == asm.post_idx[pair]
            assert tuple(routing3_smoke.post_states([state], [u])[0].tolist()) == post


@pytest.mark.parametrize("name", ["routing2", "routing3_smoke", "routing3_bench"])
def test_routing_kernel_matches_per_pair_product(name, request):
    model = request.getfixturevalue(name)
    mdp = model.mdp
    U, _ = mdp.action_table()
    states = mdp.pair_states()
    block = 512                      # a rows() call holds a dense (pairs, n_states) product
    for start in range(0, len(U), block):
        row_ptr, targets, probs = mdp.rows(states[start:start + block], U[start:start + block])
        for k in range(len(row_ptr) - 1):
            ref_t, ref_p = per_pair_routing_row(model, tuple(states[start + k].tolist()),
                                                tuple(U[start + k].tolist()))
            lo, hi = row_ptr[k], row_ptr[k + 1]
            assert np.array_equal(targets[lo:hi], ref_t)
            assert _bits(probs[lo:hi]).tolist() == _bits(ref_p).tolist()


# ---------------------------------------------------------------------------
# moments over pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["routing2", "service_quadratic", "inventory_model",
                                  "heavy_queue"])
def test_moments_batch_per_pair_states(name, request):
    problem = request.getfixturevalue(name).problem
    mdp = problem.mdp
    U, offsets = mdp.action_table()
    mu, s2 = problem.moments_batch(mdp.pair_states(), U)
    for i in range(0, mdp.n_states, 5):
        lo, hi = offsets[i], offsets[i + 1]
        mu_i, s2_i = problem.moments_batch(np.tile(mdp.lattice.state(i), (hi - lo, 1)),
                                           mdp.actions_at(i))
        assert np.array_equal(mu[lo:hi], mu_i)
        assert np.array_equal(s2[lo:hi], s2_i)


def per_pair_moments_service_rate(model, x, u):
    """(mu, sigma2) of one service-rate pair: drift +1 at 0, 1 - 2u above."""
    (x,) = x
    mu = 1.0 if x == 0 else 1.0 - 2.0 * u
    return [mu], [[1.0]]


def per_pair_moments_inventory(model, x, u):
    """The interior closed form, which the model uses on every state, edges too."""
    lam = model.params.lam
    return [u - lam], [[(u - lam) ** 2 + lam]]


def per_pair_moments_heavy_traffic(model, x, u):
    lam, mu = model.params.lam, model.params.mu
    (x,) = x
    if x == 0:
        return [lam], [[lam]]
    return [lam - mu], [[1.0]]


def per_pair_moments_routing(model, x, u):
    """The module docstring's display, with n_i = (x_i + net_i) ^ N_i."""
    params = model.params
    J = params.J
    net = [0.0] * J
    for (i, j), k in zip(model.pairs, u):
        net[i] -= k
        net[j] += k
    mu, s2 = [], [[0.0] * J for _ in range(J)]
    for i in range(J):
        n_busy = min(x[i] + net[i], params.N[i])
        mu.append(net[i] + params.lam[i] - params.p[i] * n_busy)
        s2[i][i] = params.lam[i] + n_busy * params.p[i] * (1.0 - params.p[i]) + mu[i] ** 2
    for i in range(J):
        for j in range(J):
            if i != j:
                s2[i][j] = mu[i] * mu[j]
    return mu, s2


MOMENT_REFERENCES = [
    ("service_quadratic", per_pair_moments_service_rate),
    ("service_quartic", per_pair_moments_service_rate),
    ("quartic_fixed", per_pair_moments_service_rate),
    ("inventory_model", per_pair_moments_inventory),
    ("heavy_queue", per_pair_moments_heavy_traffic),
    ("routing2", per_pair_moments_routing),
    ("routing3_smoke", per_pair_moments_routing),
]


@pytest.mark.parametrize("name,per_pair", MOMENT_REFERENCES)
def test_moments_batch_matches_per_pair_formulas(name, per_pair, request):
    model = request.getfixturevalue(name)
    problem, mdp = model.problem, model.mdp
    d = mdp.lattice.dim
    U, _ = mdp.action_table()
    states = mdp.pair_states()
    # every face of the lattice is among the pairs: x = 0, x = M, the inventory edges
    assert (states == mdp.lattice.lower).any(axis=0).all()
    assert (states == mdp.lattice.upper).any(axis=0).all()
    mu, s2 = problem.moments_batch(states, U)
    assert mu.dtype == s2.dtype == np.float64
    assert mu.shape == (len(U), d) and s2.shape == (len(U), d, d)
    ref = [per_pair(model, x, u) for x, u in zip(states.tolist(), action_tuple(U))]
    assert np.array_equal(_bits(mu), _bits(np.array([m for m, _ in ref], dtype=np.float64)))
    assert np.array_equal(_bits(s2), _bits(np.array([v for _, v in ref], dtype=np.float64)))
    # a one-pair call of the hook gives the pair's row of the whole-table call
    for k in range(len(U)):
        mu_k, s2_k = problem.moments_batch(states[k:k + 1], U[k:k + 1])
        assert np.array_equal(_bits(mu_k[0]), _bits(mu[k]))
        assert np.array_equal(_bits(s2_k[0]), _bits(s2[k]))


def test_heavy_traffic_chain_makes_one_moments_call(heavy_queue, monkeypatch):
    problem = heavy_queue.problem
    rows = []
    inner = problem.moments_batch

    def counted(states, actions):
        rows.append(len(actions))
        return inner(states, actions)

    monkeypatch.setattr(problem, "moments_batch", counted)
    chain = tdp.build_multidim_chain(problem, 1)
    assert rows == [int(chain.interior_mask.sum())]


# ---------------------------------------------------------------------------
# kernel and reward batch hooks, tabular assembly
# ---------------------------------------------------------------------------

def per_pair_service_rate(model, x, u):
    """(targets, probs, reward) of one service-rate pair, as the model defines them."""
    M, params = model.params.M, model.params
    power = 2 if params.cost == "quadratic" else 4
    if x == 0:
        targets, probs = [1], [1.0]
    elif x == M:
        targets, probs = [M - 1], [1.0]
    else:
        targets, probs = [x - 1, x + 1], [u, 1.0 - u]
    return targets, probs, -(float(x) ** power + params.c_s / (1.0 - u))


def per_pair_heavy_traffic(model, x, u):
    lam, mu, M = model.params.lam, model.params.mu, model.params.M
    if x == 0:
        return [0, 1], [mu, lam], float(x)
    if x == M:
        return [M - 1], [1.0], float(x)
    return [x - 1, x + 1], [mu, lam], float(x)


def per_pair_truncate_renormalize(raw_kernel, lattice):
    """A per-pair kernel from a per-pair raw row (coords (w, d), probs (w,)): mass
    outside the box dropped, the rest divided by its math.fsum."""
    lower, upper = np.asarray(lattice.lower), np.asarray(lattice.upper)

    def kernel(state, u):
        coords, probs = raw_kernel(state, u)
        coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        probs = np.asarray(probs, dtype=np.float64)
        inside = np.all((coords >= lower) & (coords <= upper), axis=1)
        kept = probs[inside]
        return lattice.indices_of(coords[inside]), kept / math.fsum(kept.tolist())

    return kernel


def per_pair_inventory(model, x, u):
    """(targets, probs, reward) of one inventory pair: its raw row x + u - D
    (M - D at M, the sure step -M + u at -M), truncated and renormalized."""
    M, demands = model.params.M, np.arange(model.d_max + 1)

    def raw(state, u):
        (x,) = state
        if x == -M:
            return np.array([[-M + u]]), np.array([1.0])
        if x == M:
            return (M - demands)[:, None], model.demand_pmf
        return (x + u - demands)[:, None], model.demand_pmf

    targets, probs = per_pair_truncate_renormalize(raw, model.mdp.lattice)((x,), u)
    return targets.tolist(), probs, -model.cost((x,), u)


def per_pair_tabulate(mdp):
    """The tabular assembly with one one-pair rows() and rewards() call per pair."""
    rewards, row_ptr, cols, probs = [], [0], [], []
    for i in range(mdp.n_states):
        state = mdp.lattice.state(i)
        for u in mdp.actions_at(i):
            targets, p = one_row(mdp, state, u)
            rewards.append(one_reward(mdp, state, u))
            cols.append(targets)
            probs.append(p)
            row_ptr.append(row_ptr[-1] + len(targets))
    return TabularAssembly(mdp.action_table()[1], rewards, row_ptr, np.concatenate(cols),
                           np.concatenate(probs), np.full(mdp.n_states, mdp.discount))


HOOKED = [("service_quadratic", per_pair_service_rate), ("service_quartic", per_pair_service_rate),
          ("quartic_fixed", per_pair_service_rate), ("heavy_queue", per_pair_heavy_traffic),
          ("inventory_model", per_pair_inventory)]


@pytest.mark.parametrize("name,per_pair", HOOKED)
def test_batch_hooks_match_per_pair_definition(name, per_pair, request):
    model = request.getfixturevalue(name)
    mdp = model.mdp
    U, _ = mdp.action_table()
    states = mdp.pair_states()
    xs = states[:, 0].tolist()
    assert {0, model.params.M} <= set(xs)
    row_ptr, targets, probs = mdp.rows(states, U)
    rewards = mdp.rewards(states, U)
    assert row_ptr.dtype == targets.dtype == np.int64 and probs.dtype == np.float64
    assert row_ptr.shape == (len(U) + 1,) and rewards.shape == (len(U),)
    for k, (x, u) in enumerate(zip(xs, action_tuple(U))):
        ref_t, ref_p, ref_r = per_pair(model, x, u)
        lo, hi = row_ptr[k], row_ptr[k + 1]
        assert targets[lo:hi].tolist() == ref_t
        assert _bits(probs[lo:hi]).tolist() == _bits(np.asarray(ref_p, dtype=np.float64)).tolist()
        assert _bits(rewards[k:k + 1]).tolist() == _bits(np.array([ref_r])).tolist()
        # one-pair calls of the same hooks give the same rows and rewards
        one_t, one_p = one_row(mdp, (x,), u)
        assert np.array_equal(one_t, targets[lo:hi])
        assert _bits(one_p).tolist() == _bits(probs[lo:hi]).tolist()
        assert _bits(np.array([one_reward(mdp, (x,), u)])).tolist() == _bits(rewards[k:k + 1]).tolist()


def test_service_rate_rows_keep_zero_entries(service_quadratic):
    row_ptr, targets, probs = service_quadratic.mdp.rows(np.array([[5], [0]]), [0.0, 0.0])
    assert row_ptr.tolist() == [0, 2, 3]
    assert targets.tolist() == [4, 6, 1] and probs.tolist() == [0.0, 1.0, 1.0]


@pytest.mark.parametrize("name", ["routing2", "routing3_smoke"])
def test_routing_reward_batch_matches_per_pair_costs(name, request):
    model = request.getfixturevalue(name)
    mdp = model.mdp
    U, _ = mdp.action_table()
    states = mdp.pair_states()
    rewards = mdp.rewards(states, U)
    _, ref, _ = per_pair_factored(model)
    assert _bits(rewards).tolist() == _bits(ref).tolist()
    assert (U == 0).all(axis=1).any() and (U > 0).any()
    for k in range(0, len(U), 5):
        r = one_reward(mdp, tuple(states[k].tolist()), tuple(U[k].tolist()))
        assert _bits(np.array([r])).tolist() == _bits(rewards[k:k + 1]).tolist()


@pytest.mark.parametrize("name", ["service_quadratic", "service_quartic", "quartic_fixed",
                                  "heavy_queue", "inventory_model"])
def test_tabulate_matches_per_pair_loop(name, request):
    mdp = request.getfixturevalue(name).mdp
    asm, ref = _tabulate(mdp), per_pair_tabulate(mdp)
    for field in ("offsets", "rewards", "row_ptr", "col_idx", "probs", "discounts"):
        x, y = getattr(asm, field), getattr(ref, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field


def test_service_rate_assembly_makes_one_kernel_call():
    model = build("service_rate", M=30, alpha=0.99)
    mdp = model.mdp
    calls = []
    kernel, reward = mdp.kernel, mdp.reward
    mdp.kernel = lambda states, U: calls.append(("kernel", len(U))) or kernel(states, U)
    mdp.reward = lambda states, U: calls.append(("reward", len(U))) or reward(states, U)
    asm = get_assembly(mdp)
    assert asm.n_pairs == 31 * 100 and calls == [("kernel", 3100), ("reward", 3100)]
    tdp.verify_tcp_equivalence(tdp.build_multidim_chain(model.problem, 2), model.problem)
    tdp.verify_tcp_equivalence(tdp.build_multidim_chain(model.fot_boundary_problem(), 2),
                               model.fot_boundary_problem())
    # every later call reads many pairs at once: per chain, one reward call
    # over its pairs in the build and one over its interior pairs in the check
    assert calls[2:] == [("reward", 14 * 100 + 2), ("reward", 1400), ("reward", 16 * 100),
                         ("reward", 1400)]


def _walk_mdp(fault=None, hooked=True, excess=0.0):
    """Reflecting walk on 0..5 with actions (0, 1).

    `fault` spoils the pair (state 3, action 1) and `excess` is added to the
    last entry of the pair (state 5, action 1).  hooked builds the rows in
    numpy arrays (pack_rows); otherwise the per-pair definition is lifted to
    the batch contract one pair at a time (pair_hooks).
    """
    def pair(x, u):
        targets, probs, reward = [max(x - 1, 0), min(x + 1, 5)], [0.5, 0.5], float(x)
        if (x, u) == (5, 1):
            probs = [0.5, 0.5 + excess]
        if (x, u) == (3, 1):
            probs = {"negative": [1.5, -0.5], "sum_high": [0.5, 0.5 + 1e-9],
                     "sum_low": [0.5, 0.5 - 1e-9], "sum_over": [0.6, 0.6],
                     "nan_first": [math.nan, 1.0], "nan_both": [math.nan, math.nan],
                     "nan_last": [0.5, math.nan]}.get(fault, probs)
            if fault == "outside":
                targets = [2, 6]
            elif fault == "empty":
                targets, probs = [], []
            elif fault == "reward":
                reward = math.inf
        return targets, probs, reward

    lattice = StateLattice((0,), (5,))
    actions = ExplicitActionSet((0, 1))
    if not hooked:
        return LatticeMdp(lattice, actions, *pair_hooks(lambda s, u: pair(s[0], u)[:2],
                                                        lambda s, u: pair(s[0], u)[2]), 0.9)

    def kernel(states, U):
        x = states[:, 0]
        targets = np.stack([np.maximum(x - 1, 0), np.minimum(x + 1, 5)], axis=1)
        probs = np.full(targets.shape, 0.5)
        lengths = np.full(len(x), 2)
        for x0, u0 in ((3, 1), (5, 1)):                 # the spoiled pairs' rows
            t, p, _ = pair(x0, u0)
            at = (x == x0) & (U == u0)
            targets[at, :len(t)], probs[at, :len(p)], lengths[at] = t, p, len(t)
        return pack_rows(targets, probs, lengths)

    def reward(states, U):
        x = states[:, 0]
        return np.where((x == 3) & (U == 1), pair(3, 1)[2], x.astype(np.float64))

    return LatticeMdp(lattice, actions, kernel, reward, 0.9)


FAULTS = ["negative", "sum_high", "sum_low", "outside", "empty", "reward",
          "sum_over", "nan_first", "nan_both", "nan_last"]


@pytest.mark.parametrize("hooked", [True, False], ids=["hooked", "hookless"])
@pytest.mark.parametrize("fault", FAULTS)
def test_tabulate_rejects_bad_rows(fault, hooked):
    assert _tabulate(_walk_mdp(None, hooked)).n_pairs == 12
    with pytest.raises(ValueError) as err:
        _tabulate(_walk_mdp(fault, hooked))
    assert "state (3,), action 1)" in str(err.value)


@pytest.mark.parametrize("hooked", [True, False], ids=["hooked", "hookless"])
def test_tabulate_row_sum_tolerance_matches_fsum(hooked):
    # PROB_TOL = 1e-12 on the fsum of a row: 0.9e-12 off passes, 1.1e-12 off fails
    for excess, ok in ((0.9e-12, True), (-0.9e-12, True), (1.1e-12, False), (-1.1e-12, False)):
        mdp = _walk_mdp(None, hooked, excess)
        if ok:
            _tabulate(mdp)
        else:
            with pytest.raises(ValueError):
                _tabulate(mdp)


def per_point_completion(chain, mdp, fine_value):
    """Each boundary grid point's completed action index, one rows() and rewards() call a point."""
    U, offsets = mdp.action_table()
    states = mdp.lattice.states()
    chosen = []
    for si in mdp.lattice.indices_of(chain.grid.points())[~chain.interior_mask]:
        lo, hi = offsets[si], offsets[si + 1]
        point = np.repeat(states[si:si + 1], hi - lo, axis=0)
        row_ptr, targets, probs = mdp.rows(point, U[lo:hi])
        rewards = mdp.rewards(point, U[lo:hi])
        q = rewards + mdp.discount * np.add.reduceat(probs * fine_value[targets], row_ptr[:-1])
        chosen.append(exact.segmented_argmax(q, np.array([0, hi - lo]))[1][0])
    return np.array(chosen, dtype=np.int64)


@pytest.fixture(scope="module")
def service_rate_m30():
    return build("service_rate", M=30, alpha=0.99)


@pytest.mark.parametrize("name,h", [("routing2", 1), ("routing2", 2), ("routing2", 4),
                                    ("service_rate_m30", 1), ("service_rate_m30", 2),
                                    ("routing3_smoke", 2), ("inventory_model", 2)])
def test_completion_matches_per_point_loop(name, h, request):
    # the completion reads the assembly's q-values, the reference loop the
    # kernel rows: on the factored routing models the two add in different
    # orders, and the argmax tie rule makes them agree
    model = request.getfixturevalue(name)
    mdp = model.mdp
    chain = tdp.build_multidim_chain(model.problem, h)
    pi = tdp.policy_iteration(chain)
    fine_v = tdp.disaggregate_value(pi.values, chain.grid, mdp.lattice)
    points = mdp.lattice.indices_of(chain.grid.points())[~chain.interior_mask]
    assert (np.diff(mdp.action_table()[1])[points] > 1).any()
    policy = tdp.disaggregate_policy(chain, pi.policy, fine_v)
    assert np.array_equal(policy[points], per_point_completion(chain, mdp, fine_v))


def test_completion_memory_stays_bounded(routing3_bench):
    # the tracemalloc peak of one call on the 2,197-state 3-pool cell at
    # h=4: 2.05 MiB when the call builds the fine assembly, 1.54 MiB when an
    # earlier solve has built it
    mdp = routing3_bench.mdp
    chain = tdp.build_multidim_chain(routing3_bench.problem, 4)
    coarse = np.zeros(chain.n_states, dtype=np.int64)
    fine_v = tdp.disaggregate_value(tdp.policy_evaluation(chain, coarse), chain.grid, mdp.lattice)
    mdp.action_table()
    tracemalloc.start()
    try:
        tdp.disaggregate_policy(chain, coarse, fine_v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("name", ["routing2", "service_quadratic"])
def test_replaced_kernel_sees_every_rows_call(name, request, monkeypatch):
    # a kernel replaced on the instance after the model is built, as the
    # benchmark's tracer replaces it, sees every rows() call: one each from
    # a direct call, kernel_moment_provider and tabular assembly
    mdp = request.getfixturevalue(name).mdp
    seen, rows_calls = [], []
    kernel, rows = mdp.kernel, mdp.rows
    monkeypatch.setattr(mdp, "kernel", lambda states, U: seen.append(len(U)) or kernel(states, U))
    monkeypatch.setattr(mdp, "rows", lambda states, U: rows_calls.append(len(U)) or rows(states, U))
    U, _ = mdp.action_table()
    states = mdp.pair_states()
    mdp.rows(states[:7], U[:7])
    tdp.kernel_moment_provider(mdp)(states[-5:], U[-5:])
    _tabulate(mdp)
    assert rows_calls == [7, 5, len(U)] and seen == rows_calls


# ---------------------------------------------------------------------------
# moment classes
# ---------------------------------------------------------------------------

def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_moment_classes_contract(problem, moment_classes):
    """Codes are int64, one per pair, and pairs sharing one have bit-equal moments."""
    mdp = problem.mdp
    U = mdp.action_table()[0]
    states = mdp.pair_states()
    codes = moment_classes(states, U)
    assert codes.dtype == np.int64 and codes.shape == (len(U),)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    mu, s2 = problem.moments_batch(states, U)
    assert np.array_equal(_bits(mu), _bits(mu[first][inverse]))
    assert np.array_equal(_bits(s2), _bits(s2[first][inverse]))
    return len(first)


def _nets_only_classes(model):
    """A broken hook: it leaves out n_busy = min(x + nets, N)."""
    upper = np.asarray(model.mdp.lattice.upper)

    def moment_classes(states, U):
        nets = (np.asarray(U, dtype=np.float64).reshape(-1, len(model.pairs))
                @ model.net.T).astype(np.int64)
        return np.ravel_multi_index(tuple((nets + upper).T), tuple(2 * upper + 1))

    return moment_classes


@pytest.mark.parametrize("name", ["routing2", "routing3_mid"])
def test_routing_moment_classes_contract(name, request):
    model = request.getfixturevalue(name)
    problem = model.problem
    mdp = problem.mdp
    U = mdp.action_table()[0]
    post = mdp.pair_states() + (U @ model.net.T).astype(np.int64)
    assert (post > np.asarray(model.params.N)).any()       # n_busy clamps on some pairs
    n_classes = assert_moment_classes_contract(problem, problem.moment_classes)
    assert n_classes < len(U)
    with pytest.raises(AssertionError):
        assert_moment_classes_contract(problem, _nets_only_classes(model))


@pytest.mark.parametrize("source", ["routing2", "routing3_bench", "random", "one class"])
def test_unique_classes_match_np_unique(source, request):
    if source.startswith("routing"):
        model = request.getfixturevalue(source)
        codes = model.problem.moment_classes(model.mdp.pair_states(), model.mdp.action_table()[0])
    elif source == "random":
        codes = np.random.default_rng(7).integers(-6, 6, size=20_000) * 10**12
    else:
        codes = np.full(50, 3, dtype=np.int64)
    for got, expect in zip(_unique_classes(codes),
                           np.unique(codes, return_index=True, return_inverse=True)):
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert np.array_equal(got, expect)


# ---------------------------------------------------------------------------
# Value extension
# ---------------------------------------------------------------------------

def _extension_planes(grid):
    """Per axis, the planes the extension interpolates over and their slice."""
    keep = [slice(1, -1) if len(ax) >= 4 else slice(None) for ax in grid.axes]
    return [ax[k].astype(np.float64) for ax, k in zip(grid.axes, keep)], tuple(keep)


def _single_order_extension(coarse_values, grid, points):
    """The multilinear pass with v * ((w0 * w1) * ...) in every dimension."""
    axes, keep = _extension_planes(grid)
    tensor = np.asarray(coarse_values, dtype=np.float64).reshape(grid.shape)[keep]
    cells, weights = [], []
    for ax, x in zip(axes, points.T):
        j = np.clip(np.searchsorted(ax, x, "right") - 1, 0, len(ax) - 2)
        y = (x - ax[j]) / (ax[j + 1] - ax[j])
        cells.append(j)
        weights.append((1.0 - y, y))
    value = 0.0
    for corner in itertools.product((0, 1), repeat=len(axes)):
        v = tensor[tuple(j + c for j, c in zip(cells, corner))]
        value = value + v * math.prod(wt[c] for wt, c in zip(weights, corner))
    return value


def _extension_cases(d):
    """(grid, box) per h = 1..5: 3-point axes that keep their ends, uneven last
    cells, longer axes cut to their interior planes, a box h past both ends."""
    for h in range(1, 6):
        for upper in [(h + 1,) * d, (2 * h,) * d, tuple(h + 1 + i * (2 * h + 1) for i in range(d))]:
            lattice = tdp.StateLattice((0,) * d, upper)
            grid = CoarseGrid.from_lattice(lattice, h)
            padded = tdp.StateLattice((-h,) * d, tuple(u + h for u in upper))
            yield h, grid, padded


@pytest.mark.parametrize("d", [1, 2, 3])
def test_value_extension_matches_regular_grid_interpolator(d):
    rng = np.random.default_rng(d)
    single_order_agrees = True
    for h, grid, padded in _extension_cases(d):
        values = rng.standard_normal(grid.n_points) * 1e3
        axes, keep = _extension_planes(grid)
        rgi = RegularGridInterpolator(axes, values.reshape(grid.shape)[keep], method="linear",
                                      bounds_error=False, fill_value=None)
        points = padded.states().astype(np.float64)
        expected = rgi(points)
        box = _extension_box(values, grid, padded.lower, padded.upper)
        assert box.shape == padded.shape
        assert np.array_equal(box.ravel(), expected), h
        single_order_agrees &= np.array_equal(
            _single_order_extension(values, grid, points), expected)
    # scipy rounds 2-D corner terms as (v * w0) * w1, every other dimension alike
    assert single_order_agrees == (d != 2)


@pytest.mark.parametrize("axes", [(np.array([0]), np.array([0, 2, 4])), (np.array([0, 2, 1]),)],
                         ids=["one_point", "unsorted"])
def test_value_extension_rejects_degenerate_axes(axes):
    # the grid checks its axes once, when it is built
    with pytest.raises(ValueError, match="grid axis 0 needs 2 or more strictly ascending"):
        CoarseGrid(axes)


# ---------------------------------------------------------------------------
# Taylored greedy
# ---------------------------------------------------------------------------

def _greedy_pair(problem, h, scheme="inflate"):
    chain = tdp.build_multidim_chain(problem, h, scheme=scheme)
    pi = tdp.policy_iteration(chain)
    fast = tdp.tapi.taylored_greedy_policy(chain, pi.values)
    return fast, per_state_taylored_greedy(problem, chain, pi.values, scheme)


@pytest.mark.parametrize("h", [1, 2, 4])
def test_taylored_greedy_matches_per_state_loop_routing2(routing2, h):
    fast, ref = _greedy_pair(routing2.problem, h)
    assert fast.dtype == np.int64
    assert np.array_equal(fast, ref)


GREEDY_CASES = [("routing3_smoke", 2, "inflate"), ("routing3_bench", 4, "inflate"),
                ("service_quadratic", 1, "inflate"), ("service_quadratic", 2, "inflate"),
                ("inventory_model", 1, "inflate"), ("inventory_model", 3, "inflate"),
                ("routing2", 2, "upwind"), ("routing3_smoke", 2, "upwind"),
                ("routing2_a0999", 2, "inflate"), ("service_quartic", 1, "inflate"),
                ("service_quartic", 2, "upwind")]


@pytest.mark.parametrize("name,h,scheme", GREEDY_CASES,
                         ids=[f"{n}-{h}" + ("" if s == "inflate" else f"-{s}")
                              for n, h, s in GREEDY_CASES])
def test_taylored_greedy_matches_per_state_loop(name, h, scheme, request):
    fast, ref = _greedy_pair(request.getfixturevalue(name).problem, h, scheme)
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("scheme", ["inflate", "upwind"])
@pytest.mark.parametrize("name,c", [("routing2", (3.0, -2.0)), ("service_quadratic", (-3.0,))])
def test_taylored_greedy_on_linear_values_maximizes_reward_plus_drift(name, c, scheme, request):
    # the extension is exact on V = c.x and the stencil keeps the first
    # moment, so every value step is c.(h e) and the score is r + alpha c.mu_u(x);
    # these slopes make the greedy pick 11 distinct routing actions and 2 service rates
    problem = request.getfixturevalue(name).problem
    mdp = problem.mdp
    chain = tdp.build_multidim_chain(problem, 2, scheme=scheme)
    c = np.asarray(c)
    policy = tdp.tapi.taylored_greedy_policy(chain, chain.grid.points() @ c)
    U, offsets = mdp.action_table()
    states = mdp.pair_states()
    mu = problem.moments_batch(states, U)[0]
    score = mdp.rewards(states, U) + mdp.discount * (mu @ c)
    best = np.maximum.reduceat(score, offsets[:-1])
    chosen = score[offsets[:-1] + policy]
    assert np.all(chosen >= best - 1e-9 * (1.0 + np.abs(best)))


def test_taylored_greedy_refuses_a_nan_coarse_value(service_quadratic):
    # grid point 5 (x = 10) spreads NaN over the extension at x = 8..11,
    # which state 6 first reaches, at its stencil target 8
    chain = tdp.build_multidim_chain(service_quadratic.problem, 2)
    values = tdp.policy_iteration(chain).values
    values[5] = np.nan
    with pytest.raises(ValueError, match="^score is NaN at state 6$"):
        tdp.tapi.taylored_greedy_policy(chain, values)


def test_taylored_greedy_one_moments_call_per_class(routing3_smoke, monkeypatch):
    problem = routing3_smoke.problem
    chain = tdp.build_multidim_chain(problem, 2)
    values = tdp.policy_iteration(chain).values
    rows = []
    inner = problem.moments_batch

    def counted(states, actions):
        rows.append(len(actions))
        return inner(states, actions)

    monkeypatch.setattr(problem, "moments_batch", counted)
    tdp.tapi.taylored_greedy_policy(chain, values)
    mdp = problem.mdp
    codes = problem.moment_classes(mdp.pair_states(), mdp.action_table()[0])
    assert rows == [len(np.unique(codes))]


@pytest.mark.parametrize("name,h", [("routing3_bench", 4), ("routing2", 2),
                                    ("service_quadratic", 1)])
def test_taylored_greedy_scores_do_not_depend_on_block_size(name, h, request, monkeypatch):
    problem = request.getfixturevalue(name).problem
    chain = tdp.build_multidim_chain(problem, h)
    values = tdp.policy_iteration(chain).values
    offsets = problem.mdp.action_table()[1]
    width = 2 * problem.mdp.lattice.dim ** 2           # stencil directions: faces and corners
    scores = []

    def recorded(q, segments):
        scores.append(q.copy())
        return exact.segmented_argmax(q, segments)

    monkeypatch.setattr(tdp.tapi, "segmented_argmax", recorded)
    # one state a block, a few states a block, the whole table in one block
    n_blocks = []
    for pairs in (1, 3 * np.diff(offsets).max(), offsets[-1]):
        monkeypatch.setattr(tdp.lattice, "BLOCK", int(pairs) * width)
        n_blocks.append(len(tdp.lattice.state_blocks(offsets, width)))
        tdp.tapi.taylored_greedy_policy(chain, values)
    assert n_blocks[0] == problem.mdp.n_states and n_blocks[1] > 1 and n_blocks[2] == 1
    assert all(np.array_equal(q, scores[0]) for q in scores[1:])


def test_taylored_greedy_memory_stays_below_one_pair_array(routing3_bench):
    # the pairs are scored in blocks of states, so the tracemalloc peak stays
    # below one (pairs x directions) float64 array, 2.0 MiB on the 2,197-state
    # 3-pool cell (14,461 pairs, 18 directions): 1.7 MiB in blocks, 5.4 MiB
    # when every pair was scored at once
    problem = routing3_bench.problem
    mdp = problem.mdp
    chain = tdp.build_multidim_chain(problem, 4)
    values = tdp.policy_iteration(chain).values
    get_assembly(mdp)
    tracemalloc.start()
    try:
        tdp.tapi.taylored_greedy_policy(chain, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(mdp.action_table()[0]) * 2 * mdp.lattice.dim ** 2 * 8


# ---------------------------------------------------------------------------
# K-D chain build and TCP-equivalence check
# ---------------------------------------------------------------------------

def _fot(model):
    """The model's problem with first-order boundary rows driven by its fot_drift."""
    return model.fot_boundary_problem()


def _inward_drift_2d(model):
    """A 2-D first-order drift: +1 on axes at their lower face, -1 at their upper face."""
    upper = np.asarray(model.mdp.lattice.upper)
    return lambda states: np.where(states == 0, 1.0, np.where(states == upper, -1.0, 0.0))


def _fot_2d(model):
    """The model's problem with first-order boundary rows driven by _inward_drift_2d."""
    return TaylorProblem(model.mdp, model.problem.moments_batch,
                         fot_drift=_inward_drift_2d(model))


CHAIN_CASES = [
    ("service_quadratic", None, (1, 2, 3)),     # h = 3 leaves a last cell of width 1
    ("service_quadratic", _fot, (1, 2, 3)),
    ("inventory_model", None, (1, 3)),
    ("heavy_queue", None, (4,)),
    ("routing2", None, (1, 2, 4)),
    ("routing3_bench", None, (2, 4)),
    pytest.param("routing3_paper", None, (4,), marks=pytest.mark.slow),
    ("inventory_model", _fot, (1, 3)),
    ("routing2", _fot_2d, (1, 2)),   # also the inward base of the first-non-inward cases
]


def _assert_same_chain(fast, ref):
    a, b = fast.assembly(), ref.assembly()
    for name in ("offsets", "row_ptr", "col_idx", "probs", "rewards", "discounts"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for name in ("fine_state", "Q", "interior_mask", "second_moment_slack", "cross_scale"):
        x, y = getattr(fast, name), getattr(ref, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert (fast.problem, fast.h, fast.scheme) == (ref.problem, ref.h, ref.scheme)
    assert fast.actions.dtype == ref.actions.dtype and np.array_equal(fast.actions, ref.actions)
    assert [fast.actions_at(i) for i in range(fast.n_states)] == \
        [ref.actions_at(i) for i in range(ref.n_states)]


def _assert_same_report(rep, ref):
    errs, checked, worst = ref
    got = (rep.max_first_moment_err, rep.max_cross_moment_err, rep.max_diag_moment_err,
           rep.max_reward_err)
    assert np.allclose(got, errs, rtol=0.0, atol=1e-15)
    assert rep.checked_pairs == checked
    assert [w[:3] for w in rep.worst] == [w[:3] for w in worst]
    assert np.allclose([w[3] for w in rep.worst], [w[3] for w in worst], rtol=1e-12)


@pytest.mark.parametrize("name,variant,hs", CHAIN_CASES)
def test_chain_matches_per_point_build(name, variant, hs, request):
    model = request.getfixturevalue(name)
    problem = variant(model) if variant else model.problem
    for h in hs:
        for scheme in ("inflate", "upwind"):
            chain = tdp.build_multidim_chain(problem, h, scheme=scheme)
            _assert_same_chain(chain, per_point_chain(problem, h, scheme))
            rep = verify_tcp_equivalence(chain, problem)
            assert rep.passed
            _assert_same_report(rep, per_point_verify(chain, problem))
            interior = np.repeat(chain.interior_mask, np.diff(chain.assembly().offsets))
            assert rep.clipped_pairs == int((chain.cross_scale[interior] < 1.0).sum())
            assert rep.inflated_pairs == int(
                (chain.second_moment_slack[interior] > 0.0).any(axis=1).sum())


@pytest.mark.parametrize("name", ["service_quadratic", "routing2"])
def test_verifier_matches_per_point_check_on_corrupted_rows(name, request):
    problem = request.getfixturevalue(name).problem
    chain = tdp.build_multidim_chain(problem, 2)
    asm = chain.assembly()
    for idx in np.flatnonzero(chain.interior_mask)[3::5][:12]:
        lo = asm.row_ptr[asm.offsets[idx]]
        asm.probs[lo] += 0.01
        asm.probs[lo + 1] -= 0.01
    asm.rewards[asm.offsets[np.flatnonzero(chain.interior_mask)[5]]] += 1.0
    rep = verify_tcp_equivalence(chain, problem)
    assert not rep.passed and len(rep.worst) == 10
    _assert_same_report(rep, per_point_verify(chain, problem))


def _outward_past(model, axis, start):
    """First-order boundary rows whose drift turns outward on the lower face of axis from start on."""
    drift = _inward_drift_2d(model)

    def fot_drift(states):
        out = drift(states)
        flip = (states[:, axis] == 0) & (states[:, 1 - axis] >= start)
        out[flip, axis] = -out[flip, axis]
        return out

    return TaylorProblem(model.mdp, model.problem.moments_batch, fot_drift=fot_drift)


def _nan_drift_at(model, bad_state):
    """First-order boundary rows whose drift is NaN at bad_state: its weight sum is 0."""
    drift = model.fot_boundary_problem().fot_drift

    def fot_drift(states):
        out = np.array(drift(states), dtype=np.float64)
        out[(states == bad_state).all(axis=1)] = math.nan
        return out

    return TaylorProblem(model.mdp, model.problem.moments_batch, fot_drift=fot_drift)


def _drift_plus(model, shift):
    """First-order boundary rows whose 2-D drift is shifted by a constant on every axis."""
    drift = _inward_drift_2d(model)
    return TaylorProblem(model.mdp, model.problem.moments_batch,
                         fot_drift=lambda states: drift(states) + shift)


@pytest.mark.parametrize("name,make,first_bad", [
    ("routing2", lambda m: _outward_past(m, 1, 10), (10, 0)),
    ("routing2", lambda m: _outward_past(m, 0, 3), (0, 4)),
    ("service_quadratic", lambda m: _nan_drift_at(m, (100,)), (100,)),
    ("routing2", lambda m: _drift_plus(m, 0.5), (0, 2)),    # nonzero off the binding axis
])
def test_chain_names_first_non_inward_point(name, make, first_bad, request):
    problem = make(request.getfixturevalue(name))
    for build_chain in (lambda: tdp.build_multidim_chain(problem, 2),
                        lambda: per_point_chain(problem, 2)):
        with pytest.raises(NonInwardEta) as info:
            build_chain()
        assert info.value.state == first_bad


def stay_mass_packed(p, keep):
    """1 - each row's kept probabilities summed as one packed block per kept count."""
    kept = keep.sum(axis=1)
    packed = np.take_along_axis(p, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    stay = np.empty(len(p))
    for c in np.unique(kept):
        rows = kept == c
        stay[rows] = 1.0 - packed[rows, :c].sum(axis=1)
    return stay


@pytest.mark.parametrize("width", [2, 8, 18])
def test_stay_mass_matches_packed_sums(width):
    rng = np.random.default_rng(width)
    p = rng.random((3000, width)) * 10.0 ** rng.uniform(-17.0, 0.0, (3000, width))
    p /= 1.5 * p.sum(axis=1, keepdims=True)
    keep = rng.random((3000, width)) < rng.uniform(0.0, 1.0, (3000, 1))
    assert set(keep.sum(axis=1).tolist()) == set(range(width + 1))
    assert _bits(_stay_mass(p, keep)).tolist() == _bits(stay_mass_packed(p, keep)).tolist()


# ---------------------------------------------------------------------------
# ellipticity, policy validation, max-overflow heuristic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["routing2", "routing3_smoke", "service_quadratic",
                                  "inventory_model"])
def test_ellipticity_matches_per_state_scan(name, request):
    problem = request.getfixturevalue(name).problem
    rep = ellipticity_check(problem)
    lam_min, lam_max, (state, action) = per_state_ellipticity(problem)
    assert (rep.lambda_min, rep.lambda_max) == (lam_min, lam_max)
    assert rep.argmin_state == state and rep.argmin_action == action


def test_validate_policy_reports_first_offending_state(routing2):
    mdp = routing2.mdp
    counts = np.diff(mdp.action_table()[1])
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    mdp.validate_policy(policy)
    multi = np.flatnonzero(counts > 1)
    policy[multi[-1]] = counts[multi[-1]]              # one past the last action
    policy[multi[3]] = -1
    with pytest.raises(InfeasibleAction) as err:
        mdp.validate_policy(policy)
    assert err.value.state == mdp.lattice.state(multi[3]) and err.value.action == -1


def test_validate_policy_single_action_lattice():
    lat = StateLattice((0,), (2,))
    mdp = LatticeMdp(lat, ExplicitActionSet((0,)),
                     *pair_hooks(lambda s, u: ([0], [1.0]), lambda s, u: 0.0), 0.9)
    with pytest.raises(InfeasibleAction) as err:
        mdp.validate_policy(np.array([0, 1, 1]))
    assert err.value.state == (1,)


def test_max_overflow_heuristic_matches_per_state_argmax(routing2, routing3_smoke):
    for model in (routing2, routing3_smoke):
        mdp = model.mdp
        ref = [int(np.argmax([np.sum(u) for u in mdp.actions_at(i)]))
               for i in range(mdp.n_states)]
        policy, _, _ = _policy_for(ExperimentConfig(mode="heuristic-max-overflow"), model)
        assert policy.tolist() == ref


def test_action_table_built_lazily_once():
    model = build("service_rate", M=20, alpha=0.9)
    assert model.mdp._table is None
    table = model.mdp.action_table()
    model.mdp.actions_at(4)
    assert model.mdp.action_table() is table


# ---------------------------------------------------------------------------
# policies between the K-D chain and the fine lattice
# ---------------------------------------------------------------------------

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


def per_state_disaggregate_policy(chain, coarse_policy, mdp, fine_value):
    """Chain actions as tuples, then one project_action call per fine state."""
    grid = chain.grid
    lattice = mdp.lattice
    coarse_actions = [chain.actions_at(i)[int(coarse_policy[i])] for i in range(chain.n_states)]
    grid_state = lattice.indices_of(grid.points())
    for gi in np.flatnonzero(~chain.interior_mask):
        si = int(grid_state[gi])
        acts = mdp.actions_at(si)
        q = np.empty(len(acts))
        for a in range(len(acts)):
            targets, probs = one_row(mdp, lattice.state(si), acts[a])
            reward = one_reward(mdp, lattice.state(si), acts[a])
            q[a] = reward + mdp.discount * float(probs @ fine_value[targets])
        coarse_actions[gi] = acts[int(np.flatnonzero(q >= q.max() - 1e-12)[0])]
    interior_grid = CoarseGrid(tuple(ax[1:-1] if len(ax) >= 3 else ax for ax in grid.axes))
    pos = np.unravel_index(interior_grid.nearest_index(lattice.states()), interior_grid.shape)
    full_pos = tuple(p + (1 if len(ax) >= 3 else 0) for p, ax in zip(pos, grid.axes))
    source = np.ravel_multi_index(full_pos, grid.shape)
    source[grid_state] = np.arange(chain.n_states)
    policy = np.empty(lattice.n_states, dtype=np.int64)
    for si, gi in enumerate(source.tolist()):
        policy[si] = project_action(coarse_actions[gi], mdp.actions_at(si))
    return policy


def per_point_restriction(chain, mdp, fine_policy):
    """The fine action at each grid point, projected onto the chain's actions."""
    grid_state = mdp.lattice.indices_of(chain.grid.points())
    coarse = np.zeros(chain.n_states, dtype=np.int64)
    for g in range(chain.n_states):
        acts = chain.actions_at(g)
        if len(acts) == 1:
            continue
        si = int(grid_state[g])
        coarse[g] = project_action(mdp.actions_at(si)[int(fine_policy[si])], list(acts))
    return coarse


# (fixture, boundary variant, h); each chain is checked under three coarse policies
POLICY_MOVE_CASES = [
    ("routing3_bench", None, 2), ("routing3_bench", None, 4),
    ("routing2", None, 1), ("routing2", None, 2), ("routing2", None, 4),
    ("service_quadratic", None, 1), ("service_quadratic", None, 2),
    ("inventory_model", None, 1), ("inventory_model", None, 3),
]


def _coarse_policies(chain):
    """The chain-PI optimum, all zeros and a seeded random feasible policy."""
    counts = np.diff(chain.assembly().offsets)
    rng = np.random.default_rng(7)
    return {"optimal": tdp.policy_iteration(chain).policy,
            "zeros": np.zeros(chain.n_states, dtype=np.int64),
            "random": rng.integers(0, counts)}


@pytest.mark.parametrize("name,variant,h", POLICY_MOVE_CASES
                         + [("service_quadratic", _fot, 2)])
def test_policy_moves_match_per_state_projection(name, variant, h, request):
    model = request.getfixturevalue(name)
    problem = variant(model) if variant else model.problem
    mdp = problem.mdp
    chain = tdp.build_multidim_chain(problem, h)
    policies = _coarse_policies(chain)
    if variant:                   # the boundary case: the optimum only
        policies = {"optimal": policies["optimal"]}
    for label, coarse in policies.items():
        values = tdp.policy_evaluation(chain, coarse)
        fine_v = tdp.disaggregate_value(values, chain.grid, mdp.lattice)
        fast = tdp.disaggregate_policy(chain, coarse, fine_v)
        assert fast.dtype == np.int64
        ref = per_state_disaggregate_policy(chain, coarse, mdp, fine_v)
        assert np.array_equal(fast, ref), label
        # restriction of the fine greedy (what the exact-improvement loop feeds
        # back) and of the extension itself
        for fine in (tdp.policy_improvement(mdp, fine_v), fast):
            assert np.array_equal(_restrict_policy(chain, fine),
                                  per_point_restriction(chain, mdp, fine)), label


# ---------------------------------------------------------------------------
# solver paths: factored matvec, evaluation system, row sums
# ---------------------------------------------------------------------------

def tensordot_matvec(model, values):
    """The routing expectation as one np.tensordot and np.moveaxis per pool."""
    t = values.reshape(model.mdp.lattice.shape)
    for axis, K in enumerate(model.K):
        t = np.moveaxis(np.tensordot(K, t, axes=(1, axis)), 0, axis)
    return t.ravel()


@pytest.mark.parametrize("name", ["routing2", "routing3_smoke", "routing3_bench",
                                  pytest.param("routing3_paper", marks=pytest.mark.slow)])
def test_planned_matvec_matches_tensordot(name, request):
    model = request.getfixturevalue(name)
    apply = get_assembly(model.mdp).apply_expectation
    rng = np.random.default_rng(11)
    n = model.mdp.n_states
    for _ in range(4):
        values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 4.0, n)
        assert _bits(apply(values)).tolist() == _bits(tensordot_matvec(model, values)).tolist()


def eye_minus_system(op, disc):
    """I - diag(disc) P as scipy's sparse algebra builds it."""
    return (sp.eye(op.shape[0], format="csr") - sp.diags(disc) @ op).tocsc()


def policy_rows(asm, policy):
    """P^U: the policy pairs' rows of the assembly's (n_pairs, n_states) CSR matrix."""
    pairs_p = sp.csr_matrix((asm.probs, asm.col_idx, asm.row_ptr),
                            shape=(asm.n_pairs, asm.n_states))
    return pairs_p[policy_pairs(asm.offsets, policy)]


def expanded_band(asm, policy):
    """The dense matrix _evaluation_band's band stores, and the band with its kl and ku."""
    n = asm.n_states
    band, kl, ku = _evaluation_band(n, *_evaluation_rows(asm, policy_pairs(asm.offsets, policy)))
    i, j = np.indices((n, n))
    inside = (i - j <= kl) & (j - i <= ku)
    dense = np.zeros((n, n))
    dense[inside] = band[(kl + ku + i - j)[inside], j[inside]]
    return dense, band, kl, ku


def assert_same_system(asm, policy):
    # entry for entry: a zero scipy drops is a zero of the band
    dense, band, kl, ku = expanded_band(asm, policy)
    ref = eye_minus_system(policy_rows(asm, policy), asm.discounts).toarray()
    assert np.array_equal(dense, ref)
    assert band.shape == (2 * kl + ku + 1, asm.n_states) and band.flags.f_contiguous
    assert not band[:kl].any()                      # the room the factorization fills


@pytest.mark.parametrize("name,variant,h", POLICY_MOVE_CASES)
def test_evaluation_system_matches_scipy_on_chains(name, variant, h, request):
    chain = tdp.build_multidim_chain(request.getfixturevalue(name).problem, h)
    asm = chain.assembly()
    for policy in _coarse_policies(chain).values():
        assert_same_system(asm, policy)


@pytest.mark.parametrize("name", ["service_quadratic", "inventory_model", "heavy_queue"])
def test_evaluation_system_matches_scipy_on_tabular_models(name, request):
    mdp = request.getfixturevalue(name).mdp
    asm = get_assembly(mdp)
    counts = np.diff(asm.offsets)
    policies = [np.zeros(mdp.n_states, dtype=np.int64),
                np.random.default_rng(3).integers(0, counts),
                tdp.policy_iteration(mdp).policy]
    for policy in policies:
        assert_same_system(asm, policy)


def test_evaluation_system_sums_duplicates_and_drops_zeros():
    # no model stores a column twice in a row: duplicates summed in stored
    # order, sums and differences that cancel to zero, zero entries; each
    # state has one action, whose row is the given row
    def one_action_rows(indptr, indices, data, disc):
        n = len(disc)
        return TabularAssembly(np.arange(n + 1), np.zeros(n), indptr, indices, data, disc)

    indptr = [0, 4, 7, 8, 11]
    indices = [1, 0, 1, 1, 1, 0, 0, 2, 0, 3, 0]
    data = [0.1, 0.3, 0.2, 0.4, 1.0, 0.25, -0.25, 0.0, 1e-17, 0.5, 0.3]
    asm = one_action_rows(indptr, indices, data, np.array([0.9, 1.0, 0.5, 0.7]))
    assert_same_system(asm, np.zeros(4, dtype=np.int64))
    rng = np.random.default_rng(4)
    for n in (1, 5, 40):
        lens = rng.integers(0, 9, n)
        indptr = np.concatenate([[0], np.cumsum(lens)])
        indices = rng.integers(0, min(n, 4), indptr[-1])          # many duplicates
        data = rng.choice([0.0, 0.1, 0.3, -0.3, 1.0, 1 / 3], indptr[-1])
        asm = one_action_rows(indptr, indices, data, rng.choice([0.0, 0.5, 0.99, 1.0], n))
        assert_same_system(asm, np.zeros(n, dtype=np.int64))


def assert_banded_values_match_dense_solve(mdp, policy):
    asm = get_assembly(mdp)
    system = np.eye(asm.n_states) - asm.discounts[:, None] * policy_rows(asm, policy).toarray()
    r_u = asm.rewards[policy_pairs(asm.offsets, policy)]
    dense = np.linalg.solve(system, r_u)
    values = tdp.policy_evaluation(mdp, policy)
    assert np.abs(values - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("name,variant,h", POLICY_MOVE_CASES)
def test_banded_values_match_dense_solve_on_chains(name, variant, h, request):
    # 1-D (service rate), 2-D (2-pool) and 3-D (3-pool) chains and the inventory chain
    chain = tdp.build_multidim_chain(request.getfixturevalue(name).problem, h)
    for policy in _coarse_policies(chain).values():
        assert_banded_values_match_dense_solve(chain, policy)


@pytest.mark.parametrize("name", ["service_quadratic", "inventory_model", "heavy_queue"])
def test_banded_values_match_dense_solve_on_tabular_models(name, request):
    mdp = request.getfixturevalue(name).mdp
    counts = np.diff(get_assembly(mdp).offsets)
    for policy in (np.zeros(mdp.n_states, dtype=np.int64),
                   np.random.default_rng(3).integers(0, counts),
                   tdp.policy_iteration(mdp).policy):
        assert_banded_values_match_dense_solve(mdp, policy)


def bracketed_loop(r_u, matvec, disc, warm_start=None):
    """The bracketed evaluation forming each iterate as r_u + alpha * matvec(v)."""
    alpha = float(disc[0])
    scale = alpha / (1.0 - alpha)
    v = np.zeros_like(r_u) if warm_start is None else np.array(warm_start, dtype=np.float64)
    for _ in range(exact.VI_MAX_ITERATIONS):
        v_next = r_u + alpha * matvec(v)
        d = v_next - v
        lo, hi = d.min(), d.max()
        if 0.5 * scale * (hi - lo) <= exact.ITERATIVE_TOL * (1.0 + np.abs(v_next).max()):
            return v_next + 0.5 * scale * (hi + lo)
        v = v_next
    raise MaxIterationsExceeded(exact.VI_MAX_ITERATIONS, "policy evaluation (iterative)")


@pytest.mark.parametrize("name", ["routing2", "routing3_bench"])
def test_bracketed_iteration_matches_loop(name, request):
    mdp = request.getfixturevalue(name).mdp
    asm = get_assembly(mdp)
    optimal = tdp.policy_iteration(mdp)
    for policy in (np.zeros(mdp.n_states, dtype=np.int64), optimal.policy):
        pairs = policy_pairs(asm.offsets, policy)
        r_u, post = asm.rewards[pairs], asm.post_idx[pairs]

        def matvec(v):
            return asm.apply_expectation(v)[post]

        for warm in (None, optimal.values):
            got = tdp.policy_evaluation(mdp, policy, warm_start=warm)
            want = bracketed_loop(r_u, matvec, asm.discounts, warm_start=warm)
            assert _bits(got).tolist() == _bits(want).tolist()


def _edge_rows(base):
    """base plus one last entry that puts the row's fsum 0..4 ulps either side of 1 +- PROB_TOL."""
    rest = 1.0 - math.fsum(base.tolist())
    for sign in (1.0, -1.0):
        for k in range(-4, 5):
            last = rest + sign * PROB_TOL
            for _ in range(abs(k)):
                last = np.nextafter(last, math.copysign(math.inf, k))
            yield np.append(base, last)


def _straddle_rows():
    """Rows of 4,000..5,000 entries summing to 1 and 1 +- 1e-13: the stored-order
    rounding bound len * eps * sum|p| crosses PROB_TOL - |s - 1| in this range."""
    rng = np.random.default_rng(7)
    for n in (4_000, 4_250, 4_500, 4_750, 5_000):
        base = rng.random(n - 1)
        base *= 0.5 / base.sum()
        rest = 1.0 - math.fsum(base.tolist())
        for off in (0.0, 1e-13, -1e-13):
            yield np.append(base, rest + off)


def _count_fsum(monkeypatch, fn, *args):
    """fn(*args) and the number of math.fsum calls it made."""
    calls, fsum = [], math.fsum
    with monkeypatch.context() as m:
        m.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
        return fn(*args), len(calls)


def test_row_sums_match_fsum(monkeypatch):
    long = np.random.default_rng(6).random(15_624)
    straddle = list(_straddle_rows())
    rows = [*_edge_rows(np.array([0.25, 0.25])), *_edge_rows(0.5 * long / long.sum()),
            np.array([math.nan, 1.0]), np.array([math.nan, math.nan]), np.array([]),
            np.full(15_625, 1 / 15_625), *straddle]
    fsums = np.array([math.fsum(r.tolist()) for r in rows])
    expected = np.abs(fsums - 1.0) <= PROB_TOL
    for edge in expected[:36].reshape(4, 9):     # each sweep crosses the edge
        assert edge.any() and not edge.all()
    row_ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    sums, near_one = row_sums(np.concatenate(rows), row_ptr)
    assert near_one.tolist() == expected.tolist()
    assert _bits(sums[~near_one]).tolist() == _bits(fsums[~near_one]).tolist()
    for row, fsum, ok in zip(rows, fsums, expected):     # one row at a time
        one_sum, one_ok = row_sums(row, np.array([0, len(row)]))
        assert one_ok.tolist() == [ok] and (ok or _bits(one_sum).tolist() == _bits(fsum).tolist())
    # every straddling row is near one; the shorter ones pass without fsum, the longer not
    (_, near_one), calls = _count_fsum(monkeypatch, row_sums, np.concatenate(straddle),
                                       np.cumsum([0] + [len(r) for r in straddle]))
    assert near_one.all() and 0 < calls < len(straddle)


@pytest.mark.parametrize("name", ["service_quadratic", "quartic_fixed", "inventory_model",
                                  "heavy_queue", "routing2", "routing3_bench"])
def test_shipped_rows_pass_without_fsum(name, request, monkeypatch):
    # every tabular row, and 60 sampled routing rows (up to 441 and 2,197 entries),
    # clears the stored-order bound: row_sums itself calls math.fsum on none
    mdp = request.getfixturevalue(name).mdp
    U, states = mdp.action_table()[0], mdp.pair_states()
    if name.startswith("routing"):
        pick = np.sort(np.random.default_rng(8).choice(len(U), 60, replace=False))
        U, states = U[pick], states[pick]
    row_ptr, _, probs = mdp.kernel(states, U)
    (_, near_one), calls = _count_fsum(monkeypatch, row_sums, probs, row_ptr)
    assert near_one.all() and calls == 0


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return "" if np.isnan(x) else repr(float(x))
    return str(x)


def per_row_value_policy_csv(path, mdp, values, policy):
    first = np.atleast_1d(np.asarray(mdp.actions_at(0)[policy[0]], dtype=np.float64))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state_index"] + [f"coord_{i + 1}" for i in range(mdp.lattice.dim)]
                        + ["value"] + [f"action_{j + 1}" for j in range(first.size)])
        for i in range(mdp.n_states):
            act = np.atleast_1d(np.asarray(mdp.actions_at(i)[policy[i]], dtype=np.float64))
            writer.writerow([i] + [_fmt(c) for c in mdp.lattice.state(i)]
                            + [_fmt(float(values[i]))] + [_fmt(a) for a in act])


def per_row_gap_csv(path, v_star, v_candidate, report, remainder=None,
                    accumulation=None, proxy=None, corner_mask=None):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "V_star", "V_candidate", "abs_gap", "rel_gap",
                         "remainder", "accumulation", "proxy", "corner_flag"])
        for i in range(len(v_star)):
            writer.writerow([
                i, _fmt(float(v_star[i])), _fmt(float(v_candidate[i])),
                _fmt(float(report.abs_gap[i])), _fmt(float(report.rel_gap[i])),
                *(_fmt(None if c is None else float(c[i]))
                  for c in (remainder, accumulation, proxy)),
                "" if corner_mask is None else int(bool(corner_mask[i]))])


def per_row_moments_csv(path, problem):
    mdp = problem.mdp
    d = mdp.lattice.dim
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "action"] + [f"mu_{i + 1}" for i in range(d)]
                        + [f"sigma2_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
                        + ["eig_min", "eig_max"])
        states = mdp.lattice.states()
        for s in range(mdp.n_states):
            for u in mdp.actions_at(s):
                mu, s2 = problem.moments_batch(states[s:s + 1], np.asarray([u]))
                eig = np.linalg.eigvalsh(s2[0])
                row = [*mu[0], *s2[0].ravel(), eig[0], eig[-1]]
                writer.writerow([s, _fmt(u)] + [_fmt(float(v)) for v in row])


@pytest.mark.parametrize("name", ["service_quadratic", "inventory_model", "heavy_queue",
                                  "routing2", "routing3_smoke"])
def test_csv_writers_match_per_row_writers(name, request, tmp_path):
    """The columnar writers give the per-row writers' bytes, NaN and absent columns included."""
    from taylordp.report import write_gap_csv, write_moments_csv, write_value_policy_csv
    model = request.getfixturevalue(name)
    mdp = model.mdp
    rng = np.random.default_rng(7)
    n = mdp.n_states
    values = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n)
    values[n // 2] = math.nan
    policy = rng.integers(0, np.diff(mdp.action_table()[1]))
    v_star = rng.normal(size=n)
    v_star[1] = 0.0                    # a blank rel_gap
    report = tdp.gap_report(values, v_star)
    extras = [{}, {"corner_mask": rng.random(n) < 0.3},
              {"remainder": rng.normal(size=n), "accumulation": rng.random(n),
               "proxy": values[::-1], "corner_mask": np.zeros(n, dtype=bool)}]
    cases = [(write_value_policy_csv, per_row_value_policy_csv, (mdp, values, policy), {}),
             (write_moments_csv, per_row_moments_csv, (model.problem,), {}),
             *((write_gap_csv, per_row_gap_csv, (v_star, values, report), kw) for kw in extras)]
    for write, reference, args, kw in cases:
        write(tmp_path / "got.csv", *args, **kw)
        reference(tmp_path / "want.csv", *args, **kw)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
