"""The whole-lattice array passes against per-state reference loops.

Action tables, the routing factored arrays, the Taylored greedy, the
ellipticity scan, policy validation and the max-overflow heuristic are each
computed once over every (state, action) pair.  The reference functions
below are the per-state loops they replaced, kept here only as oracles;
every comparison is exact.
"""

import numpy as np
import pytest

import taylordp as tdp
from taylordp.cli import _policy_for
from taylordp.config import ExperimentConfig
from taylordp.errors import EmptyActionSet, InfeasibleAction
from taylordp.exact import get_assembly
from taylordp.kdchain import _stencil_rates
from taylordp.lattice import ExplicitActionSet, LatticeMdp, StateLattice, TransitionRow
from taylordp.models import build
from taylordp.models.routing import RoutingParams, build_routing
from taylordp.tapi import _extension_interpolator, _offset_columns, _stencil_offsets
from taylordp.taylor import ellipticity_check


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


def per_pair_factored(model):
    """offsets, rewards, post_idx from one cost/post-state evaluation per pair."""
    params, mdp = model.params, model.mdp
    lattice = mdp.lattice
    N = np.asarray(params.N)
    out_of = np.zeros((params.J, len(model.pairs)))
    for k, (i, _) in enumerate(model.pairs):
        out_of[i, k] = 1.0
    offsets, rewards, post_idx = [0], [], []
    for i in range(mdp.n_states):
        state = lattice.state(i)
        acts = meshgrid_actions(mdp.actions, state)
        for u in acts:
            x = np.asarray(state, dtype=np.float64)
            uv = np.asarray(u, dtype=np.float64)
            waiting = np.maximum(x - out_of @ uv - N, 0.0)
            rewards.append(-float(np.asarray(params.B) @ uv + np.asarray(params.H) @ waiting))
            post = np.asarray(state) + (model.net @ uv).astype(np.int64)
            post_idx.append(lattice.index(tuple(int(v) for v in post)))
        offsets.append(offsets[-1] + len(acts))
    return np.array(offsets), np.array(rewards), np.array(post_idx)


def per_state_taylored_greedy(problem, chain, coarse_values, scheme="inflate", cross="clip"):
    """One moments/stencil/argmax evaluation per fine state."""
    mdp = problem.mdp
    lattice = mdp.lattice
    alpha = mdp.discount
    grid = chain.grid
    d = lattice.dim
    h = float(max(int(ax[1] - ax[0]) for ax in grid.axes))
    hvec = np.full(d, h)
    states = lattice.states().astype(np.float64)
    probe = _extension_interpolator(coarse_values, grid)
    offs = _stencil_offsets(d, h)
    neighbor_vals = probe((states[:, None, :] + offs[None, :, :]).reshape(-1, d))
    neighbor_vals = neighbor_vals.reshape(len(states), len(offs))
    center_vals = probe(states)
    policy = np.empty(lattice.n_states, dtype=np.int64)
    for si in range(lattice.n_states):
        point = lattice.state(si)
        acts = mdp.actions_at(si)
        mu_b, s2_b = problem.moments_batch(point, acts)
        off, rates, _, _, _ = _stencil_rates(np.atleast_2d(mu_b), s2_b, hvec, hvec, scheme, cross)
        cols = _offset_columns(off, offs)
        tot = rates.sum(axis=1)
        q_max = float(max(tot.max(), 1e-300))
        a_h = 1.0 / (1.0 + (1.0 / alpha - 1.0) / q_max)
        rew = np.array([mdp.reward(point, u) for u in acts], dtype=np.float64)
        expect = (rates / q_max) @ neighbor_vals[si, cols] + (1.0 - tot / q_max) * center_vals[si]
        q = a_h * rew / (alpha * q_max) + a_h * expect
        policy[si] = int(np.flatnonzero(q >= q.max() - 1e-12)[0])
    return policy


def per_state_ellipticity(problem):
    """(lambda_min, lambda_max, argmin state, argmin action), first minimum kept."""
    mdp = problem.mdp
    lam_min, lam_max, arg = np.inf, -np.inf, None
    for i in range(mdp.n_states):
        state = mdp.lattice.state(i)
        acts = mdp.actions_at(i)
        _, s2 = problem.moments_batch(state, acts)
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
    U, offsets = model.mdp.actions.table(states)
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


def test_explicit_table_constant_and_callable():
    states = StateLattice((0,), (3,)).states()
    U, offsets = ExplicitActionSet((0.5, 0.0, 0.5)).table(states)
    assert U.tolist() == [0.0, 0.5] * 4 and offsets.tolist() == [0, 2, 4, 6, 8]
    U, offsets = ExplicitActionSet(lambda s: range(s[0] + 1)).table(states)
    assert U.tolist() == [0, 0, 1, 0, 1, 2, 0, 1, 2, 3]
    assert offsets.tolist() == [0, 1, 3, 6, 10]
    with pytest.raises(EmptyActionSet):
        ExplicitActionSet(lambda s: range(s[0])).table(states)


def test_actions_at_keeps_python_scalars(service_quadratic, inventory_model):
    acts = service_quadratic.mdp.actions_at(3)
    assert acts == service_quadratic.controls
    assert all(type(u) is float for u in acts)
    assert all(type(u) is int for u in inventory_model.mdp.actions_at(0))
    assert inventory_model.mdp.action(0, 4) == 4


# ---------------------------------------------------------------------------
# factored assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["routing2", "routing3_smoke", "routing3_mid"])
def test_routing_factored_arrays_match_per_pair_build(name, request):
    model = request.getfixturevalue(name)
    offsets, rewards, post_idx = per_pair_factored(model)
    asm = model._build_factored()
    assert np.array_equal(asm.offsets, offsets)
    assert np.array_equal(asm.rewards, rewards)
    assert np.array_equal(asm.post_idx, post_idx)


def test_routing_cost_and_post_state_per_pair(routing3_smoke):
    mdp = routing3_smoke.mdp
    asm = get_assembly(mdp)
    for i in range(0, mdp.n_states, 7):
        state = mdp.lattice.state(i)
        for a, u in enumerate(mdp.actions_at(i)):
            pair = asm.offsets[i] + a
            assert -routing3_smoke.cost(state, u) == asm.rewards[pair]
            assert mdp.lattice.index(routing3_smoke.post_state(state, u)) == asm.post_idx[pair]


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
        mu_i, s2_i = problem.moments_batch(mdp.lattice.state(i), mdp.actions_at(i))
        assert np.array_equal(mu[lo:hi], np.atleast_2d(mu_i))
        assert np.array_equal(s2[lo:hi], s2_i)


# ---------------------------------------------------------------------------
# Taylored greedy
# ---------------------------------------------------------------------------

def _greedy_pair(problem, h):
    chain = tdp.build_multidim_chain(problem, h)
    pi = tdp.policy_iteration(chain)
    fast = tdp.tapi.taylored_greedy_policy(problem, chain, pi.values)
    return fast, per_state_taylored_greedy(problem, chain, pi.values)


@pytest.mark.parametrize("h", [1, 2, 4])
def test_taylored_greedy_matches_per_state_loop_routing2(routing2, h):
    fast, ref = _greedy_pair(routing2.problem, h)
    assert fast.dtype == np.int64
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("name,h", [("routing3_smoke", 2), ("service_quadratic", 1),
                                    ("service_quadratic", 2), ("inventory_model", 1),
                                    ("inventory_model", 3)])
def test_taylored_greedy_matches_per_state_loop(name, h, request):
    fast, ref = _greedy_pair(request.getfixturevalue(name).problem, h)
    assert np.array_equal(fast, ref)


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
    mdp = LatticeMdp(lat, ExplicitActionSet((0,)), lambda s, u: TransitionRow([0], [1.0]),
                     lambda s, u: 0.0, 0.9)
    with pytest.raises(InfeasibleAction) as err:
        mdp.validate_policy(np.array([0, 1, 1]))
    assert err.value.state == (1,)


def test_max_overflow_heuristic_matches_per_state_argmax(routing2, routing3_smoke):
    for model in (routing2, routing3_smoke):
        mdp = model.mdp
        ref = [int(np.argmax([np.sum(u) for u in mdp.actions_at(i)]))
               for i in range(mdp.n_states)]
        policy, _, _, _ = _policy_for(ExperimentConfig(mode="heuristic-max-overflow"), model)
        assert policy.tolist() == ref


def test_action_table_built_lazily_once():
    model = build("service_rate", M=20, alpha=0.9)
    assert model.mdp._table is None
    table = model.mdp.action_table()
    model.mdp.actions_at(4)
    assert model.mdp.action_table() is table
