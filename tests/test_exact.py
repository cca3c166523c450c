import functools
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import taylordp as tdp
from taylordp import exact
from taylordp.errors import InfeasibleAction, MaxIterationsExceeded
from taylordp.models import build
from taylordp.lattice import ExplicitActionSet, LatticeMdp, StateLattice

from conftest import one_reward, pair_hooks


def _chain_mdp(P, r, alpha, n_actions=1):
    """Tabular MDP from dense matrices; action k scales nothing (duplicates)."""
    n = len(r)
    lat = StateLattice((0,), (n - 1,))
    rows = {x: (np.flatnonzero(P[x] > 0), P[x][P[x] > 0]) for x in range(n)}
    return LatticeMdp(lat, ExplicitActionSet(tuple(range(n_actions))),
                      *pair_hooks(lambda s, u: rows[s[0]], lambda s, u: float(r[s[0]])), alpha)


def test_policy_evaluation_zero_reward():
    mdp = _chain_mdp(np.array([[0.5, 0.5], [1.0, 0.0]]), [0.0, 0.0], 0.9)
    v = tdp.policy_evaluation(mdp, np.zeros(2, dtype=int))
    assert np.allclose(v, 0.0, atol=0)


def test_policy_evaluation_geometric_series():
    mdp = _chain_mdp(np.array([[1.0]]), [1.0], 0.9)
    v = tdp.policy_evaluation(mdp, np.zeros(1, dtype=int))
    assert v[0] == pytest.approx(10.0, rel=1e-12)


def test_policy_evaluation_two_state_vi_oracle():
    # oracle: 10^4-step value iteration, frozen (equals 280/73 and 180/73)
    mdp = _chain_mdp(np.array([[0.5, 0.5], [0.2, 0.8]]), [1.0, 0.0], 0.9)
    v = tdp.policy_evaluation(mdp, np.zeros(2, dtype=int))
    assert v[0] == pytest.approx(3.835616438356163, abs=1e-8)
    assert v[1] == pytest.approx(2.465753424657533, abs=1e-8)


def test_policy_improvement_single_action():
    mdp = _chain_mdp(np.array([[1.0]]), [1.0], 0.5)
    assert tdp.policy_improvement(mdp, np.zeros(1)).tolist() == [0]


def test_policy_improvement_zero_value_is_myopic():
    lat = StateLattice((0,), (0,))
    rewards = {0: 1.0, 1: 5.0, 2: 3.0}
    mdp = LatticeMdp(lat, ExplicitActionSet((0, 1, 2)),
                     *pair_hooks(lambda s, u: ([0], [1.0]), lambda s, u: rewards[u]), 0.9)
    assert tdp.policy_improvement(mdp, np.zeros(1)).tolist() == [1]


def test_policy_improvement_matches_exhaustive_scan(service_quadratic, service_quadratic_star):
    # oracle: exhaustive scan over the control grid at x = 50 (frozen: 0.98)
    mdp = service_quadratic.mdp
    v = service_quadratic_star.values
    pol = tdp.policy_improvement(mdp, v)
    i = mdp.lattice.index((50,))
    assert mdp.actions_at(i)[pol[i]] == pytest.approx(0.98)


def test_policy_iteration_single_action_converges_immediately():
    mdp = _chain_mdp(np.array([[0.3, 0.7], [0.6, 0.4]]), [1.0, 2.0], 0.8)
    res = tdp.policy_iteration(mdp)
    assert res.iterations == 1


def test_policy_iteration_vs_policy_enumeration():
    # 2-state, 2-action toy: evaluate all four stationary policies directly
    lat = StateLattice((0,), (1,))
    P = {0: np.array([[0.9, 0.1], [0.1, 0.9]]),
         1: np.array([[0.5, 0.5], [0.5, 0.5]])}
    r = {0: np.array([1.0, -1.0]), 1: np.array([0.2, 0.4])}
    alpha = 0.9

    def row(s, u):
        return [0, 1], P[u][s[0]]

    mdp = LatticeMdp(lat, ExplicitActionSet((0, 1)),
                     *pair_hooks(row, lambda s, u: float(r[u][s[0]])), alpha)
    res = tdp.policy_iteration(mdp)
    best, best_v0 = None, -np.inf
    for a0 in (0, 1):
        for a1 in (0, 1):
            Pu = np.array([P[a0][0], P[a1][1]])
            ru = np.array([r[a0][0], r[a1][1]])
            v = np.linalg.solve(np.eye(2) - alpha * Pu, ru)
            if v.sum() > best_v0:
                best, best_v0 = (a0, a1), v.sum()
    assert tuple(res.policy.tolist()) == best


def test_pi_agrees_with_vi(service_quadratic, service_quadratic_star):
    pol, v = tdp.value_iteration(service_quadratic.mdp)
    rel = np.abs(v - service_quadratic_star.values) / (1.0 + np.abs(service_quadratic_star.values))
    assert rel.max() <= 1e-6


def test_value_iteration_error_bound_is_relative():
    # quartic cost: |V| reaches 1.8e9, where the floating-point spacing is
    # 2.4e-7, so only a bound relative to |V| can be met
    model = build("service_rate", M=100, alpha=0.99, cost="quartic")
    pol, v = tdp.value_iteration(model.mdp)
    star = tdp.policy_iteration(model.mdp)
    assert np.abs(v).max() > 1e9
    assert np.abs(v - star.values).max() <= exact.VI_TOL * (1.0 + np.abs(v).max())
    assert np.array_equal(pol, star.policy)


def test_value_iteration_constant_reward():
    mdp = _chain_mdp(np.array([[0.5, 0.5], [0.5, 0.5]]), [3.0, 3.0], 0.8)
    _, v = tdp.value_iteration(mdp)
    assert np.allclose(v, 15.0, rtol=1e-8)


def test_value_iteration_single_state():
    mdp = _chain_mdp(np.array([[1.0]]), [1.0], 0.5)
    _, v = tdp.value_iteration(mdp)
    assert v[0] == pytest.approx(2.0, rel=1e-8)


def test_value_iteration_max_iterations(monkeypatch):
    mdp = _chain_mdp(np.array([[1.0]]), [1.0], 0.99)
    monkeypatch.setattr(exact, "VI_MAX_ITERATIONS", 3)
    with pytest.raises(MaxIterationsExceeded):
        tdp.value_iteration(mdp)


def test_discounted_functional_constant():
    mdp = _chain_mdp(np.array([[0.2, 0.8], [0.7, 0.3]]), [0.0, 0.0], 0.9)
    v = tdp.discounted_functional(mdp, np.zeros(2, dtype=int), np.ones(2))
    assert np.allclose(v, 10.0, rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reward_override_must_be_finite(quartic_fixed, bad):
    mdp = quartic_fixed.mdp
    pol = np.zeros(mdp.n_states, dtype=np.int64)
    f = np.ones(mdp.n_states)
    f[[3, 5]] = bad
    with pytest.raises(ValueError, match="state 3 is not finite"):
        tdp.policy_evaluation(mdp, pol, reward_override=f)
    with pytest.raises(ValueError, match="state 3 is not finite"):
        tdp.discounted_functional(mdp, pol, f)


def test_discounted_functional_reward_is_policy_evaluation(quartic_fixed):
    mdp = quartic_fixed.mdp
    pol = np.zeros(mdp.n_states, dtype=np.int64)
    r = np.array([one_reward(mdp, mdp.lattice.state(i), mdp.actions_at(i)[0])
                  for i in range(mdp.n_states)])
    assert np.array_equal(tdp.discounted_functional(mdp, pol, r),
                          tdp.policy_evaluation(mdp, pol))


def test_discounted_functional_monte_carlo_cross_check(quartic_fixed):
    # Monte Carlo oracle: 1e5 paths of the u = 1/2 walk, horizon 10/(1-alpha),
    # payoff sum alpha^t X_t^3; the linear solve must land within 3 SE
    mdp = quartic_fixed.mdp
    M = quartic_fixed.params.M
    alpha = quartic_fixed.params.alpha
    pol = np.zeros(mdp.n_states, dtype=np.int64)
    v = tdp.discounted_functional(mdp, pol, mdp.lattice.states()[:, 0].astype(float) ** 3)
    rng = np.random.default_rng(20240817)
    n_paths, horizon, x0 = 100_000, int(round(10 / (1 - alpha))), 10
    x = np.full(n_paths, x0)
    total = np.zeros(n_paths)
    disc = 1.0
    for _ in range(horizon):
        total += disc * x.astype(float) ** 3
        down = rng.random(n_paths) < 0.5
        x = np.where(x == 0, 1, np.where(x == M, M - 1, x + np.where(down, -1, 1)))
        disc *= alpha
    # geometric tail beyond the horizon is bounded by alpha^T M^3/(1-alpha)
    tail = alpha ** horizon * M ** 3 / (1 - alpha)
    se = total.std(ddof=1) / np.sqrt(n_paths)
    assert abs(v[mdp.lattice.index((x0,))] - total.mean()) <= 3 * se + tail


def test_pi_monotone_and_bounded_iterations(service_quadratic, routing2, inventory_model):
    for model in (service_quadratic, routing2, inventory_model):
        res = tdp.policy_iteration(model.mdp, record_history=True)
        assert res.iterations <= 100
        for k in range(1, len(res.value_history)):
            prev, cur = res.value_history[k - 1], res.value_history[k]
            assert (cur >= prev - 1e-7 * (1.0 + np.abs(prev))).all()


def test_bellman_residual_of_fixed_point(service_quadratic, service_quadratic_star):
    from taylordp.exact import get_assembly, segmented_argmax
    asm = get_assembly(service_quadratic.mdp)
    v = service_quadratic_star.values
    q = asm.q_values(v)
    best, _ = segmented_argmax(q, asm.offsets)
    assert np.abs(v - best).max() <= 1e-8 * (1.0 + np.abs(v).max())


def test_evaluation_residual_contract():
    # residual <= 1e-9 (1 + sup|V|) even at discounts very close to one
    from taylordp.exact import get_assembly
    from taylordp.models import build
    model = build("service_rate", M=150, alpha=0.999, cost="quartic", fixed_u=0.5)
    pol = np.zeros(model.mdp.n_states, dtype=np.int64)
    v = tdp.policy_evaluation(model.mdp, pol)
    asm = get_assembly(model.mdp)
    r_u = asm.policy_rewards(pol)
    resid = np.abs(v - (r_u + asm.discounts * (asm.policy_operator(pol) @ v))).max()
    assert resid <= 1e-9 * (1.0 + np.abs(v).max())


def test_argmax_tie_break_first_lexicographic():
    # two actions with identical rows and rewards: the first must win, twice
    lat = StateLattice((0,), (0,))
    mdp = LatticeMdp(lat, ExplicitActionSet((0, 1)),
                     *pair_hooks(lambda s, u: ([0], [1.0]), lambda s, u: 1.0), 0.5)
    assert tdp.policy_improvement(mdp, np.zeros(1)).tolist() == [0]
    assert tdp.policy_improvement(mdp, np.zeros(1)).tolist() == [0]


@functools.lru_cache(maxsize=None)
def _routing2_pi(alpha):
    """The 441-state 2-pool instance (factored) and its optimal policy."""
    from taylordp.models.routing import build_routing, table_params
    model = build_routing(table_params(J=2, alpha=alpha, lam_factor=0.8))
    return model.mdp, tdp.policy_iteration(model.mdp)


@pytest.mark.parametrize("alpha", [0.99, 0.999])
def test_factored_evaluation_value_error_bound(alpha):
    # oracle: dense direct solve with P^U materialized column by column
    from taylordp.exact import get_assembly
    mdp, pi = _routing2_pi(alpha)
    asm = get_assembly(mdp)
    op = asm.policy_operator(pi.policy)
    eye = np.eye(mdp.n_states)
    P = np.column_stack([op @ eye[:, j] for j in range(mdp.n_states)])
    v_direct = np.linalg.solve(np.eye(mdp.n_states) - alpha * P,
                               asm.policy_rewards(pi.policy))
    rng = np.random.default_rng(7)
    warm = v_direct * (1.0 + 0.01 * rng.standard_normal(mdp.n_states))
    tol = exact.ITERATIVE_TOL
    for start in (None, warm):
        v = tdp.policy_evaluation(mdp, pi.policy, warm_start=start)
        assert np.abs(v - v_direct).max() <= tol * (1.0 + np.abs(v).max())


def test_factored_evaluation_matvec_count(monkeypatch):
    # the bracket removes the constant mode of P^U, whose 1 / (1 - alpha)
    # time scale would otherwise set the step count: about 90 products here
    from taylordp.exact import get_assembly
    mdp, pi = _routing2_pi(0.999)
    asm = get_assembly(mdp)
    calls = []
    apply = asm.apply_expectation
    monkeypatch.setattr(asm, "apply_expectation", lambda v: calls.append(1) or apply(v))
    tdp.policy_evaluation(mdp, pi.policy)
    assert 0 < len(calls) <= 200


def _raise(*args, **kwargs):
    raise AssertionError("called")


def test_factored_evaluation_makes_no_tensordot_call(monkeypatch):
    # the planned matvec runs np.dot on operands fixed at assembly
    mdp, pi = _routing2_pi(0.99)
    monkeypatch.setattr(np, "tensordot", _raise)
    monkeypatch.setattr(np, "moveaxis", _raise)
    tdp.policy_evaluation(mdp, pi.policy)


def test_direct_evaluation_one_splu_no_eye_or_diags(monkeypatch):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    mdp = build("service_rate", M=30, alpha=0.99).mdp
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    tdp.policy_evaluation(mdp, policy)                 # assemble first
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A: calls.append(1) or splu(A))
    monkeypatch.setattr(sp, "eye", _raise)
    monkeypatch.setattr(sp, "diags", _raise)
    tdp.policy_evaluation(mdp, policy)
    assert len(calls) == 1


def _completion_calls(model, h, monkeypatch):
    """Calls of one disaggregate_policy: rows(), kernel and reward calls, boundary pairs, blocks.

    The blocks are those lattice.row_blocks makes for the boundary pairs'
    rows: a first block of 64 pairs, then ROW_BLOCK // (widest row so far).
    """
    mdp = model.mdp
    chain = tdp.build_multidim_chain(model.problem, h)
    coarse = np.zeros(chain.n_states, dtype=np.int64)
    fine_v = tdp.disaggregate_value(tdp.policy_evaluation(chain, coarse), chain.grid, mdp.lattice)
    U, offsets = mdp.action_table()
    points = mdp.lattice.indices_of(chain.grid.points())[~chain.interior_mask]
    pairs = np.concatenate([np.arange(offsets[s], offsets[s + 1]) for s in points])
    widths = np.diff(mdp.rows(np.repeat(mdp.lattice.states()[points],
                                        np.diff(offsets)[points], axis=0), U[pairs])[0])
    blocks, start, block = 0, 0, 64
    while start < len(pairs):
        blocks, start = blocks + 1, start + block
        block = max(1, tdp.lattice.ROW_BLOCK // int(widths[:start].max()))
    calls = {"rows": [], "kernel": [], "reward": []}

    def counted(name, fn):
        return lambda states, U: calls[name].append(len(U)) or fn(states, U)

    monkeypatch.setattr(mdp, "rows", counted("rows", mdp.rows))
    monkeypatch.setattr(mdp, "kernel", counted("kernel", mdp.kernel))
    monkeypatch.setattr(mdp, "reward", counted("reward", mdp.reward))
    tdp.disaggregate_policy(chain, coarse, fine_v)
    return calls, len(points), len(pairs), blocks


def test_boundary_completion_reads_rows_in_blocks(monkeypatch):
    # one rows() and kernel call a block of about ROW_BLOCK entries and one
    # rewards() call over every boundary pair: on the 2-pool lattice at h=1
    # (80 boundary points) fewer rows() calls than points
    from taylordp.models.routing import build_routing, table_params
    model = build_routing(table_params(J=2, alpha=0.99, lam_factor=0.8))
    calls, points, pairs, blocks = _completion_calls(model, 1, monkeypatch)
    assert points == 80
    assert calls["rows"] == calls["kernel"] and len(calls["rows"]) == blocks < points
    assert calls["reward"] == [pairs]


def test_boundary_completion_no_per_pair_kernel_calls(monkeypatch):
    # service rate's 200 boundary pairs (2 points) take one kernel call a
    # block, not one a pair
    model = build("service_rate", M=30, alpha=0.99)
    calls, points, pairs, blocks = _completion_calls(model, 2, monkeypatch)
    assert calls["kernel"] == calls["rows"] and len(calls["kernel"]) == blocks < pairs
    assert sum(calls["kernel"]) == pairs and calls["reward"] == [pairs]


def test_import_and_factored_solves_leave_scipy_sparse_unloaded():
    # only a tabular assembly's sparse system needs scipy.sparse: the
    # factored routing solve never loads it, the service-rate solve does
    script = textwrap.dedent("""
        import sys
        import taylordp, taylordp.models, taylordp.cli
        from taylordp.models.routing import build_routing, table_params
        loaded = [("import", "scipy.sparse" in sys.modules)]
        taylordp.policy_iteration(build_routing(table_params(J=2, alpha=0.99, lam_factor=0.8)).mdp)
        loaded.append(("routing", "scipy.sparse" in sys.modules))
        taylordp.policy_iteration(taylordp.models.build("service_rate", M=30, alpha=0.99).mdp)
        loaded.append(("service_rate", "scipy.sparse" in sys.modules))
        print(loaded)
    """)
    src = str(pathlib.Path(tdp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == str([("import", False), ("routing", False), ("service_rate", True)])


def test_factored_evaluation_max_iterations(routing2, monkeypatch):
    pol = np.zeros(routing2.mdp.n_states, dtype=np.int64)
    monkeypatch.setattr(exact, "VI_MAX_ITERATIONS", 3)
    with pytest.raises(MaxIterationsExceeded):
        tdp.policy_evaluation(routing2.mdp, pol)


def test_factored_evaluation_needs_scalar_discount():
    # the bracket holds for one scalar discount only; chains take the direct solve
    from taylordp.exact import _bracketed_iteration
    with pytest.raises(ValueError):
        _bracketed_iteration(np.ones(2), np.eye(2), np.array([0.5, 0.9]))


def test_policy_evaluation_rejects_out_of_range_action_index(routing2):
    # tabular: 4 controls, so index 4 is one past the end at every state
    service = build("service_rate", M=20, alpha=0.9, n_controls=4)
    policy = np.zeros(service.mdp.n_states, dtype=np.int64)
    policy[3] = 4
    with pytest.raises(InfeasibleAction):
        tdp.policy_evaluation(service.mdp, policy)
    # factored: state 0 (empty system) has a single action
    policy = np.zeros(routing2.mdp.n_states, dtype=np.int64)
    policy[0] = 1
    with pytest.raises(InfeasibleAction):
        tdp.policy_evaluation(routing2.mdp, policy)
    # chain: reflecting boundary points keep one action
    chain = tdp.build_multidim_chain(service.problem, 2)
    policy = np.zeros(chain.n_states, dtype=np.int64)
    policy[0] = -1
    with pytest.raises(InfeasibleAction):
        tdp.policy_evaluation(chain, policy)
    with pytest.raises(ValueError, match="one action index per state"):
        tdp.policy_evaluation(chain, policy[:-1])
