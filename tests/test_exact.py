import functools
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import taylordp as tdp
from taylordp import exact
from taylordp.errors import InfeasibleAction, MaxIterationsExceeded
from taylordp.models import build
from taylordp.lattice import ExplicitActionSet, LatticeMdp, StateLattice, policy_pairs

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


@pytest.mark.parametrize("name", ["service_quartic", "inventory_model", "heavy_queue",
                                  "routing2"])
def test_value_iteration_error_bound_is_relative(name, request):
    # oracle: dense direct solve for policy iteration's policy, P^U
    # materialized column by column (routing2's policy iteration is itself
    # bracketed, so its values are only within ITERATIVE_TOL).  Quartic
    # cost: |V| reaches 1.8e9, where the floating-point spacing is 2.4e-7,
    # so only a bound relative to |V| can be met
    mdp = request.getfixturevalue(name).mdp
    pol, v = tdp.value_iteration(mdp)
    star = tdp.policy_iteration(mdp)
    assert np.array_equal(pol, star.policy)
    asm = exact.get_assembly(mdp)
    pairs = policy_pairs(asm.offsets, star.policy)
    eye = np.eye(mdp.n_states)
    P = np.column_stack([asm.expectations(eye[:, j])[pairs] for j in range(mdp.n_states)])
    v_star = np.linalg.solve(eye - mdp.discount * P, asm.rewards[pairs])
    if name == "service_quartic":
        assert np.abs(v).max() > 1e9
    assert np.abs(v - v_star).max() <= exact.ITERATIVE_TOL * (1.0 + np.abs(v).max())


def test_value_iteration_constant_reward():
    mdp = _chain_mdp(np.array([[0.5, 0.5], [0.5, 0.5]]), [3.0, 3.0], 0.8)
    _, v = tdp.value_iteration(mdp)
    assert np.allclose(v, 15.0, rtol=1e-8)


def test_value_iteration_single_state():
    mdp = _chain_mdp(np.array([[1.0]]), [1.0], 0.5)
    _, v = tdp.value_iteration(mdp)
    assert v[0] == pytest.approx(2.0, rel=1e-8)


def test_value_iteration_max_iterations(monkeypatch):
    # the bracket is exact after one step on one state; two states that mix
    # slowly need more than 3 steps
    mdp = _chain_mdp(np.array([[0.9, 0.1], [0.1, 0.9]]), [1.0, 0.0], 0.99)
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


def test_pi_monotone_and_bounded_iterations(service_quadratic, routing2, inventory_model,
                                            evaluations):
    for model in (service_quadratic, routing2, inventory_model):
        evaluations.clear()
        res = tdp.policy_iteration(model.mdp)
        assert res.iterations <= 100
        assert len(evaluations) == res.iterations
        for prev, cur in zip(evaluations, evaluations[1:]):
            assert (cur >= prev - 1e-7 * (1.0 + np.abs(prev))).all()


@pytest.mark.parametrize("name", ["service_quadratic", "routing2"])
def test_policy_iteration_seeded_with_its_optimum(name, request):
    # one evaluation and one improvement confirm the seed; the tabular solve
    # is direct, so its values repeat bit for bit, and the factored one
    # starts cold where the unseeded run's last evaluation was warm-started
    mdp = request.getfixturevalue(name).mdp
    star = tdp.policy_iteration(mdp)
    seed = star.policy.copy()
    res = tdp.policy_iteration(mdp, initial_policy=seed)
    assert res.iterations == 1
    assert np.array_equal(res.policy, star.policy)
    assert np.array_equal(seed, star.policy)
    res.policy[0] += 1                       # the result does not share the seed's memory
    assert np.array_equal(seed, star.policy)
    if name == "service_quadratic":
        assert np.array_equal(res.values, star.values)
    else:
        scale = 1.0 + np.abs(star.values).max()
        assert np.abs(res.values - star.values).max() <= 2 * exact.ITERATIVE_TOL * scale
    seed[0] = np.diff(exact.get_assembly(mdp).offsets)[0]
    with pytest.raises(InfeasibleAction):
        tdp.policy_iteration(mdp, initial_policy=seed)


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
    r_u = asm.rewards[policy_pairs(asm.offsets, pol)]
    p_v = asm.expectations(v)[policy_pairs(asm.offsets, pol)]
    resid = np.abs(v - (r_u + asm.discounts * p_v)).max()
    assert resid <= 1e-9 * (1.0 + np.abs(v).max())


def test_argmax_tie_break_first_lexicographic():
    # two actions with identical rows and rewards: the first must win, twice
    lat = StateLattice((0,), (0,))
    mdp = LatticeMdp(lat, ExplicitActionSet((0, 1)),
                     *pair_hooks(lambda s, u: ([0], [1.0]), lambda s, u: 1.0), 0.5)
    assert tdp.policy_improvement(mdp, np.zeros(1)).tolist() == [0]
    assert tdp.policy_improvement(mdp, np.zeros(1)).tolist() == [0]


def test_segmented_argmax_matches_per_segment_scan():
    # ragged segments of near-ties: exact ties, 0 and +-ARGMAX_TOL apart,
    # one spacing apart at 1e5 (where the tolerance is below the spacing)
    rng = np.random.default_rng(12)
    tol = exact.ARGMAX_TOL
    for _ in range(2000):
        lens = rng.integers(1, 7, rng.integers(1, 12))
        offsets = np.concatenate([[0], np.cumsum(lens)])
        base = rng.choice([0.0, 1.0, -1e5, 1e5])
        steps = [0.0, tol, -tol, 0.5 * tol, 2 * tol, np.spacing(base), -np.spacing(base)]
        values = base + rng.choice(steps, offsets[-1])
        noisy = rng.random(offsets[-1]) < 0.2
        values[noisy] += rng.standard_normal(noisy.sum())
        best, first = exact.segmented_argmax(values, offsets)
        for s, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            seg = values[lo:hi].tolist()
            assert best[s] == max(seg)
            assert first[s] == next(k for k, x in enumerate(seg) if x >= max(seg) - tol)


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
    post = asm.post_idx[policy_pairs(asm.offsets, pi.policy)]

    def matvec(v):
        return asm.apply_expectation(v)[post]

    eye = np.eye(mdp.n_states)
    P = np.column_stack([matvec(eye[:, j]) for j in range(mdp.n_states)])
    v_direct = np.linalg.solve(np.eye(mdp.n_states) - alpha * P,
                               asm.rewards[policy_pairs(asm.offsets, pi.policy)])
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


def _counted(calls, name, routine, *args, **kwargs):
    calls.append(name)
    return routine(*args, **kwargs)


def _count_banded_lapack_calls(monkeypatch):
    """Record, in order, each call of the banded LAPACK routines in scipy.linalg.lapack."""
    from scipy.linalg import lapack
    calls = []
    for name in ("dgbsv", "dgbtrf", "dgbtrs"):
        monkeypatch.setattr(lapack, name,
                            functools.partial(_counted, calls, name, getattr(lapack, name)))
    return calls


def test_direct_evaluation_one_banded_factorisation(monkeypatch):
    # one dgbsv factors and solves; the residual contract holds, so no refinement
    mdp = build("service_rate", M=30, alpha=0.99).mdp
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    tdp.policy_evaluation(mdp, policy)                 # assemble first
    calls = _count_banded_lapack_calls(monkeypatch)
    tdp.policy_evaluation(mdp, policy)
    assert calls == ["dgbsv"]


def test_banded_solve_factors_the_band_in_place(monkeypatch):
    # a Fortran-ordered band is overwritten by dgbsv's factors: the f2py
    # wrapper copies nothing, so the band's n (2 kl + ku + 1) * 8 bytes are the peak
    from scipy.linalg import lapack
    seen = []
    dgbsv = lapack.dgbsv

    def checked(kl, ku, ab, b, **kwargs):
        out = dgbsv(kl, ku, ab, b, **kwargs)
        seen.append((ab.flags.f_contiguous, out[0] is ab))
        return out

    monkeypatch.setattr(lapack, "dgbsv", checked)
    mdp = build("inventory").mdp
    tdp.policy_evaluation(mdp, np.zeros(mdp.n_states, dtype=np.int64))
    assert seen == [(True, True)]


def test_import_and_factored_solves_leave_scipy_sparse_unloaded():
    # no solve loads scipy.sparse; scipy.linalg loads at the first tabular
    # solve: the factored routing solve never loads it, the service-rate solve does
    script = textwrap.dedent("""
        import sys
        import taylordp, taylordp.models, taylordp.cli
        from taylordp.models.routing import build_routing, table_params

        def loaded(step):
            return (step, "scipy.sparse" in sys.modules, "scipy.linalg" in sys.modules)

        seen = [loaded("import")]
        taylordp.policy_iteration(build_routing(table_params(J=2, alpha=0.99, lam_factor=0.8)).mdp)
        seen.append(loaded("routing"))
        taylordp.policy_iteration(taylordp.models.build("service_rate", M=30, alpha=0.99).mdp)
        seen.append(loaded("service_rate"))
        print(seen)
    """)
    src = str(pathlib.Path(tdp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == str([("import", False, False), ("routing", False, False),
                               ("service_rate", False, True)])


def test_factored_evaluation_max_iterations(routing2, monkeypatch):
    pol = np.zeros(routing2.mdp.n_states, dtype=np.int64)
    monkeypatch.setattr(exact, "VI_MAX_ITERATIONS", 3)
    with pytest.raises(MaxIterationsExceeded):
        tdp.policy_evaluation(routing2.mdp, pol)


def test_factored_evaluation_needs_scalar_discount():
    # the bracket holds for one scalar discount only; chains take the direct solve
    from taylordp.exact import _bracketed_iteration
    with pytest.raises(ValueError):
        _bracketed_iteration(lambda v: 1.0 + 0.5 * v, np.array([0.5, 0.9]))


def test_value_iteration_needs_scalar_discount(service_quadratic):
    # a chain's boundary rows carry their own discounts
    chain = tdp.build_multidim_chain(service_quadratic.problem, 2)
    with pytest.raises(ValueError, match="one scalar discount"):
        tdp.value_iteration(chain)


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


def test_infeasible_action_names_a_flat_index_as_an_index(inventory_model):
    # state index 3 of the lattice -40..40 is the state (-37,), not the state (3,)
    mdp = inventory_model.mdp
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    policy[3] = 99
    with pytest.raises(InfeasibleAction) as by_index:
        tdp.policy_evaluation(mdp, policy)
    with pytest.raises(InfeasibleAction) as by_state:
        mdp.validate_policy(policy)
    assert str(by_index.value) == "action 99 infeasible at state index 3"
    assert str(by_state.value) == "action 99 infeasible at state (-37,)"
    assert mdp.lattice.state(by_index.value.state) == by_state.value.state
    assert by_index.value.action == by_state.value.action == 99


@pytest.mark.parametrize("lens,want", [
    ([2, 0, 3], [0, 1, 10, 11, 12]),
    ([2, 3, 0], [0, 1, 5, 6, 7]),
    ([0, 2, 3], [5, 6, 10, 11, 12]),
    ([0, 0, 0], []),
    ([2, 3, 4], [0, 1, 5, 6, 7, 10, 11, 12, 13]),
], ids=["middle", "end", "first", "all", "none"])
def test_ranges_handles_zero_length_segments(lens, want):
    got = exact._ranges(np.array([0, 5, 10]), np.array(lens))
    assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("kind", ["tabular", "factored"])
def test_q_values_reject_wrong_length_values(kind, routing2):
    # a tabular assembly would read only the first n_states entries and a
    # factored one fail inside a reshape: both name the expected shape
    mdp = (build("service_rate", M=30, alpha=0.99) if kind == "tabular" else routing2).mdp
    asm = exact.get_assembly(mdp)
    assert isinstance(asm, exact.TabularAssembly if kind == "tabular" else exact.FactoredAssembly)
    n = mdp.n_states
    for values in (np.zeros(n + 5), np.zeros(n - 1), np.zeros((n, 1))):
        expected = rf"\({n},\), got {re.escape(str(values.shape))}"
        with pytest.raises(ValueError, match=expected):
            asm.q_values(values)
        with pytest.raises(ValueError, match=expected):
            tdp.policy_improvement(mdp, values)
    assert asm.q_values(np.zeros(n)).shape == (asm.n_pairs,)


def _entry_points(tmp_path):
    """The five callers that read a policy's indices, each as (n, call(policy)).

    On service-rate M = 20 (tabular); disaggregate_policy takes a policy of
    the model's h = 2 chain.
    """
    from taylordp.bounds import taylor_remainder
    from taylordp.models.service_rate import quartic_oracle
    from taylordp.report import write_value_policy_csv
    model = build("service_rate", M=20, alpha=0.99)
    mdp, n = model.mdp, model.mdp.n_states
    chain = tdp.build_multidim_chain(model.problem, 2)
    return {
        "policy_evaluation": (n, lambda p: tdp.policy_evaluation(mdp, p)),
        "policy_iteration": (n, lambda p: tdp.policy_iteration(mdp, initial_policy=p)),
        "write_value_policy_csv": (n, lambda p: write_value_policy_csv(
            tmp_path / "v.csv", mdp, np.zeros(n), p) or (tmp_path / "v.csv").read_bytes()),
        "taylor_remainder": (n, lambda p: taylor_remainder(model.problem, p,
                                                           quartic_oracle(0.99))),
        "disaggregate_policy": (chain.n_states,
                                lambda p: tdp.disaggregate_policy(chain, p, np.zeros(n))),
    }


ENTRY_POINTS = ["policy_evaluation", "policy_iteration", "write_value_policy_csv",
                "taylor_remainder", "disaggregate_policy"]


@pytest.mark.parametrize("bad", ["fraction", "nan"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integral_action_index_is_refused_not_floored(entry, bad, tmp_path):
    # 0.9 used to be cast to action 0 and NaN to a huge negative index
    n, call = _entry_points(tmp_path)[entry]
    policy = np.full(n, 0.9) if bad == "fraction" else np.where(np.arange(n) == 3, np.nan, 0.0)
    with pytest.raises(ValueError, match="is not an integer"):
        call(policy)
    assert not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_integral_float_policy_is_policy_zero(entry, tmp_path):
    n, call = _entry_points(tmp_path)[entry]

    def parts(result):
        pi = isinstance(result, exact.PiResult)
        return tuple(map(np.asarray, (result.policy, result.values) if pi else (result,)))

    by_float, by_int = parts(call(np.zeros(n))), parts(call(np.zeros(n, dtype=np.int64)))
    assert all(np.array_equal(a, b) for a, b in zip(by_float, by_int))
    assert by_float[0].dtype == by_int[0].dtype


@pytest.mark.parametrize("kind", ["tabular", "factored"])
def test_policy_evaluation_checks_its_policy_once(kind, routing2, monkeypatch):
    mdp = (build("service_rate", M=20, alpha=0.99) if kind == "tabular" else routing2).mdp
    asm = exact.get_assembly(mdp)
    assert isinstance(asm, exact.TabularAssembly if kind == "tabular" else exact.FactoredAssembly)
    calls = []
    check = exact.policy_pairs
    monkeypatch.setattr(exact, "policy_pairs",
                        lambda offsets, policy: calls.append(1) or check(offsets, policy))
    tdp.policy_evaluation(mdp, np.zeros(mdp.n_states, dtype=np.int64))
    assert len(calls) == 1


def test_singular_tabular_system_raises_singular_system():
    # two undiscounted states that swap: I - P = [[1, -1], [-1, 1]], whose
    # second pivot is exactly zero
    from types import SimpleNamespace
    from taylordp.errors import SingularSystem
    asm = exact.TabularAssembly(offsets=[0, 1, 2], rewards=[0.0, 0.0], row_ptr=[0, 1, 2],
                                col_idx=[1, 0], probs=[1.0, 1.0], discounts=[1.0, 1.0])
    with pytest.raises(SingularSystem,
                       match="^evaluation system is singular: zero pivot at state 1$"):
        tdp.policy_evaluation(SimpleNamespace(assembly=lambda: asm), np.zeros(2, dtype=np.int64))


def test_tabular_residual_contract_refines_once_then_raises(monkeypatch):
    # no residual meets a 0.0 contract: one factorisation, one refinement
    # solve on its factors, then SingularSystem
    from taylordp.errors import SingularSystem
    mdp = build("inventory").mdp
    assert isinstance(exact.get_assembly(mdp), exact.TabularAssembly)
    calls = _count_banded_lapack_calls(monkeypatch)
    monkeypatch.setattr(exact, "RESIDUAL_REL", 0.0)
    with pytest.raises(SingularSystem, match=r"residual \S+ exceeds the 0.0 contract"):
        tdp.policy_evaluation(mdp, np.zeros(mdp.n_states, dtype=np.int64))
    assert calls == ["dgbsv", "dgbtrs"]
