import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import taylordp as tdp
from taylordp.config import load_config
from taylordp.models import build
from taylordp.models.distributions import binom_pmf, poisson_cutoff, poisson_pmf
from taylordp.models.heavy_traffic import (heavy_traffic_oracle, heavy_traffic_oracle_fn,
                                           ode_coefficients)
from taylordp.models.routing import RoutingParams, build_routing, table_params
from taylordp.models.service_rate import continuous_one_step_control, quartic_oracle

from conftest import one_reward, one_row

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# -------------------------------------------------------------- service rate

def test_service_rate_zero_state_row(quartic_fixed):
    targets, probs = one_row(quartic_fixed.mdp, (0,), 0.5)
    assert targets.tolist() == [1] and probs.tolist() == [1.0]


def test_service_rate_oracle_value():
    # plug x = 0, alpha = 0.9, c_s = 1 into the closed form: -4880
    orc = quartic_oracle(0.9, 1.0)
    assert orc.value(np.array([[0.0]]))[0] == pytest.approx(-4880.0, abs=1e-9)


def test_service_rate_fixed_half_moments(quartic_fixed):
    mu, s2 = quartic_fixed.problem.moments_batch(np.array([[7]]), np.array([0.5]))
    assert mu[0, 0] == 0.0 and s2[0, 0, 0] == 1.0


def test_service_rate_rewards():
    m = build("service_rate", M=10, alpha=0.9, cost="quadratic", c_s=2.0)
    assert one_reward(m.mdp, (3,), 0.5) == pytest.approx(-(9 + 4.0))
    mq = build("service_rate", M=10, alpha=0.9, cost="quartic", c_s=1.0)
    assert one_reward(mq.mdp, (2,), 0.0) == pytest.approx(-(16 + 1.0))


def test_continuous_one_step_control_matches_grid(service_quadratic, service_quadratic_star):
    u_cont = continuous_one_step_control(service_quadratic, service_quadratic_star.values)
    pol = tdp.policy_improvement(service_quadratic.mdp, service_quadratic_star.values)
    grid_u = np.array([service_quadratic.mdp.actions_at(i)[pol[i]]
                       for i in range(service_quadratic.mdp.n_states)])
    # the continuous maximizer sits within one grid step of the grid argmax
    assert np.abs(u_cont[1:-1] - grid_u[1:-1]).max() <= 0.011


# ----------------------------------------------------------------- inventory

def test_inventory_moments_special_cases(inventory_model):
    lam = inventory_model.params.lam
    mu, s2 = inventory_model.problem.moments_batch(np.array([[0]]), np.array([2]))  # u = lam
    assert mu[0, 0] == pytest.approx(0.0) and s2[0, 0, 0] == pytest.approx(lam)
    m5 = build("inventory", lam=5.0, M=40, u_max=10, alpha=0.9)
    mu, s2 = m5.problem.moments_batch(np.array([[0]]), np.array([8]))
    assert mu[0, 0] == pytest.approx(3.0) and s2[0, 0, 0] == pytest.approx(14.0)


def test_inventory_boundary_rows(inventory_model):
    M = inventory_model.params.M
    lam = inventory_model.params.lam
    # at -M the demand is suppressed: deterministic +u jump, moments (u, u^2);
    # at +M the order is suppressed: drift -lam, second moment lam + lam^2
    mu, s2 = tdp.kernel_moment_provider(inventory_model.mdp)(np.array([[-M], [M]]),
                                                             np.array([4, 7]))
    assert mu[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert s2[0, 0, 0] == pytest.approx(16.0, abs=1e-12)
    assert mu[1, 0] == pytest.approx(-lam, abs=1e-9)
    assert s2[1, 0, 0] == pytest.approx(lam + lam ** 2, abs=1e-9)


def test_inventory_reward_formula_and_convexity(inventory_model):
    p = inventory_model.params
    pmf, demands = inventory_model.demand_pmf, np.arange(inventory_model.d_max + 1)
    for x in (-10, 0, 5):
        for u in (0, 3, 7):
            y = x + u - demands
            expected = (p.c * u + p.H * float(pmf @ np.maximum(y, 0))
                        + p.b * float(pmf @ np.maximum(-y, 0)))
            assert inventory_model.cost((x,), u) == pytest.approx(expected, rel=1e-12)
    # discrete convexity of the one-period cost in u at every state
    for i in range(inventory_model.mdp.n_states):
        state = inventory_model.mdp.lattice.state(i)
        c = [inventory_model.cost(state, u) for u in range(p.u_max + 1)]
        second = np.diff(c, 2)
        assert (second >= -1e-9).all()


def test_inventory_newsvendor_limit():
    # as alpha -> 0 the problem is one-period; the optimal order at x = 0 is
    # the brute-force critical-fractile quantity
    m = build("inventory", lam=2.0, c=1.0, H=2.0, b=10.0, M=40, u_max=10, alpha=0.001)
    res = tdp.policy_iteration(m.mdp)
    i0 = m.mdp.lattice.index((0,))
    assert m.mdp.actions_at(i0)[res.policy[i0]] == m.one_period_optimal_order(0)


# ------------------------------------------------------------------- routing

def test_routing_cost_examples(routing2):
    p = routing2.params
    # holding three waiting customers in pool 1, no overflow
    assert routing2.cost_batch([(13, 0)], [(0, 0)])[0] == pytest.approx(3 * p.H[0])
    # overflow costs B per moved customer plus remaining holding
    assert routing2.cost_batch([(13, 0)], [(2, 0)])[0] == pytest.approx(2 * p.B[0] + 1 * p.H[0])


def test_routing_pool_symmetry():
    # fully symmetric parameters: swapping the pools permutes the value function
    params = RoutingParams(J=2, N=(4, 4), M=4, p=(0.5, 0.5), lam=(1.2, 1.2),
                           B=(2.0, 2.0), H=(3.0, 3.0), alpha=0.95)
    model = build_routing(params)
    res = tdp.policy_iteration(model.mdp)
    lat = model.mdp.lattice
    v = res.values
    for i in range(lat.n_states):
        x = lat.state(i)
        j = lat.index((x[1], x[0]))
        assert v[i] == pytest.approx(v[j], rel=1e-8)


def test_routing_factored_matches_joint_rows(routing_small):
    # the einsum operator must agree with explicit joint kernel rows
    mdp = routing_small.mdp
    rng = np.random.default_rng(7)
    values = rng.standard_normal(mdp.n_states)
    from taylordp.exact import get_assembly
    asm = get_assembly(mdp)
    tv = asm.apply_expectation(values)
    for i in (0, 100, 541, 907):
        state = mdp.lattice.state(i)
        for a in range(min(2, len(mdp.actions_at(i)))):
            u = mdp.actions_at(i)[a]
            targets, probs = one_row(mdp, state, u)
            post = routing_small.post_states([state], [u])[0]
            assert float(probs @ values[targets]) == pytest.approx(
                tv[mdp.lattice.index(post)], rel=1e-12)


def test_routing_censoring_keeps_cap_mass(routing2):
    # a full pool with maximal arrivals keeps all mass inside the lattice
    K = routing2.K[0]
    assert np.allclose(K.sum(axis=1), 1.0, atol=1e-12)
    assert K[20, 20] > 0.0   # blocked arrivals pile on the cap


# ------------------------------------------------------------- distributions
# The models draw Poisson and binomial probabilities from numpy and math
# alone.  The Poisson helpers must give the very bits and integers
# scipy.stats gave, or every routing and inventory digest moves; the binomial
# pmf is the closed form, checked against the exact rational value and
# against scipy.stats (boost), which is not correctly rounded either.

def _poisson_rates():
    """Every arrival or demand rate of the shipped configs, Tables 1 and 5 and the test models."""
    lams = {0.8, 1.0, 1.2, 1.344, 1.4, 2.0, 5.0}
    for path in CONFIG_DIR.glob("*.ini"):
        cfg = load_config(path)
        if cfg.model_name in ("routing", "inventory"):
            lams.update(np.atleast_1d(cfg.model_params["lam"]).tolist())
    for J, factors in ((2, (0.8, 1.0)), (3, (0.7, 0.8))):
        for factor in factors:
            lams.update(table_params(J=J, alpha=0.99, lam_factor=factor).lam)
    lams.update(0.7 * n * 0.8 for n in (3, 4, 6))    # the scaled 3-pool instances
    lams.update(np.linspace(0.05, 30.0, 200).tolist())
    return sorted(lams)


def _stats_cutoff(lam, tail):
    """The isf + sf search the models ran on scipy.stats."""
    k = int(stats.poisson.isf(tail, lam)) + 1
    while stats.poisson.sf(k, lam) >= tail:
        k += 1
    return k


@pytest.mark.parametrize("tail", [1e-12, 1e-9, 1e-6, 1e-4])
def test_poisson_helpers_match_scipy_stats(tail):
    for lam in _poisson_rates():
        k = poisson_cutoff(lam, tail)
        assert k == _stats_cutoff(lam, tail), lam
        ks = np.arange(k + 1)
        assert np.array_equal(poisson_pmf(ks, lam), stats.poisson.pmf(ks, lam)), lam


def test_binom_pmf_is_the_closed_form_to_a_few_ulp():
    for n in range(21):
        k = np.arange(n + 1)
        for p in [i / 100 for i in range(1, 100)]:
            got = binom_pmf(k, n, p)
            fp = Fraction(p)
            exact = np.array([float(math.comb(n, j) * fp ** j * (1 - fp) ** (n - j))
                              for j in range(n + 1)])
            assert np.all(np.abs(got - exact) <= 32 * np.spacing(exact)), (n, p)
            np.testing.assert_allclose(got, stats.binom.pmf(k, n, p), rtol=1e-13, atol=0)
            assert abs(math.fsum(got.tolist()) - 1.0) <= 1e-14, (n, p)


@pytest.mark.parametrize("lam, tail, name", [
    (2.0, 0.0, "tail"), (2.0, -1e-3, "tail"), (2.0, 1.0, "tail"), (2.0, math.nan, "tail"),
    (-1.0, 1e-12, "lam"), (0.0, 1e-12, "lam"), (math.inf, 1e-12, "lam"),
    (math.nan, 1e-12, "lam")])
def test_poisson_cutoff_names_a_bad_parameter(lam, tail, name):
    with pytest.raises(ValueError) as err:
        poisson_cutoff(lam, tail)
    assert f"{name} must" in str(err.value)
    assert repr({"lam": lam, "tail": tail}[name]) in str(err.value)


@pytest.mark.parametrize("n, p, name", [
    (3, -0.1, "p"), (3, 1.1, "p"), (3, math.nan, "p"), (-1, 0.5, "n")])
def test_binom_pmf_names_a_bad_parameter(n, p, name):
    with pytest.raises(ValueError) as err:
        binom_pmf(np.arange(2), n, p)
    assert f"{name} must" in str(err.value)
    assert repr({"n": n, "p": p}[name]) in str(err.value)


# ------------------------------------------------------------- heavy traffic

def test_gamma_minus_negative():
    for lam in (0.1, 0.3, 0.45):
        for alpha in (0.5, 0.9, 0.999):
            gamma, c1 = ode_coefficients(lam, alpha)
            assert gamma < 0.0
            assert c1 > 0.0


def test_heavy_traffic_asymptote():
    # as alpha -> 1, Vhat(x) ~ mu (1 - rho)/(1 - alpha) + x/(1 - alpha) in the
    # relative sense once x clears the exponential layer of width
    # (mu - lam)/(1 - alpha); the agreement tightens as x grows
    lam, alpha = 0.4, 0.9999
    mu = 1 - lam
    rho = lam / mu
    layer = (mu - lam) / (1 - alpha)
    rel_errs = []
    for mult in (20, 100):
        x = mult * layer
        approx = mu * (1 - rho) / (1 - alpha) + x / (1 - alpha)
        rel_errs.append(abs(heavy_traffic_oracle(lam, alpha, x) - approx) / approx)
    assert rel_errs[0] <= 0.05
    assert rel_errs[1] <= 0.01
    assert rel_errs[1] < rel_errs[0]


def test_heavy_traffic_ode_residual():
    fn = heavy_traffic_oracle_fn(0.4, 0.99)
    rng = np.random.default_rng(0)
    lam, alpha = 0.4, 0.99
    xs = rng.uniform(0.0, 60.0, size=(100, 1))
    res = (xs[:, 0] + alpha * ((lam - (1 - lam)) * fn.grad(xs)[:, 0] + 0.5 * fn.hess(xs)[:, 0, 0])
           - (1 - alpha) * fn.value(xs))
    assert np.abs(res).max() <= 1e-8
    assert abs(fn.grad(np.zeros((1, 1)))[0, 0]) <= 1e-12


def test_heavy_traffic_oracle_vs_fd_solve():
    # independent oracle: second-order finite-difference solve of the ODE on a
    # fine mesh with V'(0) = 0 and the closed form pinned at the right edge
    lam, alpha, x_eval = 0.4, 0.99, 10.0
    mu = 1 - lam
    L, n = 80.0, 16000
    dx = L / n
    xs = np.linspace(0.0, L, n + 1)
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    rows, cols, vals, b = [], [], [], np.zeros(n + 1)
    for i in range(1, n):
        # x + alpha((lam-mu)V' + V''/2) - (1-alpha)V = 0
        rows += [i, i, i]
        cols += [i - 1, i, i + 1]
        drift = alpha * (lam - mu) / (2 * dx)
        diff = alpha * 0.5 / dx ** 2
        vals += [diff - drift, -2 * diff - (1 - alpha), diff + drift]
        b[i] = -xs[i]
    rows += [0, 0, 0]; cols += [0, 1, 2]; vals += [-3.0, 4.0, -1.0]; b[0] = 0.0  # V'(0)=0, 2nd order
    rows += [n]; cols += [n]; vals += [1.0]
    b[n] = heavy_traffic_oracle(lam, alpha, L)
    V = spla.spsolve(sp.csc_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)), b)
    i_eval = int(round(x_eval / dx))
    closed = heavy_traffic_oracle(lam, alpha, x_eval)
    assert V[i_eval] == pytest.approx(closed, rel=1e-4)


def test_heavy_traffic_chain_rows(heavy_queue):
    lam = heavy_queue.params.lam
    targets, probs = one_row(heavy_queue.mdp, (0,), 0)
    assert targets.tolist() == [0, 1]
    assert probs.tolist() == pytest.approx([1 - lam, lam])
    _, probs = one_row(heavy_queue.mdp, (heavy_queue.params.M,), 0)
    assert probs.tolist() == [1.0]
