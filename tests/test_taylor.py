import numpy as np
import pytest

from taylordp.errors import NonInwardEta
from taylordp.lattice import ExplicitActionSet, LatticeMdp, StateLattice
from taylordp.models import build
from taylordp.taylor import (BoundarySpec, DriftDiffusion, TaylorProblem,
                             ellipticity_check, moments_from_kernel, oblique_eta)

from conftest import pair_hooks


def test_moments_queue_walk():
    model = build("service_rate", M=20, alpha=0.9, cost="quartic")
    dd = moments_from_kernel(model.mdp, (5,), 0.3)
    assert dd.mu[0] == pytest.approx(0.4, abs=1e-15)
    assert dd.sigma2[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_moments_deterministic_self_loop():
    lat = StateLattice((0,), (2,))
    mdp = LatticeMdp(lat, ExplicitActionSet((0,)),
                     *pair_hooks(lambda s, u: ([lat.index(s)], [1.0]), lambda s, u: 0.0), 0.9)
    dd = moments_from_kernel(mdp, (1,), 0)
    assert dd.mu[0] == 0.0
    assert dd.sigma2[0, 0] == 0.0


@pytest.mark.parametrize("lam", [2.0, 5.0])
@pytest.mark.parametrize("u", [0, 3, 8])
def test_inventory_moments_closed_form(lam, u):
    model = build("inventory", lam=lam, M=40, u_max=10, alpha=0.9)
    # closed forms mu = u - lam, sigma2 = (u - lam)^2 + lam, cross-checked
    # against direct summation over the truncated kernel at a safe state
    state = (0,)
    dd_kernel = moments_from_kernel(model.mdp, state, u)
    dd_analytic = model.problem.moments(state, u)
    assert dd_analytic.mu[0] == pytest.approx(u - lam, abs=1e-12)
    assert dd_analytic.sigma2[0, 0] == pytest.approx((u - lam) ** 2 + lam, abs=1e-12)
    assert dd_kernel.mu[0] == pytest.approx(dd_analytic.mu[0], abs=1e-9)
    assert dd_kernel.sigma2[0, 0] == pytest.approx(dd_analytic.sigma2[0, 0], abs=1e-9)


def test_analytic_vs_kernel_agreement_all_models(service_quadratic, inventory_model,
                                                 routing_small, heavy_queue):
    rng = np.random.default_rng(1)
    for model in (service_quadratic, inventory_model, routing_small, heavy_queue):
        mdp = model.mdp
        mask = model.mass_conserving_states()
        idx = np.flatnonzero(mask)
        assert idx.size > 0
        for i in rng.choice(idx, size=min(20, idx.size), replace=False):
            state = mdp.lattice.state(int(i))
            for u in mdp.actions_at(int(i))[:5]:
                dk = moments_from_kernel(mdp, state, u)
                da = model.problem.moments(state, u)
                assert np.abs(dk.mu - da.mu).max() <= 1e-9
                assert np.abs(dk.sigma2 - da.sigma2).max() <= 1e-9


def test_routing_drift_formula(routing2):
    # mu_i = net_i + lam_i - p_i ((x_i + net_i) ^ N_i), checked per display
    p = routing2.params
    state, u = (12, 8), (2, 0)
    dd = routing2.problem.moments(state, u)
    net = (-2, 2)
    for i in range(2):
        n_busy = min(state[i] + net[i], p.N[i])
        assert dd.mu[i] == pytest.approx(net[i] + p.lam[i] - p.p[i] * n_busy, abs=1e-12)


def test_routing_offdiagonal_independence(routing_small):
    # sigma2_ij = mu_i mu_j for i != j; verified against kernel moments
    mdp = routing_small.mdp
    mask = routing_small.mass_conserving_states()
    i = int(np.flatnonzero(mask)[5])
    state = mdp.lattice.state(i)
    for u in mdp.actions_at(i)[:4]:
        dk = moments_from_kernel(mdp, state, u)
        da = routing_small.problem.moments(state, u)
        assert da.sigma2[0, 1] == pytest.approx(da.mu[0] * da.mu[1], abs=1e-12)
        assert dk.sigma2[0, 1] == pytest.approx(da.sigma2[0, 1], abs=1e-9)


def test_routing_empty_system_poisson_moments(routing_small):
    # zero action from the empty system: the jump is the Poisson arrival
    # vector, so mu_i = lam_i, sigma2_ii = lam_i + lam_i^2 (second moment),
    # sigma2_ij = lam_i lam_j -- the oracle is direct kernel summation
    lam = routing_small.params.lam
    dk = moments_from_kernel(routing_small.mdp, (0, 0), (0, 0))
    for i in range(2):
        assert dk.mu[i] == pytest.approx(lam[i], abs=1e-9)
        assert dk.sigma2[i, i] == pytest.approx(lam[i] + lam[i] ** 2, abs=1e-9)
    assert dk.sigma2[0, 1] == pytest.approx(lam[0] * lam[1], abs=1e-9)


def test_routing_full_pool_drift(routing2):
    # one pool exactly full, no waiting: departures Binomial(N, p)
    p = routing2.params
    state = (10, 0)
    dd = routing2.problem.moments(state, (0, 0))
    assert dd.mu[0] == pytest.approx(p.lam[0] - p.p[0] * p.N[0], abs=1e-12)


def test_oblique_eta_service(quartic_fixed):
    spec = oblique_eta(quartic_fixed)
    assert spec.direction([(0,), (quartic_fixed.params.M,)]).tolist() == [[1.0], [-1.0]]
    spec.validate_inward(quartic_fixed.mdp.lattice)


def test_oblique_eta_routing(routing2):
    spec = oblique_eta(routing2)
    eta = spec.direction([(0, 5)])[0]
    assert eta[0] == pytest.approx(routing2.params.p[0])
    assert eta[1] == 0.0
    # corner combines both faces
    eta0 = spec.direction([(0, 0)])[0]
    assert eta0[0] > 0 and eta0[1] > 0
    spec.validate_inward(routing2.mdp.lattice)


def test_eta_inward_validation_rejects_outward():
    lat = StateLattice((0,), (3,))
    bad = BoundarySpec(kind="oblique", eta=lambda states: np.full(states.shape, -1.0))
    with pytest.raises(NonInwardEta):
        bad.validate_inward(lat)


def test_boundary_hook_returns_one_direction_per_state():
    # the hooks are batch: a per-state (d,) answer for several states is rejected
    spec = BoundarySpec(kind="oblique", eta=lambda states: np.ones(states.shape[1]))
    with pytest.raises(ValueError):
        spec.direction([(0,), (3,)])


def test_ellipticity_service(quartic_fixed):
    rep = ellipticity_check(quartic_fixed.problem)
    assert rep.passed
    assert rep.lambda_min == pytest.approx(1.0)
    assert rep.lambda_max == pytest.approx(1.0)


def test_ellipticity_inventory(inventory_model):
    rep = ellipticity_check(inventory_model.problem)
    assert rep.passed
    assert rep.lambda_min >= inventory_model.params.lam - 1e-12


def test_ellipticity_degenerate_fails():
    lat = StateLattice((0,), (3,))
    mdp = LatticeMdp(lat, ExplicitActionSet((0,)),
                     *pair_hooks(lambda s, u: ([lat.index(s)], [1.0]), lambda s, u: 0.0), 0.9)
    zero_moments = lambda s, U: (np.zeros((len(U), 1)), np.zeros((len(U), 1, 1)))
    problem = TaylorProblem(mdp, zero_moments,
                            BoundarySpec(kind="oblique",
                                         eta=lambda states: np.where(states == 0, 1.0, -1.0)))
    rep = ellipticity_check(problem)
    assert not rep.passed


def test_drift_diffusion_covariance_psd():
    DriftDiffusion([1.0], [[1.0]]).validate_covariance()    # cov = 0
    with pytest.raises(ValueError):
        DriftDiffusion([2.0], [[1.0]]).validate_covariance()  # cov = -3
    with pytest.raises(ValueError):
        DriftDiffusion([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])  # asymmetric
