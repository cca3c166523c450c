import numpy as np
import pytest

from taylordp.errors import NonInwardEta
from taylordp.lattice import ExplicitActionSet, LatticeMdp, StateLattice
from taylordp.models import build
from taylordp.taylor import (BoundarySpec, TaylorProblem, ellipticity_check,
                             kernel_moment_provider)

from conftest import pair_hooks, sampled_pairs


def test_moments_queue_walk():
    model = build("service_rate", M=20, alpha=0.9, cost="quartic")
    mu, s2 = kernel_moment_provider(model.mdp)(np.array([[5]]), np.array([0.3]))
    assert mu[0, 0] == pytest.approx(0.4, abs=1e-15)
    assert s2[0, 0, 0] == pytest.approx(1.0, abs=1e-15)


def test_moments_deterministic_self_loop():
    lat = StateLattice((0,), (2,))
    mdp = LatticeMdp(lat, ExplicitActionSet((0,)),
                     *pair_hooks(lambda s, u: ([lat.index(s)], [1.0]), lambda s, u: 0.0), 0.9)
    mu, s2 = kernel_moment_provider(mdp)(np.array([[1]]), np.array([0]))
    assert mu[0, 0] == 0.0
    assert s2[0, 0, 0] == 0.0


@pytest.mark.parametrize("lam", [2.0, 5.0])
@pytest.mark.parametrize("u", [0, 3, 8])
def test_inventory_moments_closed_form(lam, u):
    model = build("inventory", lam=lam, M=40, u_max=10, alpha=0.9)
    # closed forms mu = u - lam, sigma2 = (u - lam)^2 + lam, cross-checked
    # against direct summation over the truncated kernel at a safe state
    states, U = np.array([[0]]), np.array([u])
    mu_k, s2_k = kernel_moment_provider(model.mdp)(states, U)
    mu, s2 = model.problem.moments_batch(states, U)
    assert mu[0, 0] == pytest.approx(u - lam, abs=1e-12)
    assert s2[0, 0, 0] == pytest.approx((u - lam) ** 2 + lam, abs=1e-12)
    assert mu_k[0, 0] == pytest.approx(mu[0, 0], abs=1e-9)
    assert s2_k[0, 0, 0] == pytest.approx(s2[0, 0, 0], abs=1e-9)


def test_analytic_vs_kernel_agreement_all_models(service_quadratic, inventory_model,
                                                 routing_small, heavy_queue):
    rng = np.random.default_rng(1)
    for model in (service_quadratic, inventory_model, routing_small, heavy_queue):
        mdp = model.mdp
        mask = model.mass_conserving_states()
        idx = np.flatnonzero(mask)
        assert idx.size > 0
        states, U = sampled_pairs(mdp, rng.choice(idx, size=min(20, idx.size), replace=False), 5)
        mu_k, s2_k = kernel_moment_provider(mdp)(states, U)
        mu, s2 = model.problem.moments_batch(states, U)
        assert np.abs(mu_k - mu).max() <= 1e-9
        assert np.abs(s2_k - s2).max() <= 1e-9


def test_routing_drift_formula(routing2):
    # mu_i = net_i + lam_i - p_i ((x_i + net_i) ^ N_i), checked per display
    p = routing2.params
    state, u = (12, 8), (2, 0)
    mu, _ = routing2.problem.moments_batch(np.array([state]), np.array([u]))
    net = (-2, 2)
    for i in range(2):
        n_busy = min(state[i] + net[i], p.N[i])
        assert mu[0, i] == pytest.approx(net[i] + p.lam[i] - p.p[i] * n_busy, abs=1e-12)


def test_routing_offdiagonal_independence(routing_small):
    # sigma2_ij = mu_i mu_j for i != j; verified against kernel moments
    mdp = routing_small.mdp
    mask = routing_small.mass_conserving_states()
    states, U = sampled_pairs(mdp, np.flatnonzero(mask)[5:6], 4)
    _, s2_k = kernel_moment_provider(mdp)(states, U)
    mu, s2 = routing_small.problem.moments_batch(states, U)
    assert np.abs(s2[:, 0, 1] - mu[:, 0] * mu[:, 1]).max() <= 1e-12
    assert np.abs(s2_k[:, 0, 1] - s2[:, 0, 1]).max() <= 1e-9


def test_routing_empty_system_poisson_moments(routing_small):
    # zero action from the empty system: the jump is the Poisson arrival
    # vector, so mu_i = lam_i, sigma2_ii = lam_i + lam_i^2 (second moment),
    # sigma2_ij = lam_i lam_j -- the oracle is direct kernel summation
    lam = routing_small.params.lam
    mu, s2 = kernel_moment_provider(routing_small.mdp)(np.array([[0, 0]]), np.array([[0, 0]]))
    for i in range(2):
        assert mu[0, i] == pytest.approx(lam[i], abs=1e-9)
        assert s2[0, i, i] == pytest.approx(lam[i] + lam[i] ** 2, abs=1e-9)
    assert s2[0, 0, 1] == pytest.approx(lam[0] * lam[1], abs=1e-9)


def test_routing_full_pool_drift(routing2):
    # one pool exactly full, no waiting: departures Binomial(N, p)
    p = routing2.params
    mu, _ = routing2.problem.moments_batch(np.array([[10, 0]]), np.array([[0, 0]]))
    assert mu[0, 0] == pytest.approx(p.lam[0] - p.p[0] * p.N[0], abs=1e-12)


def test_boundary_spec_service(quartic_fixed):
    spec = quartic_fixed.boundary_spec
    assert spec.kind == "oblique"
    assert spec.direction([(0,), (quartic_fixed.params.M,)]).tolist() == [[1.0], [-1.0]]
    spec.validate_inward(quartic_fixed.mdp.lattice)


def test_boundary_spec_routing(routing2):
    spec = routing2.boundary_spec
    assert spec.kind == "oblique"
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


def test_drift_diffusion_covariance_psd(service_quadratic, service_quartic, inventory_model,
                                        routing2, heavy_queue):
    # sigma2 is the raw second moment, so sigma2 - mu mu' is the jump
    # covariance: symmetric and positive semidefinite at every pair
    models = {"service_quadratic": service_quadratic, "service_quartic": service_quartic,
              "inventory_model": inventory_model, "routing2": routing2, "heavy_queue": heavy_queue}
    for name, model in models.items():
        mdp = model.mdp
        mu, s2 = model.problem.moments_batch(mdp.pair_states(), mdp.action_table()[0])
        assert len(mu) == mdp.action_table()[1][-1]
        assert np.array_equal(s2, np.swapaxes(s2, 1, 2))
        cov = s2 - mu[:, :, None] * mu[:, None, :]
        assert np.linalg.eigvalsh(cov).min() >= -1e-9, name
