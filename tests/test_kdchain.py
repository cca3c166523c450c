import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taylordp as tdp
from taylordp.kdchain import (RATE_TOL, CoarseGrid, build_multidim_chain,
                              verify_tcp_equivalence)
from taylordp.models import build
from taylordp.models.routing import RoutingParams, build_routing
from taylordp.taylor import BoundarySpec, TaylorProblem

from conftest import one_reward, pair_hooks

IDENTITY_RTOL = 1e-10


# ------------------------------------------- 1-d reference formulas
# The displayed one-dimensional construction, kept here as references for
# the general stencil that build_multidim_chain applies to every pair.

class SmallDriftViolated(ValueError):
    """Central differencing would give a negative probability: sigma2 < |mu| h."""

    def __init__(self, mu, sigma2, h):
        self.mu, self.sigma2, self.h = mu, sigma2, h
        super().__init__(f"small-drift condition sigma2 >= |mu|h fails: "
                         f"sigma2={sigma2}, |mu|h={abs(mu) * h}")


def build_interior_row_1d(mu: float, sigma2: float, Sigma: float, h: float):
    """Central-difference row (p_plus, p_minus, p_stay) on an interior point.

    Requires the small-drift condition sigma2 >= |mu| h and Sigma >= sigma2.
    """
    if Sigma < sigma2 or Sigma <= 0.0:
        raise ValueError("need Sigma >= sigma2 > 0")
    if sigma2 < abs(mu) * h - RATE_TOL:
        raise SmallDriftViolated(mu, sigma2, h)
    p_plus = (mu * h + sigma2) / (2.0 * Sigma)
    p_minus = (-mu * h + sigma2) / (2.0 * Sigma)
    p_stay = 1.0 - sigma2 / Sigma
    return p_plus, p_minus, p_stay


def build_interior_row_upwind_1d(mu: float, sigma2: float, Sigma_up: float, h: float):
    """One-sided (upwind) row valid for any drift.

    With Q(x) = sup_u (|mu_u| h + sigma2_u):

        p_plus  = (mu+ h + sigma2/2) / Q
        p_minus = (mu- h + sigma2/2) / Q
        p_stay  = 1 - (|mu| h + sigma2) / Q

    First moment is exact; the second carries |mu| h slack.
    """
    if sigma2 <= 0.0:
        raise ValueError("need sigma2 > 0")
    if Sigma_up < abs(mu) * h + sigma2 - RATE_TOL:
        raise ValueError("normalizer smaller than |mu| h + sigma2")
    p_plus = (max(mu, 0.0) * h + sigma2 / 2.0) / Sigma_up
    p_minus = (max(-mu, 0.0) * h + sigma2 / 2.0) / Sigma_up
    p_stay = 1.0 - (abs(mu) * h + sigma2) / Sigma_up
    return p_plus, p_minus, p_stay


def state_discount(Sigma_or_Q: float, h: float, alpha: float) -> float:
    """alpha_h(x) = (1 + h^2/Sigma(x) (1/alpha - 1))^(-1)."""
    if Sigma_or_Q <= 0.0 or not (0.0 < alpha < 1.0) or h < 1:
        raise ValueError("need Sigma > 0, alpha in (0,1), h >= 1")
    return 1.0 / (1.0 + (h * h / Sigma_or_Q) * (1.0 / alpha - 1.0))


def rescale_reward(r: float, alpha_h: float, alpha: float, Sigma: float, h: float) -> float:
    """r~_h = alpha_h h^2 r / (alpha Sigma); checked against (1-alpha_h)/(1-alpha) r."""
    primary = alpha_h * h * h * r / (alpha * Sigma)
    identity = (1.0 - alpha_h) / (1.0 - alpha) * r
    scale = max(abs(primary), abs(identity), 1e-300)
    if abs(primary - identity) > IDENTITY_RTOL * scale:
        raise AssertionError(f"reward rescaling forms disagree: {primary} vs {identity}")
    return primary


# ---------------------------------------------------------------- 1-d rows

def test_central_row_symmetric():
    assert build_interior_row_1d(0.0, 1.0, 1.0, 1) == (0.5, 0.5, 0.0)


def test_central_row_plugin():
    p_plus, p_minus, p_stay = build_interior_row_1d(0.4, 1.0, 1.0, 1)
    assert (p_plus, p_minus, p_stay) == pytest.approx((0.7, 0.3, 0.0))


def test_central_row_small_drift_violation():
    with pytest.raises(SmallDriftViolated):
        build_interior_row_1d(2.0, 0.5, 1.0, 1)


def test_upwind_reduces_to_central_at_zero_drift():
    q = 1.0
    assert build_interior_row_upwind_1d(0.0, 1.0, q, 1) == build_interior_row_1d(0.0, 1.0, q, 1)


def test_upwind_plugin():
    # mu=2, sigma2=0.5, h=1, Q = |mu| h + sigma2 = 2.5
    p_plus, p_minus, p_stay = build_interior_row_upwind_1d(2.0, 0.5, 2.5, 1)
    assert (p_plus, p_minus, p_stay) == pytest.approx((0.9, 0.1, 0.0))


def test_upwind_local_consistency():
    # first moment exact, second moment = sigma2 + |mu| h, for mu = -1
    mu, sig2, h = -1.0, 1.0, 1
    q = abs(mu) * h + sig2
    p_plus, p_minus, p_stay = build_interior_row_upwind_1d(mu, sig2, q, h)
    mean = h * (p_plus - p_minus)
    second = h * h * (p_plus + p_minus)
    assert mean == pytest.approx(mu * h * h / q, abs=1e-15)
    assert second == pytest.approx((sig2 + abs(mu) * h) * h * h / q, abs=1e-15)


def test_state_discount_identity():
    assert state_discount(4.0, 2, 0.9) == pytest.approx(0.9)      # h^2 = Sigma
    assert state_discount(2.0, 1, 0.99) == pytest.approx(0.9949748743718592, abs=1e-15)
    assert state_discount(1.0, 1, 1 - 1e-9) == pytest.approx(1.0, abs=1e-8)


def test_rescale_reward_forms_agree():
    assert rescale_reward(0.0, 0.5, 0.9, 1.0, 1) == 0.0
    a_h = state_discount(1.0, 1, 0.99)
    assert a_h == pytest.approx(0.99)
    assert rescale_reward(-10.0, a_h, 0.99, 1.0, 1) == pytest.approx(-10.0)


@settings(max_examples=1000, deadline=None)
@given(st.floats(0.05, 0.999), st.integers(1, 8), st.floats(0.1, 50.0),
       st.floats(-100.0, 100.0))
def test_rescale_reward_identity_property(alpha, h, sigma, r):
    a_h = state_discount(sigma, h, alpha)
    primary = rescale_reward(r, a_h, alpha, sigma, h)
    assert primary == pytest.approx((1 - a_h) / (1 - alpha) * r, rel=1e-10, abs=1e-12)


# ------------------------------------------------------------ boundary rows

def pair_row(chain, state_index: int, action_index: int):
    """(targets, probs, reward) of one chain pair, read from chain.assembly()."""
    asm = chain.assembly()
    pair = asm.offsets[state_index] + action_index
    lo, hi = asm.row_ptr[pair], asm.row_ptr[pair + 1]
    return asm.col_idx[lo:hi], asm.probs[lo:hi], asm.rewards[pair]


def test_boundary_rows_1d(quartic_fixed):
    chain = tdp.build_multidim_chain(quartic_fixed.problem, 2)
    g = chain.grid
    # x = 0 reflects to h with no reward and no discount
    targets, probs, r = pair_row(chain, 0, 0)
    assert g.point(int(targets[0])) == (2,) and probs[0] == 1.0 and r == 0.0
    assert chain.discounts[0] == 1.0
    # x = M reflects to M - h
    last = chain.n_states - 1
    targets, probs, r = pair_row(chain, last, 0)
    assert g.point(int(targets[0])) == (quartic_fixed.params.M - 2,)
    assert probs[0] == 1.0 and r == 0.0 and chain.discounts[last] == 1.0


def test_boundary_corner_steps_inward_in_all_binding_coordinates(routing2):
    chain = build_multidim_chain(routing2.problem, 2)
    # the (0, 0) corner reflects to (h, h)
    corner = 0
    assert chain.grid.point(corner) == (0, 0)
    targets, probs, r = pair_row(chain, corner, 0)
    assert chain.grid.point(int(targets[0])) == (2, 2)
    assert probs[0] == 1.0 and r == 0.0 and chain.discounts[corner] == 1.0


# ----------------------------------------------------- multi-d construction

def _toy_2d_problem(sig12, mu=(0.0, 0.0), diag=(1.0, 1.0), nu=11):
    from taylordp.lattice import ExplicitActionSet, LatticeMdp, StateLattice
    lat = StateLattice((0, 0), (nu - 1, nu - 1))

    # placeholder kernel; chain construction uses moments only
    mdp = LatticeMdp(lat, ExplicitActionSet(((0, 0),)),
                     *pair_hooks(lambda s, u: ([lat.index(s)], [1.0]), lambda s, u: 1.0), 0.9)
    s2 = np.array([[diag[0], sig12], [sig12, diag[1]]])
    moments_batch = lambda s, U: (np.tile(np.asarray(mu, dtype=np.float64), (len(U), 1)),
                                  np.tile(s2, (len(U), 1, 1)))
    eta = lambda states: np.where(states == 0, 1.0, np.where(states == nu - 1, -1.0, 0.0))
    return TaylorProblem(mdp, moments_batch, BoundarySpec(kind="oblique", eta=eta))


def test_diagonal_sigma_gives_product_of_1d_stencils():
    prob = _toy_2d_problem(0.0, mu=(0.2, -0.3), diag=(1.0, 2.0))
    chain = build_multidim_chain(prob, 1)
    # interior state: four face targets with the 1-d central probabilities
    idx = next(i for i in range(chain.n_states) if chain.grid.point(i) == (5, 5))
    targets, probs, _ = pair_row(chain, idx, 0)
    q = chain.Q[idx]
    assert q == pytest.approx(3.0)  # sum sigma_ii / h^2
    got = {chain.grid.point(int(t)): p for t, p in zip(targets, probs)}
    assert got[(6, 5)] == pytest.approx((1.0 + 0.2) / (2 * q))
    assert got[(4, 5)] == pytest.approx((1.0 - 0.2) / (2 * q))
    assert got[(5, 6)] == pytest.approx((2.0 - 0.3) / (2 * q))
    assert got[(5, 4)] == pytest.approx((2.0 + 0.3) / (2 * q))


def test_not_diagonally_dominant_strict():
    # sigma2_12 > sigma2_11: the corner mass is clipped, and the verifier
    # tells that equivalence apart from an exact one
    prob = _toy_2d_problem(1.5)
    chain = build_multidim_chain(prob, 1)
    assert chain.cross_scale.min() < 1.0
    rep = verify_tcp_equivalence(chain, prob)
    assert rep.passed
    assert rep.exact is False and rep.clipped_pairs > 0
    assert rep.max_clip == pytest.approx(1.0 - chain.cross_scale.min())
    # a diagonal sigma2 with zero drift is represented exactly
    prob = _toy_2d_problem(0.0)
    rep = verify_tcp_equivalence(
        build_multidim_chain(prob, 1), prob)
    assert rep.exact is True
    assert rep.clipped_pairs == rep.inflated_pairs == 0 and rep.max_slack == 0.0


def test_grid_keeps_upper_bound_and_narrow_cell():
    grid = CoarseGrid.from_lattice(tdp.StateLattice((0,), (10,)), 4)
    assert grid.axes[0].tolist() == [0, 4, 8, 10]
    assert np.diff(grid.axes[0]).tolist() == [4, 4, 2]   # the point 8: hl = 4, hr = 2


def test_nearest_map_ties_toward_smaller():
    grid = CoarseGrid.from_lattice(tdp.StateLattice((0,), (8,)), 2)
    idx = grid.nearest_index(np.array([[1], [3], [4]]))
    assert [grid.point(int(i))[0] for i in idx] == [0, 2, 4]


# ------------------------------------------------- equivalence + invariants

MODELS_AND_H = [
    ("service_quadratic", (1, 2, 4, 8)),
    ("inventory_model", (1, 2, 4, 8)),
    ("routing2", (1, 2, 4, 8)),
    ("heavy_queue", (1, 2, 4, 8)),
]


@pytest.mark.parametrize("fixture_name,hs", MODELS_AND_H)
def test_rows_stochastic_and_sparse_all_h(fixture_name, hs, request):
    model = request.getfixturevalue(fixture_name)
    d = model.mdp.lattice.dim
    nnz_cap = 1 + 2 * d + 2 * d * (d - 1)
    for h in hs:
        chain = tdp.build_multidim_chain(model.problem, h)
        asm = chain.assembly()
        sums = np.add.reduceat(asm.probs, asm.row_ptr[:-1])
        assert asm.probs.min() >= 0.0
        assert np.abs(sums - 1.0).max() <= 1e-12
        counts = np.diff(asm.row_ptr)
        assert counts.max() <= nnz_cap


@pytest.mark.parametrize("fixture_name,hs", MODELS_AND_H)
def test_tcp_equivalence_all_h(fixture_name, hs, request):
    model = request.getfixturevalue(fixture_name)
    for h in hs:
        chain = tdp.build_multidim_chain(model.problem, h)
        rep = verify_tcp_equivalence(chain, model.problem)
        assert rep.checked_pairs > 0
        assert rep.passed, (fixture_name, h, rep.worst[:3])


def test_tcp_equivalence_routing3_subsampled():
    params = RoutingParams(J=3, N=(4, 4, 4), M=6, p=(0.5, 0.5, 0.5),
                           lam=(1.4, 1.4, 1.4), B=(1, 1, 2, 1, 2, 1),
                           H=(1.0, 2.0, 3.0), alpha=0.99)
    model = build_routing(params)
    for h in (1, 2, 4):
        chain = tdp.build_multidim_chain(model.problem, h)
        rep = verify_tcp_equivalence(chain, model.problem)
        assert rep.passed, (h, rep.worst[:3])


def test_upwind_scheme_also_equivalent(inventory_model):
    # lam = 2: orders far from lam violate small drift at h >= 4
    chain = tdp.build_multidim_chain(inventory_model.problem, 4, scheme="upwind")
    assert chain.second_moment_slack.max() > 0.0
    rep = verify_tcp_equivalence(chain, inventory_model.problem)
    assert rep.passed
    assert not rep.exact and rep.inflated_pairs > 0
    assert rep.max_slack == chain.second_moment_slack.max()


def test_verifier_detects_corrupted_rows(quartic_fixed):
    # tampering with a single interior probability must surface in the report
    chain = tdp.build_multidim_chain(quartic_fixed.problem, 2)
    asm = chain.assembly()
    interior = int(np.flatnonzero(chain.interior_mask)[3])
    pair = asm.offsets[interior]
    lo, hi = asm.row_ptr[pair], asm.row_ptr[pair + 1]
    asm.probs[lo] += 0.05
    asm.probs[lo + 1] -= 0.05
    rep = verify_tcp_equivalence(chain, quartic_fixed.problem)
    assert not rep.passed
    assert rep.max_first_moment_err > 1e-3


def test_general_builder_matches_1d_row_ops(service_quadratic):
    # on a uniform 1-d interior state the chain rows must equal the displayed
    # central formulas with Sigma(x) = Q(x) h^2
    h = 2
    chain = tdp.build_multidim_chain(service_quadratic.problem, h)
    idx = next(i for i in range(chain.n_states) if chain.grid.point(i) == (50,))
    Sigma = chain.Q[idx] * h * h
    acts = chain.actions_at(idx)
    for a, u in enumerate(acts):
        mu, sig2 = 1.0 - 2.0 * u, 1.0
        if sig2 < abs(mu) * h:        # fallback region: covered elsewhere
            continue
        p_plus, p_minus, p_stay = build_interior_row_1d(mu, sig2, Sigma, h)
        targets, probs, r = pair_row(chain, idx, a)
        got = {chain.grid.point(int(t))[0]: p for t, p in zip(targets, probs)}
        assert got.get(52, 0.0) == pytest.approx(p_plus, abs=1e-14)
        assert got.get(48, 0.0) == pytest.approx(p_minus, abs=1e-14)
        assert got.get(50, 0.0) == pytest.approx(p_stay, abs=1e-14)
        alpha = service_quadratic.params.alpha
        a_h = state_discount(Sigma, h, alpha)
        assert chain.discounts[idx] == pytest.approx(a_h, abs=1e-14)
        expected_r = rescale_reward(one_reward(service_quadratic.mdp, (50,), u), a_h,
                                    alpha, Sigma, h)
        assert r == pytest.approx(expected_r, rel=1e-12)


def test_fot_boundary_chain_at_h1_equals_fine_chain(quartic_fixed):
    # with first-order boundary rows and h = 1, the coarse chain IS the fine
    # chain: V(0) = r(0) + alpha V(1) is exactly the model's own row at 0
    problem = quartic_fixed.fot_boundary_problem()
    chain = tdp.build_multidim_chain(problem, 1)
    res = tdp.policy_iteration(chain)
    fine = tdp.policy_evaluation(quartic_fixed.mdp,
                                 np.zeros(quartic_fixed.mdp.n_states, dtype=np.int64))
    assert np.abs(res.values - fine).max() <= 1e-7 * (1.0 + np.abs(fine).max())
    # boundary discount and reward scale check at h = 1
    alpha = quartic_fixed.params.alpha
    assert chain.discounts[0] == pytest.approx(alpha)
    _, _, r0 = pair_row(chain, 0, 0)
    assert r0 == pytest.approx(one_reward(quartic_fixed.mdp, (0,), 0.5))


def test_chain_policy_evaluation_reproduces_closed_form_trend():
    # h = 1 on the +-1-jump quartic walk under fixed u = 1/2: the chain value
    # approaches the closed form (sup-norm relative over [0, M/2]) as M grows
    errs = []
    for M in (50, 100, 200):
        model = build("service_rate", M=M, alpha=0.9, cost="quartic", fixed_u=0.5)
        chain = tdp.build_multidim_chain(model.problem, 1)
        res = tdp.policy_iteration(chain)
        xs = np.arange(M // 2 + 1.0)
        vh = model.oracle().value(xs[:, None])
        errs.append(np.abs(res.values[: M // 2 + 1] - vh).max() / np.abs(vh).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-4
