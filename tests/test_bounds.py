import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taylordp as tdp
from taylordp.bounds import (SmoothFunction, corner_states, discounted_accumulation,
                             fd_hessian_1d, gap_report, holder_seminorm_estimate,
                             taylor_remainder, third_derivative_proxy)
from taylordp.errors import InsufficientNeighborhood, OutOfStencilRange
from taylordp.models import build
from taylordp.models.service_rate import quartic_oracle


def _poly(coeffs):
    """SmoothFunction for a 1-d polynomial sum c_k x^k."""
    c = np.asarray(coeffs, dtype=np.float64)
    dc = np.polynomial.polynomial.polyder(c)
    ddc = np.polynomial.polynomial.polyder(c, 2)
    polyval = np.polynomial.polynomial.polyval
    return SmoothFunction(lambda x: polyval(x[:, 0], c), lambda x: polyval(x, dc),
                          lambda x: polyval(x, ddc)[:, :, None])


def _quadratic_2d():
    """1 + x0 - 2 x1 + x0^2 / 2 + x1^2 / 4 + x0 x1 / 10 on (n, 2) coordinates."""
    hess = np.array([[1.0, 0.1], [0.1, 0.5]])
    return SmoothFunction(
        lambda x: (1.0 + x[:, 0] - 2 * x[:, 1] + 0.5 * x[:, 0] ** 2 + 0.25 * x[:, 1] ** 2
                   + 0.1 * x[:, 0] * x[:, 1]),
        lambda x: np.array([1.0, -2.0]) + x @ hess,
        lambda x: np.broadcast_to(hess, (len(x), 2, 2)))


def per_state_taylor_remainder(problem, policy, phi):
    """The per-state loop taylor_remainder replaced, kept as its reference.

    One rows() call for the policy's rows, then per state one
    probs @ phi[targets] dot and one grad and one hess call on a (1, d)
    coordinate array.
    """
    mdp = problem.mdp
    alpha = mdp.discount
    states = mdp.lattice.states()
    phi_states = phi.value(states)
    U, offsets = mdp.action_table()
    chosen = U[offsets[:-1] + policy]
    mu_b, s2_b = problem.moments_batch(states, chosen)
    row_ptr, targets, probs = mdp.rows(states, chosen)
    out = np.empty(mdp.n_states)
    for i in range(mdp.n_states):
        x = states[i:i + 1]
        lo, hi = row_ptr[i], row_ptr[i + 1]
        p_phi = float(probs[lo:hi] @ phi_states[targets[lo:hi]])
        lu = (float(mu_b[i] @ phi.grad(x)[0])
              + 0.5 * float(np.trace(s2_b[i] @ phi.hess(x)[0])))
        out[i] = alpha * (p_phi - phi_states[i]) - alpha * lu
    return out


def test_remainder_vanishes_on_quadratics(quartic_fixed, routing_small):
    # with the kernel's own moments, the second-order expansion is exact on
    # quadratics at every state, including truncation-modified rows
    from taylordp.taylor import TaylorProblem, kernel_moment_provider
    for model in (quartic_fixed,):
        mdp = model.mdp
        kernel_prob = TaylorProblem(mdp, kernel_moment_provider(mdp))
        pol = np.zeros(mdp.n_states, dtype=np.int64)
        rem = taylor_remainder(kernel_prob, pol, _poly([2.0, -1.0, 0.5]))
        assert np.abs(rem).max() <= 1e-9
        # the analytic extension agrees wherever truncation leaves rows intact
        rem_a = taylor_remainder(model.problem, pol, _poly([2.0, -1.0, 0.5]))
        assert np.abs(rem_a[model.mass_conserving_states()]).max() <= 1e-9
    # multi-d quadratic on the routing model: restrict to mass-conserving
    # states, where kernel rows and analytic moments describe the same
    # jump, so the remainder must vanish
    mask = routing_small.mass_conserving_states()
    pol = np.zeros(routing_small.mdp.n_states, dtype=np.int64)
    rem = taylor_remainder(routing_small.problem, pol, _quadratic_2d())
    assert np.abs(rem[mask]).max() <= 1e-8


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_remainder_zero_on_random_quadratics(coeffs):
    from taylordp.taylor import TaylorProblem, kernel_moment_provider
    model = build("service_rate", M=20, alpha=0.9, cost="quartic", fixed_u=0.5)
    prob = TaylorProblem(model.mdp, kernel_moment_provider(model.mdp))
    pol = np.zeros(model.mdp.n_states, dtype=np.int64)
    rem = taylor_remainder(prob, pol, _poly(coeffs))
    assert np.abs(rem).max() <= 1e-8 * (1 + np.abs(coeffs).max())


def _quartic_cases(model):
    from taylordp.bounds import GridFunction1d
    from taylordp.taylor import TaylorProblem, kernel_moment_provider
    mdp = model.mdp
    kernel_prob = TaylorProblem(mdp, kernel_moment_provider(mdp))
    xs = np.arange(mdp.n_states, dtype=np.float64)
    return [(model.problem, model.oracle()),
            (kernel_prob, _poly([1.0, -0.5, 0.25, 0.01])),
            (model.problem, GridFunction1d(np.sin(xs / 7.0) * xs)),
            (kernel_prob, GridFunction1d(model.oracle().value(xs[:, None])))]


def test_remainder_matches_per_state_loop_bit_for_bit(quartic_fixed):
    # u = 1/2 rows: both products of a two-entry row are exact, so the
    # operator's sum and the per-row BLAS dot round alike
    pol = np.zeros(quartic_fixed.mdp.n_states, dtype=np.int64)
    for problem, phi in _quartic_cases(quartic_fixed):
        fast = taylor_remainder(problem, pol, phi)
        assert np.array_equal(fast, per_state_taylor_remainder(problem, pol, phi))


@pytest.mark.parametrize("name", ["heavy_queue", "service_quadratic", "inventory_model"])
def test_remainder_matches_per_state_loop(name, request):
    # the policy operator adds p0 f0 + p1 f1 where the per-row dot may fuse
    # them: the two agree to rounding, relative to the size of Phi
    from taylordp.bounds import GridFunction1d
    model = request.getfixturevalue(name)
    mdp = model.mdp
    pol = tdp.policy_iteration(mdp).policy
    xs = mdp.lattice.states()[:, 0].astype(float)
    phis = [_poly([1.0, -0.5, 0.25, 0.01]), GridFunction1d(np.sin(xs / 7) * xs, lower=int(xs[0]))]
    if name == "heavy_queue":
        phis.append(model.oracle())
    for phi in phis:
        fast = taylor_remainder(model.problem, pol, phi)
        ref = per_state_taylor_remainder(model.problem, pol, phi)
        assert np.abs(fast - ref).max() <= 1e-12 * (1.0 + np.abs(phi.value(xs[:, None])).max())


def test_remainder_routing_one_pass_without_kernel_rows(routing_small, monkeypatch):
    # P^U Phi is one factored matvec: no kernel row is read
    mdp = routing_small.mdp
    pol = np.zeros(mdp.n_states, dtype=np.int64)
    phi = _quadratic_2d()

    def no_kernel(states, U):
        raise AssertionError("taylor_remainder read kernel rows")

    with monkeypatch.context() as patch:
        patch.setattr(mdp, "kernel", no_kernel)
        fast = taylor_remainder(routing_small.problem, pol, phi)
    mask = routing_small.mass_conserving_states()
    assert np.abs(fast[mask]).max() <= 1e-8
    ref = per_state_taylor_remainder(routing_small.problem, pol, phi)
    assert np.abs(fast - ref).max() <= 1e-12 * (1.0 + np.abs(phi.value(mdp.lattice.states())).max())


def test_smooth_function_takes_coordinate_arrays_only():
    phi = _poly([0.0, 1.0, 1.0])
    assert phi.value([[1.0], [2.0]]).tolist() == [2.0, 6.0]
    assert phi.grad([[1.0]]).shape == (1, 1) and phi.hess([[1.0]]).shape == (1, 1, 1)
    for coords in (1.0, [1.0, 2.0], np.zeros((2, 1, 1))):
        for method in (phi.value, phi.grad, phi.hess):
            with pytest.raises(ValueError, match="coordinates"):
                method(coords)
    flat = SmoothFunction(lambda x: x[:, 0], lambda x: x[:, 0], lambda x: x)
    with pytest.raises(ValueError, match="shape"):
        flat.grad([[1.0], [2.0]])
    with pytest.raises(ValueError, match="shape"):
        flat.hess([[1.0], [2.0]])


def test_remainder_hand_values(quartic_fixed):
    # on the u = 1/2 walk: x^3 has zero remainder, x^4 has remainder alpha
    mdp = quartic_fixed.mdp
    alpha = quartic_fixed.params.alpha
    pol = np.zeros(mdp.n_states, dtype=np.int64)
    i5 = mdp.lattice.index((5,))
    rem3 = taylor_remainder(quartic_fixed.problem, pol, _poly([0, 0, 0, 1]))
    assert rem3[i5] == pytest.approx(0.0, abs=1e-9)
    rem4 = taylor_remainder(quartic_fixed.problem, pol, _poly([0, 0, 0, 0, 1]))
    assert rem4[i5] == pytest.approx(alpha, abs=1e-9)


@pytest.mark.parametrize("alpha,M", [(0.9, 50), (0.9, 100), (0.99, 50), (0.99, 100)])
def test_gap_bound_inequality_fixed_policy(alpha, M):
    # |accumulation of A| <= accumulation of |A| at every state, no tolerance;
    # and the accumulation identity pins the left side to |Vhat - V_U|
    model = build("service_rate", M=M, alpha=alpha, cost="quartic", fixed_u=0.5)
    mdp = model.mdp
    pol = np.zeros(mdp.n_states, dtype=np.int64)
    phi = model.oracle()
    rem = taylor_remainder(model.problem, pol, phi)
    lhs = np.abs(tdp.discounted_functional(mdp, pol, rem))
    rhs = discounted_accumulation(mdp, pol, np.abs(rem))
    assert (lhs <= rhs).all()
    v_u = tdp.policy_evaluation(mdp, pol)
    v_hat = phi.value(mdp.lattice.states())
    ident = np.abs((v_hat - v_u) + tdp.discounted_functional(mdp, pol, rem))
    assert ident.max() <= 1e-12 * (1.0 + np.abs(v_hat).max())
    # strict slack exists away from the boundary layer
    assert (rhs - lhs)[: M // 2].min() >= 0.0


def test_accumulation_constant_and_validation(quartic_fixed):
    mdp = quartic_fixed.mdp
    pol = np.zeros(mdp.n_states, dtype=np.int64)
    ones = discounted_accumulation(mdp, pol, np.ones(mdp.n_states))
    assert np.allclose(ones, 1.0 / (1.0 - quartic_fixed.params.alpha), rtol=1e-10)
    with pytest.raises(ValueError):
        discounted_accumulation(mdp, pol, -np.ones(mdp.n_states))
    g = np.ones(mdp.n_states)
    g[[7, 9]] = np.nan
    with pytest.raises(ValueError, match="state 7 is not finite"):
        discounted_accumulation(mdp, pol, g)


def test_corner_occupancy_is_discounted_functional(routing_small):
    mdp = routing_small.mdp
    pol = np.zeros(mdp.n_states, dtype=np.int64)
    mask = corner_states(mdp.lattice)
    occ = discounted_accumulation(mdp, pol, mask.astype(float))
    direct = tdp.discounted_functional(mdp, pol, mask.astype(float))
    assert np.array_equal(occ, direct)
    assert occ.max() <= 1.0 / (1.0 - mdp.discount) + 1e-9


def test_proxy_exact_on_cubic():
    xs = np.arange(30.0)
    prox = third_derivative_proxy(xs ** 3)
    assert np.allclose(prox[2:-2], 6.0, atol=1e-9)
    assert np.isnan(prox[:2]).all() and np.isnan(prox[-2:]).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=4, max_size=4), st.integers(1, 3))
def test_proxy_linear_and_exact_degree3(coeffs, h):
    xs = np.arange(0.0, 40.0, h)
    vals = np.polynomial.polynomial.polyval(xs, coeffs)
    prox = third_derivative_proxy(vals, h)
    assert np.allclose(prox[2:-2], 6.0 * coeffs[3], atol=1e-7)


def test_proxy_superposition():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(2)
    v1, v2 = rng.standard_normal(20), rng.standard_normal(20)
    combined = third_derivative_proxy(a * v1 + b * v2)
    parts = a * third_derivative_proxy(v1) + b * third_derivative_proxy(v2)
    assert np.allclose(combined[2:-2], parts[2:-2], atol=1e-12)


def test_proxy_out_of_range():
    with pytest.raises(OutOfStencilRange):
        third_derivative_proxy(np.arange(4.0))


def test_grid_function_remainder(quartic_fixed):
    # grid values with finite-difference derivatives: the remainder of a
    # quadratic sampled on the lattice vanishes away from the edges
    from taylordp.bounds import GridFunction1d
    xs = np.arange(quartic_fixed.params.M + 1.0)
    phi = GridFunction1d(2.0 + xs - 0.25 * xs ** 2)
    pol = np.zeros(quartic_fixed.mdp.n_states, dtype=np.int64)
    rem = taylor_remainder(quartic_fixed.problem, pol, phi)
    assert np.abs(rem[1:-1]).max() <= 1e-9
    assert phi.one_sided[[0, -1]].all() and not phi.one_sided[1:-1].any()


def test_grid_function_spacing_two():
    from taylordp.bounds import GridFunction1d
    xs = np.arange(0.0, 10.0, 2.0)
    phi = GridFunction1d(xs ** 2, lower=0, h=2)
    assert phi.value([[2.0]])[0] == 4.0 and np.array_equal(phi.value(xs[:, None]), xs ** 2)
    assert phi.grad([[4.0]])[0, 0] == 8.0 and phi.hess([[4.0]])[0, 0, 0] == 2.0
    # one-sided at the edges
    assert phi.grad([[0.0], [8.0]])[:, 0].tolist() == [2.0, 14.0]
    assert phi.hess(xs[:, None]).shape == (5, 1, 1)


@pytest.mark.parametrize("coord", [-1.0, 3.0, 10.0])
def test_grid_function_off_grid_raises(coord):
    from taylordp.bounds import GridFunction1d
    phi = GridFunction1d(np.arange(0.0, 10.0, 2.0) ** 2, lower=0, h=2)
    for method in (phi.value, phi.grad, phi.hess):
        with pytest.raises(OutOfStencilRange):
            method([[4.0], [coord]])


@pytest.mark.parametrize("n", [1, 2])
def test_derivatives_need_three_grid_values(n):
    from taylordp.bounds import GridFunction1d
    with pytest.raises(OutOfStencilRange):
        fd_hessian_1d(np.arange(float(n)))
    with pytest.raises(OutOfStencilRange):
        GridFunction1d(np.arange(float(n)))


def test_holder_estimate_zero_on_quadratics():
    xs = np.arange(0.0, 30.0)
    hess, _ = fd_hessian_1d(3 * xs ** 2 - xs + 1)
    est = holder_seminorm_estimate(hess[1:-1], xs[1:-1], radius=3.0, beta=1.0)
    assert np.abs(est).max() <= 1e-9


def test_holder_estimate_quartic_bound():
    # closed form: |D^3 Vhat| <= 24 x/(1-alpha), so the Lipschitz estimate of
    # the second differences within [x - r, x + r] is below 24 (x + r)/(1-alpha)
    alpha, M, r = 0.9, 60, 2.0
    orc = quartic_oracle(alpha)
    xs = np.arange(M + 1.0)
    hess, _ = fd_hessian_1d(orc.value(xs[:, None]))
    est = holder_seminorm_estimate(hess[1:-1], xs[1:-1], radius=r, beta=1.0)
    bound = 24.0 * (xs[1:-1] + r) / (1.0 - alpha)
    assert (est <= bound + 1e-9).all()


def test_holder_estimate_radius_too_small():
    # the first state without a neighbour in range is named with its nearest distance
    with pytest.raises(InsufficientNeighborhood,
                       match=r"state 0 has no neighbor within radius 0.5; the nearest is 1.0 away"):
        holder_seminorm_estimate(np.zeros(5), np.arange(5.0), radius=0.5)


def dense_holder_estimate(hessians, coords, radius, beta=1.0):
    """The Hoelder estimate from the dense (n, n) distance matrix."""
    H = np.asarray(hessians, dtype=np.float64)
    if H.ndim == 1:
        H = H[:, None, None]
    X = np.asarray(coords, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    off_diag = dist.copy()
    np.fill_diagonal(off_diag, np.inf)
    assert radius >= off_diag.min()
    out = np.empty(len(H))
    for k in range(len(H)):
        near = np.flatnonzero(dist[k] <= radius + 1e-12)
        sub = H[near]
        dd = dist[np.ix_(near, near)]
        num = np.abs(sub[:, None] - sub[None, :]).max(axis=(2, 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = num / dd ** beta
        ratio[dd == 0.0] = 0.0
        out[k] = float(ratio.max())
    return out


def _lattice_hessians(side, d, seed):
    coords = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), -1).reshape(-1, d)
    return np.random.default_rng(seed).normal(size=(len(coords), d, d)), coords


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_holder_estimate_matches_dense_reference(beta):
    xs = np.arange(0.0, 40.0)
    hess = np.sin(xs) * xs
    assert np.array_equal(holder_seminorm_estimate(hess, xs, radius=2.5, beta=beta),
                          dense_holder_estimate(hess, xs, radius=2.5, beta=beta))
    hess, coords = _lattice_hessians(7, 3, 0)
    assert np.array_equal(holder_seminorm_estimate(hess, coords, radius=1.5, beta=beta),
                          dense_holder_estimate(hess, coords, radius=1.5, beta=beta))


def test_holder_estimate_memory_stays_linear():
    # the dense matrices of 2,197 states in 3-D would take about 150 MB
    hess, coords = _lattice_hessians(13, 3, 1)
    tracemalloc.start()
    try:
        holder_seminorm_estimate(hess, coords, radius=1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_gap_report_zero_and_hand_example():
    v = np.array([1.0, 2.0, 4.0])
    rep = gap_report(v, v)
    assert rep.max_rel == 0.0 and rep.mean_rel == 0.0 and rep.excluded == 0
    cand = np.array([1.1, 2.2, 4.8])
    rep = gap_report(cand, v)
    assert rep.max_rel == pytest.approx(0.2)
    assert rep.mean_rel == pytest.approx((0.1 + 0.1 + 0.2) / 3)
    rep = gap_report(np.array([1.0, 5.0]), np.array([0.0, 5.0]))
    assert rep.excluded == 1
    with pytest.raises(ValueError, match="value vectors must share a lattice"):
        gap_report(np.ones(3), np.ones(4))


def test_corner_states_shapes():
    lat1 = tdp.StateLattice((0,), (10,))
    assert not corner_states(lat1).any()                # no corners in 1-d
    lat2 = tdp.StateLattice((0, 0), (5, 5))
    mask = corner_states(lat2).reshape(6, 6)
    assert mask[0, 0] and mask[1, 1] and not mask[0, 3]
    assert not mask[5, 5] and not mask[0, 5]             # the truncation faces do not count


def test_vanishing_discount_trend():
    # the relative Tayloring gap over x >= 1/(1-alpha) shrinks as alpha -> 1
    worst = []
    for alpha, M in ((0.9, 300), (0.99, 500), (0.999, 3200)):
        model = build("service_rate", M=M, alpha=alpha, cost="quartic", fixed_u=0.5)
        pol = np.zeros(model.mdp.n_states, dtype=np.int64)
        v_u = tdp.policy_evaluation(model.mdp, pol)
        v_hat = model.oracle().value(model.mdp.lattice.states())
        lo = int(np.ceil(1.0 / (1.0 - alpha)))
        hi = min(M - 200, 2 * lo)
        rel = np.abs(v_hat - v_u) / np.abs(v_u)
        worst.append(rel[lo: hi + 1].max())
    assert worst[0] > worst[1] > worst[2]
