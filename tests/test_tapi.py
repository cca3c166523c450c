import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taylordp as tdp
import taylordp.tapi as tapi
from taylordp import exact
from taylordp.errors import InfeasibleAction
from taylordp.kdchain import CoarseGrid
from taylordp.lattice import StateLattice, action_tuple
from taylordp.models import build
from taylordp.models.routing import RoutingParams, build_routing, table_params
from taylordp.tapi import (TapiOptions, _nearest_actions, disaggregate_value,
                           taylored_greedy_policy)


def test_disaggregate_value_on_grid_points():
    lat = StateLattice((0,), (8,))
    grid = CoarseGrid.from_lattice(lat, 2)
    v = np.array([0.0, 4.0, 6.0, 7.0, 7.5])
    assert disaggregate_value(v, grid, lat, "pc")[::2] == pytest.approx(v)
    # multilinear: exact on the interior grid points, linear extrapolation of
    # the interior planes at the (duplicate) reflecting boundary points
    fine = disaggregate_value(v, grid, lat, "multilinear")
    assert fine[2:7:2] == pytest.approx(v[1:4])
    assert fine[0] == pytest.approx(2 * v[1] - v[2])
    assert fine[8] == pytest.approx(2 * v[3] - v[2])


def test_disaggregate_value_hand_example():
    # h = 2 with V(0) = 0, V(2) = 4: at x = 1 the pc extension ties to the
    # smaller grid point (0) and the multilinear one gives 2
    lat = StateLattice((0,), (8,))
    grid = CoarseGrid.from_lattice(lat, 2)
    v = np.array([0.0, 4.0, 8.0, 12.0, 16.0])   # linear so interior planes agree
    assert disaggregate_value(v, grid, lat, "pc")[1] == 0.0
    assert disaggregate_value(v, grid, lat, "multilinear")[1] == pytest.approx(2.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_multilinear_exact_on_linear_functions(a, b):
    lat = StateLattice((0, 0), (8, 6))
    grid = CoarseGrid.from_lattice(lat, 2)
    pts = grid.points().astype(float)
    coarse = a * pts[:, 0] + b * pts[:, 1]
    fine = disaggregate_value(coarse, grid, lat, "multilinear")
    states = lat.states().astype(float)
    assert np.allclose(fine, a * states[:, 0] + b * states[:, 1], atol=1e-9)


def test_options_reject_unknown_scheme():
    with pytest.raises(ValueError, match="scheme"):
        TapiOptions(scheme="foo")
    assert TapiOptions(scheme="upwind").scheme == "upwind"


def test_options_reject_unknown_policy_extension():
    with pytest.raises(ValueError, match="policy_extension must be 'tcp_greedy' or 'pc'"):
        TapiOptions(policy_extension="bogus")


@pytest.mark.parametrize("h", [2.0, np.int64(2)], ids=["float", "int64"])
def test_integral_h_solves_as_int(h):
    model = build("service_rate", M=30, alpha=0.9, cost="quadratic")
    opts = TapiOptions(h=h)
    assert type(opts.h) is int and opts.h == 2
    res, ref = (tdp.tapi_solve(model.problem, o) for o in (opts, TapiOptions(h=2)))
    assert np.array_equal(res.coarse_values, ref.coarse_values)
    assert np.array_equal(res.fine_policy, ref.fine_policy)
    assert np.array_equal(res.fine_values, ref.fine_values)


def test_chain_records_what_it_was_built_from(routing2):
    # the fine-lattice steps read the problem, h, scheme and grid points' states from here
    chain = tdp.build_multidim_chain(routing2.problem, 2.0, scheme="upwind")
    assert chain.problem is routing2.problem
    assert type(chain.h) is int and chain.h == 2 and chain.scheme == "upwind"
    assert np.array_equal(chain.fine_state,
                          routing2.mdp.lattice.indices_of(chain.grid.points()))


def test_chain_rejects_non_integral_h(service_quadratic):
    with pytest.raises(ValueError, match="positive integer"):
        tdp.build_multidim_chain(service_quadratic.problem, 2.5)
    with pytest.raises(ValueError, match="positive integer"):
        TapiOptions(h=2.5)


def test_project_action_feasibility():
    # three states with the same feasible set, one target action each
    U = np.array([(0, 0), (0, 1), (2, 0)] * 3)
    offsets = np.array([0, 3, 6, 9])
    targets = np.array([(0, 1),     # already feasible
                        (3, 0),     # L1-nearest
                        (1, 1)])    # tie (0,1) vs (2,0): first wins
    assert _nearest_actions(U, offsets, targets).tolist() == [1, 2, 1]


@pytest.mark.parametrize("past_end", [3, None], ids=["count-plus-3", "minus-1"])
def test_disaggregate_policy_refuses_out_of_range_coarse_action(routing2, past_end):
    # an interior grid point's index past its action range, or -1, raises the
    # InfeasibleAction that evaluating the same coarse policy on the chain raises
    chain = tdp.build_multidim_chain(routing2.problem, 4)
    counts = np.diff(chain.assembly().offsets)
    point = np.flatnonzero(chain.interior_mask & (counts > 1))[0]
    bad = tdp.policy_iteration(chain).policy.copy()
    bad[point] = -1 if past_end is None else counts[point] + past_end
    fine_v = np.zeros(routing2.mdp.n_states)
    with pytest.raises(InfeasibleAction) as from_extension:
        tdp.disaggregate_policy(chain, bad, fine_v)
    with pytest.raises(InfeasibleAction) as from_evaluation:
        tdp.policy_evaluation(chain, bad)
    assert str(from_extension.value) == str(from_evaluation.value)
    assert from_extension.value.state == point


def _single_action_model():
    return build("service_rate", M=30, alpha=0.9, cost="quartic", fixed_u=0.5)


def test_tapi_single_action_one_iteration():
    model = _single_action_model()
    res = tdp.tapi_solve(model.problem, TapiOptions(h=2))
    assert res.iterations == 1
    # the coarse value solves the chain's linear system
    chain = res.chain
    direct = tdp.policy_evaluation(chain, np.zeros(chain.n_states, dtype=np.int64))
    assert np.allclose(res.coarse_values, direct, atol=0, rtol=0)


def test_tapi_equals_pi_on_chain(service_quadratic):
    # structural equivalence: the TAPI fixed point is policy iteration on the
    # chain, state for state and action for action
    opts = TapiOptions(h=2)
    res = tdp.tapi_solve(service_quadratic.problem, opts)
    chain = tdp.build_multidim_chain(service_quadratic.problem, 2)
    pi = tdp.policy_iteration(chain)
    assert np.array_equal(res.coarse_policy, pi.policy)
    assert np.allclose(res.coarse_values, pi.values, rtol=0, atol=0)


def test_tapi_chain_iterates_monotone(service_quadratic, routing2, inventory_model,
                                     evaluations):
    for model in (service_quadratic, routing2, inventory_model):
        chain = tdp.build_multidim_chain(model.problem, 2)
        evaluations.clear()
        res = tdp.policy_iteration(chain)
        assert res.iterations <= 100
        assert len(evaluations) == res.iterations
        for prev, cur in zip(evaluations, evaluations[1:]):
            assert (cur >= prev - 1e-7 * (1.0 + np.abs(prev))).all()


def test_tcp_greedy_and_pc_policies_feasible_everywhere(routing2):
    res = tdp.tapi_solve(routing2.problem, TapiOptions(h=2))
    routing2.mdp.validate_policy(res.fine_policy)
    res_pc = tdp.tapi_solve(routing2.problem, TapiOptions(h=2, policy_extension="pc"))
    routing2.mdp.validate_policy(res_pc.fine_policy)


def test_one_step_from_exact_value_recovers_optimum(service_quadratic, service_quadratic_star):
    pol = tdp.policy_improvement(service_quadratic.mdp, service_quadratic_star.values)
    v = tdp.policy_evaluation(service_quadratic.mdp, pol)
    assert np.abs(v - service_quadratic_star.values).max() <= 1e-6 * (
        1 + np.abs(service_quadratic_star.values).max())


def test_exact_improvement_variant_single_action_matches_tapi():
    model = _single_action_model()
    a = tdp.tapi_solve(model.problem, TapiOptions(h=2))
    b = tdp.tapi_solve(model.problem, TapiOptions(h=2, improvement="exact"))
    assert np.array_equal(a.fine_policy, b.fine_policy)
    assert np.allclose(a.fine_values, b.fine_values, rtol=1e-12)


def test_exact_improvement_cap_sets_flag(routing2, monkeypatch):
    # the exact-improvement loop stops at the solvers' policy-iteration cap
    monkeypatch.setattr(exact, "MAX_ITERATIONS", 1)
    res = tdp.tapi_solve(routing2.problem, TapiOptions(h=4, improvement="exact"))
    assert res.oscillated and res.iterations == 1
    assert res.fine_policy is not None
    routing2.mdp.validate_policy(res.fine_policy)
    # the returned coarse values are those of the returned coarse policy
    np.testing.assert_allclose(tdp.policy_evaluation(res.chain, res.coarse_policy),
                               res.coarse_values, rtol=1e-12, atol=0)


def test_taylored_greedy_same_as_chain_improvement_on_grid(service_quadratic):
    # at grid states whose stencil stays clear of the reflecting planes, the
    # fine Taylored greedy reproduces the chain's own greedy (same stencil,
    # same values); next to a boundary the fine greedy sees the extrapolated
    # value instead of the reflected duplicate, by design
    chain = tdp.build_multidim_chain(service_quadratic.problem, 2)
    pi = tdp.policy_iteration(chain)
    fine = taylored_greedy_policy(chain, pi.values)
    final = tdp.policy_improvement(chain, pi.values)
    lat = service_quadratic.mdp.lattice
    n_axis = len(chain.grid.axes[0])
    checked = 0
    points = chain.grid.points().tolist()
    for g in range(chain.n_states):             # one axis: g is the grid position
        if not 2 <= g <= n_axis - 3:
            continue
        si = lat.index(points[g])
        chain_action = chain.actions_at(g)[int(final[g])]
        fine_action = service_quadratic.mdp.actions_at(si)[int(fine[si])]
        assert chain_action == fine_action
        checked += 1
    assert checked > 40


FRESH_MODELS = {
    "routing2": lambda: build_routing(table_params(J=2, alpha=0.99, lam_factor=0.8)),
    "service_quadratic": lambda: build("service_rate", M=100, alpha=0.99, cost="quadratic"),
}
SOLVE_VARIANTS = {
    "approx": TapiOptions(h=2),
    "one_step": TapiOptions(h=2, one_step=True),
    "pc": TapiOptions(h=2, policy_extension="pc"),
    "exact": TapiOptions(h=2, improvement="exact"),
}


@pytest.mark.parametrize("variant", SOLVE_VARIANTS)
@pytest.mark.parametrize("name", FRESH_MODELS)
def test_tapi_enumerates_actions_once_per_model(name, variant, monkeypatch):
    # polyhedral (routing) and explicit (service-rate) action sets: the chain
    # reads its grid points' actions from the fine action table
    problem = FRESH_MODELS[name]().problem
    mdp = problem.mdp
    enumerate_all = mdp.actions.at
    calls = []

    def counted(states):
        calls.append(len(states))
        return enumerate_all(states)

    monkeypatch.setattr(mdp.actions, "at", counted)
    chain = tdp.tapi_solve(problem, SOLVE_VARIANTS[variant]).chain
    assert calls == [mdp.n_states]

    reflecting = problem.fot_drift is None
    for i, point in enumerate(chain.grid.points()):
        own = action_tuple(enumerate_all([point])[0])
        expected = own[:1] if reflecting and not chain.interior_mask[i] else own
        assert chain.actions_at(i) == expected


def _no_kernel(states, U):
    raise AssertionError("a kernel row was read")


@pytest.mark.parametrize("h", [1, 2, 4])
def test_no_variant_reads_kernel_rows_on_a_factored_model(h, monkeypatch):
    # routing's assembly is factored, and the chain takes its moments and
    # rewards from hooks, so no way of forming the returned policy needs a row
    problem = FRESH_MODELS["routing2"]().problem
    mdp = problem.mdp
    monkeypatch.setattr(mdp, "kernel", _no_kernel)
    for options in (TapiOptions(h=h), TapiOptions(h=h, policy_extension="pc"),
                    TapiOptions(h=h, one_step=True),
                    TapiOptions(h=h, improvement="exact"),
                    TapiOptions(h=h, improvement="exact", disaggregation="pc")):
        res = tdp.tapi_solve(problem, options)
        mdp.validate_policy(res.fine_policy)
        assert np.isfinite(res.fine_values).all(), options


SWEEP_MODELS = {
    "service_rate_M20": lambda: build("service_rate", M=20, alpha=0.99),
    # h = 3, 4 and 5 give 3-point axes on the 7-point boxes, h = 3 and 4 on the 6-point ones
    "routing2_N3_M3": lambda: build_routing(RoutingParams(
        J=2, N=(3, 3), M=3, p=(0.56, 0.56), lam=(1.344, 1.344), B=(5.0, 1.0), H=(1.0, 4.0),
        alpha=0.99)),
    "routing3_N3_M2": lambda: build_routing(RoutingParams(
        J=3, N=(3, 3, 3), M=2, p=(0.8, 0.8, 0.8), lam=(1.68, 1.68, 1.68),
        B=(1.0, 1.0, 4.0, 1.0, 2.0, 1.0), H=(1.0, 2.0, 3.0), alpha=0.99)),
}


def _accepted_spacings(lattice):
    hs = []
    for h in range(1, max(lattice.upper) + 1):
        try:
            CoarseGrid.from_lattice(lattice, h)
        except ValueError:
            continue
        hs.append(h)
    return hs


@pytest.mark.parametrize("name", SWEEP_MODELS)
def test_every_accepted_spacing_gives_valid_policies(name):
    # every variant on every grid the lattice admits, 3-point axes included
    model = SWEEP_MODELS[name]()
    hs = _accepted_spacings(model.mdp.lattice)
    assert 3 in hs
    for h in hs:
        for variant, options in SOLVE_VARIANTS.items():
            res = tdp.tapi_solve(model.problem, dataclasses.replace(options, h=h))
            model.mdp.validate_policy(res.fine_policy)
            assert np.isfinite(res.fine_values).all(), (h, variant)


def _routing3_m4():
    return build_routing(dataclasses.replace(table_params(J=3, alpha=0.99, lam_factor=0.7), M=4))


@pytest.mark.parametrize("make, h", [
    (lambda: build_routing(table_params(J=2, alpha=0.99, lam_factor=0.8)), 10),
    (_routing3_m4, 7),
    (_routing3_m4, 8),
    (lambda: build("service_rate", M=4, alpha=0.99), 2),
], ids=["routing2_h10", "routing3_M4_h7", "routing3_M4_h8", "service_rate_M4_h2"])
def test_three_point_axes_extend_the_pc_policy(make, h):
    # every chain axis has 3 points, so its one interior point is the
    # nearest interior point of every fine state on that axis
    model = make()
    for options in (TapiOptions(h=h, policy_extension="pc"),
                    TapiOptions(h=h, improvement="exact")):
        res = tdp.tapi_solve(model.problem, options)
        assert set(res.chain.grid.shape) == {3}
        model.mdp.validate_policy(res.fine_policy)


@pytest.mark.parametrize("improvement", ["approx", "exact"])
@pytest.mark.parametrize("extension", ["tcp_greedy", "pc"])
def test_one_step_computes_no_policy_extension(routing2, improvement, extension, monkeypatch):
    # every variant (tcp_greedy, pc, exact improvement, one_step) forms only
    # the policy it returns: one call, or one an iteration of the exact loop;
    # pc's boundary completion is one policy_improvement call
    calls = {"greedy": 0, "pc": 0, "improve": 0}
    for key, name in (("greedy", "taylored_greedy_policy"), ("pc", "disaggregate_policy"),
                      ("improve", "policy_improvement")):
        fn = getattr(tapi, name)

        def counted(*args, _fn=fn, _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(tapi, name, counted)
    fine_lattice = routing2.mdp.lattice

    def check_greedy_of_last_extension(res):
        fine_v = disaggregate_value(res.coarse_values, res.chain.grid, fine_lattice, "multilinear")
        assert np.array_equal(res.fine_policy, tdp.policy_improvement(routing2.mdp, fine_v))

    options = dict(h=2, improvement=improvement, policy_extension=extension)
    if improvement == "exact" and extension == "pc":
        # the exact loop forms its own policy, so a policy extension is refused
        with pytest.raises(ValueError, match="^policy_extension would be ignored"):
            TapiOptions(**options)
    else:
        res = tdp.tapi_solve(routing2.problem, TapiOptions(**options))
        if improvement == "exact":
            # the loop improves once an iteration on the fine lattice, extends
            # no policy, and returns the greedy policy of its last extended value
            assert calls == {"greedy": 0, "pc": 0, "improve": res.iterations}
            check_greedy_of_last_extension(res)
        else:
            greedy = extension == "tcp_greedy"
            assert calls == {"greedy": int(greedy), "pc": int(not greedy),
                             "improve": int(not greedy)}
        assert np.array_equal(res.fine_values,
                              tdp.policy_evaluation(routing2.mdp, res.fine_policy))

    # the one-step improvement replaces the policy extension, and the exact
    # loop's policy already is one, so one_step is refused beside either
    ignored = [name for name, given in (("one_step", improvement == "exact"),
                                        ("policy_extension", extension == "pc")) if given]
    if ignored:
        with pytest.raises(ValueError, match=f"^{' and '.join(ignored)} would be ignored"):
            TapiOptions(**options, one_step=True)
        return
    calls.update(greedy=0, pc=0, improve=0)
    one = tdp.tapi_solve(routing2.problem, TapiOptions(**options, one_step=True))
    assert calls == {"greedy": 0, "pc": 0, "improve": 1}
    check_greedy_of_last_extension(one)
    assert np.array_equal(one.fine_values, tdp.policy_evaluation(routing2.mdp, one.fine_policy))
