import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from taylordp.errors import EmptyActionSet, InfeasibleAction, ZeroInteriorMass
from taylordp.lattice import (ExplicitActionSet, LatticeMdp, PolyhedralActionSet,
                              StateLattice, action_tuple, policy_pairs, truncate_renormalize)

from conftest import one_row, pair_hooks


def test_index_state_roundtrip_all_states():
    lat = StateLattice((-3, 0, 2), (1, 4, 5))
    for i in range(lat.n_states):
        assert lat.index(lat.state(i)) == i
    # and the vectorized path agrees
    coords = lat.states()
    assert np.array_equal(lat.indices_of(coords), np.arange(lat.n_states))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 0), st.integers(1, 4)), min_size=1, max_size=3),
       st.integers(0, 10_000))
def test_roundtrip_random_lattices(bounds, salt):
    lat = StateLattice(tuple(b[0] for b in bounds), tuple(b[1] for b in bounds))
    i = salt % lat.n_states
    assert lat.index(lat.state(i)) == i


def _rows_of(raw_row):
    """A batch raw kernel from a per-pair raw row (coords (w, 1), probs (w,)), padded to w."""
    def raw(states, U):
        rows = [raw_row(tuple(s), u) for s, u in zip(states.tolist(), U.tolist())]
        return (np.stack([c for c, _ in rows]), np.stack([p for _, p in rows]),
                np.array([len(p) for _, p in rows]))
    return raw


def test_truncate_renormalize_walk_at_upper_bound():
    # random walk at x = M with up-mass leaking out: the kept row is the sure
    # step down
    M = 5
    lat = StateLattice((0,), (M,))

    def raw(state, u):
        (x,) = state
        return np.array([[x - 1], [x + 1]]), np.array([u, 1.0 - u])

    kernel = truncate_renormalize(_rows_of(raw), lat)
    row_ptr, targets, probs = kernel(np.array([[M]]), np.array([0.3]))
    assert row_ptr.tolist() == [0, 1]
    assert targets.tolist() == [M - 1]
    assert probs.tolist() == [1.0]


def test_truncate_renormalize_interior_row_unchanged():
    lat = StateLattice((0,), (5,))

    def raw(state, u):
        (x,) = state
        return np.array([[x - 1], [x + 1]]), np.array([0.4, 0.6])

    _, targets, probs = truncate_renormalize(_rows_of(raw), lat)(np.array([[2]]), np.array([0]))
    assert targets.tolist() == [1, 3]
    assert np.allclose(probs, [0.4, 0.6], atol=0, rtol=0)


def test_truncate_renormalize_poisson_tail():
    # oracle: renormalized probabilities by direct summation of the pmf kept
    # inside the box
    M, lam = 6, 2.0
    lat = StateLattice((0,), (M,))
    support = np.arange(40)
    pmf = stats.poisson.pmf(support, lam)

    def raw(state, u):
        return support[:, None], pmf

    _, _, probs = truncate_renormalize(_rows_of(raw), lat)(np.array([[0]]), np.array([0]))
    kept = pmf[: M + 1]
    expected = kept / math.fsum(kept.tolist())
    assert math.isclose(math.fsum(probs.tolist()), 1.0, abs_tol=1e-15)
    assert np.allclose(probs, expected, rtol=0, atol=1e-15)


def test_truncate_renormalize_zero_interior_mass():
    lat = StateLattice((0,), (3,))

    def raw(state, u):
        return np.array([[10]]), np.array([1.0])

    with pytest.raises(ZeroInteriorMass):
        truncate_renormalize(_rows_of(raw), lat)(np.array([[0]]), np.array([0]))


def test_truncate_renormalize_nan_mass():
    lat = StateLattice((0,), (3,))

    def raw(state, u):
        return np.array([[0], [1]]), np.array([math.nan, 0.5])

    with pytest.raises(ZeroInteriorMass):
        truncate_renormalize(_rows_of(raw), lat)(np.array([[0]]), np.array([0]))


def test_enumerate_actions_routing_interior_only_zero(routing2):
    # when every pool has idle servers, no overflow is feasible
    acts = action_tuple(routing2.mdp.actions.at([(5, 7)])[0])
    assert acts == ((0, 0),)


def test_enumerate_actions_box():
    A = np.zeros((1, 1))
    U, offsets = PolyhedralActionSet(A, lambda s: np.array([0.0]),
                                     lambda s: [(0, 2)]).at([(0,)])
    assert action_tuple(U) == ((0,), (1,), (2,))
    assert offsets.tolist() == [0, 3]


def test_enumerate_actions_routing_vs_bruteforce(routing2):
    # brute-force filter of the constraint system over a generous box
    state = (12, 8)
    acts = action_tuple(routing2.mdp.actions.at([state])[0])
    N = routing2.params.N
    wait = [max(state[i] - N[i], 0) for i in range(2)]
    idle = [max(N[i] - state[i], 0) for i in range(2)]
    brute = []
    for u12 in range(0, 21):
        for u21 in range(0, 21):
            if u12 <= wait[0] and u21 <= wait[1] and u12 <= idle[1] and u21 <= idle[0]:
                brute.append((u12, u21))
    assert acts == tuple(sorted(brute))
    assert all(u[1] == 0 for u in acts)
    assert {u[0] for u in acts} == {0, 1, 2}


def test_enumerate_actions_brute_force_all_states(routing_small):
    # complete cross-check on a small model: polyhedron filter over the
    # bounding box at every state
    mdp = routing_small.mdp
    N = routing_small.params.N
    for i in range(mdp.n_states):
        state = mdp.lattice.state(i)
        wait = [max(state[k] - N[k], 0) for k in range(2)]
        idle = [max(N[k] - state[k], 0) for k in range(2)]
        brute = tuple(sorted(
            (u12, u21)
            for u12 in range(wait[0] + 1) for u21 in range(wait[1] + 1)
            if u12 <= idle[1] and u21 <= idle[0]))
        assert action_tuple(mdp.actions.at([state])[0]) == brute


def test_empty_action_set_raises(service_quadratic):
    # a fixed action list gives every state the same table slice: the tiled
    # table equals the flattened per-state lists, dtype included
    states = StateLattice((0,), (100,)).states()
    for actions in (service_quadratic.controls, ((1, 0), (0, 0), (0, 2), (1, 0)), (3, 0.5)):
        per_state = [tuple(sorted(set(actions)))] * len(states)
        U, offsets = ExplicitActionSet(actions).at(states)
        ref = np.asarray([u for acts in per_state for u in acts])
        assert U.dtype == ref.dtype and U.shape == ref.shape and np.array_equal(U, ref)
        ref_offsets = np.concatenate([[0], np.cumsum([len(a) for a in per_state])])
        assert offsets.dtype == np.int64 and np.array_equal(offsets, ref_offsets)
    with pytest.raises(EmptyActionSet):
        ExplicitActionSet(()).at([(0,)])


def test_enumerate_actions_helper(routing_small):
    # the per-state enumeration is a one-state call of the batch enumeration
    def enumerate_actions(mdp, state):
        """Complete, duplicate-free, lexicographically ordered feasible actions."""
        return action_tuple(mdp.actions.at([tuple(state)])[0])

    assert enumerate_actions(routing_small.mdp, (0, 0)) == ((0, 0),)


def test_rows_stochastic_across_models(routing2, inventory_model, heavy_queue):
    rng = np.random.default_rng(0)
    for model in (routing2, inventory_model, heavy_queue):
        mdp = model.mdp
        for i in rng.choice(mdp.n_states, size=25):
            for u in mdp.actions_at(int(i)):
                _, probs = one_row(mdp, mdp.lattice.state(int(i)), u)
                assert probs.min() >= 0.0
                assert math.isclose(math.fsum(probs.tolist()), 1.0, abs_tol=1e-12)


def test_policy_pairs_checks_shape_then_integrality_then_range():
    offsets = np.array([0, 2, 3, 6])                   # 2, 1 and 3 actions
    for policy in ([0, 0, 2], np.array([1, 0, 0], dtype=np.int32), [True, False, True],
                   np.array([1.0, 0.0, 2.0])):
        pairs = policy_pairs(offsets, policy)
        assert pairs.dtype == np.int64
        assert pairs.tolist() == (offsets[:-1] + np.asarray(policy, dtype=np.int64)).tolist()
    with pytest.raises(ValueError, match="one action index per state"):
        policy_pairs(offsets, [0.5, 9])                # shape before integrality
    for bad, entry in (([0, 0, 2.5], "2.5"), ([np.nan, 9, 0], "nan"),
                       ([0, np.inf, 0], "inf"), ([0, 9, -0.5], "-0.5"), (["0", "1", "0"], "'0'")):
        with pytest.raises(ValueError, match=rf"^action index {entry} at state index \d is "
                                             rf"not an integer$"):
            policy_pairs(offsets, np.array(bad))       # integrality before range
    with pytest.raises(InfeasibleAction, match="^action 1 infeasible at state index 1$"):
        policy_pairs(offsets, [0, 1, 9])
    with pytest.raises(InfeasibleAction, match="^action -1 infeasible at state index 0$"):
        policy_pairs(offsets, np.array([-1.0, 0.0, 0.0]))
