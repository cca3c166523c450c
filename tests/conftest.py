import numpy as np
import pytest
from hypothesis import settings

import taylordp as tdp
from taylordp import exact

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
from taylordp.lattice import action_tuple
from taylordp.models import build
from taylordp.models.routing import build_routing, table_params


@pytest.fixture
def evaluations(monkeypatch):
    """A copy of every exact.policy_evaluation result while the test runs, in
    call order.  policy_iteration looks the function up in its module, so
    each of its iterates lands here."""
    seen = []
    evaluate = exact.policy_evaluation

    def spy(*args, **kwargs):
        values = evaluate(*args, **kwargs)
        seen.append(values.copy())
        return values

    monkeypatch.setattr(exact, "policy_evaluation", spy)
    return seen


@pytest.fixture(scope="session")
def service_quadratic():
    return build("service_rate", M=100, alpha=0.99, cost="quadratic")


@pytest.fixture(scope="session")
def service_quadratic_star(service_quadratic):
    return tdp.policy_iteration(service_quadratic.mdp)


@pytest.fixture(scope="session")
def service_quartic():
    return build("service_rate", M=100, alpha=0.99, cost="quartic")


@pytest.fixture(scope="session")
def quartic_fixed():
    return build("service_rate", M=100, alpha=0.9, cost="quartic", fixed_u=0.5)


@pytest.fixture(scope="session")
def inventory_model():
    return build("inventory", lam=2.0, c=1.0, H=2.0, b=10.0, M=40, u_max=10, alpha=0.99)


@pytest.fixture(scope="session")
def routing2():
    return build_routing(table_params(J=2, alpha=0.99, lam_factor=0.8))


@pytest.fixture(scope="session")
def routing2_star(routing2):
    return tdp.policy_iteration(routing2.mdp)


@pytest.fixture(scope="session")
def heavy_queue():
    return build("heavy_traffic", lam=0.4, alpha=0.99, M=200)


# small routing instance whose arrival tails never reach the buffer cap,
# so kernel and analytic moments must agree on interior states
@pytest.fixture(scope="session")
def routing_small():
    from taylordp.models.routing import RoutingParams
    return build_routing(RoutingParams(J=2, N=(3, 3), M=27, p=(0.5, 0.6),
                                       lam=(1.0, 0.8), B=(2.0, 1.0), H=(1.0, 2.0),
                                       alpha=0.95))


# ---------------------------------------------------------------------------
# per-pair views of the batch kernel contract
# ---------------------------------------------------------------------------

def pair_hooks(row, reward):
    """Batch kernel and reward hooks from per-pair functions, one call per pair.

    row(state tuple, action) returns a pair's (targets, probs) and
    reward(state tuple, action) its reward; actions arrive as Python
    scalars or tuples.
    """
    def pairs(states, U):
        return zip(map(tuple, np.asarray(states).tolist()), action_tuple(U))

    def kernel(states, U):
        rows = [row(s, u) for s, u in pairs(states, U)]
        row_ptr = np.cumsum([0] + [len(t) for t, _ in rows])
        return (row_ptr, np.array([t for r, _ in rows for t in r], dtype=np.int64),
                np.array([p for _, r in rows for p in r], dtype=np.float64))

    def rewards(states, U):
        return np.array([reward(s, u) for s, u in pairs(states, U)], dtype=np.float64)

    return kernel, rewards


def one_row(mdp, state, action):
    """(targets, probs) of one pair, from a one-pair rows() call."""
    _, targets, probs = mdp.rows(np.asarray([state]), np.asarray([action]))
    return targets, probs


def one_reward(mdp, state, action) -> float:
    """The reward of one pair, from a one-pair rewards() call."""
    return float(mdp.rewards(np.asarray([state]), np.asarray([action]))[0])


def sampled_pairs(mdp, state_indices, per_state):
    """(states, U) of the first per_state actions of each listed state, in table order."""
    U, offsets = mdp.action_table()
    pairs = np.concatenate([np.arange(offsets[i], min(offsets[i] + per_state, offsets[i + 1]))
                            for i in state_indices])
    owners = np.searchsorted(offsets, pairs, side="right") - 1
    return mdp.lattice.states()[owners], U[pairs]
