"""Exact reference solvers: policy evaluation/improvement/iteration, value
iteration, and discounted functionals V_U[f].

All solvers work against an "assembly" of the MDP: either a tabular view
(concatenated sparse rows over (state, action) pairs, per-state discounts)
or a factored view for kernels of product form, where the one-step
expectation operator is applied to the whole value vector at once and rows
are never materialized.  Both give per-pair expectations E_x^u[V] and, for a
policy U, an operator P^U with P^U @ V = E^U[V]: a sparse matrix (solved
directly) or a matrix-free product (solved by fixed-point iteration with
MacQueen-Porteus bounds, which bracket the solution and stop on a value-error
bound).  Maximization is the internal convention throughout; cost models
negate rewards at the model boundary.  scipy.sparse is imported only where a
tabular assembly builds or solves its sparse system, so importing the
package or solving a factored model never loads it.

Argmax ties are broken to the first action in lexicographic order, with a
1e-12 absolute tolerance on value comparisons, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InfeasibleAction, MaxIterationsExceeded, SingularSystem
from .lattice import LatticeMdp

if TYPE_CHECKING:
    import scipy.sparse as sp

ARGMAX_TOL = 1e-12
RESIDUAL_REL = 1e-9


# solver tolerances and caps, read at call time
ITERATIVE_TOL = 1e-10        # matrix-free evaluation: value error / (1 + |V|)
VI_TOL = 1e-9                # value iteration: value error / (1 + |V|)
MAX_ITERATIONS = 100         # policy-iteration cap
VI_MAX_ITERATIONS = 200_000  # value-iteration and matrix-free evaluation steps


class _PairAssembly:
    """What the solvers need from an assembly, over the flat (state, action) axis.

    offsets[s]:offsets[s+1] index state s's pairs; rewards are per pair and
    discounts per state.  Subclasses supply expectations(values), E_x^u[V]
    for every pair, and policy_operator(policy), a P^U with P @ V = E^U[V].
    """

    def __init__(self, offsets, rewards, discounts):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.rewards = np.asarray(rewards, dtype=np.float64)
        self.discounts = np.asarray(discounts, dtype=np.float64)
        self.n_states = len(self.offsets) - 1
        self.n_pairs = len(self.rewards)
        self._counts = np.diff(self.offsets)
        self._disc_per_pair = np.repeat(self.discounts, self._counts)

    def q_values(self, values: np.ndarray) -> np.ndarray:
        return self.rewards + self._disc_per_pair * self.expectations(values)

    def policy_pairs(self, policy: np.ndarray) -> np.ndarray:
        """The pair each state's action index selects.

        An index outside its state's action range raises InfeasibleAction
        with the flat state index.
        """
        policy = np.asarray(policy, dtype=np.int64)
        if policy.shape != (self.n_states,):
            raise ValueError("policy must assign one action index per state")
        bad = np.flatnonzero((policy < 0) | (policy >= self._counts))
        if bad.size:
            raise InfeasibleAction(int(bad[0]), int(policy[bad[0]]))
        return self.offsets[:-1] + policy

    def policy_rewards(self, policy: np.ndarray) -> np.ndarray:
        return self.rewards[self.policy_pairs(policy)]


class TabularAssembly(_PairAssembly):
    """Concatenated sparse rows for all (state, action) pairs.

    row_ptr delimits each pair's (col_idx, probs) slice; P^U is a CSR matrix.
    """

    def __init__(self, offsets, rewards, row_ptr, col_idx, probs, discounts):
        super().__init__(offsets, rewards, discounts)
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(col_idx, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=np.float64)

    def expectations(self, values: np.ndarray) -> np.ndarray:
        prod = self.probs * values[self.col_idx]
        return np.add.reduceat(prod, self.row_ptr[:-1])

    def policy_operator(self, policy: np.ndarray) -> sp.csr_matrix:
        import scipy.sparse as sp
        pairs = self.policy_pairs(policy)
        starts = self.row_ptr[pairs]
        stops = self.row_ptr[pairs + 1]
        lens = stops - starts
        take = _ranges(starts, lens)
        indptr = np.concatenate([[0], np.cumsum(lens)])
        return sp.csr_matrix((self.probs[take], self.col_idx[take], indptr),
                             shape=(self.n_states, self.n_states))


class FactoredAssembly(_PairAssembly):
    """Product-form kernels: one-step expectations for all states at once.

    apply_expectation(V) returns E[V(X_1) | post-action state z] for every z;
    post_idx maps each (state, action) pair to its post-action state index.
    P^U is matrix-free (_PostStateOperator).
    """

    def __init__(self, offsets, rewards, post_idx, apply_expectation, discount):
        super().__init__(offsets, rewards, np.full(len(offsets) - 1, float(discount)))
        self.post_idx = np.asarray(post_idx, dtype=np.int64)
        self.apply_expectation = apply_expectation

    def expectations(self, values: np.ndarray) -> np.ndarray:
        return self.apply_expectation(values)[self.post_idx]

    def policy_operator(self, policy: np.ndarray) -> "_PostStateOperator":
        return _PostStateOperator(self, self.post_idx[self.policy_pairs(policy)])


class _PostStateOperator:
    """P^U of a factored assembly: P @ V = apply_expectation(V)[post].

    apply_expectation is looked up on every product, so a hook installed on
    the assembly after it was built still sees each matvec.
    """

    __slots__ = ("_asm", "_post")

    def __init__(self, asm: FactoredAssembly, post: np.ndarray):
        self._asm = asm
        self._post = post

    def __matmul__(self, values: np.ndarray) -> np.ndarray:
        return self._asm.apply_expectation(values)[self._post]


def _ranges(starts, lens):
    """Concatenate arange(s, s+l) for each (s, l); vectorized."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lens)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    return np.cumsum(out)


def get_assembly(mdp):
    """Return (and cache) the solver view of an MDP or chain."""
    asm = getattr(mdp, "_assembly", None)
    if asm is not None:
        return asm
    if hasattr(mdp, "assembly"):
        asm = mdp.assembly()
    elif getattr(mdp, "factored", None) is not None:
        asm = mdp.factored()
    else:
        asm = _tabulate(mdp)
    mdp._assembly = asm
    return asm


def _tabulate(mdp: LatticeMdp) -> TabularAssembly:
    """Rows and rewards of every (state, action) pair in one array pass.

    One mdp.rows() and one mdp.rewards() call over mdp.pair_states() and
    the action table; each checks what it returns.
    """
    U, offsets = mdp.action_table()
    states = mdp.pair_states()
    row_ptr, col_idx, probs = mdp.rows(states, U)
    rewards = mdp.rewards(states, U)
    discounts = np.full(mdp.n_states, mdp.discount)
    return TabularAssembly(offsets, rewards, row_ptr, col_idx, probs, discounts)


def segmented_argmax(values: np.ndarray, offsets: np.ndarray):
    """Per-segment (max, first index within ARGMAX_TOL of max)."""
    starts = offsets[:-1]
    seg_max = np.maximum.reduceat(values, starts)
    counts = np.diff(offsets)
    thresh = np.repeat(seg_max - ARGMAX_TOL, counts)
    idx = np.arange(len(values), dtype=np.int64)
    masked = np.where(values >= thresh, idx, np.iinfo(np.int64).max)
    first = np.minimum.reduceat(masked, starts) - starts
    return seg_max, first.astype(np.int64)


def policy_evaluation(mdp, policy, reward_override=None, warm_start=None) -> np.ndarray:
    """Solve V = r_U + diag(alpha) P^U V for the given stationary policy.

    reward_override replaces r_U with a per-state vector (used for
    discounted functionals V_U[f]).  A sparse P^U is solved directly.  A
    matrix-free one comes only from a FactoredAssembly, whose discount is one
    scalar, and is solved by bracketed fixed-point iteration
    (_bracketed_iteration) from warm_start, to a sup-norm value error of at
    most ITERATIVE_TOL * (1 + |V|) within VI_MAX_ITERATIONS steps.  Either
    way the result must meet the RESIDUAL_REL residual contract.
    """
    asm = get_assembly(mdp)
    policy = np.asarray(policy, dtype=np.int64)
    if reward_override is None:
        r_u = asm.policy_rewards(policy)
    else:
        r_u = np.asarray(reward_override, dtype=np.float64)
        if r_u.shape != (asm.n_states,):
            raise ValueError("reward override must be a per-state vector")
        bad = ~np.isfinite(r_u)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"reward override at state {i} is not finite ({r_u[i]!r})")
    op = asm.policy_operator(policy)
    disc = asm.discounts

    if isinstance(op, _PostStateOperator):
        values = _bracketed_iteration(r_u, op, disc, warm_start=warm_start)
    else:
        import scipy.sparse.linalg as spla
        system = _evaluation_system(op, disc)
        try:
            lu = spla.splu(system)
            values = lu.solve(r_u)
            # one step of iterative refinement keeps the residual contract
            # even for discounts very close to one
            resid = r_u - system @ values
            if np.abs(resid).max() > RESIDUAL_REL * (1.0 + np.abs(values).max()):
                values = values + lu.solve(resid)
        except RuntimeError as exc:  # singular factorization
            raise SingularSystem(str(exc)) from None

    residual = np.abs(values - (r_u + disc * (op @ values))).max()
    if residual > RESIDUAL_REL * (1.0 + np.abs(values).max()):
        raise SingularSystem(f"policy evaluation residual {residual} exceeds "
                             f"the {RESIDUAL_REL} contract")
    return values


def _evaluation_system(op: sp.csr_matrix, disc: np.ndarray) -> sp.csc_matrix:
    """I - diag(disc) P as one CSC matrix, built from P's stored rows in one numpy pass.

    It stores what (sp.eye - sp.diags(disc) @ P).tocsc() stores, entry for
    entry: the product scales each entry of row i by disc[i] and adds a
    row's entries of one column in stored order from 0.0, dropping zero sums;
    the difference keeps 1 - s on the diagonal and -s off it, dropping zeros
    again; each column lists its rows ascending.  One 0.0 entry per diagonal
    position stands for the identity and leaves every sum unchanged.
    """
    import scipy.sparse as sp
    n = op.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(op.indptr))
    key = np.concatenate([op.indices.astype(np.int64) * n + rows,
                          np.arange(n, dtype=np.int64) * (n + 1)])    # column-major position
    weights = np.concatenate([disc[rows] * op.data, np.zeros(n)])
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[0], first[1:] = True, key[1:] != key[:-1]
    # bincount adds each position's weights one by one, in stored order
    sums = np.bincount(np.cumsum(first) - 1, weights=weights[order])
    col, row = np.divmod(key[first], n)
    data = np.where(row == col, 1.0 - sums, -sums)
    keep = data != 0.0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(col[keep], minlength=n), out=indptr[1:])
    return sp.csc_matrix((data[keep], row[keep], indptr), shape=(n, n))


def _bracketed_iteration(r_u, op, disc, warm_start=None):
    """Fixed-point iteration V <- r_U + alpha P^U V with MacQueen-Porteus bounds.

    For a stochastic P^U and one scalar discount alpha, the increment
    d = V_{n+1} - V_n of each step brackets the solution:
    V_U in V_{n+1} + alpha/(1-alpha) [min d, max d] (MacQueen 1966; Porteus
    1971; Puterman 1994, 6.6.3).  The loop stops once half that bracket is at
    most ITERATIVE_TOL * (1 + |V_{n+1}|) and returns its midpoint.  The
    bracket removes the constant mode of P^U (eigenvalue 1) exactly, so the
    step count follows the rest of the spectrum, not 1 / (1 - alpha).
    """
    alpha = float(disc[0])
    if np.any(disc != alpha):
        raise ValueError("matrix-free evaluation needs one scalar discount")
    if alpha >= 1.0:
        raise SingularSystem("iterative evaluation requires discounts < 1")
    scale = alpha / (1.0 - alpha)
    v = np.zeros_like(r_u) if warm_start is None else np.array(warm_start, dtype=np.float64)
    for _ in range(VI_MAX_ITERATIONS):
        v_next = op @ v                                # r_u + alpha (P v), in place
        v_next *= alpha
        v_next += r_u
        d = v_next - v
        lo, hi = d.min(), d.max()
        if 0.5 * scale * (hi - lo) <= ITERATIVE_TOL * (1.0 + np.abs(v_next).max()):
            return v_next + 0.5 * scale * (hi + lo)
        v = v_next
    raise MaxIterationsExceeded(VI_MAX_ITERATIONS, "policy evaluation (iterative)")


def policy_improvement(mdp, values):
    """Greedy policy: argmax_u r(x,u) + alpha(x) E_x^u[V], first maximizer wins."""
    asm = get_assembly(mdp)
    q = asm.q_values(np.asarray(values, dtype=np.float64))
    return segmented_argmax(q, asm.offsets)[1]


@dataclass
class PiResult:
    policy: np.ndarray
    values: np.ndarray
    iterations: int
    value_history: list = field(default_factory=list)


def policy_iteration(mdp, initial_policy=None, record_history: bool = False) -> PiResult:
    """Standard policy iteration; terminates on policy stability."""
    asm = get_assembly(mdp)
    if initial_policy is None:
        policy = np.zeros(asm.n_states, dtype=np.int64)
    else:
        policy = np.asarray(initial_policy, dtype=np.int64).copy()
    history = []
    values = None
    for it in range(1, MAX_ITERATIONS + 1):
        values = policy_evaluation(mdp, policy, warm_start=values)
        if record_history:
            history.append(values.copy())
        new_policy = policy_improvement(mdp, values)
        if np.array_equal(new_policy, policy):
            return PiResult(policy, values, it, history)
        policy = new_policy
    raise MaxIterationsExceeded(MAX_ITERATIONS, "policy iteration")


def value_iteration(mdp):
    """Contraction iteration on the Bellman operator.

    Stops when the sup-norm update is at most
    VI_TOL * (1 + |V|) * (1 - alpha) / (2 alpha), which bounds the distance
    to the fixed point by VI_TOL * (1 + |V|), V the returned values: an
    absolute bound is below the floating-point spacing of large values.
    """
    asm = get_assembly(mdp)
    alpha_bar = float(np.max(asm.discounts))
    if alpha_bar >= 1.0:
        raise ValueError("value iteration requires all discounts < 1")
    stop = VI_TOL * (1.0 - alpha_bar) / (2.0 * alpha_bar)
    v = np.zeros(asm.n_states)
    for _ in range(VI_MAX_ITERATIONS):
        q = asm.q_values(v)
        v_new, policy = segmented_argmax(q, asm.offsets)
        if np.abs(v_new - v).max() <= stop * (1.0 + np.abs(v_new).max()):
            return policy, v_new
        v = v_new
    raise MaxIterationsExceeded(VI_MAX_ITERATIONS, "value iteration")


def discounted_functional(mdp, policy, f) -> np.ndarray:
    """V_U[f](x) = E_x^U [ sum_t alpha^t f(X_t) ] for a per-state vector f (evaluation solve)."""
    return policy_evaluation(mdp, policy, reward_override=f)
