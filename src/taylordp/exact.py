"""Exact reference solvers: policy evaluation/improvement/iteration, value
iteration, and discounted functionals V_U[f].

All solvers work against an "assembly" of the MDP: either a tabular view
(concatenated sparse rows over (state, action) pairs, per-state discounts)
or a factored view for kernels of product form, where the one-step
expectation operator is applied to the whole value vector at once and rows
are never materialized.  Both give per-pair expectations E_x^u[V]; a
policy U's expectations P^U V = E^U[V] are those at its pairs, which
lattice.policy_pairs forms and checks once per solve.  A tabular
policy's evaluation system I - diag(alpha) P^U is built from its pairs'
rows in LAPACK band storage and solved by one banded LU (dgbsv); its
bandwidth is what the rows reach, the first-axis stride of a K-D chain's
row-major grid.  One loop finds every fixed point that is iterated to: a
factored policy's values and value iteration's optimal values.  Its
MacQueen-Porteus bounds bracket the solution, and it stops once the value
error is at most ITERATIVE_TOL * (1 + |V|).  Both need one scalar discount.
Maximization is the internal convention throughout; cost models negate
rewards at the model boundary.  scipy.linalg is imported at the first
tabular solve, so importing the package or solving a factored model never
loads it, and no solve loads scipy.sparse.

Argmax ties are broken to the first action in lexicographic order, with a
1e-12 absolute tolerance on value comparisons, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MaxIterationsExceeded, SingularSystem
from .lattice import LatticeMdp, policy_pairs

ARGMAX_TOL = 1e-12
RESIDUAL_REL = 1e-9


# solver tolerances and caps, read at call time
ITERATIVE_TOL = 1e-10        # bracketed iteration: value error / (1 + |V|)
MAX_ITERATIONS = 100         # policy-iteration cap
VI_MAX_ITERATIONS = 200_000  # bracketed-iteration steps


class _PairAssembly:
    """What the solvers need from an assembly, over the flat (state, action) axis.

    offsets[s]:offsets[s+1] index state s's pairs; rewards are per pair and
    discounts per state.  Subclasses supply expectations(values), E_x^u[V]
    for every pair; a reader of P^U V gathers it at the policy's pairs.
    """

    def __init__(self, offsets, rewards, discounts):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.rewards = np.asarray(rewards, dtype=np.float64)
        self.discounts = np.asarray(discounts, dtype=np.float64)
        self.n_states = len(self.offsets) - 1
        self.n_pairs = len(self.rewards)

    def q_values(self, values: np.ndarray) -> np.ndarray:
        """r(x,u) + alpha(x) E_x^u[V] for every pair; values must have shape (n_states,)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_states,):
            raise ValueError(f"values must have shape ({self.n_states},), "
                             f"got {values.shape}")
        q = self.expectations(values)
        q *= np.repeat(self.discounts, np.diff(self.offsets))
        q += self.rewards
        return q


class TabularAssembly(_PairAssembly):
    """Concatenated sparse rows for all (state, action) pairs.

    row_ptr delimits each pair's (col_idx, probs) slice.
    """

    def __init__(self, offsets, rewards, row_ptr, col_idx, probs, discounts):
        super().__init__(offsets, rewards, discounts)
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(col_idx, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=np.float64)

    def expectations(self, values: np.ndarray) -> np.ndarray:
        prod = self.probs * values[self.col_idx]
        return np.add.reduceat(prod, self.row_ptr[:-1])


class FactoredAssembly(_PairAssembly):
    """Product-form kernels: one-step expectations for all states at once.

    apply_expectation(V) returns E[V(X_1) | post-action state z] for every z;
    post_idx maps each (state, action) pair to its post-action state index.
    """

    def __init__(self, offsets, rewards, post_idx, apply_expectation, discount):
        super().__init__(offsets, rewards, np.full(len(offsets) - 1, float(discount)))
        self.post_idx = np.asarray(post_idx, dtype=np.int64)
        self.apply_expectation = apply_expectation

    def expectations(self, values: np.ndarray) -> np.ndarray:
        return self.apply_expectation(values)[self.post_idx]


def _ranges(starts, lens):
    """Concatenate arange(s, s+l) for each (s, l), every l >= 0; vectorized."""
    firsts = np.cumsum(lens) - lens                    # each segment's place in the output
    return np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(starts - firsts, lens)


def get_assembly(mdp):
    """The solver view of an MDP or chain: a chain's own assembly, or a
    LatticeMdp's factored or tabulated one, built on first use and kept on it."""
    if hasattr(mdp, "assembly"):
        return mdp.assembly()
    if mdp._assembly is None:
        mdp._assembly = mdp.factored() if mdp.factored is not None else _tabulate(mdp)
    return mdp._assembly


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
    hits = np.flatnonzero(values >= np.repeat(seg_max - ARGMAX_TOL, np.diff(offsets)))
    return seg_max, hits[np.searchsorted(hits, starts)] - starts


def policy_evaluation(mdp, policy, reward_override=None, warm_start=None) -> np.ndarray:
    """Solve V = r_U + diag(alpha) P^U V for the given stationary policy.

    The policy's pairs come from one policy_pairs check, which refuses a
    wrong shape or a non-integral index (ValueError) and an index out of
    range (InfeasibleAction); r_U, the rows and the post-action states are
    read at those pairs.  reward_override replaces r_U with a per-state
    vector (used for discounted functionals V_U[f]).  A TabularAssembly's
    system I - diag(alpha) P^U is built in band storage from the policy
    pairs' rows (_evaluation_band) and solved by banded LU (_banded_solve).
    A FactoredAssembly, whose discount is one scalar, is solved by
    _bracketed_iteration on V -> r_U + alpha P^U V, P^U V =
    apply_expectation(V)[post-action states of the policy pairs], from
    warm_start.  Either way the result must meet the RESIDUAL_REL residual
    contract.
    """
    asm = get_assembly(mdp)
    pairs = policy_pairs(asm.offsets, policy)
    if reward_override is None:
        r_u = asm.rewards[pairs]
    else:
        r_u = np.asarray(reward_override, dtype=np.float64)
        if r_u.shape != (asm.n_states,):
            raise ValueError("reward override must be a per-state vector")
        bad = ~np.isfinite(r_u)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"reward override at state {i} is not finite ({r_u[i]!r})")
    disc = asm.discounts

    if isinstance(asm, TabularAssembly):
        values, residual = _banded_solve(asm, pairs, r_u)
    else:
        post = asm.post_idx[pairs]

        # apply_expectation is looked up on every product, so a hook set on
        # the assembly after it was built still sees each matvec
        def step(v):
            v_next = asm.apply_expectation(v)[post]
            v_next *= disc
            v_next += r_u
            return v_next

        values = _bracketed_iteration(step, disc, warm_start=warm_start)
        residual = np.abs(values - step(values)).max()

    if residual > RESIDUAL_REL * (1.0 + np.abs(values).max()):
        raise SingularSystem(f"policy evaluation residual {residual} exceeds "
                             f"the {RESIDUAL_REL} contract")
    return values


def _evaluation_rows(asm: TabularAssembly, pairs: np.ndarray):
    """diag(alpha) P^U as (row, column, weight) entries, the policy pairs' rows in stored order."""
    starts = asm.row_ptr[pairs]
    lens = asm.row_ptr[pairs + 1] - starts
    take = _ranges(starts, lens)
    rows = np.repeat(np.arange(len(pairs), dtype=np.int64), lens)
    return rows, asm.col_idx[take], asm.discounts[rows] * asm.probs[take]


def _evaluation_band(n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray):
    """I - diag(alpha) P^U in LAPACK band storage, from _evaluation_rows' entries: (band, kl, ku).

    kl and ku are the most any entry lies below and above the diagonal.
    A[i, j] is band[kl + ku + i - j, j]; the first kl rows are the room
    dgbsv's row interchanges fill.  The band is Fortran-ordered, so dgbsv
    factors it in place, and takes n (2 kl + ku + 1) * 8 bytes.  Each
    position's entries are added in stored order from 0.0, and the band
    holds 1 - s on the diagonal and -s off it, the entry arithmetic of
    (sp.eye - sp.diags(alpha) @ P^U) in scipy's sparse algebra.
    """
    kl = int(np.max(rows - cols, initial=0))
    ku = int(np.max(cols - rows, initial=0))
    ldab = 2 * kl + ku + 1
    # bincount adds each position's entries one by one, in stored order;
    # summing -w gives -s exactly, as rounding is symmetric in sign
    flat = np.bincount(cols * ldab + (kl + ku) + rows - cols, weights=-weights,
                       minlength=n * ldab)
    band = flat.reshape(n, ldab).T
    band[kl + ku] += 1.0
    return band, kl, ku


def _banded_solve(asm: TabularAssembly, pairs: np.ndarray, r_u: np.ndarray):
    """Solve (I - diag(alpha) P^U) V = r_u by one banded LU; returns V and its residual's sup norm.

    LAPACK dgbsv factors the band and solves; a zero pivot raises
    SingularSystem naming its state.  When the residual breaks the
    RESIDUAL_REL contract, one dgbtrs solve on the stored factors refines V,
    which keeps the contract even for discounts very close to one.
    """
    from scipy.linalg import lapack
    rows, cols, weights = _evaluation_rows(asm, pairs)
    n = asm.n_states
    band, kl, ku = _evaluation_band(n, rows, cols, weights)
    lu, piv, values, info = lapack.dgbsv(kl, ku, band, r_u, overwrite_ab=1)
    if info > 0:
        raise SingularSystem(f"evaluation system is singular: zero pivot at state {info - 1}")

    def residual(v):
        return r_u - (v - np.bincount(rows, weights=weights * v[cols], minlength=n))

    resid = residual(values)
    if np.abs(resid).max() > RESIDUAL_REL * (1.0 + np.abs(values).max()):
        values = values + lapack.dgbtrs(lu, kl, ku, resid, piv)[0]
        resid = residual(values)
    return values, np.abs(resid).max()


def _bracketed_iteration(step, disc, warm_start=None):
    """Fixed-point iteration V <- step(V) with MacQueen-Porteus bounds, from warm_start or 0.

    step is r_U + alpha P^U V for a stochastic P^U, or the Bellman
    optimality operator, its max over actions; disc holds the per-state
    discounts, which must be one scalar alpha.  The increment
    d = V_{n+1} - V_n of each step brackets the fixed point:
    V in V_{n+1} + alpha/(1-alpha) [min d, max d] (MacQueen 1966; Porteus
    1971; Puterman 1994, 6.6.3).  The loop stops once half that bracket is at
    most ITERATIVE_TOL * (1 + |V_{n+1}|) and returns its midpoint.  The
    bracket removes the constant mode of P^U (eigenvalue 1) exactly, so the
    step count follows the rest of the spectrum, not 1 / (1 - alpha).
    step(V) returns a new array.
    """
    alpha = float(disc[0])
    if np.any(disc != alpha):
        raise ValueError("bracketed iteration needs one scalar discount")
    if alpha >= 1.0:
        raise SingularSystem("bracketed iteration requires discounts < 1")
    scale = alpha / (1.0 - alpha)
    v = np.zeros(len(disc)) if warm_start is None else np.array(warm_start, dtype=np.float64)
    for _ in range(VI_MAX_ITERATIONS):
        v_next = step(v)
        d = v_next - v
        lo, hi = d.min(), d.max()
        if 0.5 * scale * (hi - lo) <= ITERATIVE_TOL * (1.0 + np.abs(v_next).max()):
            return v_next + 0.5 * scale * (hi + lo)
        v = v_next
    raise MaxIterationsExceeded(VI_MAX_ITERATIONS, "bracketed iteration")


def policy_improvement(mdp, values):
    """Greedy policy: argmax_u r(x,u) + alpha(x) E_x^u[V], first maximizer wins."""
    asm = get_assembly(mdp)
    return segmented_argmax(asm.q_values(values), asm.offsets)[1]


@dataclass
class PiResult:
    policy: np.ndarray
    values: np.ndarray
    iterations: int


def policy_iteration(mdp, initial_policy=None) -> PiResult:
    """Standard policy iteration; terminates on policy stability."""
    asm = get_assembly(mdp)
    if initial_policy is None:
        policy = np.zeros(asm.n_states, dtype=np.int64)
    else:
        policy = policy_pairs(asm.offsets, initial_policy) - asm.offsets[:-1]
    values = None
    for it in range(1, MAX_ITERATIONS + 1):
        values = policy_evaluation(mdp, policy, warm_start=values)
        new_policy = policy_improvement(mdp, values)
        if np.array_equal(new_policy, policy):
            return PiResult(policy, values, it)
        policy = new_policy
    raise MaxIterationsExceeded(MAX_ITERATIONS, "policy iteration")


def value_iteration(mdp):
    """_bracketed_iteration on the Bellman optimality operator from V = 0.

    Returns the greedy policy at the values found and those values, which
    are within ITERATIVE_TOL * (1 + |V|) of the optimal values in sup norm:
    an absolute bound is below the floating-point spacing of large values.
    """
    asm = get_assembly(mdp)
    values = _bracketed_iteration(
        lambda v: segmented_argmax(asm.q_values(v), asm.offsets)[0], asm.discounts)
    return policy_improvement(mdp, values), values


def discounted_functional(mdp, policy, f) -> np.ndarray:
    """V_U[f](x) = E_x^U [ sum_t alpha^t f(X_t) ] for a per-state vector f (evaluation solve)."""
    return policy_evaluation(mdp, policy, reward_override=f)
