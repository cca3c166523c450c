"""Data model for discounted MDPs on truncated integer lattices.

States live on a box ``lower <= x <= upper`` in Z^d and are addressed by a
row-major flat index.  A model's kernel and reward are batch hooks over k
(state, action) pairs: the kernel returns the pairs' sparse rows in one
ragged (row_ptr, targets, probs) triple, the reward a (k,) array.
LatticeMdp.rows() and rewards() are their only callers, and they check
every row and reward they return.  Kernels that place mass outside the box
are repaired by :func:`truncate_renormalize`, which rescales each row by the
mass it keeps inside.  Action sets enumerate the actions of many states in
one ``at(states) -> (U, offsets)`` call, a ragged table in lexicographic
order per state; each LatticeMdp makes that call once, over all of its
states (``action_table``).  The fine steps that would otherwise form a
temporary over every candidate or pair (the polyhedral enumeration, the
routing assembly, the Taylored greedy) walk the states in blocks of about
BLOCK entries (``state_blocks``) and write into preallocated outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyActionSet, InfeasibleAction, ZeroInteriorMass

State = tuple[int, ...]

PROB_TOL = 1e-12
BLOCK = 24_576         # entries a block of consecutive states holds in a blocked fine step
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class StateLattice:
    """Truncated integer box with a row-major state <-> index bijection."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same dimension")
        if any(u < l for l, u in zip(self.lower, self.upper)):
            raise ValueError("need lower <= upper componentwise")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(u - l + 1 for l, u in zip(self.lower, self.upper))

    @property
    def n_states(self) -> int:
        return int(np.prod(self.shape))

    def index(self, state: Sequence[int]) -> int:
        offset = tuple(int(s) - l for s, l in zip(state, self.lower))
        return int(np.ravel_multi_index(offset, self.shape))

    def state(self, index: int) -> State:
        offset = np.unravel_index(int(index), self.shape)
        return tuple(int(o) + l for o, l in zip(offset, self.lower))

    def states(self) -> np.ndarray:
        """All states as an (n_states, dim) int array in index order."""
        axes = [np.arange(l, u + 1) for l, u in zip(self.lower, self.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def indices_of(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized index() for an (k, dim) coordinate array."""
        coords = np.atleast_2d(coords)
        offset = coords - np.asarray(self.lower)
        return np.ravel_multi_index(tuple(offset.T), self.shape)


def row_sums(probs: np.ndarray, row_ptr: np.ndarray):
    """(sums, near_one) of the ragged rows probs[row_ptr[i]:row_ptr[i+1]].

    near_one[i] holds when the row's math.fsum lies within PROB_TOL of one
    (never for a NaN sum), and sums[i] is that fsum for every row failing
    the test.  Each row is added in stored order (np.bincount), which is off
    from the exact sum by less than len * eps * sum|p| (Higham 1993); a row
    that clears PROB_TOL by that bound passes without fsum (near one the
    bound is at least eps, which also covers fsum's rounding to float64).
    Rows longer than about 4,500 entries never clear it, so fsum decides
    them.
    """
    probs = np.asarray(probs, dtype=np.float64)
    lens = row_ptr[1:] - row_ptr[:-1]
    owner = np.repeat(np.arange(len(lens)), lens)
    sums = np.bincount(owner, probs, len(lens))
    margin = lens * _EPS * np.bincount(owner, np.abs(probs), len(lens))
    near_one = abs(sums - 1.0) + margin <= PROB_TOL           # False for an empty row
    for i in np.flatnonzero(~near_one):
        sums[i] = math.fsum(probs[row_ptr[i]:row_ptr[i + 1]].tolist())
        near_one[i] = abs(sums[i] - 1.0) <= PROB_TOL
    return sums, near_one


def _check_rows(n_states: int, states, U, row_ptr, targets, probs) -> None:
    """Raise ValueError naming the first pair whose row is bad.

    A row is bad when it has no entries, an entry below -PROB_TOL, a target
    outside the lattice, or a sum more than PROB_TOL from one (as math.fsum
    adds it; a NaN entry fails this test).
    """
    k = len(U)
    if (row_ptr.shape != (k + 1,) or row_ptr[0] != 0 or (np.diff(row_ptr) < 0).any()
            or row_ptr[-1] != len(targets) or probs.shape != targets.shape):
        raise ValueError(f"kernel rows do not describe {k} pairs")
    sums, near_one = row_sums(probs, row_ptr)                # False for an empty row too
    negative = probs < -PROB_TOL
    outside = (targets < 0) | (targets >= n_states)
    if near_one.all() and not (negative.any() or outside.any()):
        return
    lens = np.diff(row_ptr)
    owner = np.repeat(np.arange(k), lens)
    checks = [(lens == 0, "has no entries"),
              (np.bincount(owner[negative], minlength=k) > 0, "has a negative probability"),
              (~near_one, "does not sum to 1"),
              (np.bincount(owner[outside], minlength=k) > 0, "leaves the lattice")]
    bad = np.column_stack([flag for flag, _ in checks])
    i = int(np.argmax(bad.any(axis=1)))
    what = checks[int(np.argmax(bad[i]))][1]
    detail = f" (sum {sums[i]!r})" if what == "does not sum to 1" else ""
    raise ValueError(f"{_pair_name(states, U, i)} {what}{detail}")


def _pair_name(states, U, i: int) -> str:
    return f"pair (state {tuple(states[i].tolist())}, action {action_tuple(U[i:i + 1])[0]!r})"


def truncate_renormalize(raw_kernel, lattice: StateLattice):
    """A batch kernel from a batch raw kernel that may leak mass outside the lattice.

    raw_kernel(states, U) returns padded raw rows (coords, probs, lengths):
    coords (k, w, d) integer target coordinates, probs (k, w), and row i's
    entries are its first lengths[i].  Mass outside the box is dropped and
    each row divided by the math.fsum of the mass it keeps:
    P~(x,y) = P(x,y) / sum_{z in box} P(x,z).  Raises ZeroInteriorMass for
    the first row that keeps no mass at all (a NaN mass too).
    """

    lower = np.asarray(lattice.lower)
    upper = np.asarray(lattice.upper)

    def kernel(states, U):
        coords, probs, lengths = raw_kernel(states, U)
        coords = np.asarray(coords, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        inside = ((np.arange(probs.shape[1]) < np.asarray(lengths)[:, None])
                  & np.all((coords >= lower) & (coords <= upper), axis=2))
        mass = np.array([math.fsum(row) for row in np.where(inside, probs, 0.0).tolist()])
        empty = ~(mass > 0.0)
        if empty.any():
            i = int(np.argmax(empty))
            raise ZeroInteriorMass(tuple(np.asarray(states)[i].tolist()),
                                   action_tuple(np.asarray(U)[i:i + 1])[0])
        row_ptr = np.zeros(len(mass) + 1, dtype=np.int64)
        np.cumsum(inside.sum(axis=1), out=row_ptr[1:])
        return row_ptr, lattice.indices_of(coords[inside]), (probs / mass[:, None])[inside]

    return kernel


def action_tuple(U) -> tuple:
    """Python form of a slice of an action table: scalars, or tuples for vector actions."""
    rows = np.asarray(U).tolist()
    return tuple(map(tuple, rows)) if np.ndim(U) == 2 else tuple(rows)


def policy_pairs(offsets: np.ndarray, policy) -> np.ndarray:
    """The int64 pair offsets[s] + policy[s] that each state's action index selects.

    The only check of a policy: one entry per state, each an integer (an
    integer or bool dtype, or finite floats equal to their rounding), else
    ValueError; each in its state's range, else InfeasibleAction naming the
    flat state index as an index.
    """
    policy = np.asarray(policy)
    if policy.shape != (len(offsets) - 1,):
        raise ValueError("policy must assign one action index per state")
    if policy.dtype.kind not in "biu":
        whole = (np.isfinite(policy) & (policy == np.round(policy)) if policy.dtype.kind == "f"
                 else np.zeros(policy.shape, dtype=bool))
        bad = np.flatnonzero(~whole)
        if bad.size:
            raise ValueError(f"action index {policy[bad[0]].item()!r} at state index "
                             f"{bad[0]} is not an integer")
    bad = np.flatnonzero((policy < 0) | (policy >= np.diff(offsets)))
    if bad.size:
        raise InfeasibleAction(int(bad[0]), int(policy[bad[0]]))
    return (offsets[:-1] + policy).astype(np.int64, copy=False)


def state_blocks(offsets: np.ndarray, width: int):
    """(first, stop) ranges of consecutive states, each of about BLOCK // width entries.

    offsets[i]:offsets[i+1] are state i's entries (candidates, pairs) and
    each entry stands for width values (action coordinates, stencil
    directions).  Blocks are cut at state boundaries, so a state with more
    entries than that is a block of its own, and a table that fits, no
    states included, is the one block (0, n).
    """
    size = max(BLOCK // max(width, 1), 1)
    n = len(offsets) - 1
    if offsets[-1] <= size:  # one block, without the cut search that small tables would pay for
        return [(0, n)]
    cuts = np.searchsorted(offsets, np.arange(size, offsets[-1], size))
    bounds = np.unique(np.concatenate([[0], cuts, [n]]))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _table_offsets(counts: np.ndarray, states: np.ndarray) -> np.ndarray:
    if not counts.all():
        raise EmptyActionSet(tuple(np.asarray(states[np.argmin(counts)]).tolist()))
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class ExplicitActionSet:
    """One action list shared by every state, duplicates dropped and sorted."""

    def __init__(self, actions):
        self._actions = np.asarray(tuple(sorted(set(actions))))

    def at(self, states: np.ndarray):
        """(U, offsets) for an (n, d) state array: the action list tiled once per state."""
        states = np.atleast_2d(states)
        acts = self._actions
        offsets = _table_offsets(np.full(len(states), len(acts)), states)
        return np.tile(acts, (len(states),) + (1,) * (acts.ndim - 1)), offsets


class PolyhedralActionSet:
    """Actions = {u integer in box(state) : A u <= b(state)}, enumerated lexicographically.

    `box` maps an (n, d) state array to (n, m, 2) per-coordinate inclusive
    integer (lo, hi) bounds and `b` maps it to the (n, c) right-hand sides.
    A is held as float64 and A u <= b(x) is tested in float64: the test is
    exact when A, b and the boxes are integral (or dyadic) and |A u| < 2^53.
    """

    def __init__(self, A: np.ndarray, b: Callable[[np.ndarray], np.ndarray],
                 box: Callable[[np.ndarray], np.ndarray]):
        self.A = np.asarray(A, dtype=np.float64)
        self.b = b
        self.box = box

    def at(self, states: np.ndarray):
        """Feasible actions of every state as one ragged array.

        Returns (U, offsets): U[offsets[i]:offsets[i+1]] are the actions of
        states[i] as a C-contiguous (k_i, m) int64 array in lexicographic
        order.  The box and b hooks are called once, over every state.  The
        states are then cut into blocks of about BLOCK // m candidates
        (state_blocks), each block's actions are enumerated by one pass of
        _feasible and written into one table sized from the blocks' kept
        counts, so no temporary spans every candidate.
        """
        states = np.atleast_2d(states)
        n = len(states)
        c, m = self.A.shape
        box = np.asarray(self.box(states), dtype=np.int64).reshape(n, m, 2)
        lo = box[:, :, 0]
        width = np.maximum(box[:, :, 1] - lo + 1, 0)
        n_cand = width.prod(axis=1)
        bvec = np.asarray(self.b(states), dtype=np.float64).reshape(n, c)
        ends = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_cand, out=ends[1:])
        blocks = state_blocks(ends, m)
        parts = [self._feasible(lo[s0:s1], width[s0:s1], n_cand[s0:s1], bvec[s0:s1])
                 for s0, s1 in blocks]
        counts = np.concatenate([part_counts for _, part_counts in parts])
        del box, lo, width, bvec  # freed before the table is: a lower memory peak
        offsets = _table_offsets(counts, states)
        U = np.empty((offsets[-1], m), dtype=np.int64)
        for (s0, s1), (kept, _) in zip(blocks, parts):
            U[offsets[s0]:offsets[s1]] = kept.T
        return U, offsets

    def _feasible(self, lo, width, n_cand, bvec):
        """(kept, counts): the feasible box points of n states, coordinate-major.

        kept is the (m, k) int64 array of the states' feasible actions, in
        state order and lexicographic within a state, and counts the (n,)
        number each state keeps.  The candidates of a state are its box
        points (low corner lo, per-coordinate widths width, n_cand of them),
        ranked in mixed radix with the last coordinate varying fastest.
        Only the state's active coordinates, those whose box holds more than
        one point, take a digit of the rank: they fill the state's slots in
        coordinate order, so k slots (k the most active coordinates of any
        state) cost k - 1 divmod passes.  The candidates are built
        coordinate-major, (m, N), from their low corners and filtered by one
        (c, m) @ (m, N) product against the right-hand sides bvec.
        """
        n = len(lo)
        total = int(n_cand.sum())
        # slot s of a state holds its s-th active coordinate: the offset of
        # that coordinate's row in the flat candidates, and the box width
        active = width > 1
        slot = np.cumsum(active, axis=1) - 1
        k = int(slot[:, -1].max(initial=-1)) + 1
        state, coord = np.nonzero(active)
        cells = slot[state, coord], state
        slot_row = np.zeros((k, n), dtype=np.int64)
        slot_row[cells] = coord * total
        slot_width = np.ones((k, n), dtype=np.int64)
        slot_width[cells] = width[state, coord]
        start = np.cumsum(n_cand) - n_cand
        col = np.arange(total)
        rank = col - np.repeat(start, n_cand)
        cand = np.repeat(lo.T, n_cand, axis=1)
        flat = cand.reshape(-1)
        for s in range(k - 1, 0, -1):
            rank, digit = np.divmod(rank, np.repeat(slot_width[s], n_cand))
            flat[np.repeat(slot_row[s], n_cand) + col] += digit
        if k:  # what is left of the rank is the leading slot's digit
            flat[np.repeat(slot_row[0], n_cand) + col] += rank
        del rank, col  # freed before the (c, N) test: a lower memory peak
        keep = np.logical_and.reduce(self.A @ cand <= np.repeat(bvec.T, n_cand, axis=1), axis=0)
        kept = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        return np.compress(keep, cand, axis=1), np.diff(kept[np.append(start, total)])


class LatticeMdp:
    """Discounted MDP on a StateLattice.

    kernel(states, U) -> (row_ptr, targets, probs) and reward(states, U) ->
    (k,) are batch hooks over k (state, action) pairs: states is (k, d) and
    U the matching (k,) or (k, m) actions, and the rows come back ragged in
    TabularAssembly's layout, pair i's flat targets and probabilities at
    row_ptr[i]:row_ptr[i+1] (zero entries may stay).  Every caller reads
    them through rows() and rewards(), which look the hook up on the
    instance at each call (so a hook replaced after construction sees every
    call) and check what it returns.  The action set's at(states)
    enumerates every state's duplicate-free lexicographically ordered
    actions in one call, made once per model (action_table), and actions_at
    reads one state's slice back as a tuple.  Policies are dense integer
    arrays indexing into that per-state ordering, values are dense float
    arrays over flat state indices.
    """

    def __init__(self, lattice: StateLattice, actions, kernel, reward, discount: float,
                 factored=None):
        if not (0.0 < discount < 1.0):
            raise ValueError("discount must lie in (0, 1)")
        self.lattice = lattice
        self.actions = actions
        self.kernel = kernel
        self.reward = reward
        self.discount = float(discount)
        # optional product-form kernel: a zero-argument builder of the
        # FactoredAssembly the solvers use in place of tabulated rows (exact.py)
        self.factored = factored
        self._table = None
        self._assembly = None                  # exact.get_assembly's, built on first use

    @property
    def n_states(self) -> int:
        return self.lattice.n_states

    def action_table(self):
        """(U, offsets) over all states in index order, from one actions.at call on first use.

        U[offsets[i]:offsets[i+1]] are the actions of state i; the flat
        position offsets[i] + a is the (state, action) pair axis that every
        assembly and batch hook shares.
        """
        if self._table is None:
            self._table = self.actions.at(self.lattice.states())
        return self._table

    def pair_states(self) -> np.ndarray:
        """The state of every (state, action) pair, an (n_pairs, d) integer array."""
        return np.repeat(self.lattice.states(), np.diff(self.action_table()[1]), axis=0)

    def rows(self, states: np.ndarray, U):
        """Kernel rows of k pairs as ragged (row_ptr, targets, probs), from one kernel call.

        states is (k, d) and U holds the k matching actions (a slice of the
        action table, or a sequence of the action set's actions).  Raises
        ValueError naming the first pair whose row is empty, has an entry
        below -PROB_TOL or a target outside the lattice, or does not sum to
        one within PROB_TOL.
        """
        states, U = np.asarray(states), np.asarray(U)
        row_ptr, targets, probs = self.kernel(states, U)
        row_ptr = np.asarray(row_ptr, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        _check_rows(self.n_states, states, U, row_ptr, targets, probs)
        return row_ptr, targets, probs

    def rewards(self, states: np.ndarray, U) -> np.ndarray:
        """Rewards of k pairs as a (k,) float array, from one reward call; see rows().

        Raises ValueError naming the first pair whose reward is not finite.
        """
        states, U = np.asarray(states), np.asarray(U)
        rewards = np.asarray(self.reward(states, U), dtype=np.float64)
        if rewards.shape != (len(U),):
            raise ValueError(f"reward hook returned shape {rewards.shape} for {len(U)} pairs")
        bad = ~np.isfinite(rewards)
        if bad.any():
            raise ValueError(f"{_pair_name(states, U, int(np.argmax(bad)))} "
                             f"has a non-finite reward")
        return rewards

    def actions_at(self, state_index: int):
        U, offsets = self.action_table()
        return action_tuple(U[offsets[state_index]:offsets[state_index + 1]])

    def validate_policy(self, policy: np.ndarray) -> np.ndarray:
        """policy_pairs on the action table: the pairs the policy selects.

        An index outside its state's range raises InfeasibleAction naming
        the lattice state.
        """
        try:
            return policy_pairs(self.action_table()[1], policy)
        except InfeasibleAction as exc:
            raise InfeasibleAction(self.lattice.state(exc.state), exc.action) from None


def pack_rows(targets: np.ndarray, probs: np.ndarray, lengths: np.ndarray):
    """Ragged (row_ptr, targets, probs) from padded (k, w) blocks.

    Row i keeps its first lengths[i] entries, zeros included.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = np.arange(targets.shape[1]) < lengths[:, None]
    row_ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    return row_ptr, targets[keep], probs[keep]

