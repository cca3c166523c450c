"""CSV emission with byte-stable formatting.

Each writer builds whole columns from arrays, with no Python loop over
states or pairs, and hands them to _write_columns, which writes the header
and then the rows, ROWS_PER_WRITE rows per writerows call.  Floats are written
with repr (shortest round-trip form) and NaN as an empty cell, so identical
runs produce identical bytes; wall-clock timing never enters the files.
Column schemas are documented in docs/formats.md.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .lattice import action_tuple

ROWS_PER_WRITE = 256    # rows turned into Python cells at a time, so a file's cells never all exist


def _cells(column):
    """Python cells of a column slice: a float array's entries as floats with NaN as
    None (an empty cell), another array's as Python scalars, anything else as given."""
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind != "f":
        return column.tolist()
    cells = column.astype(object)
    cells[np.isnan(column)] = None
    return cells


def _write_columns(path, header, columns) -> None:
    """Write header, then row i of the file from entry i of every column.

    Raises ValueError, before the file is opened, when the columns differ in length.
    """
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of {header} have unequal lengths {lengths}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, lengths[0], ROWS_PER_WRITE):
            writer.writerows(zip(*(_cells(c[start:start + ROWS_PER_WRITE]) for c in columns)))


def write_value_policy_csv(path, mdp, values, policy) -> None:
    """Columns: state_index, coord_1..coord_d, value, action_1..action_m.

    The policy is checked by mdp.validate_policy, and values must hold one
    entry per state.
    """
    mdp.validate_policy(policy)
    U, offsets = mdp.action_table()
    actions = np.asarray(U[offsets[:-1] + np.asarray(policy, dtype=np.int64)], dtype=np.float64)
    actions = actions.reshape(mdp.n_states, -1)
    coords = mdp.lattice.states()
    header = (["state_index"] + [f"coord_{i + 1}" for i in range(coords.shape[1])]
              + ["value"] + [f"action_{j + 1}" for j in range(actions.shape[1])])
    _write_columns(path, header, [range(mdp.n_states), *coords.T,
                                  np.asarray(values, dtype=np.float64), *actions.T])


def write_gap_csv(path, v_star, v_candidate, report, remainder=None,
                  accumulation=None, proxy=None, corner_mask=None) -> None:
    """Columns: state, V_star, V_candidate, abs_gap, rel_gap, remainder,
    accumulation, proxy, corner_flag (the last four empty when not given)."""
    n = len(v_star)
    floats = [np.full(n, np.nan) if c is None else np.asarray(c, dtype=np.float64)
              for c in (v_star, v_candidate, report.abs_gap, report.rel_gap, remainder,
                        accumulation, proxy)]
    flags = np.full(n, None) if corner_mask is None else np.asarray(corner_mask, bool).astype(int)
    _write_columns(path, ["state", "V_star", "V_candidate", "abs_gap", "rel_gap",
                          "remainder", "accumulation", "proxy", "corner_flag"],
                   [range(n), *floats, flags])


def write_chain_csv(path, chain) -> None:
    """Columns: state, action, target, prob, alpha_h, r_tilde (one row per entry)."""
    asm = chain.assembly()
    entry_pair = np.repeat(np.arange(len(asm.rewards)), np.diff(asm.row_ptr))
    entry_state = np.repeat(np.arange(chain.n_states), np.diff(asm.offsets))[entry_pair]
    actions = np.fromiter(action_tuple(chain.actions), dtype=object)
    _write_columns(path, ["state", "action", "target", "prob", "alpha_h", "r_tilde"],
                   [entry_state, actions[entry_pair], asm.col_idx, asm.probs,
                    asm.discounts[entry_state], asm.rewards[entry_pair]])


def write_moments_csv(path, problem) -> None:
    """Columns: state, action, mu_1.., sigma2 entries (row-major), eig_min, eig_max.

    One moments_batch call over every (state, action) pair and one stacked
    eigvalsh.
    """
    mdp = problem.mdp
    d = mdp.lattice.dim
    U, offsets = mdp.action_table()
    mu, s2 = problem.moments_batch(mdp.pair_states(), U)
    eig = np.linalg.eigvalsh(s2)
    values = np.column_stack([mu, s2.reshape(len(U), d * d), eig[:, 0], eig[:, -1]])
    header = (["state", "action"] + [f"mu_{i + 1}" for i in range(d)]
              + [f"sigma2_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
              + ["eig_min", "eig_max"])
    _write_columns(path, header, [np.repeat(np.arange(mdp.n_states), np.diff(offsets)),
                                  action_tuple(U), *values.T])


def summary_line(model, alpha, h, mode, max_rel, mean_rel, iters, wall_time) -> str:
    return (f"{model}, {alpha}, {h}, {mode}, "
            f"{'' if max_rel is None else repr(float(max_rel))}, "
            f"{'' if mean_rel is None else repr(float(mean_rel))}, "
            f"{iters}, {wall_time:.3f}")
