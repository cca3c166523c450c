"""CSV emission with byte-stable formatting.

Floats are written with repr (shortest round-trip form), so identical runs
produce identical bytes; wall-clock timing never enters the files.  Column
schemas are documented in docs/formats.md.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .lattice import action_tuple


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        if np.isnan(x):
            return ""
        return repr(float(x))
    return str(x)


def write_value_policy_csv(path, mdp, values, policy) -> None:
    """Columns: state_index, coord_1..coord_d, value, action_1..action_m."""
    lattice = mdp.lattice
    d = lattice.dim
    first_action = np.atleast_1d(np.asarray(mdp.action(0, int(policy[0])), dtype=np.float64))
    m = first_action.size
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state_index"] + [f"coord_{i + 1}" for i in range(d)]
                        + ["value"] + [f"action_{j + 1}" for j in range(m)])
        for i in range(mdp.n_states):
            coords = lattice.state(i)
            act = np.atleast_1d(np.asarray(mdp.action(i, int(policy[i])), dtype=np.float64))
            writer.writerow([i] + [_fmt(c) for c in coords] + [_fmt(float(values[i]))]
                            + [_fmt(a) for a in act])


def write_gap_csv(path, lattice, v_star, v_candidate, report, remainder=None,
                  accumulation=None, proxy=None, corner_mask=None) -> None:
    """Columns: state, V_star, V_candidate, abs_gap, rel_gap, remainder,
    accumulation, proxy, corner_flag."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = len(v_star)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "V_star", "V_candidate", "abs_gap", "rel_gap",
                         "remainder", "accumulation", "proxy", "corner_flag"])
        for i in range(n):
            writer.writerow([
                i, _fmt(float(v_star[i])), _fmt(float(v_candidate[i])),
                _fmt(float(report.abs_gap[i])), _fmt(float(report.rel_gap[i])),
                _fmt(None if remainder is None else float(remainder[i])),
                _fmt(None if accumulation is None else float(accumulation[i])),
                _fmt(None if proxy is None else float(proxy[i])),
                "" if corner_mask is None else int(bool(corner_mask[i])),
            ])


def _fmt_column(values) -> np.ndarray:
    """_fmt of every entry, as an object array ready to be gathered."""
    out = np.empty(len(values), dtype=object)
    out[:] = [_fmt(v) for v in values]
    return out


def write_chain_csv(path, chain) -> None:
    """Columns: state, action, target, prob, alpha_h, r_tilde (one row per entry)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    asm = chain.assembly()
    entry_pair = np.repeat(np.arange(len(asm.rewards)), np.diff(asm.row_ptr))
    entry_state = np.repeat(np.arange(chain.n_states), np.diff(asm.offsets))[entry_pair]
    actions = _fmt_column(action_tuple(chain.actions))
    columns = (entry_state.tolist(), actions[entry_pair], asm.col_idx.tolist(),
               _fmt_column(asm.probs.tolist()), _fmt_column(asm.discounts.tolist())[entry_state],
               _fmt_column(asm.rewards.tolist())[entry_pair])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "action", "target", "prob", "alpha_h", "r_tilde"])
        writer.writerows(zip(*columns))


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
    pair_state = np.repeat(np.arange(mdp.n_states), np.diff(offsets))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = (["state", "action"] + [f"mu_{i + 1}" for i in range(d)]
                  + [f"sigma2_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
                  + ["eig_min", "eig_max"])
        writer.writerow(header)
        for s, u, row in zip(pair_state.tolist(), action_tuple(U), values.tolist()):
            writer.writerow([s, _fmt(u)] + [_fmt(v) for v in row])


def summary_line(model, alpha, h, mode, max_rel, mean_rel, iters, wall_time) -> str:
    return (f"{model}, {alpha}, {h}, {mode}, "
            f"{'' if max_rel is None else repr(float(max_rel))}, "
            f"{'' if mean_rel is None else repr(float(mean_rel))}, "
            f"{iters}, {wall_time:.3f}")
