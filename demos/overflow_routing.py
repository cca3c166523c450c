"""Two-pool overflow routing: the benchmark row and error concentration.

Reproduces the 2-pool comparison at alpha = 0.99 (lam = 0.8 N p): plain
coarse-chain policy iteration, the exact-improvement variant, and the final
one-step column, each evaluated exactly against the optimal value.  Also
evaluates the overflow-everything heuristic, whose gap dwarfs all of them.
"""

import numpy as np

import taylordp as tdp
from taylordp.models.routing import build_routing, table_params
from taylordp.tapi import TapiOptions, tapi_solve

model = build_routing(table_params(J=2, alpha=0.99, lam_factor=0.8))
star = tdp.policy_iteration(model.mdp)
v = star.values
print("2-pool instance: 441 states, exact PI took", star.iterations, "iterations")
print("\n  h | coarse-PI | +exact improv | one step")
for h in (1, 2, 4):
    a = tdp.gap_report(tapi_solve(model.problem, TapiOptions(h=h)).fine_values, v).max_rel
    b = tdp.gap_report(tapi_solve(model.problem,
                                  TapiOptions(h=h, improvement="exact")).fine_values, v).max_rel
    c = tdp.gap_report(tapi_solve(model.problem,
                                  TapiOptions(h=h, one_step=True)).fine_values, v).max_rel
    print(f"  {h} |   {a:.4f}  |    {b:.4f}     |  {c:.4f}")

# where the h=2 errors live: a narrow band near the expensive-overflow boundary
res = tapi_solve(model.problem, TapiOptions(h=2))
rel = tdp.gap_report(res.fine_values, v).rel_gap.reshape(21, 21)
hot = np.argwhere(rel > 0.5 * np.nanmax(rel))
print(f"\nh=2 errors > half the max concentrate on {len(hot)} of 441 states, "
      f"x_1 range {hot[:, 0].min()}..{hot[:, 0].max()}")

# the always-overflow heuristic for contrast
mdp = model.mdp
heuristic = np.empty(mdp.n_states, dtype=np.int64)
for i in range(mdp.n_states):
    totals = [sum(u) for u in mdp.actions_at(i)]
    heuristic[i] = int(np.argmax(totals))
v_h = tdp.policy_evaluation(mdp, heuristic)
print(f"overflow-as-much-as-possible heuristic: max rel gap "
      f"{tdp.gap_report(v_h, v).max_rel:.3f}")
