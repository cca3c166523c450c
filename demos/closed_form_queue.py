"""Fixed-control queue with a closed-form Taylored value.

The controlled random walk with service probability pinned at 1/2 and
quartic holding cost has an explicit solution of its Taylored equation.
This script solves the coarse chain at h = 1, compares it against the
closed form, and verifies the computable gap bound

    |Vhat(x) - V_U(x)|  <=  E_x[ sum_t alpha^t |A_U[Vhat]|(X_t) ]

with both sides produced by exact linear solves.
"""

import numpy as np

import taylordp as tdp
from taylordp.bounds import discounted_accumulation, taylor_remainder
from taylordp.models import build

ALPHA = 0.9

for M in (50, 100, 200):
    model = build("service_rate", M=M, alpha=ALPHA, cost="quartic", fixed_u=0.5)
    chain = tdp.build_multidim_chain(model.problem, 1)
    res = tdp.policy_iteration(chain)
    xs = np.arange(M // 2 + 1.0)
    v_hat = model.oracle().value(xs[:, None])
    err = np.abs(res.values[: M // 2 + 1] - v_hat).max() / np.abs(v_hat).max()
    print(f"M={M:4d}: coarse chain vs closed form, sup-norm relative error {err:.3e}")

print()
model = build("service_rate", M=200, alpha=ALPHA, cost="quartic", fixed_u=0.5)
mdp = model.mdp
policy = np.zeros(mdp.n_states, dtype=np.int64)
phi = model.oracle()

v_u = tdp.policy_evaluation(mdp, policy)
v_hat = phi.value(mdp.lattice.states())
remainder = taylor_remainder(model.problem, policy, phi)
bound = discounted_accumulation(mdp, policy, np.abs(remainder))
gap = np.abs(v_hat - v_u)

print("per-state Taylor remainder is constant -alpha/(1-alpha) in the interior:")
print("  remainder[5..8] =", np.round(remainder[5:9], 6))
print(f"gap bound holds at every state: {(gap <= bound + 1e-9 * np.abs(v_u)).all()}")
for x in (0, 10, 50, 100):
    print(f"  x={x:3d}: |Vhat - V_U| = {gap[x]:10.3f}   bound = {bound[x]:10.3f}")
