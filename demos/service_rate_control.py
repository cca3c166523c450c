"""Service-rate control: exact solution vs the Taylored pipeline.

Solves the quadratic-cost single-server queue exactly, then runs policy
iteration on the coarse chain at h = 1 and h = 2, extends the result back
to the lattice, and applies the final one-step improvement.  Also prints
the central-difference proxy for the third derivative, whose interior peak
drives the computable error bound.
"""

import numpy as np

import taylordp as tdp
from taylordp.bounds import third_derivative_proxy
from taylordp.models import build
from taylordp.tapi import TapiOptions, tapi_solve

M, ALPHA = 100, 0.99
model = build("service_rate", M=M, alpha=ALPHA, cost="quadratic")
star = tdp.policy_iteration(model.mdp)
sup = np.abs(star.values).max()
print(f"exact optimum: {star.iterations} PI iterations, |V*({M})| = {abs(star.values[M]):.0f}")

for h in (1, 2):
    res = tapi_solve(model.problem, TapiOptions(h=h))
    gap = np.abs(res.fine_values - star.values)
    one = tapi_solve(model.problem, TapiOptions(h=h, one_step=True))
    gap1 = np.abs(one.fine_values - star.values)
    print(f"h={h}: coarse-chain policy gap at x=100: {gap[M]:8.2f}"
          f"   sup gap/|V*|: {gap.max() / sup:.2e}")
    print(f"       after one-step improvement:      {gap1[M]:8.2f}"
          f"   sup gap/|V*|: {gap1.max() / sup:.2e}")

chain = tdp.build_multidim_chain(model.problem, 1)
coarse = tdp.policy_iteration(chain)
proxy = third_derivative_proxy(-coarse.values, 1)
peak = float(np.nanmax(np.abs(proxy[2: M - 3])))
print(f"\nthird-derivative proxy peak (interior): {peak:.3f}")
print(f"implied error bound peak/(1-alpha) = {peak / (1 - ALPHA):.0f}"
      f"  -- {peak / (1 - ALPHA) / abs(star.values[M]):.2%} of the value at x={M}")
