"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The 3-pool benchmark is marked slow but runs in the default
suite (its exact baseline solves in seconds through the factored kernel).
"""

import math
import time

import numpy as np
import pytest

import taylordp as tdp
from taylordp.bounds import discounted_accumulation, taylor_remainder, third_derivative_proxy
from taylordp.models import build
from taylordp.models.heavy_traffic import heavy_traffic_oracle
from taylordp.models.routing import build_routing, table_params
from taylordp.tapi import TapiOptions, tapi_solve
from taylordp.taylor import TaylorProblem, kernel_moment_provider

from conftest import pair_hooks, sampled_pairs


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{status}] {name}: {detail} ({elapsed:.1f} s, budget {budget:.0f} s)")
    assert ok, f"criterion {num} {name}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_closed_form_oracle():
    t0 = time.perf_counter()
    details = []
    ok = True
    for alpha in (0.9, 0.99):
        errs = {}
        for M in (200, 400):
            model = build("service_rate", M=M, alpha=alpha, cost="quartic", fixed_u=0.5)
            chain = tdp.build_multidim_chain(model.problem, 1)
            res = tdp.policy_iteration(chain)
            xs = np.arange(M // 2 + 1.0)
            v_hat = model.oracle().value(xs[:, None])
            errs[M] = np.abs(res.values[: M // 2 + 1] - v_hat).max() / np.abs(v_hat).max()
        ok &= errs[200] <= 0.01 and errs[400] < errs[200]
        details.append(f"alpha={alpha}: err(M=200)={errs[200]:.2e}, err(M=400)={errs[400]:.2e}")
    report(1, "closed-form oracle via the coarse chain", ok, "; ".join(details),
           time.perf_counter() - t0, 10)


@pytest.mark.parametrize("alpha", [0.9, 0.99])
def test_criterion_2_gap_bound_inequality(alpha):
    t0 = time.perf_counter()
    M = 200
    model = build("service_rate", M=M, alpha=alpha, cost="quartic", fixed_u=0.5)
    mdp = model.mdp
    pol = np.zeros(mdp.n_states, dtype=np.int64)
    phi = model.oracle()
    rem = taylor_remainder(model.problem, pol, phi)
    lhs = np.abs(tdp.discounted_functional(mdp, pol, rem))
    rhs = discounted_accumulation(mdp, pol, np.abs(rem))
    holds = bool((lhs <= rhs).all())
    # the left side is exactly |Vhat - V_U| (accumulation identity)
    v_u = tdp.policy_evaluation(mdp, pol)
    v_hat = phi.value(mdp.lattice.states())
    ident = np.abs((v_hat - v_u) + tdp.discounted_functional(mdp, pol, rem)).max()
    ident_ok = ident <= 1e-12 * (1.0 + np.abs(v_hat).max())
    report(2, f"gap-bound inequality (alpha={alpha})", holds and ident_ok,
           f"|accum(A)| <= accum(|A|) at all {M + 1} states, no tolerance; "
           f"identity |Vhat-V_U| residual {ident:.2e}; min slack {(rhs - lhs).min():.2e}",
           time.perf_counter() - t0, 10)


def test_criterion_3_third_derivative_proxy(service_quadratic, service_quadratic_star):
    t0 = time.perf_counter()
    M, h, alpha = 100, 1, 0.99
    chain = tdp.build_multidim_chain(service_quadratic.problem, h)
    res = tdp.policy_iteration(chain)
    cost_values = -res.values
    proxy = third_derivative_proxy(cost_values, h)
    # peak over the window clear of the truncation layer (see decisions notes)
    window = np.abs(proxy[2 * h: M - 4 * h + 1])
    peak = float(np.nanmax(window))
    bound = peak / (1.0 - alpha)
    v100 = abs(service_quadratic_star.values[M])
    ok = (1.3 <= peak <= 2.3) and bound <= 1e-3 * v100
    report(3, "third-derivative proxy", ok,
           f"peak={peak:.3f} (target 1.8 +- 0.5), bound={bound:.1f} vs 0.1% of |V*(100)|={1e-3 * v100:.1f}",
           time.perf_counter() - t0, 30)


def test_criterion_4_service_rate_gaps(service_quadratic, service_quadratic_star):
    t0 = time.perf_counter()
    v_star = service_quadratic_star.values
    sup = np.abs(v_star).max()
    details = []
    ok = True
    for h in (1, 2):
        res = tapi_solve(service_quadratic.problem, TapiOptions(h=h))
        gap = np.abs(res.fine_values - v_star).max() / sup
        res1 = tapi_solve(service_quadratic.problem, TapiOptions(h=h, one_step=True))
        gap1 = np.abs(res1.fine_values - v_star).max() / sup
        ok &= gap <= 0.005 and gap1 <= 0.0005
        details.append(f"h={h}: tapi={gap:.2e} (<=5e-3), one-step={gap1:.2e} (<=5e-4)")
    report(4, "service-rate control gaps", ok, "; ".join(details),
           time.perf_counter() - t0, 120)


def test_criterion_5_routing_two_pool_row(routing2, routing2_star):
    t0 = time.perf_counter()
    v_star = routing2_star.values
    h = 2
    cells = {}
    res = tapi_solve(routing2.problem, TapiOptions(h=h))
    cells["tapi"] = tdp.gap_report(res.fine_values, v_star).max_rel
    res = tapi_solve(routing2.problem, TapiOptions(h=h, improvement="exact"))
    cells["exact_improv"] = tdp.gap_report(res.fine_values, v_star).max_rel
    res = tapi_solve(routing2.problem, TapiOptions(h=h, one_step=True))
    cells["one_step"] = tdp.gap_report(res.fine_values, v_star).max_rel
    targets = {"tapi": 0.0373, "exact_improv": 0.0081, "one_step": 0.0088}
    ok = all(t / 2 <= cells[k] <= 2 * t for k, t in targets.items())
    detail = ", ".join(f"{k}={cells[k]:.4f} (target {t}, band [{t / 2:.4f}, {2 * t:.4f}])"
                       for k, t in targets.items())
    report(5, "2-pool benchmark row (h=2, alpha=0.99)", ok, detail,
           time.perf_counter() - t0, 300)


@pytest.mark.slow
def test_criterion_6_routing_three_pool_cell(tmp_path_factory):
    t0 = time.perf_counter()
    model = build_routing(table_params(J=3, alpha=0.99, lam_factor=0.7))
    # exact baseline computed once and cached for the session
    cache = tmp_path_factory.getbasetemp() / "routing3_exact.npz"
    if cache.exists():
        v_star = np.load(cache)["values"]
    else:
        v_star = tdp.policy_iteration(model.mdp).values
        np.savez(cache, values=v_star)
    res = tapi_solve(model.problem, TapiOptions(h=4, improvement="exact"))
    rep = tdp.gap_report(res.fine_values, v_star)
    # the approximate-improvement numbers are reported for transparency
    rep_approx = tdp.gap_report(tapi_solve(model.problem, TapiOptions(h=4)).fine_values, v_star)
    ok = rep.max_rel <= 0.05 and rep.mean_rel <= 0.005
    report(6, "3-pool benchmark cell (h=4, alpha=0.99, lam=0.7Np)", ok,
           f"max={rep.max_rel:.4f} (<=0.05), mean={rep.mean_rel:.5f} (<=0.005) "
           f"[approx-improvement variant: max={rep_approx.max_rel:.4f}, mean={rep_approx.mean_rel:.5f}]",
           time.perf_counter() - t0, 7200)


def test_criterion_7_heavy_traffic_consistency():
    t0 = time.perf_counter()
    details = []
    ok = True
    for rho in (0.8, 0.9):
        lam = rho / (1.0 + rho)
        alpha = 1.0 - (1.0 - rho) ** 2
        M = max(200, int(20 / (1 - rho)))
        model = build("heavy_traffic", lam=lam, alpha=alpha, M=M)
        v = tdp.policy_evaluation(model.mdp, np.zeros(model.mdp.n_states, dtype=np.int64))
        x = math.ceil(1.0 / (1.0 - rho))
        v_hat = heavy_traffic_oracle(lam, alpha, x)
        gamma_hat = abs(v[x] - v_hat) / ((1.0 - rho) * v[x])
        ok &= gamma_hat <= 10.0
        details.append(f"rho={rho}: Gamma_hat={gamma_hat:.3f}")
    report(7, "heavy-traffic consistency", ok, "; ".join(details) + " (<= 10)",
           time.perf_counter() - t0, 60)


def _poly_quad(c0, c1, c2):
    from taylordp.bounds import SmoothFunction

    return SmoothFunction(lambda x: c0 + c1 * x[:, 0] + c2 * x[:, 0] * x[:, 0],
                          lambda x: c1 + 2 * c2 * x,
                          lambda x: np.full((len(x), 1, 1), 2.0 * c2))


def test_criterion_8_property_suites(service_quadratic, inventory_model, routing2,
                                     heavy_queue, evaluations):
    t0 = time.perf_counter()
    failures = []

    quartic = build("service_rate", M=200, alpha=0.9, cost="quartic", fixed_u=0.5)
    routing3 = build_routing(table_params(J=3, alpha=0.99, lam_factor=0.7))
    sweep_models = [("service_quadratic", service_quadratic), ("quartic", quartic),
                    ("inventory", inventory_model), ("routing2", routing2),
                    ("routing3", routing3), ("heavy_traffic", heavy_queue)]

    # row stochasticity + TCP-equivalence on every shipped model, h in 1,2,4,8
    for name, model in sweep_models:
        for h in (1, 2, 4, 8):
            chain = tdp.build_multidim_chain(model.problem, h)
            asm = chain.assembly()
            sums = np.add.reduceat(asm.probs, asm.row_ptr[:-1])
            if asm.probs.min() < 0.0 or np.abs(sums - 1.0).max() > 1e-12:
                failures.append(f"stochasticity {name} h={h}")
            rep = tdp.verify_tcp_equivalence(chain, model.problem)
            if not rep.passed:
                failures.append(f"tcp-equivalence {name} h={h}: {rep.worst[:1]}")

    # PI monotonicity, finite termination, PI-vs-VI agreement (<= 1e4 states)
    for name, model in [("service_quadratic", service_quadratic),
                        ("inventory", inventory_model), ("routing2", routing2),
                        ("heavy_traffic", heavy_queue)]:
        evaluations.clear()
        res = tdp.policy_iteration(model.mdp)
        if res.iterations > 100:
            failures.append(f"pi-termination {name}")
        if len(evaluations) != res.iterations:
            failures.append(f"pi-iterates {name}: {len(evaluations)} evaluations")
        for k in range(1, len(evaluations)):
            prev, cur = evaluations[k - 1], evaluations[k]
            if not (cur >= prev - 1e-7 * (1.0 + np.abs(prev))).all():
                failures.append(f"pi-monotonicity {name} iter {k}")
                break
        _, v_vi = tdp.value_iteration(model.mdp)
        rel = np.abs(v_vi - res.values) / (1.0 + np.abs(res.values))
        if rel.max() > 1e-6:
            failures.append(f"pi-vs-vi {name}: {rel.max():.2e}")

    # analytic vs kernel moments on mass-conserving states
    rng = np.random.default_rng(11)
    for name, model in sweep_models:
        if not hasattr(model, "mass_conserving_states"):
            continue
        mask = model.mass_conserving_states()
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            continue
        states, U = sampled_pairs(model.mdp, rng.choice(idx, size=min(12, idx.size),
                                                        replace=False), 4)
        mu_k, s2_k = kernel_moment_provider(model.mdp)(states, U)
        mu, s2 = model.problem.moments_batch(states, U)
        bad = ((np.abs(mu_k - mu).max(axis=1) > 1e-9)
               | (np.abs(s2_k - s2).max(axis=(1, 2)) > 1e-9))
        failures.extend(f"moments {name} at {tuple(x)}" for x in states[bad].tolist())

    # remainder vanishes on quadratics (kernel-moment operator)
    for name, model in [("quartic", quartic), ("heavy_traffic", heavy_queue)]:
        prob = TaylorProblem(model.mdp, kernel_moment_provider(model.mdp))
        pol = np.zeros(model.mdp.n_states, dtype=np.int64)
        rem = taylor_remainder(prob, pol, _poly_quad(1.0, -2.0, 0.5))
        if np.abs(rem).max() > 1e-8:
            failures.append(f"quadratic-remainder {name}: {np.abs(rem).max():.2e}")

    # argmax tie-break determinism
    from taylordp.lattice import ExplicitActionSet, LatticeMdp, StateLattice
    lat = StateLattice((0,), (0,))
    tie_mdp = LatticeMdp(lat, ExplicitActionSet((0, 1, 2)),
                         *pair_hooks(lambda s, u: ([0], [1.0]), lambda s, u: 1.0), 0.5)
    picks = {int(tdp.policy_improvement(tie_mdp, np.zeros(1))[0]) for _ in range(3)}
    if picks != {0}:
        failures.append(f"tie-break determinism: {picks}")

    report(8, "property suites", not failures,
           "all green" if not failures else "; ".join(failures[:5]),
           time.perf_counter() - t0, 300)
