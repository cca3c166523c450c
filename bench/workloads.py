"""Workload definitions: which solves each workload runs and how each is checked.

An operation is a plain dict, so the runner can hand it to a fresh
interpreter as JSON and the worker can permute it with the seed.  Every
solve names its instance; TAPI gaps are measured against the exact solve of
the same instance in the same pass.

Kinds:
  exact       fresh model, policy_iteration on the fine lattice
  tapi        fresh model, tapi_solve with approximate improvement
              (one_step=True adds the final exact improvement)
  tapi_exact  fresh model, tapi_solve(..., TapiOptions(improvement="exact"))

Sizes:
  bench  what BENCHMARK.json runs: small enough that a pass takes a few
         seconds, so a run repeats every solve several times (see README.md)
  paper  the paper's instances: the 3-pool Table-1 cell (15,625 states) and
         the full 2-pool Table 5 tier; one pass takes 35-70 s
  smoke  tiny instances for the harness's own tests

Checks name the acceptance criterion whose bound checks.py applies; cells
the tests leave unbounded carry no check beyond the ones every solve gets.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS = ("routing3_a099_h4", "small_lattices")
SIZES = ("bench", "paper", "smoke")


def routing_table(J, alpha, lam_factor):
    return {"model": "routing_table", "J": J, "alpha": alpha, "lam_factor": lam_factor}


def routing_params(**params):
    return {"model": "routing_params", **params}


def service_rate(M, alpha):
    return {"model": "service_rate", "M": M, "alpha": alpha, "cost": "quadratic"}


def _instance(name, spec):
    return {"instance": name, "spec": spec}


def _op(inst, solve, **fields):
    return {**inst, "id": f"{inst['instance']}/{solve}", **fields}


def _exact(inst):
    return _op(inst, "exact", kind="exact")


def _tapi(inst, h, one_step=False, check=None):
    return _op(inst, f"tapi_h{h}" + ("/one_step" if one_step else ""), kind="tapi",
               h=h, one_step=one_step, check=check)


def _tapi_exact(inst, h, check=None):
    return _op(inst, f"tapi_exact_h{h}", kind="tapi_exact", h=h, one_step=False, check=check)


def _routing3_scaled(name, n, M):
    """3-pool instance #1 with n servers and an M-place buffer per pool, same load factor."""
    return _instance(name, routing_params(
        J=3, N=(n, n, n), M=M, p=(0.8, 0.8, 0.8), lam=(0.7 * n * 0.8,) * 3,
        B=(1.0, 1.0, 4.0, 1.0, 2.0, 1.0), H=(1.0, 2.0, 3.0), alpha=0.99))


def _routing3(size):
    """3-pool instance #1 at alpha=0.99, h=4: the paper's Table-1 cell.

    At bench size each pool has 6 servers and a 6-place buffer instead of 10
    and 14: 2,197 states with 6.6 actions each instead of 15,625 with 15.4,
    at the same load factor, service probabilities and costs.  The same
    per-state Python loops do the work, and a pass takes about 4 s instead
    of 50-70 s.  (Cutting only the buffer, to M=2, leaves 2.3 actions a
    state and one action at every chain point.)
    """
    c6 = None
    if size == "smoke":
        inst, h = _routing3_scaled("r3_smoke", 3, 2), 2
    elif size == "bench":
        inst, h = _routing3_scaled("r3_n6_m6_a099", 6, 6), 4
    else:
        inst, h, c6 = _instance("r3_a099", routing_table(3, 0.99, 0.7)), 4, {"criterion": 6}
    return inst["spec"], [_exact(inst), _tapi(inst, h), _tapi_exact(inst, h, c6)]


def _small(size):
    """2-pool Table 5 (bench size: its lambda = 0.8 Np, alpha = 0.99 row) plus service-rate M=100.

    The alpha = 0.999 cells are left out at bench size: their time goes into
    numpy matvecs, whose speed the reference work of worker.py does not
    track, so their rescaled times spread by up to 0.19 between runs.
    """
    if size == "smoke":
        cells = [("r2_smoke", routing_params(
            J=2, N=(3, 3), M=3, p=(0.56, 0.56), lam=(1.344, 1.344),
            B=(5.0, 1.0), H=(1.0, 4.0), alpha=0.99), (1, 2))]
        sr_M = 20
    else:
        grid = [(0.8, 0.99)] if size == "bench" else [(f, a) for f in (0.8, 1.0)
                                                        for a in (0.99, 0.999)]
        cells = [(f"r2_f{f}_a{a}", routing_table(2, a, f), (1, 2, 4)) for f, a in grid]
        sr_M = 100
    ops = []
    for name, spec, hs in cells:
        inst = _instance(name, spec)
        ops.append(_exact(inst))
        for h in hs:
            c5 = (size != "smoke" and name == "r2_f0.8_a0.99" and h == 2)
            ops.append(_tapi(inst, h, check={"criterion": 5, "variant": "tapi"} if c5 else None))
            ops.append(_tapi_exact(inst, h,
                                   check={"criterion": 5, "variant": "tapi_exact"} if c5 else None))
            ops.append(_tapi(inst, h, one_step=True,
                             check={"criterion": 5, "variant": "one_step"} if c5 else None))
    inst = _instance(f"sr_m{sr_M}", service_rate(sr_M, 0.99))
    c4 = {"criterion": 4} if size != "smoke" else None
    ops.append(_exact(inst))
    for h in (1, 2):
        ops.append(_tapi(inst, h, check=c4))
        ops.append(_tapi(inst, h, one_step=True, check=c4))
    return cells[0][1], ops


class Workload(NamedTuple):
    setup: dict                  # spec of the model whose construction set-up time covers
    ops: list


def workload(name: str, size: str = "bench") -> Workload:
    """A workload's operations at the given size (see SIZES)."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if name == "routing3_a099_h4":
        return Workload(*_routing3(size))
    if name == "small_lattices":
        return Workload(*_small(size))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
