"""Timed passes over a workload's solves in one fresh interpreter.

Usage (the runner starts it; the thread variables are already set):
    python3 worker.py SPAWN_TIME OUT_DIR < job.json

SPAWN_TIME is the runner's time.monotonic() just before the process was
started, so set-up time counts interpreter start, the taylordp import and
the construction of the workload's first model.  job.json holds the setup
model spec, the operations, the seed that orders them, the seconds the
passes may take (none: only measure set-up) and whether to trace.  The last
line of standard output is the result as JSON.

A pass runs every operation once, in an order drawn from the seed, and a
new pass starts while one more like the last is expected to end within the
job's seconds; there is always at least one.  Every solve builds a fresh
model.  Only the public solve is inside a timed region; checks, the chain
verification, gaps and output files are not.
"""

from __future__ import annotations

import json
import sys
import time

SPAWN = float(sys.argv[1])

import gc  # noqa: E402  (the clock above must start first)
import hashlib  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import taylordp as tdp  # noqa: E402
import taylordp.models as tdm  # noqa: E402
from taylordp.errors import TaylorDpError  # noqa: E402
from taylordp.report import write_value_policy_csv  # noqa: E402

from checks import add_gaps  # noqa: E402


def build(spec):
    """A fresh model from a workload spec, through taylordp.models only."""
    kind = spec["model"]
    if kind == "routing_table":
        return tdm.build_routing(tdm.table_params(J=spec["J"], alpha=spec["alpha"],
                                                  lam_factor=spec["lam_factor"]))
    if kind == "routing_params":
        params = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in spec.items() if k != "model"}
        return tdm.build_routing(tdm.RoutingParams(**params))
    if kind == "service_rate":
        return tdm.build_service_rate(tdm.ServiceRateParams(M=spec["M"], alpha=spec["alpha"],
                                                            cost=spec["cost"]))
    raise ValueError(f"unknown model kind {kind!r}")


def solve(op):
    """Build a fresh model and run the op's solve; returns (model, values, policy, chain)."""
    model = build(op["spec"])
    if op["kind"] == "exact":
        res = tdp.policy_iteration(model.mdp)
        return model, res.values, res.policy, None
    improvement = "exact" if op["kind"] == "tapi_exact" else "approx"
    res = tdp.tapi_solve(model.problem, tdp.TapiOptions(h=op["h"], one_step=op["one_step"],
                                                        improvement=improvement))
    return model, res.fine_values, res.fine_policy, res.chain


def check_solve(model, values, policy):
    problems = []
    if values is None or not np.all(np.isfinite(values)):
        problems.append("fine values missing or not finite")
    try:
        model.mdp.validate_policy(policy)
    except (ValueError, TaylorDpError) as exc:
        problems.append(f"invalid policy: {exc}")
    return problems


def write_csv(out_dir, op, model, values, policy):
    """Write the solve's value/policy CSV; return its sha256."""
    path = Path(out_dir) / "csv" / (op["id"].replace("/", "__") + ".csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_value_policy_csv(path, model.mdp, values, policy)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_seconds():
    """Time a fixed piece of work that does not use taylordp.

    Python loops over tuples and dicts with small numpy steps, the mix that
    dominates the solves.  The runner divides each solve's time by it, which
    takes the shared machine's speed, as it was around that solve, out of
    the result.
    """
    t0 = time.perf_counter()
    seen, acc, vec = {}, 0, np.arange(64.0)
    for i in range(60_000):
        key = (i % 31, i % 17, i % 5)
        seen[key] = seen.get(key, 0) + 1
        acc += len(key)
        if i % 20 == 0:
            vec = vec * 0.5 + 1.0
            acc += int(vec.sum())
    return time.perf_counter() - t0


def run_op(op, out_dir):
    """Time one solve, and the reference work just before and after it; check it.

    Returns the solve's record and its fine values.
    """
    rec = {"id": op["id"], "kind": op["kind"], "problems": []}
    values = None
    try:
        before = reference_seconds()
        t0 = time.perf_counter()
        model, values, policy, chain = solve(op)
        rec["seconds"] = time.perf_counter() - t0
        rec["ref_s"] = (before + reference_seconds()) / 2
        rec["problems"] += check_solve(model, values, policy)
        if chain is not None:
            rec["verify_passed"] = bool(tdp.verify_tcp_equivalence(chain, model.problem).passed)
        rec["csv_sha256"] = write_csv(out_dir, op, model, values, policy)
    except Exception:  # one failed solve must not hide the others
        rec["problems"].append(traceback.format_exc(limit=3))
        print(f"[bench] {op['id']} failed:\n{rec['problems'][-1]}", file=sys.stderr)
    return rec, values


def run_passes(job, out_dir):
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    ops = job["ops"]
    ops_by_id = {op["id"]: op for op in ops}
    rng = random.Random(job["seed"])
    passes, ops_s = [], 0.0
    start = time.monotonic()
    while True:
        pass_from = time.monotonic()
        records, values = [], {}
        for op in rng.sample(ops, len(ops)):
            # the solve must not run beside the previous one's model and caches
            gc.collect()
            rec, values[op["id"]] = run_op(op, out_dir)
            ops_s += rec.get("seconds", 0.0)
            records.append(rec)
        add_gaps(ops_by_id, records, values)
        passes.append(records)
        now = time.monotonic()
        if any(rec["problems"] for rec in records) or now - start + (now - pass_from) > job["seconds"]:
            break

    out = {"passes": passes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["layers"] = tracer.counts(ops_s, len(passes))
        path = Path(out_dir) / "spans.json"
        path.write_text(json.dumps(tracer.spans))
    return out


def main():
    job = json.load(sys.stdin)
    build(job["setup"])
    out = {"setup_s": time.monotonic() - SPAWN,
           "setup_ref_s": statistics.median(reference_seconds() for _ in range(3))}
    if job["ops"]:
        out.update(run_passes(job, sys.argv[2]))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
