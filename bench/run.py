"""taylordp benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload routing3_a099_h4 --seed 1 --seconds 55 --trace 0

Run it from anywhere inside a checkout; the package is imported from the
checkout's src/.  A run measures set-up time in SETUP_PROBES fresh
interpreters that only import taylordp and build the workload's first
model, then starts one more fresh interpreter, with the BLAS/OpenMP thread
counts set before numpy loads, that repeats passes over the workload's
solves for what is left of --seconds (worker.py).  Every solve builds a
fresh model.  The worker also times a fixed piece of reference work, which
does not use taylordp, just before and after every solve, and once after
set-up.  A solve's time is its median over the passes of wall time divided
by the reference time around it, times the constant REFERENCE_S: seconds on
a machine where the reference work takes REFERENCE_S.  This takes the
shared machine's speed, which drifts by up to 2x within minutes, out of the
figures.  Set-up time is rescaled the same way and is the median over the
run's interpreters.  The plain wall-clock medians are printed as well.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
spans recorded around taylordp's public functions (see tracer.py).  The
last line of standard output is the result as one JSON object; outputs of
every run go to .bench_out/ in the checkout.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import SIZES, WORKLOADS, workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 3       # interpreters per run that only measure set-up
DEADLINE_S = 170.0     # a run must end within 180 s
BLAS_THREADS = 1       # one thread: the solves are single-threaded Python loops
# Times are reported in seconds on a machine where the worker's reference
# work takes REFERENCE_S: each solve's wall time is divided by the reference
# time measured around it, then multiplied by this fixed constant.
REFERENCE_S = 0.030

# name -> unit of every end-to-end metric, as BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "exact_s": "s",
    "tapi_s": "s",
    "tapi_exact_improv_s": "s",
    "tapi_gap_max_rel": "ratio",
    "tapi_gap_mean_rel": "ratio",
    "exact_improv_gap_max_rel": "ratio",
    "exact_improv_gap_mean_rel": "ratio",
    "peak_rss_mb": "MB",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(job, out_dir, timeout):
    """Run worker.py on one job; its parsed result, or None if it failed."""
    spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), repr(spawn), str(out_dir)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(json.dumps(job).encode(), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"[bench] worker exceeded {timeout:.0f} s and was stopped", file=sys.stderr)
        return None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"[bench] worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def code_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_metrics(ops, passes, peak_rss_mb):
    """End-to-end metrics of a run, and its (attempted, failed) operations.

    A solve's time is the median over the run's passes of its wall time over
    the reference time around it, times REFERENCE_S; a kind's time is the
    sum of those medians over the workload's solves of that kind.  The same
    sums of plain wall-time medians come back as the second result.  Every
    solve and every chain verification in every pass is one operation; a
    solve that did not report counts as failed, and so does the
    verification it owed.
    """
    n_chains = sum(op["kind"] != "exact" for op in ops)
    attempted = failed = 0
    for records in passes or [[]]:
        chains = [rec for rec in records if "verify_passed" in rec]
        attempted += len(ops) + n_chains
        failed += sum(bool(rec["problems"]) for rec in records) + len(ops) - len(records)
        failed += sum(not rec["verify_passed"] for rec in chains) + n_chains - len(chains)

    records = [rec for p in passes for rec in p]
    wall, scaled = {}, {}
    for rec in records:
        if "seconds" in rec:
            wall.setdefault(rec["id"], []).append(rec["seconds"])
            scaled.setdefault(rec["id"], []).append(rec["seconds"] / rec["ref_s"] * REFERENCE_S)

    def total(kind, samples=scaled):
        ids = [op["id"] for op in ops if op["kind"] == kind]
        if not ids or any(i not in samples for i in ids):
            return None
        return sum(statistics.median(samples[i]) for i in ids)

    def gaps(kind):
        recs = [rec for rec in records if rec["kind"] == kind and "max_rel" in rec]
        if not recs:
            return None, None
        return max(r["max_rel"] for r in recs), statistics.fmean(r["mean_rel"] for r in recs)

    m = {"exact_s": total("exact"), "tapi_s": total("tapi"),
         "tapi_exact_improv_s": total("tapi_exact"), "peak_rss_mb": peak_rss_mb}
    m["tapi_gap_max_rel"], m["tapi_gap_mean_rel"] = gaps("tapi")
    m["exact_improv_gap_max_rel"], m["exact_improv_gap_mean_rel"] = gaps("tapi_exact")
    wall_m = {"exact_s": total("exact", wall), "tapi_s": total("tapi", wall),
              "tapi_exact_improv_s": total("tapi_exact", wall)}
    refs = [rec["ref_s"] for rec in records if "ref_s" in rec]
    wall_m["reference_s"] = statistics.median(refs) if refs else None
    return m, wall_m, attempted, failed


def check_digests(passes, ops_by_id, out_dir):
    """Count solves whose CSV differs from an earlier pass or run of the same code."""
    path = out_dir / "digests.json"
    code = code_digest()
    known = {}
    if path.exists():
        saved = json.loads(path.read_text())
        if saved.get("code") == code:
            known = saved["csv"]
    mismatches = 0
    for records in passes:
        for rec in records:
            if "csv_sha256" not in rec:
                continue
            key = hashlib.sha256(json.dumps(ops_by_id[rec["id"]], sort_keys=True).encode()).hexdigest()
            if known.setdefault(key, rec["csv_sha256"]) != rec["csv_sha256"]:
                print(f"[bench] {rec['id']}: CSV differs from an earlier run of the same code",
                      file=sys.stderr)
                mismatches += 1
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"code": code, "csv": known}))
    tmp.replace(path)
    return mismatches


def environment(args, passes):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip()
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "size": args.size, "passes": passes, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "commit": commit, "src_sha256": code_digest()}


def run(args):
    start = time.monotonic()
    wl = workload(args.workload, args.size)
    ops_by_id = {op["id"]: op for op in wl.ops}
    out_dir = ROOT / ".bench_out" / args.size / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    from tracer import PER_LAYER, summarize

    def child(ops, seconds=0.0):
        job = {"setup": wl.setup, "ops": ops, "seed": args.seed, "seconds": seconds,
               "trace": bool(args.trace)}
        return run_child(job, out_dir, DEADLINE_S - (time.monotonic() - start))

    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):  # traced runs report no setup_s
        probe = child([])
        if probe is not None:
            setups.append(probe)
    # the measured passes get what is left of --seconds after the probes
    result = child(wl.ops, max(args.seconds - (time.monotonic() - start), 0.0))
    passes = [] if result is None else result["passes"]
    if result is not None:
        setups.append({k: result[k] for k in ("setup_s", "setup_ref_s")})
    metrics, wall, attempted, failed = run_metrics(wl.ops, passes, result and result["peak_rss_mb"])
    failed += check_digests(passes, ops_by_id, out_dir)

    if args.trace:
        layers = summarize(result["layers"]) if result is not None else {}
        metrics = {n: layers.get(n) for n in PER_LAYER}
        units = {n: unit for n, (unit, _) in PER_LAYER.items()}
    else:
        metrics["setup_s"] = (statistics.median(p["setup_s"] / p["setup_ref_s"] * REFERENCE_S
                                                for p in setups) if setups else None)
        units = END_TO_END

    env = environment(args, len(passes))
    record = {"env": env, "metrics": metrics, "wall": wall, "attempted": attempted, "failed": failed,
              "passes": [[[rec["id"], rec.get("seconds"), rec.get("ref_s")] for rec in p] for p in passes],
              "setups": setups}
    with (out_dir / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")

    for name in sorted(metrics):
        value = metrics[name]
        print(f"{name:32s} {'n/a' if value is None else f'{value:.6g}':>14s} {units[name]}")
    if not args.trace and metrics.get("exact_s") and metrics.get("tapi_s"):
        print(f"{'(derived) tapi_s / exact_s':32s} {metrics['tapi_s'] / metrics['exact_s']:14.4f}")
    if not args.trace:
        for name, value in sorted(wall.items()):
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{'(wall clock) ' + name:32s} {shown:>14s} s")
    print(f"passes: {len(passes)}; operations: attempted {attempted}, failed {failed}")
    print("env " + json.dumps(env))
    result = {"correct": failed == 0 and None not in metrics.values(),
              "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="paper runs the paper's full instances, smoke tiny ones; "
                             "see workloads.py")
    args = parser.parse_args(argv)
    if not (SRC / "taylordp" / "__init__.py").is_file():
        print(f"[bench] no taylordp sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
