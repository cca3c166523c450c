"""Gap reports and acceptance-test bounds, applied once a pass has finished.

The solves of a pass run in any order, so the worker keeps each solve's
fine values until the pass ends and compares them here, outside the timing.
"""

from __future__ import annotations

import numpy as np
from taylordp import gap_report

# Criterion 5 targets (tests/test_acceptance.py): max_rel must lie in [t/2, 2t].
CRITERION5 = {"tapi": 0.0373, "tapi_exact": 0.0081, "one_step": 0.0088}


def add_gaps(ops_by_id, records, values):
    """Give every TAPI record its gap to the exact solve of the same instance.

    values maps an op id to the fine values its solve returned in this pass.
    """
    exact = {ops_by_id[rec["id"]]["instance"]: values[rec["id"]] for rec in records
             if rec["kind"] == "exact" and "csv_sha256" in rec and not rec["problems"]}
    for rec in records:
        op = ops_by_id[rec["id"]]
        if rec["kind"] == "exact" or "csv_sha256" not in rec:
            continue  # a solve that did not write its outputs has failed already
        v_star = exact.get(op["instance"])
        if v_star is None:
            rec["problems"].append("no exact solve of the same instance in this pass")
            continue
        v = values[rec["id"]]
        rep = gap_report(v, v_star)
        rec["max_rel"], rec["mean_rel"] = rep.max_rel, rep.mean_rel
        rec["problems"] += criterion_problems(op, v, v_star, rep)


def criterion_problems(op, values, v_star, rep):
    """Acceptance-test bounds, applied only to the cells the tests bound."""
    check = op.get("check")
    if not check:
        return []
    crit = check["criterion"]
    if crit == 6 and not (rep.max_rel <= 0.05 and rep.mean_rel <= 0.005):
        return [f"criterion 6: max_rel={rep.max_rel:.4g} mean_rel={rep.mean_rel:.4g}"]
    if crit == 5:
        t = CRITERION5[check["variant"]]
        if not t / 2 <= rep.max_rel <= 2 * t:
            return [f"criterion 5 {check['variant']}: max_rel={rep.max_rel:.4g} "
                    f"outside [{t / 2}, {2 * t}]"]
    if crit == 4:
        gap = float(np.abs(values - v_star).max() / np.abs(v_star).max())
        limit = 0.0005 if op["one_step"] else 0.005
        if gap > limit:
            return [f"criterion 4: sup gap {gap:.3g} > {limit}"]
    return []
