"""Command-line front end.

Subcommands: solve-exact, solve-tapi, compare, bounds, reproduce.  Runs are
driven by INI config files (see docs/formats.md) or a small set of inline
flags; artifacts are CSV files whose bytes are deterministic across runs of
the same configuration.  solve-exact and solve-tapi each write one, the
value/policy file of the solved policy.  The one-line run summary

    model, alpha, h, mode, max_rel_err, mean_rel_err, iters, wall_time

goes to stdout (timing is never written into the CSVs).

Exit codes: 0 success, 2 configuration/validation error, 1 solver error
(with a machine-readable category on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import exact
from .bounds import (corner_states, discounted_accumulation, gap_report,
                     taylor_remainder, third_derivative_proxy)
from .config import ConfigError, ExperimentConfig, load_config, parse_config, read_sections
from .errors import LatticeMismatch, TaylorDpError
from .kdchain import CoarseGrid
from .models.routing import table_params, build_routing
from .report import summary_line, write_gap_csv, write_moments_csv, write_value_policy_csv
from .tapi import TapiOptions, tapi_solve


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except LatticeMismatch as exc:
        print(f"error: lattice-mismatch: {exc}", file=sys.stderr)
        return 1
    except TaylorDpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# the flags that set the model; --config refuses them
_MODEL_FLAGS = ("model", "alpha", "M", "cost")
# the TAPI flags of solve-tapi, each the TapiOptions field of its name
_TAPI_KEYS = tuple(f.name for f in dataclasses.fields(TapiOptions))


def _build_parser():
    parser = argparse.ArgumentParser(prog="taylordp")
    sub = parser.add_subparsers(required=True)

    def common(p):
        p.add_argument("--config", help="INI experiment file")
        for flag in _MODEL_FLAGS:
            p.add_argument(f"--{flag}")
        p.add_argument("--out-dir")

    p = sub.add_parser("solve-exact", help="exact policy iteration on the fine lattice")
    common(p)
    p.set_defaults(func=cmd_solve, mode="solve-exact")

    p = sub.add_parser("solve-tapi", help="Taylored approximate policy iteration")
    common(p)
    for key in _TAPI_KEYS:
        p.add_argument("--" + key.replace("_", "-"))
    p.set_defaults(func=cmd_solve, mode="solve-tapi")

    p = sub.add_parser("compare", help="exactly evaluate two configs' policies and report gaps")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True, help="baseline (reference) config")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bounds", help="remainder/accumulation/proxy diagnostics for oracle models")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reproduce", help="recompute benchmark table rows")
    p.add_argument("--table", choices=("1", "5"), required=True)
    p.add_argument("--tier", choices=("fast", "full"), default="fast")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_reproduce)
    return parser


def _config_from_args(args, mode) -> ExperimentConfig:
    """Write each given flag over the config key of its name, then parse and check once."""
    flags = {key: text for key, text in vars(args).items() if text is not None}
    if args.config:
        # the model flags would otherwise be silently ignored
        given = [f"--{flag}" for flag in _MODEL_FLAGS if flag in flags]
        if given:
            raise ConfigError(f"{', '.join(given)} cannot be combined with --config; "
                              f"set the model in the config file")
        experiment, model = read_sections(args.config)
    else:
        experiment, model = {}, {"name": flags.pop("model", ExperimentConfig.model_name)}
    model.update((key, flags[key]) for key in ("M", "cost") if key in flags)
    experiment.update((key, flags[key]) for key in ("alpha", "out_dir", *_TAPI_KEYS)
                      if key in flags)
    experiment["mode"] = mode
    return parse_config(experiment, model)


def _policy_for(cfg: ExperimentConfig, model):
    """Solve per the config's mode: (policy, values-or-None, iterations)."""
    if cfg.mode == "solve-exact":
        pi = exact.policy_iteration(model.mdp)
        return pi.policy, pi.values, pi.iterations
    if cfg.mode == "solve-tapi":
        try:
            CoarseGrid.from_lattice(model.mdp.lattice, cfg.tapi.h)
        except ValueError as exc:
            raise ConfigError(f"h = {cfg.tapi.h} is too coarse for the lattice: {exc}") from None
        res = tapi_solve(model.problem, cfg.tapi)
        return res.fine_policy, res.fine_values, res.iterations
    if cfg.mode == "heuristic-max-overflow":
        return model.max_overflow_policy(), None, 0


def cmd_solve(args) -> int:
    """solve-exact / solve-tapi: write the one value/policy CSV,
    <model>_exact_values.csv or <model>_tapi_h<h>.csv."""
    cfg = _config_from_args(args, args.mode)
    model = cfg.build_model()
    t0 = time.perf_counter()
    policy, values, iterations = _policy_for(cfg, model)
    if cfg.mode == "solve-tapi":
        h, stem, label = cfg.tapi.h, f"tapi_h{cfg.tapi.h}", f"tapi-{cfg.tapi.improvement}"
    else:
        h, stem, label = "", "exact_values", "exact"
    write_value_policy_csv(Path(cfg.out_dir) / f"{cfg.model_name}_{stem}.csv",
                           model.mdp, values, policy)
    print(summary_line(cfg.model_name, cfg.alpha, h, label, None, None,
                       iterations, time.perf_counter() - t0))
    return 0


def _first_action_mismatch(mdp_a, mdp_b):
    """First state whose action list differs between two MDPs on one lattice, or None."""
    (U_a, off_a), (U_b, off_b) = mdp_a.action_table(), mdp_b.action_table()
    if U_a.shape[1:] != U_b.shape[1:]:
        return 0
    n = min(len(U_a), len(U_b))
    # up to the first count mismatch the offsets agree, so equal positions are equal pairs
    counts = np.flatnonzero(np.diff(off_a) != np.diff(off_b))[:1]
    pairs = np.flatnonzero((U_a[:n] != U_b[:n]).reshape(n, -1).any(axis=1))[:1]
    states = [*counts.tolist(), *(np.searchsorted(off_a, pairs, "right") - 1).tolist()]
    return min(states, default=None)


def cmd_compare(args) -> int:
    cfg_a = load_config(args.config_a)
    cfg_b = load_config(args.config_b)
    model_a = cfg_a.build_model()
    model_b = cfg_b.build_model()
    if model_a.mdp.lattice != model_b.mdp.lattice:
        raise LatticeMismatch(f"{model_a.mdp.lattice} vs {model_b.mdp.lattice}")
    first = _first_action_mismatch(model_a.mdp, model_b.mdp)
    if first is not None:
        raise LatticeMismatch(
            f"the two models offer different actions at state {model_a.mdp.lattice.state(first)}"
            f" ({len(model_a.mdp.actions_at(first))} vs {len(model_b.mdp.actions_at(first))} actions)")
    t0 = time.perf_counter()
    pol_a, _, iters = _policy_for(cfg_a, model_a)
    pol_b, _, _ = _policy_for(cfg_b, model_b)
    v_a = exact.policy_evaluation(model_b.mdp, pol_a)
    v_b = exact.policy_evaluation(model_b.mdp, pol_b)
    rep = gap_report(v_a, v_b)
    corners = corner_states(model_b.mdp.lattice)
    out = Path(args.out_dir)
    write_gap_csv(out / "compare_gaps.csv", v_b, v_a, rep, corner_mask=corners)
    # both policies are evaluated in model B, so the discount reported is B's
    print(summary_line(cfg_a.model_name, cfg_b.alpha,
                       cfg_a.tapi.h if cfg_a.mode == "solve-tapi" else "",
                       f"{cfg_a.mode}-vs-{cfg_b.mode}", rep.max_rel, rep.mean_rel, iters,
                       time.perf_counter() - t0))
    return 0


def cmd_bounds(args) -> int:
    cfg = _config_from_args(args, "solve-exact")
    if cfg.model_name == "service_rate":
        # the closed form needs the quartic cost at the fixed control 1/2
        cfg.model_params.setdefault("cost", "quartic")
        cfg.model_params.setdefault("fixed_u", 0.5)
    model = cfg.build_model()
    oracle = getattr(model, "oracle", None)
    if oracle is None:
        raise ConfigError("bounds needs a model with a closed-form oracle "
                          "(service_rate quartic fixed_u=0.5 or heavy_traffic)")
    try:
        phi = oracle()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    t0 = time.perf_counter()
    mdp = model.mdp
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    v_u = exact.policy_evaluation(mdp, policy)
    states = mdp.lattice.states().astype(np.float64)
    v_hat = phi.value(states)
    remainder = taylor_remainder(model.problem, policy, phi)
    accumulation = discounted_accumulation(mdp, policy, np.abs(remainder))
    proxy = third_derivative_proxy(v_u) if mdp.lattice.dim == 1 else None
    rep = gap_report(v_hat, v_u)
    corners = corner_states(mdp.lattice)
    out = Path(cfg.out_dir)
    write_gap_csv(out / f"{cfg.model_name}_bounds.csv", v_u, v_hat, rep, remainder=remainder,
                  accumulation=accumulation, proxy=proxy, corner_mask=corners)
    write_moments_csv(out / f"{cfg.model_name}_moments.csv", model.problem)
    print(summary_line(cfg.model_name, cfg.alpha, "", "bounds", rep.max_rel,
                       rep.mean_rel, 0, time.perf_counter() - t0))
    return 0


def cmd_reproduce(args) -> int:
    """Table 5 rows (2-pool: max_rel of TAPI, exact improvement, one-step) or
    Table 1 rows (3-pool: max_rel and mean_rel of exact improvement)."""
    fast = args.tier == "fast"
    alphas = (0.99,) if fast else (0.99, 0.999)
    if args.table == "5":
        J, factors, hs = 2, (0.8,) if fast else (0.8, 1.0), (1, 2, 4)
        print("table 5: lam_factor, alpha, h, tapi, exact_improv, one_step")
    else:
        J, factors, hs = 3, (0.7,) if fast else (0.7, 0.8), (4,) if fast else (2, 4, 8)
        print("table 1: lam_factor, alpha, h, max_rel, mean_rel")
    rows = []
    for factor in factors:
        for alpha in alphas:
            model = build_routing(table_params(J=J, alpha=alpha, lam_factor=factor))
            v_star = exact.policy_iteration(model.mdp).values
            for h in hs:
                if args.table == "5":
                    opts = (TapiOptions(h=h), TapiOptions(h=h, improvement="exact"),
                            TapiOptions(h=h, one_step=True))
                    reps = [gap_report(tapi_solve(model.problem, o).fine_values, v_star)
                            for o in opts]
                    cells = [round(rep.max_rel, 4) for rep in reps]
                else:
                    res = tapi_solve(model.problem, TapiOptions(h=h, improvement="exact"))
                    rep = gap_report(res.fine_values, v_star)
                    cells = [round(rep.max_rel, 4), round(rep.mean_rel, 5)]
                rows.append((factor, alpha, h, *cells))
                print(", ".join(map(str, rows[-1])))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"table{args.table}_{args.tier}.csv").write_text(
        "".join(",".join(map(str, row)) + "\n" for row in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
