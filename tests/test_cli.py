import csv
import itertools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import taylordp
from taylordp.bounds import corner_states
from taylordp.cli import main
from taylordp.config import load_config
from taylordp.errors import InfeasibleAction
from taylordp.lattice import LatticeMdp
from taylordp.report import write_value_policy_csv
from taylordp.tapi import TapiOptions

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_import_loads_no_slow_scipy_subpackages():
    """Importing the package and building every model loads no scipy module.

    scipy.special alone takes about 0.3 s to load, more than the rest of the
    package and a routing solve together; the models' Poisson and binomial
    probabilities are on numpy and math, and scipy.linalg loads only at the
    first banded solve (a tabular model or a K-D chain).  The check names
    modules rather than timing them, so a stray top-level import fails here
    instead of slowly growing the set-up time.
    """
    code = ("import sys, taylordp, taylordp.models, taylordp.cli\n"
            "from taylordp.models import build\n"
            "from taylordp.models.routing import build_routing, table_params\n"
            "build_routing(table_params(J=2, alpha=0.99, lam_factor=0.8))\n"
            "for name in ('inventory', 'service_rate', 'heavy_traffic'):\n"
            "    build(name)\n"
            "print(*sys.modules)")
    src = str(Path(taylordp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120).stdout.split()
    assert "taylordp.models.routing" in loaded
    assert "taylordp.models.inventory" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_solve_exact_row_count(tmp_path):
    rc = main(["solve-exact", "--model", "service_rate", "--alpha", "0.99",
               "--M", "100", "--out-dir", str(tmp_path)])
    assert rc == 0
    csv = tmp_path / "service_rate_exact_values.csv"
    lines = csv.read_text().splitlines()
    assert len(lines) == 102   # header + one row per state


def test_invalid_h_exits_2(tmp_path):
    rc = main(["solve-tapi", "--model", "service_rate", "--alpha", "0.9",
               "--M", "20", "--h", "0", "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("flag, value", [("--improvement", "bogus"), ("--disaggregation", "nn"),
                                         ("--one-step", "maybe"), ("--h", "two"),
                                         ("--scheme", "foo"), ("--policy-extension", "nn")])
def test_bad_tapi_flag_exits_2_as_a_config_value(flag, value, tmp_path, capsys):
    # the flags go through the config file's parser and TapiOptions' own checks
    rc = main(["solve-tapi", "--model", "service_rate", "--M", "20", flag, value,
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not any(tmp_path.iterdir())


def test_tapi_flags_override_the_config(tmp_path):
    from taylordp.cli import _build_parser, _config_from_args
    args = _build_parser().parse_args([
        "solve-tapi", "--config", str(CONFIG_DIR / "inventory_tapi_h3.ini"), "--h", "2",
        "--improvement", "exact", "--one-step", "off", "--out-dir", str(tmp_path)])
    cfg = _config_from_args(args, "solve-tapi")
    assert cfg.tapi == TapiOptions(h=2, improvement="exact")
    assert cfg.out_dir == str(tmp_path)


def test_every_tapi_options_field_is_a_flag(tmp_path):
    from taylordp.cli import _build_parser, _config_from_args
    args = _build_parser().parse_args([
        "solve-tapi", "--model", "service_rate", "--M", "20", "--scheme", "upwind",
        "--policy-extension", "pc", "--out-dir", str(tmp_path)])
    assert _config_from_args(args, "solve-tapi").tapi == \
        TapiOptions(scheme="upwind", policy_extension="pc")


def test_tapi_flag_replaces_the_file_value_before_the_check(tmp_path):
    # one_step = on is ignored by improvement = exact, but --one-step off replaces it
    from taylordp.cli import _build_parser, _config_from_args
    cfg = tmp_path / "exact_one_step.ini"
    cfg.write_text("[experiment]\nmode = solve-tapi\nalpha = 0.9\nh = 2\n"
                   "improvement = exact\none_step = on\n\n[model]\nname = service_rate\nM = 20\n")
    argv = ["solve-tapi", "--config", str(cfg), "--one-step", "off", "--out-dir", str(tmp_path)]
    assert _config_from_args(_build_parser().parse_args(argv), "solve-tapi").tapi == \
        TapiOptions(h=2, improvement="exact")
    assert main(argv) == 0
    assert (tmp_path / "service_rate_tapi_h2.csv").exists()


def test_unknown_model_exits_2(tmp_path):
    rc = main(["solve-exact", "--model", "nope", "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("inline, named", [
    (["--model", "service_rate", "--alpha", "1.5", "--M", "10"], "alpha must lie in (0, 1)"),
    (["--model", "inventory", "--cost", "quartic"],   # inventory has no cost variant
     "model 'inventory' has no parameter 'cost'"),
    # a model flag is parsed by its field type, as the same key in a file is
    (["--model", "service_rate", "--M", "ten"], "cannot parse M = 'ten'"),
    (["--alpha", "abc"], "cannot parse alpha = 'abc'"),
], ids=["alpha", "parameter", "M-text", "alpha-text"])
def test_inline_config_error_exits_2(inline, named, tmp_path, capsys):
    rc = main(["solve-exact", *inline, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: config: {named}")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["solve-exact", "solve-tapi", "bounds"])
@pytest.mark.parametrize("flags", [["--alpha", "0.5", "--M", "10"], ["--model", "inventory"],
                                   ["--cost", "quartic"]], ids=["alpha-M", "model", "cost"])
def test_model_flags_with_config_exit_2(command, flags, tmp_path, capsys):
    cfg = CONFIG_DIR / "service_rate_exact_a099.ini"
    rc = main([command, "--config", str(cfg), *flags, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: config:")
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("scheme, M", [("inflate", -1), ("foo", 20)],
                         ids=["model-parameter", "scheme"])
def test_config_value_out_of_range_exits_2(scheme, M, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"""[experiment]
mode = solve-tapi
alpha = 0.9
scheme = {scheme}

[model]
name = service_rate
M = {M}
""")
    rc = main(["solve-tapi", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")


# small instances of each model, as [model] lines
_SMALL_MODELS = {
    "routing": ["J = 2", "N = 3,3", "M = 3", "p = 0.5,0.5", "lam = 1.0,1.0", "B = 5,1", "H = 1,4"],
    "service_rate": ["M = 10", "n_controls = 4"],
    "heavy_traffic": ["M = 10"],
    "inventory": ["M = 10", "u_max = 3"],
}


def _model_config(path, model, line):
    """A solve-exact config of model's small instance, line replacing the line of its key."""
    key = line.split("=")[0]
    kept = [kv for kv in _SMALL_MODELS[model] if kv.split("=")[0] != key]
    path.write_text("[experiment]\nmode = solve-exact\nalpha = 0.9\n\n[model]\n"
                    f"name = {model}\n" + "\n".join(kept + [line]) + "\n")
    return str(path)


@pytest.mark.parametrize("model, line", [
    ("routing", "lam = 0.0,1.0"), ("routing", "p = 1.5,0.5"), ("routing", "N = -1,3"),
    ("service_rate", "fixed_u = 1.0"), ("heavy_traffic", "M = 0"),
    ("service_rate", "n_controls = 0"), ("inventory", "u_max = -1"),
    ("inventory", "lam = nan"), ("inventory", "tail = 2.0"), ("routing", "tail = 0.0"),
    ("routing", "M = -1"),
])
def test_model_parameter_the_model_cannot_run_with_exits_2(model, line, tmp_path, capsys):
    # the params dataclass refuses the value before any model is built
    out = tmp_path / "out"
    rc = main(["solve-exact", "--config", _model_config(tmp_path / "bad.ini", model, line),
               "--out-dir", str(out)])
    err = capsys.readouterr().err
    prefix = f"error: config: model {model!r}: "
    assert rc == 2 and err.startswith(prefix)
    assert line.split(" =")[0] in err[len(prefix):]
    assert not out.exists()


@pytest.mark.parametrize("model, line", [
    ("routing", "N = 0,3"), ("routing", "p = 0.0,0.5"), ("heavy_traffic", "M = 1"),
    ("service_rate", "fixed_u = 0"), ("inventory", "u_max = 0"), ("routing", "M = 0"),
])
def test_model_parameter_at_its_edge_still_solves(model, line, tmp_path):
    rc = main(["solve-exact", "--config", _model_config(tmp_path / "edge.ini", model, line),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0


def test_solver_error_exits_1_and_writes_no_csv(tmp_path, monkeypatch, capsys):
    # a TaylorDpError from the solve itself, not from the config
    from taylordp import exact
    monkeypatch.setattr(exact, "MAX_ITERATIONS", 1)
    out = tmp_path / "out"
    rc = main(["solve-exact", "--config", str(CONFIG_DIR / "routing2_exact_a099_f08.ini"),
               "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == ("error: MaxIterationsExceeded: policy iteration "
                                       "did not converge within 1 iterations\n")
    assert list(out.glob("*.csv")) == []


def test_csv_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["solve-tapi", "--model", "service_rate", "--alpha", "0.99",
                   "--M", "60", "--h", "2", "--out-dir", str(out)])
        assert rc == 0
    fa = (a / "service_rate_tapi_h2.csv").read_bytes()
    fb = (b / "service_rate_tapi_h2.csv").read_bytes()
    assert fa == fb


def test_solve_tapi_writes_only_its_value_policy_csv(tmp_path):
    rc = main(["solve-tapi", "--model", "service_rate", "--h", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["service_rate_tapi_h2.csv"]


def test_compare_policy_with_itself(tmp_path, capsys):
    cfg = tmp_path / "self.ini"
    cfg.write_text("""[experiment]
mode = solve-exact
alpha = 0.95
out_dir = out

[model]
name = service_rate
M = 40
cost = quadratic
""")
    rc = main(["compare", "--config-a", str(cfg), "--config-b", str(cfg),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "compare_gaps.csv").read_text().splitlines()[1:]
    rels = [float(r.split(",")[4]) for r in rows]
    assert max(rels) == 0.0
    # an exact run has no spacing, so the summary leaves h empty as solve-exact does
    assert capsys.readouterr().out.startswith("service_rate, 0.95, , solve-exact-vs-solve-exact, ")


def _service_config(path, mode, alpha, M, extra=""):
    path.write_text(f"""[experiment]
mode = {mode}
alpha = {alpha}
{extra}
[model]
name = service_rate
M = {M}
""")
    return str(path)


def test_compare_reports_the_alpha_of_config_b(tmp_path, capsys):
    # both policies are evaluated in model B, so the summary's discount is B's
    a = _service_config(tmp_path / "a.ini", "solve-exact", 0.9, 30)
    b = _service_config(tmp_path / "b.ini", "solve-exact", 0.99, 30)
    rc = main(["compare", "--config-a", a, "--config-b", b, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("service_rate, 0.99, , solve-exact-vs-solve-exact, ")


def test_too_coarse_h_exits_2_naming_h(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve-tapi", "--model", "service_rate", "--M", "10", "--h", "20",
               "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: h = 20 ") and "fewer than 3 grid points" in err
    assert not out.exists()
    a = _service_config(tmp_path / "a.ini", "solve-tapi", 0.9, 10, extra="h = 20\n")
    b = _service_config(tmp_path / "b.ini", "solve-exact", 0.9, 10)
    rc = main(["compare", "--config-a", a, "--config-b", b, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config: h = 20 ")
    assert not out.exists()


def test_compare_flags_radius_one_corners_without_reading_rows(tmp_path, monkeypatch):
    """compare flags the states within 1 of two lower faces, as bounds does, from no kernel rows."""
    calls = []
    rows = LatticeMdp.rows
    monkeypatch.setattr(LatticeMdp, "rows",
                        lambda self, states, U: calls.append(len(U)) or rows(self, states, U))
    rc = main(["compare", "--config-a", str(CONFIG_DIR / "routing2_tapi_a099_f08_h2.ini"),
               "--config-b", str(CONFIG_DIR / "routing2_exact_a099_f08.ini"),
               "--out-dir", str(tmp_path)])
    assert rc == 0 and calls == []
    with open(tmp_path / "compare_gaps.csv", newline="") as fh:
        flags = np.array([int(r["corner_flag"]) for r in csv.DictReader(fh)])
    lattice = load_config(CONFIG_DIR / "routing2_exact_a099_f08.ini").build_model().mdp.lattice
    corners = corner_states(lattice)
    assert np.array_equal(flags, corners.astype(int))
    assert np.array_equal(lattice.states()[corners], [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_compare_lattice_mismatch(tmp_path):
    small = tmp_path / "small.ini"
    big = tmp_path / "big.ini"
    for path, M in ((small, 20), (big, 30)):
        path.write_text(f"""[experiment]
mode = solve-exact
alpha = 0.9

[model]
name = service_rate
M = {M}
""")
    rc = main(["compare", "--config-a", str(small), "--config-b", str(big),
               "--out-dir", str(tmp_path)])
    assert rc == 1


def test_bounds_csv(tmp_path):
    rc = main(["bounds", "--model", "service_rate", "--alpha", "0.9", "--M", "50",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "service_rate_bounds.csv").read_text().splitlines()
    assert lines[0] == ("state,V_star,V_candidate,abs_gap,rel_gap,"
                        "remainder,accumulation,proxy,corner_flag")
    assert len(lines) == 52
    # the gap bound column dominates the absolute gap on every row
    for row in lines[1:]:
        parts = row.split(",")
        assert float(parts[6]) >= float(parts[3]) - 1e-9


def test_bounds_without_oracle_exits_2(tmp_path, capsys):
    rc = main(["bounds", "--model", "inventory", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config: bounds needs a model with a "
                                              "closed-form oracle")
    assert not any(tmp_path.iterdir())


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["solve-exact", "--config", str(tmp_path / "absent.ini")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config: config file ")


@pytest.mark.parametrize("mode, named", [
    ("bogus", "unknown mode 'bogus'"),
    # the largest action sum is the largest service control here, not an overflow
    ("heuristic-max-overflow",
     "mode = heuristic-max-overflow is for model 'routing' only, not 'service_rate'"),
])
def test_compare_refuses_a_bad_mode(mode, named, tmp_path, capsys):
    a = _service_config(tmp_path / "a.ini", mode, 0.99, 30)
    b = _service_config(tmp_path / "b.ini", "solve-exact", 0.99, 30)
    rc = main(["compare", "--config-a", a, "--config-b", b, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: config:") and named in err
    assert not (tmp_path / "out").exists()


def test_compare_routing_heuristic_against_exact(tmp_path, capsys):
    rc = main(["compare", "--config-a", str(CONFIG_DIR / "routing2_heuristic_max_overflow.ini"),
               "--config-b", str(CONFIG_DIR / "routing2_exact_a099_f08.ini"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("routing, 0.99, , heuristic-max-overflow-vs-solve-exact, ")
    assert float(out.split(", ")[4]) > 0.0       # overflowing everything is not optimal


def test_reproduce_table5_fast(tmp_path):
    rc = main(["reproduce", "--table", "5", "--tier", "fast",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "table5_fast.csv").read_text().splitlines()
    assert len(rows) == 3                      # h in {1, 2, 4}
    assert [p.name for p in tmp_path.iterdir()] == ["table5_fast.csv"]


@pytest.mark.slow
def test_reproduce_table1_fast(tmp_path, capsys):
    rc = main(["reproduce", "--table", "1", "--tier", "fast", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "table1_fast.csv").read_text() == "0.7,0.99,4,0.013,0.00039\n"
    assert capsys.readouterr().out.splitlines() == [
        "table 1: lam_factor, alpha, h, max_rel, mean_rel", "0.7, 0.99, 4, 0.013, 0.00039"]


@pytest.mark.parametrize("config", [
    pytest.param(p, marks=pytest.mark.slow) if p.stem.startswith("routing3") else p
    for p in sorted(CONFIG_DIR.glob("*.ini"))], ids=lambda p: p.stem)
def test_shipped_configs_run(config, tmp_path, monkeypatch):
    # every shipped config parses and runs to completion (fast tier)
    from taylordp.config import load_config
    cfg = load_config(config)
    cfg.out_dir = str(tmp_path)
    model = cfg.build_model()
    from taylordp import exact, tapi
    if cfg.mode == "solve-exact":
        res = exact.policy_iteration(model.mdp)
        assert np.isfinite(res.values).all()
    elif cfg.mode == "heuristic-max-overflow":
        from taylordp.cli import _policy_for
        policy, _, _ = _policy_for(cfg, model)
        assert np.isfinite(exact.policy_evaluation(model.mdp, policy)).all()
    else:
        res = tapi.tapi_solve(model.problem, cfg.tapi)
        assert np.isfinite(res.fine_values).all()


# the TapiOptions each shipped config gave when ExperimentConfig still held
# its own copies of the TAPI fields; the last three configs, added later,
# each set the one design knob they pin
SHIPPED_TAPI = {
    "inventory_tapi_h1": TapiOptions(h=1, one_step=True),
    "inventory_tapi_h3": TapiOptions(h=3, one_step=True),
    "routing2_tapi_a099_f08_h1": TapiOptions(h=1),
    "routing2_tapi_a099_f08_h4": TapiOptions(h=4),
    "routing3_tapi_a099_f07_h4": TapiOptions(h=4, improvement="exact"),
    "service_rate_tapi_a099_h1": TapiOptions(h=1),
    "service_rate_tapi_a099_h2_pc": TapiOptions(policy_extension="pc"),
    "routing2_tapi_a099_f08_h2_upwind": TapiOptions(scheme="upwind"),
    "routing2_tapi_a099_f08_h2_exact_pc": TapiOptions(improvement="exact", disaggregation="pc"),
}


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.stem)
def test_shipped_config_loads_its_tapi_settings(config):
    from taylordp.config import load_config
    assert load_config(config).tapi == SHIPPED_TAPI.get(config.stem, TapiOptions())


_ALL_KEYS_INI = """[experiment]
mode = solve-tapi
alpha = 0.9
out_dir = else%where
h = 3
improvement = {improvement}
disaggregation = pc
policy_extension = {extension}
scheme = upwind
one_step = {one_step}

[model]
name = service_rate
M = 20
"""


def test_config_accepts_every_experiment_key(tmp_path):
    # the run keys and exactly TapiOptions' fields, each settable from a file;
    # a value is read literally ('%' is no interpolation)
    from taylordp.config import ConfigError, load_config
    cfg = tmp_path / "all.ini"
    for keys, want in [
        (dict(improvement="approx", extension="pc", one_step="off"),
         dict(policy_extension="pc")),
        (dict(improvement="exact", extension="tcp_greedy", one_step="off"),
         dict(improvement="exact")),
        (dict(improvement="approx", extension="tcp_greedy", one_step="on"),
         dict(one_step=True)),
    ]:
        cfg.write_text(_ALL_KEYS_INI.format(**keys))
        loaded = load_config(cfg)
        assert (loaded.mode, loaded.alpha, loaded.out_dir) == ("solve-tapi", 0.9, "else%where")
        assert loaded.tapi == TapiOptions(h=3, disaggregation="pc", scheme="upwind", **want)
    # every field at once names a combination whose variant ignores two of them
    cfg.write_text(_ALL_KEYS_INI.format(improvement="exact", extension="pc", one_step="on"))
    with pytest.raises(ConfigError, match="one_step and policy_extension would be ignored"):
        load_config(cfg)


_SERVICE_INI = """[experiment]
mode = solve-tapi
{experiment}

[model]
name = service_rate
M = 20
{model}"""


@pytest.mark.parametrize("text, named", [
    (_SERVICE_INI.format(experiment="speed = 3", model=""), "experiment key 'speed'"),
    (_SERVICE_INI.format(experiment="max_iterations = 5", model=""),
     "experiment key 'max_iterations'"),
    (_SERVICE_INI.format(experiment="tapi = h2", model=""), "experiment key 'tapi'"),
    (_SERVICE_INI.format(experiment="model_name = routing", model=""),
     "experiment key 'model_name'"),
    (_SERVICE_INI.format(experiment="h = two", model=""), "h = 'two'"),
    (_SERVICE_INI.format(experiment="alpha = fast", model=""), "alpha = 'fast'"),
    (_SERVICE_INI.format(experiment="one_step = maybe", model=""), "one_step = 'maybe'"),
    (_SERVICE_INI.format(experiment="", model="colour = red"), "parameter 'colour'"),
    (_SERVICE_INI.format(experiment="", model="alpha = 0.9"), "set alpha under [experiment]"),
    ("[experiment]\nmode = solve-exact\n\n[model]\nname = routing\nN = 10,ten\n", "N = '10,ten'"),
    ("[experiment]\nmode = solve-exact\n\n[model]\nM = 20\n", "[model] section with a name"),
    ("mode = solve-exact\n" + _SERVICE_INI.format(experiment="", model=""), "no section headers"),
    (_SERVICE_INI.format(experiment="h = 2\nh = 3", model=""), "option 'h'"),
    (_SERVICE_INI.format(experiment="", model="[model]"), "section 'model'"),
    (_SERVICE_INI.format(experiment="disaggregation = pc", model=""),
     "disaggregation would be ignored with policy_extension='tcp_greedy'"),
], ids=["unknown-experiment-key", "max_iterations", "tapi", "model_name", "h", "alpha", "one_step", "unknown-model-parameter",
        "alpha-under-model", "tuple-parameter", "model-without-name", "no-section-header",
        "duplicate-key", "duplicate-section", "ignored-setting"])
def test_config_parse_error_exits_2(text, named, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    rc = main(["solve-tapi", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: config:")
    assert named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve-exact", "compare", "bounds"])
def test_tapi_keys_outside_solve_tapi_exit_2(command, tmp_path, capsys):
    # only solve-tapi reads the TAPI keys, so any other mode refuses them
    cfg = _service_config(tmp_path / "exact.ini", "solve-exact", 0.9, 20,
                          extra="h = 4\nimprovement = exact\nscheme = upwind\n")
    args = ["--config-a", cfg, "--config-b", cfg] if command == "compare" else ["--config", cfg]
    rc = main([command, *args, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == ("error: config: h, improvement, scheme would be "
                                       "ignored with mode = solve-exact\n")
    assert not (tmp_path / "out").exists()


def test_tapi_keys_outside_solve_tapi_name_the_mode(tmp_path, capsys):
    # solve-exact on a shipped solve-tapi config would drop its h = 2
    rc = main(["solve-exact", "--config", str(CONFIG_DIR / "routing2_tapi_a099_f08_h2.ini"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: config: h would be ignored with mode = solve-exact\n"
    heuristic = tmp_path / "heuristic.ini"
    heuristic.write_text((CONFIG_DIR / "routing2_heuristic_max_overflow.ini").read_text()
                         .replace("alpha = 0.99", "alpha = 0.99\nscheme = upwind"))
    rc = main(["compare", "--config-a", str(heuristic),
               "--config-b", str(CONFIG_DIR / "routing2_exact_a099_f08.ini"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == ("error: config: scheme would be ignored "
                                       "with mode = heuristic-max-overflow\n")
    assert not (tmp_path / "out").exists()


def test_tapi_options_refuse_every_ignored_setting(capsys):
    # of the 32 settings of improvement x policy_extension x one_step x
    # disaggregation x scheme, exactly the 14 whose variant reads every field
    # are accepted; a refusal names each field its variant would ignore
    accepted = 0
    for improvement, extension, one_step, disaggregation, scheme in itertools.product(
            ("approx", "exact"), ("tcp_greedy", "pc"), (False, True), ("multilinear", "pc"),
            ("inflate", "upwind")):
        if improvement == "exact":
            ignored = ["one_step"] * one_step + ["policy_extension"] * (extension == "pc")
        elif one_step:
            ignored = ["policy_extension"] * (extension == "pc")
        else:
            ignored = ["disaggregation"] * (extension == "tcp_greedy" and disaggregation == "pc")
        settings = dict(improvement=improvement, policy_extension=extension, one_step=one_step,
                        disaggregation=disaggregation, scheme=scheme)
        if not ignored:
            assert TapiOptions(**settings).one_step is one_step
            accepted += 1
            continue
        with pytest.raises(ValueError) as err:
            TapiOptions(**settings)
        named = str(err.value).split(" would be ignored")[0].split(" and ")
        assert named == ignored, settings
    assert accepted == 14

    # a flag that the config's variant would ignore exits 2 as a bad file value does
    rc = main(["solve-tapi", "--config", str(CONFIG_DIR / "routing3_tapi_a099_f07_h4.ini"),
               "--one-step", "on"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: config: one_step would be ignored with improvement='exact'")


def test_compare_different_action_sets_exits_1(tmp_path, capsys):
    """Policies are action indices, so two models must offer the same actions to compare."""
    paths = []
    for K in (10, 100):
        paths.append(tmp_path / f"k{K}.ini")
        paths[-1].write_text(f"""[experiment]
mode = solve-exact
alpha = 0.9

[model]
name = service_rate
M = 30
n_controls = {K}
""")
    rc = main(["compare", "--config-a", str(paths[0]), "--config-b", str(paths[1]),
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: lattice-mismatch:")
    assert "state (0,)" in err
    assert not (tmp_path / "out").exists()


def _action_table_stub(U, offsets):
    return SimpleNamespace(action_table=lambda: (np.asarray(U), np.asarray(offsets)))


@pytest.mark.parametrize("U_b, off_b, first", [
    ([0, 1, 0, 1, 2, 0], [0, 2, 5, 6], None),
    ([0, 1, 0, 1, 2, 0, 1], [0, 2, 5, 7], 2),            # state 2 has one more action
    ([0, 1, 0, 1, 3, 0], [0, 2, 5, 6], 1),               # same counts, another action
    ([0, 0, 1, 2, 0, 1], [0, 1, 4, 6], 0),               # counts differ from state 0
    ([[0], [1], [0], [1], [2], [0]], [0, 2, 5, 6], 0),   # vector against scalar actions
], ids=["equal", "count", "value", "shifted", "vector"])
def test_first_action_mismatch(U_b, off_b, first):
    from taylordp.cli import _first_action_mismatch
    a = _action_table_stub([0, 1, 0, 1, 2, 0], [0, 2, 5, 6])
    assert _first_action_mismatch(a, _action_table_stub(U_b, off_b)) == first


@pytest.mark.parametrize("bad", [-1, 100], ids=["negative", "past-the-end"])
def test_value_policy_csv_rejects_out_of_range_action(bad, service_quadratic, tmp_path):
    """A bare gather would read a neighbouring state's action; the writer must raise."""
    mdp = service_quadratic.mdp
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    policy[5] = bad
    with pytest.raises(InfeasibleAction):
        write_value_policy_csv(tmp_path / "v.csv", mdp, np.zeros(mdp.n_states), policy)
    assert not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_value_policy_csv_rejects_values_of_wrong_length(extra, service_quadratic, tmp_path):
    mdp = service_quadratic.mdp
    with pytest.raises(ValueError, match="unequal lengths"):
        write_value_policy_csv(tmp_path / "v.csv", mdp, np.zeros(mdp.n_states + extra),
                               np.zeros(mdp.n_states, dtype=np.int64))
    assert not (tmp_path / "v.csv").exists()
