"""Experiment configuration files.

Flat INI files with two sections: [experiment] holds the run mode and solver
knobs, [model] names a registered model and its parameters.  One file per
experiment; the shipped files under configs/ reproduce the benchmark table
cells.  Values are validated before any computation; errors carry the field
name.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .models import REGISTRY
from .tapi import TapiOptions


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    mode: str = "solve-exact"            # solve-exact | solve-tapi | heuristic-max-overflow
    model_name: str = "service_rate"
    model_params: dict = field(default_factory=dict)
    alpha: float = 0.99
    h: int = 2
    improvement: str = "approx"
    disaggregation: str = "multilinear"
    policy_extension: str = "tcp_greedy"
    scheme: str = "inflate"
    one_step: bool = False
    out_dir: str = "out"

    def tapi_options(self) -> TapiOptions:
        return TapiOptions(h=self.h, improvement=self.improvement,
                           disaggregation=self.disaggregation,
                           policy_extension=self.policy_extension,
                           scheme=self.scheme, one_step=self.one_step)

    def build_model(self):
        params_cls, builder = REGISTRY[self.model_name]
        try:
            params = params_cls(alpha=self.alpha, **self.model_params)
        except (TypeError, ValueError) as exc:  # unknown, missing or bad parameters
            raise ConfigError(f"model {self.model_name!r}: {exc}") from None
        return builder(params)


_BOOLS = {"on": True, "off": False, "true": True, "false": False, "1": True, "0": False}


def _coerce(name: str, text: str, typ):
    text = text.strip()
    try:
        if typ is int:
            v = int(text)
        elif typ is float:
            v = float(text)
        elif typ is bool:
            v = _BOOLS[text.lower()]
        elif typ is tuple:
            v = tuple(float(t) if "." in t or "e" in t.lower() else int(t)
                      for t in text.split(","))
        else:
            v = text
    except (ValueError, KeyError):
        raise ConfigError(f"cannot parse {name} = {text!r}") from None
    return v


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str          # keep parameter names case-sensitive (M, H, B, ...)
    parser.read(path)
    if "model" not in parser or "name" not in parser["model"]:
        raise ConfigError("config needs a [model] section with a name")
    cfg = ExperimentConfig()
    exp = parser["experiment"] if "experiment" in parser else {}
    for key in dict(exp):
        if key == "mode":
            cfg.mode = exp[key].strip()
        elif key == "alpha":
            cfg.alpha = _coerce("alpha", exp[key], float)
        elif key == "h":
            cfg.h = _coerce("h", exp[key], int)
        elif key in ("improvement", "disaggregation", "policy_extension", "scheme",
                     "out_dir"):
            setattr(cfg, key, exp[key].strip())
        elif key == "one_step":
            cfg.one_step = _coerce("one_step", exp[key], bool)
        else:
            raise ConfigError(f"unknown experiment key {key!r}")

    model = parser["model"]
    cfg.model_name = model["name"].strip()
    _validate(cfg)
    params_cls, _ = REGISTRY[cfg.model_name]
    fields = {f.name: f for f in dataclasses.fields(params_cls)}
    for key in dict(model):
        if key in ("name",):
            continue
        if key == "alpha":
            raise ConfigError("set alpha under [experiment], not [model]")
        if key not in fields:
            raise ConfigError(f"model {cfg.model_name!r} has no parameter {key!r}")
        ftype = fields[key].type
        typ = {"int": int, "float": float, "str": str, "tuple": tuple,
               "bool": bool}.get(str(ftype).replace("builtins.", ""), None)
        if typ is None:
            typ = tuple if "tuple" in str(ftype) else (float if "float" in str(ftype) else
                                                       (int if "int" in str(ftype) else str))
        cfg.model_params[key] = _coerce(key, model[key], typ)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """Check every field but model_params, which the model's dataclass checks."""
    if cfg.model_name not in REGISTRY:
        raise ConfigError(f"unknown model {cfg.model_name!r}; available: {sorted(REGISTRY)}")
    if cfg.mode not in ("solve-exact", "solve-tapi", "heuristic-max-overflow"):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if not (0.0 < cfg.alpha < 1.0):
        raise ConfigError("alpha must lie in (0, 1)")
    try:
        cfg.tapi_options()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
