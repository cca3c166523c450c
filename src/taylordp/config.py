"""Experiment configuration files.

Flat INI files with two sections: [experiment] holds the run mode and solver
knobs, [model] names a registered model and its parameters.  One file per
experiment; the shipped files under configs/ reproduce the benchmark table
cells.  Values are validated before any computation; errors carry the field
name.
"""

from __future__ import annotations

import configparser
import typing
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


def _field_types(cls) -> dict:
    """Field name -> the type its config value parses as (Optional[X] as X)."""
    return {name: next(a for a in typing.get_args(hint) if a is not type(None))
            if typing.get_origin(hint) is typing.Union else hint
            for name, hint in typing.get_type_hints(cls).items()}


def _coerce(name: str, text: str, typ):
    """Parse one config value as typ: bool, tuple (of ints or floats) or a callable like int."""
    text = text.strip()
    try:
        if typ is bool:
            return _BOOLS[text.lower()]
        if typ is tuple:
            return tuple(float(t) if "." in t or "e" in t.lower() else int(t)
                         for t in text.split(","))
        return typ(text)
    except (ValueError, KeyError):
        raise ConfigError(f"cannot parse {name} = {text!r}") from None


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
    types = _field_types(ExperimentConfig)
    for key, text in (parser["experiment"] if "experiment" in parser else {}).items():
        if key not in types or key.startswith("model_"):   # the model comes from [model]
            raise ConfigError(f"unknown experiment key {key!r}")
        setattr(cfg, key, _coerce(key, text, types[key]))

    model = dict(parser["model"])
    cfg.model_name = model.pop("name").strip()
    _validate(cfg)
    types = _field_types(REGISTRY[cfg.model_name][0])
    for key, text in model.items():
        if key == "alpha":
            raise ConfigError("set alpha under [experiment], not [model]")
        if key not in types:
            raise ConfigError(f"model {cfg.model_name!r} has no parameter {key!r}")
        cfg.model_params[key] = _coerce(key, text, types[key])
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
