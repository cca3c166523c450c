"""Experiment configuration files.

Flat INI files with two sections: [experiment] holds the run mode, alpha,
out_dir and the fields of TapiOptions, which alone declares and checks the
TAPI settings; [model] names a registered model and its parameters.  One
file per experiment; the shipped files under configs/ reproduce the
benchmark table cells.  CLI flags are written into the same {key: text}
sections, replacing the file's text, so parse_config parses and checks
file values and flags alike, once, before any computation; errors carry
the field name.
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
    out_dir: str = "out"
    tapi: TapiOptions = TapiOptions()

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


_TAPI_TYPES = _field_types(TapiOptions)
# the [experiment] keys: the run fields (the model comes from [model]) and TapiOptions' fields
_EXPERIMENT_TYPES = {**{name: typ for name, typ in _field_types(ExperimentConfig).items()
                        if name not in ("model_name", "model_params", "tapi")}, **_TAPI_TYPES}


def read_sections(path) -> tuple:
    """The ([experiment], [model]) sections of an INI file as {key: text} dicts."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.optionxform = str          # keep parameter names case-sensitive (M, H, B, ...)
    try:
        parser.read(path)
    except configparser.Error as exc:  # no section header, a duplicate key or section, ...
        raise ConfigError(str(exc).replace("\n", " ")) from None
    return tuple(dict(parser[name]) if name in parser else {} for name in ("experiment", "model"))


def parse_config(experiment: dict, model: dict) -> ExperimentConfig:
    """Parse the {key: text} sections by field type and check the run.

    A TAPI key, from the file or a flag, is refused unless the mode is
    solve-tapi, the one mode that reads it.  TapiOptions and the model's
    dataclass check their own values; their errors, like every parse
    error, become a ConfigError.
    """
    if "name" not in model:
        raise ConfigError("config needs a [model] section with a name")
    run, tapi = {}, {}
    for key, text in experiment.items():
        if key not in _EXPERIMENT_TYPES:
            raise ConfigError(f"unknown experiment key {key!r}")
        (tapi if key in _TAPI_TYPES else run)[key] = _coerce(key, text, _EXPERIMENT_TYPES[key])
    mode = run.get("mode", ExperimentConfig.mode)
    if mode not in ("solve-exact", "solve-tapi", "heuristic-max-overflow"):
        raise ConfigError(f"unknown mode {mode!r}")
    if tapi and mode != "solve-tapi":
        raise ConfigError(f"{', '.join(tapi)} would be ignored with mode = {mode}")
    try:
        cfg = ExperimentConfig(**run, tapi=TapiOptions(**tapi))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    params = dict(model)
    cfg.model_name = params.pop("name").strip()
    if cfg.model_name not in REGISTRY:
        raise ConfigError(f"unknown model {cfg.model_name!r}; available: {sorted(REGISTRY)}")
    if cfg.mode == "heuristic-max-overflow" and cfg.model_name != "routing":
        raise ConfigError(f"mode = {cfg.mode} is for model 'routing' only, not {cfg.model_name!r}")
    if not (0.0 < cfg.alpha < 1.0):
        raise ConfigError("alpha must lie in (0, 1)")
    types = _field_types(REGISTRY[cfg.model_name][0])
    for key, text in params.items():
        if key == "alpha":
            raise ConfigError("set alpha under [experiment], not [model]")
        if key not in types:
            raise ConfigError(f"model {cfg.model_name!r} has no parameter {key!r}")
        cfg.model_params[key] = _coerce(key, text, types[key])
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config(*read_sections(path))
