"""Run configuration: schema-validated YAML plus dotted-path overrides.

One config file is the canonical input artifact of a run; every output
carries the hash of the fully resolved config so results are traceable.
Unknown keys are rejected rather than ignored.  Every value is typed once,
at load, by its key's default: a float takes an int, a float or a string
``float()`` reads (YAML 1.1 reads ``2.0e6`` as one) and must be finite; an
int takes an integral number; a str a str; a list a list whose elements
each take the type of the default's first element, and whose rows, where
that element is itself a list, its length.  So ``15`` and ``15.0`` hash
alike, and a ``converge.levels`` row is three ints.
How and where a run executes (``--jobs``, ``--no-cache``, ``--out``) is
not config: those are command-line flags only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .constants import CHANNELS, DEFAULT_CONSTANTS, DEFAULT_SEED
from .model import BasisTruncation, BiasPoint, CircuitParams

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_override"]

CONFIG_VERSION = 1

#: ``channels`` keys besides ``enabled``; each names a ``PhysicalConstants``
#: field and takes its default from there
_CHANNEL_KEYS = ("q_cap", "q_ind", "sqrt_A_flux", "sqrt_A_epsJ_rel", "x_qp")

_DEFAULTS = {
    "config_version": CONFIG_VERSION,
    "circuit": {
        "eps_J": 15.0, "eps_C": 2.0, "eps_L": 1.0, "x": 0.02,
        "delta_J": 0.0, "delta_C": 0.0, "delta_A": 0.0, "delta_L": 0.0,
    },
    "bias": asdict(BiasPoint()),
    "truncation": asdict(BasisTruncation()),
    "temperature": DEFAULT_CONSTANTS.temperature,
    "seed": DEFAULT_SEED,
    "sweep": {
        "flux_start": 0.6 * float(np.pi), "flux_stop": 1.4 * float(np.pi),
        "flux_points": 21,
        "deltas": [0.0, 0.3, 0.6, 0.9], "kind": "L", "k": 6,
    },
    "channels": {
        "enabled": list(CHANNELS),
        **{k: getattr(DEFAULT_CONSTANTS, k) for k in _CHANNEL_KEYS},
    },
    "mathieu": {"E_C": 2.0, "N0_toy": 60,
                "ratios": [30.0, 40.0, 50.0, 60.0, 70.0, 80.0]},
    "instanton": {"n_beads": 385, "max_outer": 200},
    "converge": {"levels": [[5, 5, 20], [7, 7, 30], [9, 9, 40]], "k": 4,
                 "tolerance": 1e-4},
}


#: keys that older configs, the benchmark's among them, still set: the
#: eigensolver picks its backend from the problem size, and the charge
#: dispersion solves fixed offset charges.  ``load_config`` drops them
#: unread, so they neither fail validation nor change the hash.
_RETIRED = {"dense_threshold": None, "sweep": {"ng_points": None}}


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _validate(tree: dict, accepted: dict, path: str = "") -> None:
    for key, val in tree.items():
        if key not in accepted:
            raise ConfigError(f"unknown config key {path + key!r}")
        sub = accepted[key]
        if isinstance(sub, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{path + key!r} must be a mapping")
            _validate(val, sub, path + key + ".")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


#: every key a config may set: those of ``_DEFAULTS`` and ``_RETIRED``
_ACCEPTED = _merge(_DEFAULTS, _RETIRED)


def _drop_retired(tree: dict, retired: dict = _RETIRED) -> dict:
    """``tree`` without the leaves of ``retired``."""
    return {k: _drop_retired(v, retired[k]) if k in retired else v
            for k, v in tree.items() if retired.get(k, {}) is not None}


#: what a key of each default type accepts, for its refusal
_KINDS = {float: "a finite number", int: "an integer", str: "a string",
          list: "a list"}


def _typed_leaf(key: str, value, default):
    """``value`` as the type of ``default``, or ``ConfigError``."""
    kind = type(default)
    if kind is str and type(value) is str:
        return value
    if kind is list and type(value) is list:
        item = default[0]
        if type(item) is list and any(type(v) is list and len(v) != len(item)
                                      for v in value):
            raise ConfigError(f"config key {key!r} takes rows of {len(item)} "
                              f"entries, not {value!r}")
        return [_typed_leaf(f"{key}[{i}]", v, item)
                for i, v in enumerate(value)]
    if kind is int and (type(value) is int
                        or type(value) is float and value.is_integer()):
        return int(value)
    if kind is float and type(value) in (int, float, str):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if np.isfinite(number):
                return number
    raise ConfigError(f"config key {key!r} must be {_KINDS[kind]}, "
                      f"not {type(value).__name__!r}: {value!r}")


def _typed(tree: dict, defaults: dict, path: str = "") -> dict:
    """``tree`` with every leaf typed by its default in ``defaults``."""
    return {k: _typed(v, defaults[k], path + k + ".")
            if isinstance(defaults[k], dict)
            else _typed_leaf(path + k, v, defaults[k])
            for k, v in tree.items()}


def parse_override(text: str) -> dict:
    """Turn a dotted ``key.path=value`` string into a nested mapping."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key.path=value")
    key, raw = text.split("=", 1)
    value = yaml.safe_load(raw)
    tree: dict = {}
    node = tree
    parts = key.strip().split(".")
    for p in parts[:-1]:
        node[p] = {}
        node = node[p]
    node[parts[-1]] = value
    return tree


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration: ``raw`` holds every key of the
    defaults, each leaf of its default's type; the accessors build the
    model's parameter objects from it."""

    raw: dict = field(repr=False)

    @property
    def circuit(self) -> CircuitParams:
        return CircuitParams(**self.raw["circuit"])

    @property
    def bias(self) -> BiasPoint:
        return BiasPoint(**self.raw["bias"])

    @property
    def truncation(self) -> BasisTruncation:
        return BasisTruncation(**self.raw["truncation"])

    @property
    def temperature(self) -> float:
        return self.raw["temperature"]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    def section(self, name: str) -> dict:
        return self.raw[name]

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def provenance(self) -> dict:
        from . import __version__

        return {
            "config_hash": self.config_hash,
            "code_version": __version__,
            "seed": self.seed,
        }


def load_config(path: str | Path | None, overrides=()) -> RunConfig:
    """Read, validate, default-fill, override and type a config file."""
    tree: dict = {}
    if path is not None:
        with open(path) as fh:
            tree = yaml.safe_load(fh) or {}
        if not isinstance(tree, dict):
            raise ConfigError("config root must be a mapping")
    _validate(tree, _ACCEPTED)
    merged = _merge(_DEFAULTS, tree)
    for text in overrides:
        o = parse_override(text)
        _validate(o, _ACCEPTED)
        merged = _merge(merged, o)
    merged = _typed(_drop_retired(merged), _DEFAULTS)
    if merged["config_version"] != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config_version {merged['config_version']!r}; "
            f"this build reads version {CONFIG_VERSION}"
        )
    cfg = RunConfig(raw=merged)
    cfg.circuit, cfg.bias, cfg.truncation  # eager validation
    return cfg
