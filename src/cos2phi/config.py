"""Run configuration: schema-validated YAML plus dotted-path overrides.

One config file is the canonical input artifact of a run; every output
carries the hash of the fully resolved config so results are traceable.
The defaults, the file and the overrides are merged first, and the result
is validated and typed in one walk against the defaults: an unknown key,
or a non-mapping where a section belongs, is rejected rather than ignored,
and every value is typed by its key's default: a float takes an int, a
float or a string ``float()`` reads (YAML 1.1 reads ``2.0e6`` as one) and
must be finite; an int takes an integral number; a str a str; a list a
list whose elements each take the type of the default's first element,
and whose rows, where that element is itself a list, its length.  So
``15`` and ``15.0`` hash alike, and a ``converge.levels`` row is three ints.
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


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _drop_retired(tree, retired: dict = _RETIRED):
    """``tree`` without the leaves of ``retired``; a non-mapping as it is,
    for ``_typed`` to refuse."""
    if not isinstance(tree, dict):
        return tree
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
    """``tree`` with every leaf typed by its default in ``defaults``, or
    ``ConfigError`` for a key ``defaults`` lacks or a non-mapping where it
    has a section."""
    out = {}
    for k, v in tree.items():
        if k not in defaults:
            raise ConfigError(f"unknown config key {path + k!r}")
        default = defaults[k]
        if not isinstance(default, dict):
            out[k] = _typed_leaf(path + k, v, default)
        # the defaults merged first give every section all its keys; one
        # lacks some only where a source set it to a non-mapping and a
        # later source's section replaced that
        elif not isinstance(v, dict) or not default.keys() <= v.keys():
            raise ConfigError(f"{path + k!r} must be a mapping")
        else:
            out[k] = _typed(v, default, path + k + ".")
    return out


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
    """Merge the defaults, the file and the overrides, drop retired keys,
    and validate and type the result in one walk."""
    tree: dict = {}
    if path is not None:
        with open(path) as fh:
            tree = yaml.safe_load(fh) or {}
        if not isinstance(tree, dict):
            raise ConfigError("config root must be a mapping")
    merged = _merge(_DEFAULTS, tree)
    for text in overrides:
        merged = _merge(merged, parse_override(text))
    merged = _typed(_drop_retired(merged), _DEFAULTS)
    if merged["config_version"] != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config_version {merged['config_version']!r}; "
            f"this build reads version {CONFIG_VERSION}"
        )
    cfg = RunConfig(raw=merged)
    cfg.circuit, cfg.bias, cfg.truncation  # eager validation
    return cfg
