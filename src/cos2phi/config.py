"""Run configuration: schema-validated YAML plus dotted-path overrides.

One config file is the canonical input artifact of a run; every output
carries the hash of the fully resolved config so results are traceable.
Unknown keys are rejected rather than ignored.
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

#: Execution knobs and the output location: they change how or where a run
#: is carried out, not what it computes, so they stay out of the config hash.
_EXECUTION_KEYS = ("jobs", "cache", "output_dir")

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
    "jobs": 1,
    "cache": True,
    "output_dir": None,
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
                "ratios": [30, 40, 50, 60, 70, 80]},
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
    """Fully resolved run configuration with typed accessors."""

    raw: dict = field(repr=False)

    @property
    def circuit(self) -> CircuitParams:
        c = self.raw["circuit"]
        return CircuitParams(
            eps_J=float(c["eps_J"]), eps_C=float(c["eps_C"]),
            eps_L=float(c["eps_L"]), x=float(c["x"]),
            delta_J=float(c["delta_J"]), delta_C=float(c["delta_C"]),
            delta_A=float(c["delta_A"]), delta_L=float(c["delta_L"]),
        )

    @property
    def bias(self) -> BiasPoint:
        b = self.raw["bias"]
        return BiasPoint(float(b["phi_ext"]), float(b["N_g"]))

    @property
    def truncation(self) -> BasisTruncation:
        t = self.raw["truncation"]
        return BasisTruncation(int(t["N0"]), int(t["p0"]), int(t["q0"]))

    @property
    def temperature(self) -> float:
        return float(self.raw["temperature"])

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def jobs(self) -> int:
        return int(self.raw["jobs"])

    @property
    def cache_enabled(self) -> bool:
        return bool(self.raw["cache"])

    def section(self, name: str) -> dict:
        return self.raw[name]

    @property
    def config_hash(self) -> str:
        physics = {k: v for k, v in self.raw.items() if k not in _EXECUTION_KEYS}
        canon = json.dumps(physics, sort_keys=True, default=float)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def provenance(self) -> dict:
        from . import __version__

        return {
            "config_hash": self.config_hash,
            "code_version": __version__,
            "seed": self.seed,
        }


def load_config(path: str | Path | None, overrides=()) -> RunConfig:
    """Read, validate, default-fill, and override a config file."""
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
    merged = _drop_retired(merged)
    if int(merged["config_version"]) != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config_version {merged['config_version']!r}; "
            f"this build reads version {CONFIG_VERSION}"
        )
    cfg = RunConfig(raw=merged)
    cfg.circuit, cfg.bias, cfg.truncation  # eager validation
    return cfg
