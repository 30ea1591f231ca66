"""Experiment configuration: schema validation with named-path errors.

Unknown keys are rejected; every error message carries the offending key
and the violated constraint.  validate_config returns the normalized
configuration with all defaults filled in, so manifests always record the
complete parameter set.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ValidationError

_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "reps": 200,
    "eta": 0.1,
    "k_start": 0,
    "tail_cap": 10**8,
    "schedule_epsilon": 0.1,
    "model_id": "model",
    "codec_m": None,
}

_OPTIONAL_KEYS = {"n", "n_grid", "t_grid", "epsilon"}

# keys that older manifests record but no command reads; new configs reject them
RETIRED_KEYS = ("tol", "delta", "beta", "max_gap", "depth", "window")


def _fail(key: str, constraint: str) -> None:
    raise ValidationError(f"config.{key}: {constraint}")


def _check_int(cfg: dict, key: str, minimum: int | None = None) -> None:
    v = cfg.get(key)
    if v is None:
        return
    if not isinstance(v, int) or isinstance(v, bool):
        _fail(key, "must be an integer")
    if minimum is not None and v < minimum:
        _fail(key, f"must be at least {minimum}")


def _check_number(cfg: dict, key: str, lo: float, hi: float) -> None:
    v = cfg.get(key)
    if v is None:
        return
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        _fail(key, "must be a number")
    if not lo < v < hi:
        _fail(key, f"must lie in ({lo}, {hi})")


def validate_config(doc: dict | str) -> dict:
    """Validate and normalize an experiment config (dict or file path)."""
    if isinstance(doc, str):
        with open(doc, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config file: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError("config: must be a JSON object")
    unknown = set(doc) - set(_DEFAULTS) - _OPTIONAL_KEYS
    if unknown:
        _fail(sorted(unknown)[0], "unknown key")
    cfg = dict(_DEFAULTS)
    cfg.update(doc)

    _check_int(cfg, "seed", minimum=0)
    _check_int(cfg, "reps", minimum=2)
    _check_int(cfg, "n", minimum=1)
    _check_int(cfg, "tail_cap", minimum=1)
    if cfg["codec_m"] is not None and cfg["codec_m"] != "schedule":
        _check_int(cfg, "codec_m", minimum=0)
    if cfg["k_start"] not in (0, 1):
        _fail("k_start", "must be 0 or 1")
    _check_number(cfg, "eta", 0.0, 0.5)
    if "epsilon" in doc:
        v = cfg["epsilon"]
        if not isinstance(v, (int, float)) or not 0.0 < v < 1.0 / 6.0:
            _fail("epsilon", "epsilon must lie in (0, 1/6)")
    _check_number(cfg, "schedule_epsilon", 0.0, 0.5)
    for key in ("n_grid", "t_grid"):
        if key in doc:
            v = cfg[key]
            if not isinstance(v, list) or not v:
                _fail(key, "must be a non-empty list")
            if key == "n_grid" and not all(isinstance(x, int) and x >= 1 for x in v):
                _fail(key, "entries must be integers >= 1")
            if key == "t_grid" and not all(isinstance(x, (int, float)) and x > 0 for x in v):
                _fail(key, "entries must be positive numbers")
    if not isinstance(cfg["model_id"], str):
        _fail("model_id", "must be a string")
    return cfg
