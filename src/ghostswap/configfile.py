"""JSON job descriptions for imaging campaigns and delay scans.

Both loaders reject unknown keys outright; a silently ignored typo in a
config file costs more debugging time than a hard error. This module checks
only what belongs to the JSON format: keys, JSON types, mask length against
dimension, mask presets, the pairing of the event total with the mode, and
the shape of a delay grid. Every range, the size of a delay grid included,
is checked by the library function or constructor the value is handed to.
All failures raise ConfigError, which the command line maps to exit code 2.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ghostswap.coincidence import CampaignConfig, _scan_inputs, _validate_delay_count
from ghostswap.errors import ConfigError
from ghostswap.hilbert import ObjectMask, Projection, validate_dimension

__all__ = [
    "ImageJob",
    "HomJob",
    "load_image_job",
    "load_hom_job",
]

_MASK_PRESETS = ("half_on", "quadrant_on")


@contextmanager
def _library_checks(where: str | None = None):
    """Report a ValueError or OverflowError raised on job input as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, OverflowError) as error:  # float() of a 310-digit integer overflows
        raise ConfigError(f"{where}: {error}" if where else str(error)) from error


def _read_json(path: str | Path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise ConfigError(f"cannot read {path}: {error}") from error
    try:
        return json.loads(text)
    except ValueError as error:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"{path} is not valid JSON: {error}") from error


def _load_object(path: str | Path) -> dict:
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} must contain a JSON object at the top level")
    return payload


def _check_keys(payload: dict, allowed: set[str], what: str) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")


def _get_int(payload: dict, key: str, default: int | None = None) -> int | None:
    if key not in payload:
        return default
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _get_number(payload: dict, key: str, default: float | None = None) -> float | None:
    if key not in payload:
        return default
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    with _library_checks(key):
        return float(value)


def _get_str(payload: dict, key: str, default: str | None = None) -> str | None:
    if key not in payload:
        return default
    value = payload[key]
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _require(payload: dict, key: str) -> object:
    if key not in payload:
        raise ConfigError(f"missing required key {key!r}")
    return payload[key]


def _parse_mask(spec: object, d: object, key: str) -> tuple[ObjectMask, str | None]:
    """Mask from an explicit 0/1 list or a named preset, and the preset name."""
    with _library_checks(key):
        d = validate_dimension(d)
        if isinstance(spec, str):
            if spec not in _MASK_PRESETS:
                raise ConfigError(f"{key} preset must be one of {_MASK_PRESETS}, got {spec!r}")
            return getattr(ObjectMask, spec)(d), spec
        if not isinstance(spec, list):
            raise ConfigError(f"{key} must be a 0/1 list or a preset name, got {spec!r}")
        if bool in set(map(type, spec)):  # numpy would read true and false as 1 and 0
            raise ConfigError(f"{key} entries must be numbers, not JSON booleans")
        if len(spec) != d:
            raise ConfigError(f"{key} has {len(spec)} entries but dimension is {d}")
        return ObjectMask(spec), None


@dataclass(frozen=True)
class ImageJob:
    """Parsed description of one imaging campaign."""

    mask: ObjectMask
    family: Projection
    mode: str
    total: float
    accidental_fraction: float
    seed: int
    out_dir: str | None
    mask_preset: str | None

    def __post_init__(self) -> None:
        with _library_checks():
            self.campaign_config()

    @property
    def square_layout(self) -> bool:
        """Quadrant masks live on a square grid; everything else is a strip."""
        return self.mask_preset == "quadrant_on"

    def campaign_config(self) -> CampaignConfig:
        return CampaignConfig(
            mask=self.mask,
            family=self.family,
            mode=self.mode,
            total=self.total,
            accidental_fraction=self.accidental_fraction,
            seed=self.seed,
        )


_IMAGE_KEYS = {
    "dimension",
    "mask",
    "family",
    "mode",
    "expected_total",
    "shots",
    "accidental_fraction",
    "seed",
    "out_dir",
}


def load_image_job(path: str | Path) -> ImageJob:
    payload = _load_object(path)
    _check_keys(payload, _IMAGE_KEYS, "imaging job")
    mask, preset = _parse_mask(
        _require(payload, "mask"), _require(payload, "dimension"), "mask"
    )
    family_name = _require(payload, "family")
    if not isinstance(family_name, str):
        raise ConfigError(f"family must be a string, got {family_name!r}")
    with _library_checks():
        family = Projection.from_name(family_name)

    has_expected = "expected_total" in payload
    if has_expected == ("shots" in payload):
        raise ConfigError("give exactly one of expected_total or shots")
    if has_expected:
        key, implied_mode = "expected_total", "fixed_time"
        total = _get_number(payload, key)
    else:
        key, implied_mode = "shots", "fixed_shots"
        with _library_checks(key):
            total = float(_get_int(payload, key))

    job = ImageJob(
        mask=mask,
        family=family,
        mode=_get_str(payload, "mode", implied_mode),
        total=total,
        accidental_fraction=_get_number(payload, "accidental_fraction", 0.0),
        seed=_get_int(payload, "seed", 0),
        out_dir=_get_str(payload, "out_dir"),
        mask_preset=preset,
    )
    if job.mode != implied_mode:
        raise ConfigError(f"mode {job.mode!r} does not go with {key}")
    return job


@dataclass(frozen=True)
class HomJob:
    """Parsed description of one interference delay scan."""

    pattern_a: ObjectMask
    pattern_d: ObjectMask
    delays: np.ndarray
    dip_width: float
    shots_per_delay: int | None
    seed: int
    out_dir: str | None

    def __post_init__(self) -> None:
        with _library_checks():
            _scan_inputs(
                self.pattern_a,
                self.pattern_d,
                self.delays,
                self.dip_width,
                self.shots_per_delay,
                self.seed,
            )


_HOM_KEYS = {
    "dimension",
    "pattern_a",
    "pattern_d",
    "delays",
    "dip_width",
    "shots_per_delay",
    "seed",
    "out_dir",
}


def _parse_delays(spec: object) -> np.ndarray:
    if isinstance(spec, list):
        for value in spec:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"delays must be numbers, got {value!r}")
        with _library_checks("delays"):
            return np.asarray(spec, dtype=float)
    if isinstance(spec, dict):
        _check_keys(spec, {"start", "stop", "count"}, "delay grid")
        start = _get_number(spec, "start")
        stop = _get_number(spec, "stop")
        count = _get_int(spec, "count")
        if start is None or stop is None or count is None:
            raise ConfigError("delay grid needs start, stop, and count")
        with _library_checks("delays"):
            return np.linspace(start, stop, _validate_delay_count(count))
    raise ConfigError(f"delays must be a list or a start/stop/count grid, got {spec!r}")


def load_hom_job(path: str | Path) -> HomJob:
    payload = _load_object(path)
    _check_keys(payload, _HOM_KEYS, "delay scan job")
    d = _require(payload, "dimension")
    pattern_a, _ = _parse_mask(_require(payload, "pattern_a"), d, "pattern_a")
    pattern_d, _ = _parse_mask(_require(payload, "pattern_d"), d, "pattern_d")
    delays = _parse_delays(_require(payload, "delays"))
    dip_width = _get_number(payload, "dip_width")
    if dip_width is None:
        raise ConfigError("missing required key 'dip_width'")
    return HomJob(
        pattern_a=pattern_a,
        pattern_d=pattern_d,
        delays=delays,
        dip_width=dip_width,
        shots_per_delay=_get_int(payload, "shots_per_delay"),
        seed=_get_int(payload, "seed", 0),
        out_dir=_get_str(payload, "out_dir"),
    )
