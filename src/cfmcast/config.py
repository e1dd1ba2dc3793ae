"""Run configuration, presets and serialization.

A :class:`SystemConfig` captures every semantic knob of a campaign: network
dimensions, pilot count, area, MS layout, multicast group count, precoder and
Monte Carlo sizes.  The system model's constants are fixed in code (the frame
length, power budgets, power-control exponents and ``NOISE_W`` here, the
channel model's others in ``geometry`` and ``covariance``).  JSON configs are
flat objects that mirror the dataclass field-for-field; unknown keys are
rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields, asdict, replace

from .errors import ConfigError

PRECODERS = ("ipmmse", "cb")

# thermal noise in watts: -174 dBm/Hz over a 20 MHz band, plus a 7 dB noise figure
NOISE_W = 10.0 ** ((-174.0 + 10.0 * math.log10(20e6) + 7.0 - 30.0) / 10.0)
# samples per coherence block
TAU_C = 200
# power budgets, watts: pilot, per-AP downlink, and the group power the IP-MMSE directions assume
PILOT_POWER_W = 0.1
DL_POWER_W = 0.2
GROUP_POWER_W = 0.1
# fractional power-control exponents: nu on tr(r_comp) per precoder, kappa on the IP-MMSE omega
NU = {"ipmmse": -0.5, "cb": 0.5}
KAPPA = 0.5

# value checks by the annotation's leading type; bool is excluded from both numbers
_IS_TYPE = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def _check_types(cfg) -> None:
    """Reject a field value whose type is not the one its annotation names, or a non-finite real."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional == "None":
            continue
        if not _IS_TYPE[kind](value):
            raise ConfigError(f"{f.name} must be of type {kind}, got {value!r}")
        # JSON's NaN and Infinity parse as floats and pass every range check
        if kind == "float" and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def _reject_unknown(keys) -> None:
    unknown = set(keys) - set(SystemConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


@dataclass(frozen=True)
class SystemConfig:
    # network dimensions
    n_aps: int = 100
    n_antennas: int = 4
    n_ms: int = 100
    # pilot length in samples, at most TAU_C
    tau_p: int = 20
    # side of the square (wrapped) service area, meters
    side_m: float = 1000.0
    # campaign sizes
    snapshots: int = 250
    realizations: int = 500
    # service shape: n_groups (required) is 1 for single multicast, n_ms for unicast
    precoder: str = "ipmmse"
    n_groups: int | None = None
    # MS layout: uniform over the area, or clustered squares when clusters is set
    clusters: int | None = None  # each holds n_ms // clusters MSs
    cluster_side_m: float | None = None
    # reproducibility
    master_seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _check_types(self)
        positive = {
            "n_aps": self.n_aps,
            "n_antennas": self.n_antennas,
            "n_ms": self.n_ms,
            "tau_p": self.tau_p,
            "side_m": self.side_m,
            "snapshots": self.snapshots,
            "realizations": self.realizations,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.tau_p > TAU_C:
            raise ConfigError(f"tau_p = {self.tau_p} cannot exceed tau_c = {TAU_C}")
        if self.precoder not in PRECODERS:
            raise ConfigError(f"precoder must be one of {PRECODERS}, got {self.precoder!r}")
        if self.n_groups is None or not 1 <= self.n_groups <= self.n_ms:
            raise ConfigError(f"n_groups must lie in [1, n_ms], got {self.n_groups}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.clusters is None:
            if self.cluster_side_m is not None:
                raise ConfigError("cluster_side_m is taken only with clusters")
        elif self.clusters < 1 or self.n_ms % self.clusters:
            raise ConfigError(f"clusters = {self.clusters} must divide n_ms = {self.n_ms}")
        elif self.cluster_side_m is None or not 0 < self.cluster_side_m <= self.side_m / 2:
            # centers are redrawn until the square fits; at most half the side keeps
            # at least a quarter of the draws acceptable, so the redraw ends
            raise ConfigError("clusters need a cluster_side_m in (0, side_m / 2]")

    # --- derived quantities -------------------------------------------------

    # perfbench/tracer.py reads the power budget off the config of every traced
    # snapshot, and perfbench/campaign.py the sum convention of a failed campaign
    @property
    def dl_power_w(self) -> float:
        return DL_POWER_W

    @property
    def sum_convention(self) -> str:
        return "per_user"

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        _reject_unknown(data)
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "SystemConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(data)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def with_overrides(self, **kwargs) -> "SystemConfig":
        _reject_unknown(kwargs)
        return replace(self, **kwargs)


def preset(name: str) -> SystemConfig:
    """Named campaign configurations.

    ``fig2_*`` and ``fig3`` reproduce the full-scale campaigns; ``desk_*`` are
    reduced-size variants (fewer APs/antennas/users and a 50x100 Monte Carlo
    budget) that preserve the deployment ratios and finish on a workstation.
    """
    presets = {
        "fig2_100": SystemConfig(n_ms=100, n_groups=100, precoder="ipmmse"),
        "fig2_500": SystemConfig(n_ms=500, n_groups=500, precoder="ipmmse"),
        "fig3": SystemConfig(
            n_ms=500,
            n_groups=30,
            precoder="cb",
            clusters=10,
            cluster_side_m=10.0,
        ),
        "desk_uniform": SystemConfig(
            n_aps=25,
            n_antennas=2,
            n_ms=40,
            tau_p=10,
            side_m=500.0,
            snapshots=50,
            realizations=100,
            n_groups=40,
            precoder="ipmmse",
        ),
    }
    presets["desk_clustered"] = presets["desk_uniform"].with_overrides(
        tau_p=5, n_groups=4, precoder="cb", clusters=4, cluster_side_m=10.0
    )
    if name not in presets:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    return presets[name]
