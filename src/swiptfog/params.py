"""System constants for the harvest/decode/compute-or-offload link.

Every physical and protocol constant lives in one immutable record so that
channel generation, the per-frame solvers and the multi-frame simulator all
agree on units.  All quantities are SI (watts, hertz, seconds, joules, bits);
the only non-SI fields are ``carrier_freq_mhz`` (the indoor path-loss formula
wants MHz) and ``rician_k_db`` (decibels, as usually quoted).

Energies in this model span roughly 1e-21 J (per-gate switching floor) to
1e-4 J (harvest at short range); everything is kept in plain double-precision
joules rather than rescaled units.

``thermal_noise_density`` defaults to 4.0e-21 J, the room-temperature value
(kT at ~290 K, i.e. about -174 dBm/Hz).  It is the one constant with no
universally quoted figure in this setting; override it in the config file if
your technology assumption differs.
"""

import math
from dataclasses import dataclass, fields

__all__ = [
    "SystemParams",
    "load_params",
    "dumps_params",
    "db_to_linear",
]


@dataclass(frozen=True)
class SystemParams:
    n_antennas: int = 4                      # access-point antennas
    p_transmit: float = 1.0                  # W, AP power budget
    bw_downlink: float = 2e6                 # Hz, AP -> device
    bw_offload: float = 2e6                  # Hz, device -> fog server
    noise_dev: float = 1e-11                 # W, device receiver noise (-110 dBW)
    noise_server: float = 1e-11              # W, server receiver noise (-110 dBW)
    eh_efficiency: float = 0.6               # harvester conversion efficiency
    decode_energy_per_bit: float = 1e-10     # J/bit (100 pJ/bit)
    rate_min: float = 2e4                    # bit/s throughput requirement
    frame_duration: float = 1.0              # s
    ops_per_bit: float = 1e4                 # logic operations per received bit
    dev_ops_per_sec: float = 1e9             # device compute capability, op/s
    immaturity_factor: float = 1e4           # technology factor above the switching floor
    activity_factor: float = 0.1             # fraction of gates switching per cycle
    fanout: float = 3.0                      # loading gates per logic gate
    thermal_noise_density: float = 4.0e-21   # J, see module docstring
    carrier_freq_mhz: float = 2400.0         # MHz
    pathloss_coeff: float = 22.0             # indoor distance power-loss coefficient
    rician_k_db: float = 3.5                 # dB, dominant-to-scattered power ratio
    dist_ap_dev: float = 6.0                 # m, AP -> device
    dist_dev_server: float = 10.0            # m, device -> server
    normalize_beamforming: bool = True       # cap total radiated power at p_transmit

    def __post_init__(self):
        if (not isinstance(self.n_antennas, int)
                or isinstance(self.n_antennas, bool) or self.n_antennas < 1):
            raise ValueError("n_antennas must be a positive integer")
        if not isinstance(self.normalize_beamforming, bool):
            raise ValueError("normalize_beamforming must be a boolean")
        for name in (
            "p_transmit", "bw_downlink", "bw_offload", "noise_dev",
            "noise_server", "rate_min", "frame_duration", "ops_per_bit",
            "dev_ops_per_sec", "immaturity_factor", "fanout",
            "thermal_noise_density", "carrier_freq_mhz",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not 0.0 < self.eh_efficiency <= 1.0:
            raise ValueError(
                f"eh_efficiency must lie in (0, 1], got {self.eh_efficiency!r}")
        if not 0.0 < self.activity_factor < 1.0:
            raise ValueError(
                f"activity_factor must lie in (0, 1), got {self.activity_factor!r}")
        for name, low in (("decode_energy_per_bit", 0.0),
                          ("pathloss_coeff", 0.0),
                          ("dist_ap_dev", 1.0), ("dist_dev_server", 1.0)):
            value = getattr(self, name)
            if not math.isfinite(value) or value < low:
                raise ValueError(f"{name} must be at least {low}, got {value!r}")
        if not math.isfinite(self.rician_k_db):
            raise ValueError("rician_k_db must be finite")
        try:
            db_to_linear(self.rician_k_db)
        except OverflowError:
            raise ValueError(f"rician_k_db = {self.rician_k_db!r} overflows the "
                             "linear ratio 10**(dB/10)") from None
        if self.rate_min * self.frame_duration <= 0.0:
            raise ValueError("rate_min * frame_duration must be positive")

    @property
    def bits_per_frame(self) -> float:
        """Required payload per frame, rate_min * frame_duration."""
        return self.rate_min * self.frame_duration

    @property
    def rician_k_linear(self) -> float:
        return db_to_linear(self.rician_k_db)


def db_to_linear(x_db: float) -> float:
    """Convert a decibel figure to a linear power ratio, 10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}
# per field type: what the value must look like, and its parser
_PARSERS = {bool: ("a boolean", lambda raw: _BOOL_WORDS[raw.lower()]),
            int: ("an integer", int), float: ("a number", float)}
_FIELD_TYPES = {f.name: f.type for f in fields(SystemParams)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    expected, parse = _PARSERS[_FIELD_TYPES[key]]
    try:
        return parse(raw)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{key}: expected {expected}, got {raw!r}") from exc


def load_params(source: str = "", *, env=None) -> SystemParams:
    """Build a validated SystemParams from flat ``key = value`` text.

    Empty input returns the defaults.  Lines starting with ``#`` and blank
    lines are skipped; a line must look like ``name = value`` with ``name``
    one of the SystemParams fields, given at most once, otherwise a
    ValueError names the offending key (and both lines of a repeated one).
    The text is the only input; the environment changes nothing.  ``env``
    is ignored: perfbench/worker.py still passes ``env={}``.
    """
    overrides: dict = {}
    line_of = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown configuration key {key!r}")
        if key in line_of:
            raise ValueError(f"line {lineno}: configuration key {key!r} is "
                             f"already given on line {line_of[key]}")
        line_of[key] = lineno
        overrides[key] = _parse_value(key, raw)
    return SystemParams(**overrides)


def dumps_params(params: SystemParams) -> str:
    """Serialize to the config format; load_params(dumps_params(p)) == p."""
    lines = []
    for f in fields(SystemParams):
        value = getattr(params, f.name)
        lines.append(f"{f.name} = {value!r}")
    return "\n".join(lines) + "\n"
