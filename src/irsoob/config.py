"""Experiment configuration: JSON schema, defaults, and validation.

A config file is a single JSON object; an empty file means "all defaults",
which reproduce the reference deployment (base stations at (0,50) and (50,0),
reflector at (1025,1025), UEs uniform in the square (950,950)-(1100,1100),
10 UEs per operator, 5000 slots). All powers in config are dB; everything
downstream of validation is linear.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import operator
from dataclasses import dataclass, field, fields

from .channels import NodeGeometry, PathLossParams, finite

REGIMES = ("sub6", "mmwave_los", "mmwave_nlos")
SCHEDULERS = ("rr", "pf", "mr")
OUTPUT_KINDS = ("sumse", "outage", "ccdf", "dominance", "pf_gap", "inband_offset")
# outputs whose ceiling, scheduler forms or offset law are the Rayleigh ones
SUB6_OUTPUTS = ("pf_gap", "inband_offset")

GAMMA_DB_RANGE = (0.0, 210.0)  # sanity bound on transmit SNR in dB

# fields that count something (each n_sweep entry too): integers, never bools
COUNT_FIELDS = ("l1", "l2", "k_ues", "q_ues", "slots", "trials", "seed", "slot_budget",
                "max_elements")


def _count(name: str, value) -> int:
    """value as an int if operator.index takes it and it is no bool: 2.5, 100.0, true fail."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name}: expected an integer, got {value!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully validated description of one simulation-plus-analytics run."""

    regime: str = "sub6"
    scheduler: str = "rr"
    geometry: NodeGeometry = field(default_factory=NodeGeometry)
    path_loss: PathLossParams = field(default_factory=PathLossParams)
    n_sweep: tuple[int, ...] = (64,)
    gamma_db_sweep: tuple[float, ...] = (130.0,)
    l1: int = 1
    l2: int = 1
    k_ues: int = 10
    q_ues: int = 10
    slots: int = 5000
    trials: int = 4
    seed: int = 0
    pf_tau: float = 1000.0
    outputs: tuple[str, ...] = ("sumse",)
    slot_budget: int = 50_000_000
    max_elements: int = 1024

    def __post_init__(self):
        for name in COUNT_FIELDS:
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        for name in ("n_sweep", "gamma_db_sweep", "outputs"):
            value = getattr(self, name)   # a list, a tuple or an array; 64 or "sumse" is none
            if isinstance(value, str) or not hasattr(value, "__iter__"):
                raise ValueError(f"{name}: expected a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
            if not getattr(self, name):   # an empty outputs list would write a header-only CSV
                raise ValueError(f"{name} must be non-empty")
        object.__setattr__(self, "n_sweep", tuple(_count("n_sweep", n) for n in self.n_sweep))
        object.__setattr__(self, "gamma_db_sweep",
                           tuple(float(finite("gamma_db_sweep", g)) for g in self.gamma_db_sweep))
        if self.regime not in REGIMES:
            raise ValueError(f"regime: expected one of {REGIMES}, got {self.regime!r}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"scheduler: expected one of {SCHEDULERS}, got {self.scheduler!r}")
        for out in self.outputs:
            if out not in OUTPUT_KINDS:
                raise ValueError(f"outputs: unknown output kind {out!r}")
            if out in SUB6_OUTPUTS and self.regime != "sub6":
                raise ValueError(f"outputs: {out!r} needs regime 'sub6', got {self.regime!r}")
        for name, sweep in (("n_sweep", self.n_sweep), ("gamma_db_sweep", self.gamma_db_sweep)):
            if len(set(sweep)) != len(sweep):   # a repeat writes two rows at one coordinate
                raise ValueError(f"{name}: duplicate entries in {list(sweep)}")
        if any(n < 0 for n in self.n_sweep):
            raise ValueError(f"n_sweep: element counts must be >= 0, got {self.n_sweep}")
        # sums of two grid angles wrap back onto the grid only for even N
        if self.regime != "sub6" and any(n < 2 or n % 2 for n in self.n_sweep):
            raise ValueError(f"n_sweep: the mmWave regimes need even element counts >= 2, "
                             f"got {self.n_sweep}")
        if self.max_elements < 1:
            raise ValueError(f"max_elements must be >= 1, got {self.max_elements}")
        if any(n > self.max_elements for n in self.n_sweep):
            raise ValueError(
                f"n_sweep: {max(self.n_sweep)} elements exceeds max_elements "
                f"{self.max_elements}; raise max_elements to run this deliberately")
        lo, hi = GAMMA_DB_RANGE
        for g in self.gamma_db_sweep:
            if not (lo <= g <= hi):
                raise ValueError(f"gamma_db_sweep: {g} dB outside the sane range [{lo}, {hi}]")
        if self.l1 < 1 or self.l2 < 1:
            raise ValueError(f"l1 and l2 must be >= 1, got {self.l1}, {self.l2}")
        if self.k_ues < 1 or self.q_ues < 1:
            raise ValueError(f"k_ues and q_ues must be >= 1, got {self.k_ues}, {self.q_ues}")
        if self.slots < 1 or self.trials < 1:
            raise ValueError(f"slots and trials must be >= 1, got {self.slots}, {self.trials}")
        if self.slots * self.trials > self.slot_budget:
            raise ValueError(
                f"slots*trials = {self.slots * self.trials} exceeds slot_budget {self.slot_budget}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if finite("pf_tau", self.pf_tau) < 1.0:
            raise ValueError(f"pf_tau must be >= 1, got {self.pf_tau}")
        # d0 must clear both feeder links and some UE point; the region is convex,
        # so it lies within d0 of a node once its four corners do
        d0, geo = self.path_loss.d0, self.geometry
        for bs in ("bs_inband", "bs_oob"):
            if math.dist(getattr(geo, bs), geo.irs) < d0:
                raise ValueError(f"path_loss.d0 = {d0} exceeds the {bs}-to-irs distance")
        (x0, y0), (x1, y1) = geo.ue_region
        ues = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
        for node in ("bs_inband", "bs_oob", "irs"):
            if all(math.dist(ue, getattr(geo, node)) < d0 for ue in ues):
                raise ValueError(f"path_loss.d0 = {d0} exceeds the distance from every UE "
                                 f"point to {node}")


_NESTED = {"geometry": NodeGeometry, "path_loss": PathLossParams}   # fields read as JSON objects


def _build(cls, data: dict, path: str):
    """Construct a dataclass from a dict, rejecting unknown keys with a dotted field path."""
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in known:
            raise ValueError(f"unknown field {where!r} in config")
        if key in _NESTED:
            if not isinstance(value, dict):
                raise ValueError(f"{where}: expected an object")
            value = _build(_NESTED[key], value, where)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        prefix = f"{path}: " if path else ""
        raise ValueError(f"{prefix}{err}") from err


def read_json_object(path) -> dict:
    """The JSON object in a file, {} if it is empty; a ValueError naming the file otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text:
        data = {}
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return data


def load_spec(path: str) -> ExperimentSpec:
    """Read and validate a JSON config file; empty files yield the default spec."""
    return spec_from_dict(read_json_object(path))


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Build and validate a spec from a config-shaped dict, naming unknown keys by dotted path."""
    return _build(ExperimentSpec, data, "")


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return dataclasses.asdict(spec)


def spec_hash(spec: ExperimentSpec) -> str:
    """Stable content hash of a spec, recorded in the run manifest."""
    canon = json.dumps(spec_to_dict(spec), sort_keys=True, default=list)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
