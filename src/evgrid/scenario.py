"""Scenario files: schema, validation, trip generation.

A scenario is a single YAML document (key-value with nested tables) that
names a road network and a feeder (bundled fixture name or path relative to
the scenario file) and sets demand, battery, droop, station, reward,
predictor, and training parameters. ``load_scenario`` parses, validates, and
loads both networks so every cross-reference (station nodes, buses, OD
table entries) fails fast with a precise message.

Every setting's field carries one (type, bound) entry that ``Checked``
reads whenever a config is built; rules tying two fields are written out
in the ``__post_init__`` of the class holding both, so they hold wherever
a config is built too (from a file, by a sweep or in code).

Trip generation is fully deterministic given a seed:

* departures evenly spaced at 3600/rate seconds from t = 0 over
  warmup + control;
* exactly round(ev_fraction * N) trips are EVs, chosen by one RNG
  permutation;
* initial EV state of charge is uniform in [soc_low, soc_high];
* origins/destinations are uniform over feasible ordered node pairs.
  Non-EV trips only need origin -> destination connectivity; EV trips are
  restricted to pairs for which *every* station is usable (origin -> station
  and station -> destination both routable), so any station choice made by
  a policy is always a valid action.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import DATA_DIR
from .power import PowerNetwork, load_power_network
from .traffic import RoadNetwork, Vehicle, load_road_network


# Seconds between the env's load samples (one ``minute_log`` row each).
SAMPLE_S = 60


class ScenarioError(ValueError):
    """Configuration that cannot be run."""


class FieldError(ScenarioError):
    """A field outside its table entry; args (section, name, rule, value)."""

    def __str__(self):
        section, name, rule, value = self.args
        key = f"{section}.{name}" if section else name
        return f"'{key}' must be {rule}, got {value!r}"


def _real(v):
    return type(v) is int or (isinstance(v, float) and math.isfinite(v))


# kind -> (its name in messages, its test); a list kind's bound holds for
# each element. ``type(v) is int`` keeps bools out.
_KINDS = {float: ("a finite number", _real),
          int: ("an integer", lambda v: type(v) is int),
          "whole": ("a whole number", lambda v: _real(v) and v == int(v)),
          bool: ("true or false", lambda v: isinstance(v, bool)),
          str: ("a string", lambda v: isinstance(v, str)),
          "ints": ("a list of integers", lambda v: isinstance(v, tuple)
                   and all(type(x) is int for x in v)),
          "rows": ("a list of rows", lambda v: isinstance(v, tuple))}
_BOUNDS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
           ">= 1": lambda v: v >= 1, "in [0, 1]": lambda v: 0 <= v <= 1,
           "in (0, 1]": lambda v: 0 < v <= 1, "in [0, 1)": lambda v: 0 <= v < 1}


def setting(default, kind, bound="", test=None):
    """A field with its table entry: a value of ``kind`` within ``bound``,
    which ``test`` checks, or else the ``_BOUNDS`` entry of that name."""
    test = test or (_BOUNDS[bound] if bound else None)
    return field(default=default, metadata={"rule": (kind, bound, test)})


class Checked:
    """Base of the config dataclasses: building one, by any means, raises
    FieldError (under the class name) for its first field outside its
    entry. Cross-field rules follow in a subclass's ``__post_init__``."""

    def __post_init__(self):
        section = type(self).__name__
        for f in fields(self):
            if "rule" not in f.metadata:
                continue
            (kind, bound, test), value = f.metadata["rule"], getattr(self, f.name)
            what, is_kind = _KINDS[kind]
            if not is_kind(value):
                raise FieldError(section, f.name, f"{what} {bound}".strip(), value)
            listed = kind in ("ints", "rows")
            for i, v in enumerate(value) if listed else [(0, value)]:
                if test and not test(v):
                    name = f"{f.name}[{i}]" if listed else f.name
                    raise FieldError(section, name, bound, v)


@dataclass(frozen=True)
class StationSpec(Checked):
    cs_id: int = setting(MISSING, int)
    node: int = setting(MISSING, int)
    bus: int = setting(MISSING, int)
    piles: int = setting(MISSING, int, ">= 1")


@dataclass(frozen=True)
class DemandSpec(Checked):
    rate_veh_per_h: float = setting(600.0, float, "> 0")
    ev_fraction: float = setting(0.5, float, "in [0, 1]")
    warmup_s: float = setting(1200.0, float, ">= 0")
    control_s: float = setting(3600.0, float, "> 0")
    od_mode: str = setting("uniform", str, "'uniform' or 'table'",
                           lambda v: v in ("uniform", "table"))
    od_table: tuple = setting(
        (), "rows", "[origin node, dest node] or [origin node, dest node, "
        "weight > 0]", lambda r: isinstance(r, tuple) and len(r) in (2, 3)
        and type(r[0]) is type(r[1]) is int
        and (len(r) == 2 or _real(r[2]) and r[2] > 0))
    soc_init_low: float = setting(0.30, float)
    soc_init_high: float = setting(0.60, float)
    soc_target: float = setting(0.80, float)

    def __post_init__(self):
        super().__post_init__()
        if not (0 < self.soc_init_low <= self.soc_init_high
                < self.soc_target <= 1):
            raise ScenarioError("need 0 < soc_init_low <= soc_init_high "
                                "< soc_target <= 1")
        if self.od_mode == "table" and not self.od_table:
            raise ScenarioError("od_mode table needs demand.od_table")


@dataclass(frozen=True)
class BatteryParams(Checked):
    capacity_kwh: float = setting(24.0, float, "> 0")
    eta: float = setting(0.9, float, "in (0, 1]")       # charging efficiency
    rho_kwh_per_km: float = setting(0.15, float, ">= 0")  # driving consumption


@dataclass(frozen=True)
class DroopParams(Checked):
    v_ref1: float = setting(0.90, float, "> 0")
    v_ref2: float = setting(0.95, float)
    p_max_kw: float = setting(50.0, float, "> 0")
    min_fraction: float = setting(0.30, float, "in (0, 1]")
    interval_s: float = setting(600.0, "whole", "> 0")

    def __post_init__(self):
        super().__post_init__()
        if not self.v_ref1 < self.v_ref2:
            raise ScenarioError("need v_ref1 < v_ref2")

    @property
    def p_min_kw(self) -> float:
        return self.min_fraction * self.p_max_kw


@dataclass(frozen=True)
class RewardParams(Checked):
    w1: float = setting(0.01, float)
    r_max: float = setting(120.0, float)
    w2: float = setting(0.02, float)
    v_ref: float = setting(1.0, float)


@dataclass(frozen=True)
class PredictorConfig(Checked):
    enc_len: int = setting(5, int, ">= 1")
    dec_len: int = setting(5, int, ">= 1")
    window_s: float = setting(240.0, float, "> 0")
    hidden: int = setting(256, int, ">= 1")
    layers: int = setting(2, int, ">= 1")
    dropout: float = setting(0.5, float, "in [0, 1)")
    lr: float = setting(1e-3, float, "> 0")
    iters_per_step: int = setting(20, int, ">= 1")
    batch: int = setting(64, int, ">= 1")
    min_buffer: int = setting(64, int, ">= 1")
    train_every: int = setting(50, int, ">= 1")
    converge_window: int = setting(10, int, ">= 1")
    converge_tol: float = setting(0.02, float, ">= 0")

    def __post_init__(self):
        super().__post_init__()
        samples_per_window(self.window_s)
        if self.min_buffer < self.batch:
            raise ScenarioError("min_buffer must be >= batch (training samples "
                                "batches without replacement)")


def samples_per_window(window_s: float) -> int:
    """Minute samples per predictor demand window. Counting from an
    episode's first sample, every this-many-th sample closes a window."""
    if window_s % SAMPLE_S != 0:
        raise ValueError(f"window_s must be a multiple of {SAMPLE_S} s")
    return int(window_s // SAMPLE_S)


@dataclass(frozen=True)
class TrainConfig(Checked):
    epochs: int = setting(200, int, ">= 1")
    episodes_per_epoch: int = setting(5, int, ">= 1")
    iters_per_epoch: int = setting(40, int, ">= 1")
    batch: int = setting(64, int, ">= 1")
    lr: float = setting(3e-4, float, "> 0")
    lambda_lr: float = setting(0.035, float, ">= 0")
    gamma: float = setting(0.97, float, "in [0, 1]")
    gae_lambda: float = setting(0.95, float, "in [0, 1]")
    clip: float = setting(0.2, float, "> 0")
    entropy_coef: float = setting(0.01, float, ">= 0")
    hidden: tuple = setting((64, 64), "ints", ">= 1")
    cost_budget: float = setting(0.0, float)
    discounted_dual: bool = setting(False, bool)


@dataclass
class ScenarioConfig(Checked):
    name: str
    seed: int = setting(MISSING, int, ">= 0")
    road_net: RoadNetwork
    power_net: PowerNetwork
    stations: tuple
    demand: DemandSpec
    battery: BatteryParams
    droop: DroopParams
    reward: RewardParams
    predictor: PredictorConfig
    training: TrainConfig
    compliance_rate: float = setting(1.0, float, "in [0, 1]")
    seeds: tuple = setting((0, 1, 2, 3, 4), "ints", ">= 0")

    def __post_init__(self):
        super().__post_init__()
        if not self.seeds:
            raise FieldError(type(self).__name__, "seeds", "a non-empty list",
                             self.seeds)
        p = self.predictor
        if self.demand.warmup_s < p.enc_len * p.window_s:
            raise ScenarioError(f"warmup_s must cover enc_len predictor "
                                f"windows ({p.enc_len} * {p.window_s:.0f} s)")
        _validate_od(self)

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def horizon_s(self) -> float:
        return self.demand.warmup_s + self.demand.control_s


@dataclass(frozen=True)
class Trip:
    vid: int
    origin: int
    dest: int
    depart_s: float
    is_ev: bool
    soc_init: float = 1.0


def _coerce(value, kind):
    """A YAML value as its field holds it: a list as a tuple, an integral
    float of an int field as an int (8.0 -> 8), an int of a number field as
    a float (1200 -> 1200.0, so it hashes as its default does)."""
    if isinstance(value, list):
        return tuple(_coerce(x, int if kind == "ints" else None) for x in value)
    if kind in (float, "whole") and type(value) is int:
        return float(value)
    integral = kind is int and isinstance(value, float) and value.is_integer()
    return int(value) if integral else value


def _take(sub, key, cls, path):
    """``cls`` built from the mapping ``sub`` found under ``key``."""
    if not isinstance(sub, dict):
        raise ScenarioError(f"{path}: '{key}' must be a mapping")
    kinds = {f.name: f.metadata.get("rule", (None,))[0] for f in fields(cls)}
    extra = set(sub) - set(kinds)
    if extra:
        raise ScenarioError(f"{path}: unknown keys in '{key}': {sorted(extra)}")
    try:
        return cls(**{k: _coerce(v, kinds[k]) for k, v in sub.items()})
    except FieldError as exc:
        raise ScenarioError(f"{path}: {FieldError(key, *exc.args[1:])}") from exc
    except (TypeError, ValueError) as exc:
        where = f"invalid '{key}': " if key else ""
        raise ScenarioError(f"{path}: {where}{exc}") from exc


def _resolve_net(name, base_dir):
    p = Path(name)
    if not p.is_absolute():
        bundled = DATA_DIR / name
        if bundled.is_dir():
            return bundled
        p = base_dir / name
    if not p.is_dir():
        raise ScenarioError(f"network '{name}' not found (looked in bundled data "
                            f"and {base_dir})")
    return p


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    extra = set(doc) - {f.name for f in fields(ScenarioConfig)}
    if extra:
        raise ScenarioError(f"{path}: unknown top-level keys: {sorted(extra)}")

    for key in ("road_net", "power_net", "stations"):
        if key not in doc:
            raise ScenarioError(f"{path}: missing required key '{key}'")

    road = load_road_network(_resolve_net(doc["road_net"], path.parent))
    power = load_power_network(_resolve_net(doc["power_net"], path.parent))

    raw_stations = doc["stations"]
    if not isinstance(raw_stations, list) or not raw_stations:
        raise ScenarioError(f"{path}: 'stations' must be a non-empty list")
    stations = []
    for i, entry in enumerate(raw_stations):
        st = _take(entry, f"stations[{i}]", StationSpec, path)
        if st.node not in road.nodes:
            raise ScenarioError(f"{path}: stations[{i}]: node {st.node} "
                                f"not in road network")
        if st.bus not in power.bus_ids:
            raise ScenarioError(f"{path}: stations[{i}]: bus {st.bus} "
                                f"not in feeder")
        if st.bus == power.slack_id:
            raise ScenarioError(f"{path}: stations[{i}]: station {st.cs_id} "
                                f"is on bus {st.bus}, the feeder's slack bus; "
                                f"its load would not enter the power flow")
        stations.append(st)
    ids = [s.cs_id for s in stations]
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"{path}: duplicate station cs_id")
    stations.sort(key=lambda s: s.cs_id)

    sections = {k: _take(doc.get(k, {}), k, cls, path) for k, cls in (
        ("demand", DemandSpec), ("battery", BatteryParams),
        ("droop", DroopParams), ("reward", RewardParams),
        ("predictor", PredictorConfig), ("training", TrainConfig))}
    return _take(dict(name=str(doc.get("name", path.stem)),
                      seed=doc.get("seed", 0), road_net=road,
                      power_net=power, stations=tuple(stations),
                      **{k: doc[k] for k in ("compliance_rate", "seeds")
                         if k in doc},
                      **sections), "", ScenarioConfig, path)


def ev_feasible_pairs(cfg: ScenarioConfig):
    """Ordered OD pairs usable by an EV regardless of station choice."""
    road = cfg.road_net
    pairs = []
    for o in sorted(road.nodes):
        ro = road.reachable_from(o)
        if any(s.node not in ro for s in cfg.stations):
            continue
        usable = None
        for s in cfg.stations:
            rs = road.reachable_from(s.node)
            usable = rs if usable is None else (usable & rs)
        for d in sorted(usable):
            if d != o:
                pairs.append((o, d))
    return pairs


def cv_feasible_pairs(cfg: ScenarioConfig):
    road = cfg.road_net
    pairs = []
    for o in sorted(road.nodes):
        for d in sorted(road.reachable_from(o)):
            if d != o:
                pairs.append((o, d))
    return pairs


def _validate_od(cfg: ScenarioConfig):
    if cfg.demand.od_mode == "table":
        road = cfg.road_net
        ev_ok = set(ev_feasible_pairs(cfg))
        for i, row in enumerate(cfg.demand.od_table):
            o, d = row[:2]
            if o not in road.nodes or d not in road.nodes:
                raise ScenarioError(f"od_table[{i}] references unknown node")
            if d not in road.reachable_from(o):
                raise ScenarioError(f"od_table[{i}] pair {o}->{d} "
                                    f"is not routable")
            if cfg.demand.ev_fraction > 0 and (o, d) not in ev_ok:
                raise ScenarioError(f"od_table[{i}] pair {o}->{d} cannot "
                                    f"reach every station")
    else:
        if not cv_feasible_pairs(cfg):
            raise ScenarioError("no feasible origin-destination pair")
        if cfg.demand.ev_fraction > 0 and not ev_feasible_pairs(cfg):
            raise ScenarioError("no origin-destination pair can use "
                                "every station")


def generate_trips(cfg: ScenarioConfig, seed: int):
    """Deterministic trip table for one episode."""
    d = cfg.demand
    spacing = 3600.0 / d.rate_veh_per_h
    horizon = d.warmup_s + d.control_s
    n = int(round(d.rate_veh_per_h * horizon / 3600.0))
    if n == 0:
        return []
    rng = np.random.default_rng([seed, cfg.seed])

    n_ev = int(round(d.ev_fraction * n))
    ev_flags = np.zeros(n, dtype=bool)
    ev_flags[rng.permutation(n)[:n_ev]] = True

    if d.od_mode == "table":
        cv_pairs = ev_pairs = [row[:2] for row in d.od_table]
        weights = np.array([row[2] if len(row) == 3 else 1.0
                            for row in d.od_table], dtype=float)
        cv_w = ev_w = weights / weights.sum()
    else:
        cv_pairs = cv_feasible_pairs(cfg)
        ev_pairs = ev_feasible_pairs(cfg) if n_ev else cv_pairs
        cv_w = ev_w = None

    trips = []
    for vid in range(n):
        is_ev = bool(ev_flags[vid])
        pairs = ev_pairs if is_ev else cv_pairs
        w = ev_w if is_ev else cv_w
        if w is None:
            # the draw rng.choice(len(pairs)) makes, without its overhead
            idx = int(rng.integers(0, len(pairs), dtype=np.int64))
        else:
            idx = int(rng.choice(len(pairs), p=w))
        o, dest = pairs[idx]
        soc = float(rng.uniform(d.soc_init_low, d.soc_init_high)) if is_ev else 1.0
        trips.append(Trip(vid=vid, origin=o, dest=dest,
                          depart_s=vid * spacing, is_ev=is_ev, soc_init=soc))
    return trips


def build_vehicle(trip: Trip, soc_target: float) -> Vehicle:
    return Vehicle(trip.vid, trip.origin, trip.dest, trip.depart_s,
                   is_ev=trip.is_ev, soc=trip.soc_init, soc_target=soc_target)
