"""Scenario files: schema, validation, trip generation.

A scenario is a single YAML document (key-value with nested tables) that
names a road network and a feeder (bundled fixture name or path relative to
the scenario file) and sets demand, battery, droop, station, reward,
predictor, and training parameters. ``load_scenario`` parses, validates, and
loads both networks so every cross-reference (station nodes, buses, OD
table entries) fails fast with a precise message.

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

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import DATA_DIR
from .charging import BatteryParams, DroopParams
from .power import PowerNetwork, load_power_network
from .traffic import RoadNetwork, Vehicle, load_road_network


class ScenarioError(ValueError):
    """Configuration that cannot be run."""


@dataclass(frozen=True)
class StationSpec:
    cs_id: int
    node: int
    bus: int
    piles: int


@dataclass(frozen=True)
class DemandSpec:
    rate_veh_per_h: float = 600.0
    ev_fraction: float = 0.5
    warmup_s: float = 1200.0
    control_s: float = 3600.0
    od_mode: str = "uniform"
    od_table: tuple = ()
    soc_init_low: float = 0.30
    soc_init_high: float = 0.60
    soc_target: float = 0.80


@dataclass(frozen=True)
class RewardParams:
    w1: float = 0.01
    r_max: float = 120.0
    w2: float = 0.02
    v_ref: float = 1.0


@dataclass(frozen=True)
class PredictorConfig:
    enc_len: int = 5
    dec_len: int = 5
    window_s: float = 240.0
    sample_s: float = 60.0
    hidden: int = 256
    layers: int = 2
    dropout: float = 0.5
    lr: float = 1e-3
    iters_per_step: int = 20
    batch: int = 64
    min_buffer: int = 64
    train_every: int = 50
    converge_window: int = 10
    converge_tol: float = 0.02


def samples_per_window(window_s: float, sample_s: float) -> int:
    """Minute samples per predictor demand window. Counting from an
    episode's first sample, every this-many-th sample closes a window."""
    if window_s % sample_s != 0:
        raise ValueError("window_s must be a multiple of sample_s")
    return int(window_s // sample_s)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    episodes_per_epoch: int = 5
    iters_per_epoch: int = 40
    batch: int = 64
    lr: float = 3e-4
    lambda_lr: float = 0.035
    gamma: float = 0.97
    gae_lambda: float = 0.95
    clip: float = 0.2
    entropy_coef: float = 0.01
    hidden: tuple = (64, 64)
    cost_budget: float = 0.0
    discounted_dual: bool = False


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    road_net: RoadNetwork
    power_net: PowerNetwork
    stations: tuple
    demand: DemandSpec
    battery: BatteryParams
    droop: DroopParams
    reward: RewardParams
    predictor: PredictorConfig
    training: TrainConfig
    compliance_rate: float = 1.0
    seeds: tuple = (0, 1, 2)
    source: dict = field(default_factory=dict)    # raw document for dumping

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


def _as_int(value, key, path):
    """``value`` as an int if it is integral (8 or 8.0); any other value of
    the int field ``key`` is a ScenarioError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ScenarioError(f"{path}: '{key}' must be an integer, got {value!r}")


def _take(doc, key, cls, path):
    sub = doc.get(key, {})
    if not isinstance(sub, dict):
        raise ScenarioError(f"{path}: '{key}' must be a mapping")
    known = {f.name for f in cls.__dataclass_fields__.values()} \
        if hasattr(cls, "__dataclass_fields__") else set()
    extra = set(sub) - known
    if extra:
        raise ScenarioError(f"{path}: unknown keys in '{key}': {sorted(extra)}")
    coerced = dict(sub)
    ints = {f.name for f in fields(cls) if f.type in (int, "int")}
    for k, v in coerced.items():
        if k in ints:
            coerced[k] = _as_int(v, f"{key}.{k}", path)
        elif isinstance(v, list):
            coerced[k] = tuple(tuple(x) if isinstance(x, list) else x for x in v)
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: invalid '{key}': {exc}") from exc


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
        try:
            st = StationSpec(*(_as_int(entry[k], f"stations[{i}].{k}", path)
                               for k in ("cs_id", "node", "bus", "piles")))
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"{path}: stations[{i}]: {exc}") from exc
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
        if st.piles < 1:
            raise ScenarioError(f"{path}: stations[{i}]: piles must be >= 1")
        stations.append(st)
    ids = [s.cs_id for s in stations]
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"{path}: duplicate station cs_id")
    stations.sort(key=lambda s: s.cs_id)

    demand = _take(doc, "demand", DemandSpec, path)
    battery = _take(doc, "battery", BatteryParams, path)
    droop = _take(doc, "droop", DroopParams, path)
    reward = _take(doc, "reward", RewardParams, path)
    predictor = _take(doc, "predictor", PredictorConfig, path)
    training = _take(doc, "training", TrainConfig, path)

    if demand.rate_veh_per_h <= 0:
        raise ScenarioError(f"{path}: demand.rate_veh_per_h must be positive")
    if not (0.0 <= demand.ev_fraction <= 1.0):
        raise ScenarioError(f"{path}: demand.ev_fraction must be in [0, 1]")
    if demand.warmup_s < 0 or demand.control_s <= 0:
        raise ScenarioError(f"{path}: demand durations invalid")
    if not (0.0 < demand.soc_init_low <= demand.soc_init_high
            < demand.soc_target <= 1.0):
        raise ScenarioError(f"{path}: need 0 < soc_init_low <= soc_init_high "
                            f"< soc_target <= 1")
    if demand.od_mode not in ("uniform", "table"):
        raise ScenarioError(f"{path}: demand.od_mode must be uniform or table")
    if demand.od_mode == "table" and not demand.od_table:
        raise ScenarioError(f"{path}: od_mode table needs demand.od_table")
    if predictor.window_s % predictor.sample_s != 0:
        raise ScenarioError(f"{path}: predictor.window_s must be a multiple "
                            f"of predictor.sample_s")
    if demand.warmup_s < predictor.enc_len * predictor.window_s:
        raise ScenarioError(
            f"{path}: warmup_s must cover enc_len predictor windows "
            f"({predictor.enc_len} * {predictor.window_s:.0f} s)")
    if predictor.min_buffer < predictor.batch:
        raise ScenarioError(f"{path}: predictor.min_buffer must be >= "
                            f"predictor.batch (training samples batches "
                            f"without replacement)")
    compliance = float(doc.get("compliance_rate", 1.0))
    if not (0.0 <= compliance <= 1.0):
        raise ScenarioError(f"{path}: compliance_rate must be in [0, 1]")
    seeds = doc.get("seeds", [0, 1, 2])
    if not isinstance(seeds, list):
        raise ScenarioError(f"{path}: 'seeds' must be a list of integers, "
                            f"got {seeds!r}")

    cfg = ScenarioConfig(
        name=str(doc.get("name", path.stem)),
        seed=_as_int(doc.get("seed", 0), "seed", path),
        road_net=road,
        power_net=power,
        stations=tuple(stations),
        demand=demand,
        battery=battery,
        droop=droop,
        reward=reward,
        predictor=predictor,
        training=training,
        compliance_rate=compliance,
        seeds=tuple(_as_int(s, "seeds", path) for s in seeds),
        source=doc,
    )
    _validate_od(cfg, path)
    return cfg


def dump_scenario(cfg: ScenarioConfig, path):
    """Re-serialize the original document (round-trips loadable scenarios)."""
    Path(path).write_text(yaml.safe_dump(cfg.source, sort_keys=False))


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


def _validate_od(cfg: ScenarioConfig, path):
    if cfg.demand.od_mode == "table":
        road = cfg.road_net
        ev_ok = set(ev_feasible_pairs(cfg))
        for i, row in enumerate(cfg.demand.od_table):
            if len(row) not in (2, 3):
                raise ScenarioError(f"{path}: od_table[{i}] needs (origin, dest"
                                    f"[, weight])")
            o, d = int(row[0]), int(row[1])
            if o not in road.nodes or d not in road.nodes:
                raise ScenarioError(f"{path}: od_table[{i}] references unknown node")
            if d not in road.reachable_from(o):
                raise ScenarioError(f"{path}: od_table[{i}] pair {o}->{d} "
                                    f"is not routable")
            if cfg.demand.ev_fraction > 0 and (o, d) not in ev_ok:
                raise ScenarioError(f"{path}: od_table[{i}] pair {o}->{d} cannot "
                                    f"reach every station")
    else:
        if not cv_feasible_pairs(cfg):
            raise ScenarioError(f"{path}: no feasible origin-destination pair")
        if cfg.demand.ev_fraction > 0 and not ev_feasible_pairs(cfg):
            raise ScenarioError(f"{path}: no origin-destination pair can use "
                                f"every station")


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
        rows = [(int(r[0]), int(r[1]), float(r[2]) if len(r) == 3 else 1.0)
                for r in d.od_table]
        table_pairs = [(o, dd) for o, dd, _ in rows]
        weights = np.array([w for _, _, w in rows], dtype=float)
        weights = weights / weights.sum()
        cv_pairs = ev_pairs = table_pairs
        cv_w = ev_w = weights
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
