"""Scenario parsing, validation, and trip-generation tests."""

import json
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import evgrid
import evgrid.scenario as scenario_module
from evgrid.harness import config_hash, main
from evgrid.scenario import (
    BatteryParams,
    DemandSpec,
    DroopParams,
    FieldError,
    PredictorConfig,
    RewardParams,
    ScenarioConfig,
    ScenarioError,
    StationSpec,
    TrainConfig,
    Trip,
    cv_feasible_pairs,
    ev_feasible_pairs,
    generate_trips,
    load_scenario,
)
from evgrid.traffic import RoadLink, RoadNetwork

MINIMAL = """\
name: mini
seed: 3
road_net: nguyen_dupuis
power_net: ieee33
stations:
  - {cs_id: 0, node: 6, bus: 18, piles: 4}
"""


def _write(tmp_path, text, name="s.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_scenario_gets_defaults(tmp_path):
    cfg = load_scenario(_write(tmp_path, MINIMAL))
    assert cfg.name == "mini"
    assert cfg.n_stations == 1
    assert cfg.droop.p_min_kw == pytest.approx(15.0)
    assert cfg.demand.rate_veh_per_h == 600.0
    assert cfg.training.gamma == 0.97
    assert cfg.predictor.enc_len == 5
    assert cfg.compliance_rate == 1.0
    assert cfg.horizon_s == 4800.0


def test_bundled_case_a_parameters():
    cfg = load_scenario(evgrid.DATA_DIR / "case_a.yaml")
    assert cfg.n_stations == 5
    assert all(s.piles == 60 for s in cfg.stations)
    assert cfg.demand.rate_veh_per_h == 600
    assert cfg.demand.ev_fraction == 0.5
    assert cfg.battery.capacity_kwh == 24.0
    assert cfg.droop.interval_s == 600
    assert len(cfg.power_net.buses) == 33


def test_bundled_reduced_parameters():
    cfg = load_scenario(evgrid.DATA_DIR / "reduced.yaml")
    assert cfg.n_stations == 2
    assert cfg.demand.rate_veh_per_h == 120
    assert cfg.training.epochs == 100
    assert cfg.seeds == (0, 1, 2)
    assert cfg.predictor.hidden == 32


def test_station_cross_validation(tmp_path):
    bad_bus = MINIMAL.replace("bus: 18", "bus: 999")
    with pytest.raises(ScenarioError, match="bus 999"):
        load_scenario(_write(tmp_path, bad_bus))
    bad_node = MINIMAL.replace("node: 6", "node: 77")
    with pytest.raises(ScenarioError, match="node 77"):
        load_scenario(_write(tmp_path, bad_node))
    on_slack = MINIMAL.replace("bus: 18", "bus: 1")
    with pytest.raises(ScenarioError, match="station 0 is on bus 1, .*slack"):
        load_scenario(_write(tmp_path, on_slack))
    dup = MINIMAL + "  - {cs_id: 0, node: 10, bus: 30, piles: 4}\n"
    with pytest.raises(ScenarioError, match="duplicate station"):
        load_scenario(_write(tmp_path, dup))


def test_parameter_validation(tmp_path):
    bad = MINIMAL + "demand:\n  soc_init_low: 0.9\n  soc_init_high: 0.95\n"
    with pytest.raises(ScenarioError, match="soc"):
        load_scenario(_write(tmp_path, bad))
    bad = MINIMAL + "demand:\n  warmup_s: 600\n"
    with pytest.raises(ScenarioError, match="warmup"):
        load_scenario(_write(tmp_path, bad))
    bad = MINIMAL + "compliance_rate: 1.5\n"
    with pytest.raises(ScenarioError, match="compliance"):
        load_scenario(_write(tmp_path, bad))
    bad = MINIMAL + "demand:\n  od_mode: fancy\n"
    with pytest.raises(ScenarioError, match="od_mode"):
        load_scenario(_write(tmp_path, bad))
    bad = MINIMAL + "training:\n  bogus_key: 1\n"
    with pytest.raises(ScenarioError, match="unknown keys"):
        load_scenario(_write(tmp_path, bad))
    bad = MINIMAL + "predictor:\n  min_buffer: 8\n  batch: 32\n"
    with pytest.raises(ScenarioError, match="min_buffer"):
        load_scenario(_write(tmp_path, bad))
    bad = MINIMAL + "predictor:\n  window_s: 250\n"
    with pytest.raises(ScenarioError, match="window_s must be a multiple of 60"):
        load_scenario(_write(tmp_path, bad))
    # the sample period is the env's, not a setting
    bad = MINIMAL + "predictor:\n  sample_s: 60\n"
    with pytest.raises(ScenarioError, match=re.escape(
            "unknown keys in 'predictor': ['sample_s']")):
        load_scenario(_write(tmp_path, bad))


def test_integer_fields_take_integral_values_only(tmp_path):
    text = (MINIMAL.replace("seed: 3", "seed: 3.0")
            .replace("piles: 4", "piles: 4.0")
            + "seeds: [0, 1.0]\npredictor:\n  enc_len: 4.0\n"
              "training:\n  epochs: 2.0\n")
    cfg = load_scenario(_write(tmp_path, text))
    got = (cfg.seed, cfg.stations[0].piles, *cfg.seeds,
           cfg.predictor.enc_len, cfg.training.epochs)
    assert got == (3, 4, 0, 1, 4, 2)
    assert all(type(n) is int for n in got)
    for bad, key in [
            (MINIMAL.replace("seed: 3", "seed: 7.9"), "seed"),
            (MINIMAL + "seeds: [0, 1.5, 2]\n", "seeds"),
            (MINIMAL + "seeds: 3\n", "seeds"),
            (MINIMAL.replace("piles: 4", "piles: 8.5"),
             r"stations\[0\]\.piles"),
            (MINIMAL.replace("node: 6", "node: '6'"), r"stations\[0\]\.node"),
            (MINIMAL + "training:\n  epochs: 2.5\n", r"training\.epochs"),
            (MINIMAL + "predictor:\n  enc_len: 5.5\n", r"predictor\.enc_len"),
            (MINIMAL + "predictor:\n  hidden: true\n", r"predictor\.hidden")]:
        with pytest.raises(ScenarioError,
                           match=f"'{key}' must be (an integer|a list)"):
            load_scenario(_write(tmp_path, bad))


# one bad value per line: (YAML appended to MINIMAL, key, allowed range)
BAD_VALUES = [
    ("training: {gamma: 1.5}", "training.gamma", "in [0, 1]"),
    ("training: {lr: -1.0}", "training.lr", "> 0"),
    ("training: {clip: -0.2}", "training.clip", "> 0"),
    ("predictor: {lr: 0}", "predictor.lr", "> 0"),
    ("training: {epochs: 0}", "training.epochs", ">= 1"),
    ("training: {epochs: -3}", "training.epochs", ">= 1"),
    ("training: {cost_budget: .nan}", "training.cost_budget",
     "a finite number"),
    ("training: {batch: 0}", "training.batch", ">= 1"),
    ("reward: {w1: .nan}", "reward.w1", "a finite number"),
    ("training: {iters_per_epoch: 0}", "training.iters_per_epoch", ">= 1"),
    ("predictor: {hidden: 0}", "predictor.hidden", ">= 1"),
    ("predictor: {layers: 0}", "predictor.layers", ">= 1"),
    ("predictor: {dec_len: 0}", "predictor.dec_len", ">= 1"),
    ("predictor: {batch: -1}", "predictor.batch", ">= 1"),
    ("training: {hidden: [64, 64.5]}", "training.hidden",
     "a list of integers >= 1"),
    ("demand: {rate_veh_per_h: fast}", "demand.rate_veh_per_h",
     "a finite number > 0"),
    ("droop: {interval_s: 600.5}", "droop.interval_s", "a whole number > 0"),
    ("demand: {od_mode: table, od_table: [5]}", "demand.od_table[0]",
     "[origin node, dest node] or [origin node, dest node, weight > 0]"),
    ("compliance_rate: abc", "compliance_rate", "a finite number in [0, 1]"),
    ("seeds: []", "seeds", "a non-empty list"),
    ("seeds: [3, 0, 3]", "seeds", "a list without repeats (seed 3 repeats)"),
]


def _assert_train_rejects(path, tmp_path, capsys):
    """``evgrid train`` on ``path`` exits 1 with one ScenarioError line and
    writes no output directory."""
    rc = main(["train", "--scenario", str(path), "--method", "ppo",
               "--seeds", "0", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("ERROR ")
    assert json.loads(line[len("ERROR "):])["type"] == "ScenarioError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,key,rule", BAD_VALUES)
def test_bad_values_name_their_key_and_range(tmp_path, capsys, text, key,
                                             rule):
    path = _write(tmp_path, MINIMAL + text + "\n")
    with pytest.raises(ScenarioError,
                       match=re.escape(f"'{key}' must be {rule}, got ")):
        load_scenario(path)
    _assert_train_rejects(path, tmp_path, capsys)


def test_unknown_top_level_keys_are_named(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL + "seedz: [9]\ncompliance: 0.5\n")
    with pytest.raises(ScenarioError, match=re.escape(
            "unknown top-level keys: ['compliance', 'seedz']")):
        load_scenario(path)
    _assert_train_rejects(path, tmp_path, capsys)


def test_every_config_field_has_a_table_entry(tmp_path):
    classes = (StationSpec, DemandSpec, BatteryParams, DroopParams,
               RewardParams, PredictorConfig, TrainConfig)
    for cls in classes:
        for f in fields(cls):
            assert "rule" in f.metadata, f"{cls.__name__}.{f.name}"
    assert {f.name for f in fields(ScenarioConfig) if "rule" in f.metadata} \
        == {"seed", "compliance_rate", "seeds"}
    # building a config checks it, so every default passes its own entry
    for cls in classes[1:]:
        cls()
    cfg = replace(load_scenario(_write(tmp_path, MINIMAL)),
                  **{f.name: f.default for f in fields(ScenarioConfig)
                     if "rule" in f.metadata and f.default is not MISSING})
    # and no way of building one gets around the check
    with pytest.raises(FieldError, match=re.escape(
            "'TrainConfig.gamma' must be in [0, 1], got 1.5")):
        replace(TrainConfig(), gamma=1.5)
    with pytest.raises(FieldError, match=re.escape(
            "'ScenarioConfig.seeds' must be a non-empty list, got ()")):
        replace(cfg, seeds=())
    with pytest.raises(FieldError, match=re.escape(
            "'ScenarioConfig.seeds' must be a list without repeats "
            "(seed 1 repeats), got (1, 1)")):
        replace(cfg, seeds=(1, 1))


TABLE_OD = (evgrid.DATA_DIR / "reduced.yaml").read_text().replace(
    "  od_mode: uniform\n", "  od_mode: table\n  od_table: [[1, 2]]\n")


def test_cross_section_rules_hold_for_configs_built_in_code(tmp_path,
                                                           capsys):
    """The warm-up and OD rules tie fields of two sections; they hold for a
    config built by ``replace`` (as a sweep builds one) as for a loaded
    one, and a loaded one's message names the file."""
    assert "od_table" in TABLE_OD
    path = _write(tmp_path, TABLE_OD, "table.yaml")
    cfg = load_scenario(path)
    unreachable = "od_table[0] pair 1->5 cannot reach every station"
    with pytest.raises(ScenarioError, match=re.escape(unreachable)):
        replace(cfg, demand=replace(cfg.demand, od_table=((1, 5), (1, 2))))
    evs = _write(tmp_path, TABLE_OD.replace("[[1, 2]]", "[[1, 5], [1, 2]]"),
                 "evs.yaml")
    with pytest.raises(ScenarioError, match=re.escape(f"{evs}: {unreachable}")):
        load_scenario(evs)
    with pytest.raises(ScenarioError, match=re.escape(
            "warmup_s must cover enc_len predictor windows (6 * 240 s)")):
        replace(cfg, predictor=replace(cfg.predictor, enc_len=6))

    # the sweep rejects the value before any run starts
    out = tmp_path / "sweep"
    rc = main(["sweep", "--scenario", str(path), "--method", "greedy",
               "--sweep-axis", "ev_fraction", "--sweep-values", "0.5,0",
               "--seeds", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and '"type": "ScenarioError"' in err
    assert "demand generates no EV trip" in err and not out.exists()


def test_parse_error_reports_location(tmp_path):
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(_write(tmp_path, "stations: [\n"))


PERFBENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"

LOADER_EDGE_CASES = [
    MINIMAL.replace("name: mini", 'name: "3.5"'),       # a quoted number
    MINIMAL.replace("name: mini", "name: 1e3"),         # a string in YAML 1.1
    MINIMAL.replace("seed: 3", "seed: 1_000")
    + "training: {lr: 3.0e-4, hidden: [48, 24]}\n",
    MINIMAL + "demand: {od_mode: table, od_table: [[1, 2, 2.0], [4, 3, 1]]}\n",
    MINIMAL + "demand: {rate_veh_per_h: 1e3}\n",        # rejected: a string
    MINIMAL + "demand: {rate_veh_per_h: '600'}\n",      # rejected: quoted
]


def _load_with(loader, path, monkeypatch):
    """The config's settings and hash under ``loader``, or its error."""
    monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
    try:
        cfg = load_scenario(path)
    except ScenarioError as exc:
        return type(exc), str(exc)
    settings = [(f.name, getattr(cfg, f.name)) for f in fields(cfg)
                if f.name not in ("road_net", "power_net")]
    return repr(settings), config_hash(cfg)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML was built without libyaml (no CSafeLoader)")
def test_libyaml_and_python_loaders_give_the_same_configs(tmp_path,
                                                          monkeypatch):
    assert scenario_module._YAML_LOADER is yaml.CSafeLoader
    paths = [evgrid.DATA_DIR / "case_a.yaml", evgrid.DATA_DIR / "reduced.yaml",
             PERFBENCH_SCENARIOS / "case_a_ieee69.yaml"]
    paths += [_write(tmp_path, text, name=f"edge{i}.yaml")
              for i, text in enumerate(LOADER_EDGE_CASES)]
    results = []
    for path in paths:
        c = _load_with(yaml.CSafeLoader, path, monkeypatch)
        py = _load_with(yaml.SafeLoader, path, monkeypatch)
        assert c == py, path
        results.append(c)
    assert "'3.5'" in results[3][0] and "'1e3'" in results[4][0]
    assert "('seed', 1000)" in results[5][0] and "0.0003" in results[5][0]
    assert "((1, 2, 2.0), (4, 3, 1))" in results[6][0]
    assert results[-2][1].endswith("got '1e3'")
    assert results[-1][1].endswith("got '600'")
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", loader)
        bad = _write(tmp_path, "stations: [\n", name="bad.yaml")
        with pytest.raises(ScenarioError, match=re.escape(f"{bad}: parse error")):
            load_scenario(bad)


def test_trip_counts_and_spacing():
    cfg = load_scenario(evgrid.DATA_DIR / "case_a.yaml")
    trips = generate_trips(cfg, seed=0)
    # 600 veh/h over 4800 s
    assert len(trips) == 800
    assert sum(t.is_ev for t in trips) == 400
    assert trips[1].depart_s - trips[0].depart_s == pytest.approx(6.0)
    assert trips[-1].depart_s == pytest.approx(799 * 6.0)
    # departures within the control hour define the decision load
    control = [t for t in trips if t.is_ev and t.depart_s >= cfg.demand.warmup_s]
    assert len(control) in range(280, 320)


def test_trip_determinism_and_seed_variation():
    cfg = load_scenario(evgrid.DATA_DIR / "reduced.yaml")
    a = generate_trips(cfg, seed=5)
    b = generate_trips(cfg, seed=5)
    c = generate_trips(cfg, seed=6)
    assert a == b
    assert a != c


def _reference_trips(cfg, seed):
    """generate_trips with every origin-destination draw made by
    rng.choice(len(pairs)), the call its unweighted draws stand in for."""
    d = cfg.demand
    n = int(round(d.rate_veh_per_h * cfg.horizon_s / 3600.0))
    rng = np.random.default_rng([seed, cfg.seed])
    n_ev = int(round(d.ev_fraction * n))
    ev_flags = np.zeros(n, dtype=bool)
    ev_flags[rng.permutation(n)[:n_ev]] = True
    cv_pairs, ev_pairs = cv_feasible_pairs(cfg), ev_feasible_pairs(cfg)
    trips = []
    for vid in range(n):
        is_ev = bool(ev_flags[vid])
        pairs = ev_pairs if is_ev else cv_pairs
        o, dest = pairs[int(rng.choice(len(pairs)))]
        soc = float(rng.uniform(d.soc_init_low, d.soc_init_high)) if is_ev else 1.0
        trips.append(Trip(vid, o, dest, vid * (3600.0 / d.rate_veh_per_h),
                          is_ev, soc))
    return trips


def test_unweighted_trips_match_choice_draws():
    for name in ("reduced.yaml", "case_a.yaml"):
        cfg = load_scenario(evgrid.DATA_DIR / name)
        for seed in range(3):
            assert generate_trips(cfg, seed) == _reference_trips(cfg, seed)


def test_ev_soc_bounds_and_cv_soc():
    cfg = load_scenario(evgrid.DATA_DIR / "case_a.yaml")
    for t in generate_trips(cfg, seed=1):
        if t.is_ev:
            assert 0.30 <= t.soc_init <= 0.60
        else:
            assert t.soc_init == 1.0


def test_ev_fraction_zero_and_one(tmp_path):
    base = load_scenario(evgrid.DATA_DIR / "reduced.yaml")
    text = (evgrid.DATA_DIR / "reduced.yaml").read_text()
    assert base.demand.n_trips == len(generate_trips(base, seed=0)) == 160
    p = _write(tmp_path, text.replace("ev_fraction: 0.5", "ev_fraction: 0.0"))
    with pytest.raises(ScenarioError, match=re.escape(
            "demand generates no EV trip: need round(ev_fraction x trips) "
            ">= 1, got round(0.0 x 160)")):
        load_scenario(p)
    # the rule is on the rounded count: 0.003 x 160 rounds to 0, 1/160 to 1
    with pytest.raises(ScenarioError, match="no EV trip"):
        replace(base.demand, ev_fraction=0.003)
    one = replace(base, demand=replace(base.demand, ev_fraction=1 / 160))
    assert sum(t.is_ev for t in generate_trips(one, seed=0)) == 1
    p = _write(tmp_path, text.replace("ev_fraction: 0.5", "ev_fraction: 1.0"))
    cfg1 = load_scenario(p)
    trips = generate_trips(cfg1, seed=0)
    assert all(t.is_ev for t in trips)
    assert len(trips) == len(generate_trips(base, seed=0))


def test_ev_pairs_can_use_every_station():
    cfg = load_scenario(evgrid.DATA_DIR / "case_a.yaml")
    road = cfg.road_net
    for o, d in ev_feasible_pairs(cfg):
        for s in cfg.stations:
            assert s.node in road.reachable_from(o)
            assert d in road.reachable_from(s.node)
    trips = generate_trips(cfg, seed=2)
    pairs = set(ev_feasible_pairs(cfg))
    for t in trips:
        if t.is_ev:
            assert (t.origin, t.dest) in pairs


def test_ev_pairs_are_every_pair_routed_through_any_station():
    """``ev_feasible_pairs`` lists, in order, every (o, d) with o != d
    where o reaches every station and every station reaches d, on random
    networks that are not strongly connected and on case_a."""
    rng = np.random.default_rng(5)
    cases = [load_scenario(evgrid.DATA_DIR / "case_a.yaml")]
    for _ in range(40):
        n = int(rng.integers(2, 9))
        links = [RoadLink(lid, int(a), int(b), 100.0, 1, 10.0, 0.15)
                 for lid, (a, b) in enumerate(
                     (rng.choice(n, 2, replace=False) + 1
                      for _ in range(int(rng.integers(1, 3 * n)))), 1)]
        road = RoadNetwork({i: (float(i), 0.0) for i in range(1, n + 1)},
                           links)
        stations = [SimpleNamespace(node=int(rng.integers(1, n + 1)))
                    for _ in range(int(rng.integers(1, 4)))]
        cases.append(SimpleNamespace(road_net=road, stations=stations))
    nonempty = 0
    for cfg in cases:
        reach = cfg.road_net.reachable_from
        nodes = sorted(cfg.road_net.nodes)
        want = [(o, d) for o in nodes for d in nodes if d != o
                and all(s.node in reach(o) and d in reach(s.node)
                        for s in cfg.stations)]
        assert ev_feasible_pairs(cfg) == want
        nonempty += bool(want)
    assert 1 < nonempty < len(cases)


def test_cv_pairs_are_routable():
    cfg = load_scenario(evgrid.DATA_DIR / "reduced.yaml")
    for o, d in cv_feasible_pairs(cfg):
        assert d in cfg.road_net.reachable_from(o)
        assert o != d


def test_od_table_mode(tmp_path):
    text = (evgrid.DATA_DIR / "reduced.yaml").read_text()
    text = text.replace("od_mode: uniform",
                        "od_mode: table\n  od_table: [[1, 2, 2.0], [4, 3, 1.0]]")
    cfg = load_scenario(_write(tmp_path, text))
    trips = generate_trips(cfg, seed=0)
    assert {(t.origin, t.dest) for t in trips} <= {(1, 2), (4, 3)}
    counts = sum((t.origin, t.dest) == (1, 2) for t in trips) / len(trips)
    assert 0.55 < counts < 0.80          # weighted 2:1

    bad = text.replace("[[1, 2, 2.0], [4, 3, 1.0]]", "[[8, 3, 1.0]]")
    with pytest.raises(ScenarioError, match="not routable|cannot reach"):
        load_scenario(_write(tmp_path, bad, name="bad.yaml"))
