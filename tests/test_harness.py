"""CLI runner tests: determinism of written artifacts, also on random
scenarios, checkpoint round-trips, sweep-axis validation, manifest
provenance, percentile oracle, and exit codes."""

import json
import re
import shutil
import tempfile
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from evgrid import DATA_DIR
from evgrid.harness import (HarnessError, MetricsRecord, _parse_values,
                            apply_sweep_value, build_agent, config_hash, main,
                            percentile98, resolve_scenario, resolve_seeds,
                            run_eval, run_report, write_csv, write_metrics,
                            write_summary)
from evgrid.env import CouplingEnv, EnvError
from evgrid.nn import load_params, save_params
from evgrid.scenario import FieldError, load_scenario
from evgrid.srl import load_checkpoint, rollout, save_checkpoint

from strategies import NO_SHRINK, scenarios
from test_env import STRANDED

TINY = """
name: tinyharness
seed: 9
road_net: nguyen_dupuis
power_net: ieee33
demand:
  rate_veh_per_h: 120
  ev_fraction: 0.5
  warmup_s: 480
  control_s: 600
  od_mode: uniform
  soc_init_low: 0.30
  soc_init_high: 0.60
  soc_target: 0.80
battery: {capacity_kwh: 24.0, eta: 0.9, rho_kwh_per_km: 0.15}
droop:
  v_ref1: 0.90
  v_ref2: 0.95
  p_max_kw: 50.0
  min_fraction: 0.30
  interval_s: 600
stations:
  - {cs_id: 0, node: 6, bus: 3, piles: 3}
  - {cs_id: 1, node: 10, bus: 30, piles: 4}
reward: {w1: 0.01, r_max: 120.0, w2: 0.02, v_ref: 1.0}
compliance_rate: 1.0
predictor:
  enc_len: 2
  dec_len: 2
  window_s: 240
  hidden: 8
  layers: 1
  dropout: 0.0
  lr: 1.0e-3
  iters_per_step: 2
  batch: 8
  min_buffer: 8
  train_every: 4
  converge_window: 10
  converge_tol: 0.02
training:
  epochs: 1
  episodes_per_epoch: 2
  iters_per_epoch: 2
  batch: 32
  lr: 3.0e-4
  lambda_lr: 0.035
  gamma: 0.97
  gae_lambda: 0.95
  clip: 0.2
  entropy_coef: 0.01
  hidden: [16, 16]
  cost_budget: 0.0
  discounted_dual: false
seeds: [0, 3]
"""


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "tinyharness.yaml"
    p.write_text(TINY)
    return p


@pytest.fixture(scope="module")
def tiny_cfg(scenario_path):
    return load_scenario(scenario_path)


@pytest.fixture(scope="module")
def train_run(scenario_path, tmp_path_factory):
    """One full `train` invocation through main(), shared by several tests."""
    out = tmp_path_factory.mktemp("run") / "ppo"
    rc = main(["train", "--scenario", str(scenario_path), "--method", "ppo",
               "--seeds", "0", "--out", str(out)])
    assert rc == 0
    return out


def test_metrics_record_validation():
    counts = (8000, 6000, 300, 40)   # ticks, coasted, PF lookups, solves
    r = MetricsRecord("ppo", 0, np.float64(3.0), 0.1, 2.0, 1.0, 0.01, *counts)
    assert type(r.ttt_s) is float and r.ttt_s == 3.0
    with pytest.raises(ValueError):
        MetricsRecord("ppo", 0, -1.0, 0.1, 2.0, 1.0, 0.01, *counts)
    with pytest.raises(ValueError):
        MetricsRecord("ppo", 0, float("nan"), 0.1, 2.0, 1.0, 0.01, *counts)
    with pytest.raises(ValueError):
        MetricsRecord("ppo", 0, 3.0, 0.1, 2.0, float("inf"), 0.01, *counts)
    assert MetricsRecord("ppo", 0, 3.0, 0.1, None, 1.0, 0.01,
                         *counts).wct_min is None


def test_all_stranded_wait_time_is_an_empty_field(tmp_path):
    """An episode in which no EV finished charging writes an empty
    ``wct_min``; summary.csv and report count no defined episode."""
    p = tmp_path / "stranded.yaml"
    p.write_text(STRANDED)
    out = tmp_path / "run"
    run_eval(load_scenario(p), "greedy", [0], out)
    row = (out / "metrics.csv").read_text().splitlines()[1]
    assert row.startswith("greedy,0,") and row.endswith(",")
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[3] == "greedy,wct_min,0,,"
    run_report(out)
    report = (out / "report_metrics.csv").read_text().splitlines()
    assert report[0] == "method,metric,n_defined,mean,std"
    assert report[3] == "greedy,wct_min,0,,"


def test_summary_and_report_average_the_defined_wait_times(tmp_path):
    records = [MetricsRecord("ppo", seed, 100.0 + seed, 0.5, wct, 1.0, 0.01,
                             80, 60, 3, 1)
               for seed, wct in enumerate((3.0, None, 5.0))]
    write_metrics(tmp_path, records)
    write_summary(tmp_path, records)
    assert (tmp_path / "metrics.csv").read_text().splitlines()[2] \
        == "ppo,1,101.0,0.5,"
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[1:] == ["ppo,ttt_s,3,101.0,0.816496580927726",
                           "ppo,cvv,3,0.5,0.0", "ppo,wct_min,2,4.0,1.0"]
    write_csv(tmp_path / "steps_ppo_s0.csv",
              ["episode", "ep_seed", "step", "reward", "cost"],
              [(0, 0, 0, "0.0", "0.1")])
    run_report(tmp_path)
    report = (tmp_path / "report_metrics.csv").read_text().splitlines()
    assert report[1:] == summary[1:]


def test_percentile98_matches_sort_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 50, 333):
        vals = rng.normal(size=n)
        got = percentile98(vals)
        # linear interpolation between order statistics at rank .98*(n-1)
        s = np.sort(vals)
        pos = 0.98 * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        want = s[lo] + (pos - lo) * (s[hi] - s[lo])
        assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        percentile98([])


def test_parse_values_accepts_fractions():
    assert _parse_values("1/6,0.5, 2") == [1.0 / 6.0, 0.5, 2.0]
    with pytest.raises(ValueError):
        _parse_values(" , ")
    for text, message in (("0.5,1/0", "'1/0' divides by zero"),
                          ("2/-0.0", "'2/-0.0' divides by zero"),
                          ("inf", "'inf' is not finite"),
                          ("1, nan", "'nan' is not finite"),
                          ("1e308/1e-308", "'1e308/1e-308' is not finite"),
                          ("2,x", "'x' is not a number"),
                          ("1/2/3", "'1/2/3' is not a number")):
        with pytest.raises(HarnessError,
                           match=re.escape(f"sweep value {message}")):
            _parse_values(text)


def test_sweep_axis_replacements(tiny_cfg):
    cfg = apply_sweep_value(tiny_cfg, "ev_fraction", 1.0 / 6.0)
    assert cfg.demand.ev_fraction == pytest.approx(1.0 / 6.0)
    assert tiny_cfg.demand.ev_fraction == 0.5  # original untouched

    cfg = apply_sweep_value(tiny_cfg, "controller_interval", 5)
    assert cfg.droop.interval_s == 300.0
    cfg = apply_sweep_value(tiny_cfg, "decoder_length", 3)
    assert cfg.predictor.dec_len == 3
    cfg = apply_sweep_value(tiny_cfg, "compliance_rate", 0.25)
    assert cfg.compliance_rate == 0.25


def test_sweep_axis_validation(tiny_cfg):
    # 7 minutes does not divide the 600 s control phase
    with pytest.raises(ValueError, match="divide"):
        apply_sweep_value(tiny_cfg, "controller_interval", 7)
    # 0.025 min = 1.5 s divides it, but the droop runs on whole seconds
    with pytest.raises(ValueError, match=re.escape(
            "'DroopParams.interval_s' must be a whole number > 0, got 1.5")):
        apply_sweep_value(tiny_cfg, "controller_interval", 0.025)
    with pytest.raises(ValueError, match="unknown sweep axis"):
        apply_sweep_value(tiny_cfg, "charge_rate", 1.0)
    with pytest.raises(ValueError):
        apply_sweep_value(tiny_cfg, "ev_fraction", 1.5)
    with pytest.raises(ValueError):
        apply_sweep_value(tiny_cfg, "compliance_rate", -0.1)
    for value, rule in ((0, ">= 1, got 0"), (2.5, "an integer >= 1, got 2.5"),
                        (-1.0, ">= 1, got -1")):
        with pytest.raises(FieldError, match=re.escape(
                f"'PredictorConfig.dec_len' must be {rule}")):
            apply_sweep_value(tiny_cfg, "decoder_length", value)
    assert apply_sweep_value(tiny_cfg, "decoder_length", 3.0) \
        .predictor.dec_len == 3


def test_sweep_changes_config_hash(tiny_cfg):
    base = config_hash(tiny_cfg)
    assert base == config_hash(tiny_cfg)
    swept = apply_sweep_value(tiny_cfg, "ev_fraction", 1.0 / 6.0)
    assert config_hash(swept) != base
    assert len(base) == 64 and set(base) <= set("0123456789abcdef")


def test_config_hash_covers_every_setting_and_both_networks(tmp_path):
    reduced = (DATA_DIR / "reduced.yaml").read_text()
    base = config_hash(load_scenario(DATA_DIR / "reduced.yaml"))
    # spelling out a default or leaving it out is the same config
    text = reduced
    for line in ("  od_mode: uniform\n", "  warmup_s: 1200\n"):
        assert line in text
        text = text.replace(line, "")
    bare = tmp_path / "bare.yaml"
    bare.write_text(text)
    assert config_hash(load_scenario(bare)) == base
    # both networks' tables count, wherever their directories are
    shutil.copytree(DATA_DIR / "nguyen_dupuis", tmp_path / "roads")
    shutil.copytree(DATA_DIR / "ieee33", tmp_path / "feeder")
    moved = tmp_path / "moved.yaml"
    moved.write_text(reduced.replace("road_net: nguyen_dupuis",
                                     "road_net: roads")
                     .replace("power_net: ieee33", "power_net: feeder"))
    assert config_hash(load_scenario(moved)) == base
    for table, old, new in (
            ("roads/links.csv", "\n1,1,5,1200,", "\n1,1,5,1250,"),
            ("feeder/lines.csv", "\n1,2,0.0922,", "\n1,2,0.0923,"),
            ("feeder/buses.csv", "base_kv=12.66", "base_kv=12.5")):
        path = tmp_path / table
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        assert config_hash(load_scenario(moved)) != base, table
        path.write_text(text)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(cfg=scenarios())
def test_config_hash_tells_configs_built_in_code_apart(cfg):
    assert config_hash(replace(cfg)) == config_hash(cfg)
    assert config_hash(replace(cfg, compliance_rate=0.25)) != config_hash(cfg)
    assert config_hash(replace(cfg, seeds=(0, 1))) != config_hash(cfg)


def test_resolve_seeds(tiny_cfg, tmp_path):
    assert resolve_seeds(Namespace(seeds="4,7"), tiny_cfg) == [4, 7]
    assert resolve_seeds(Namespace(seeds="4, 7"), tiny_cfg) == [4, 7]
    for text, why in (("0,,x", "a seed is empty"),
                      ("0,", "a seed is empty"),
                      ("0,x", "seed 'x' is not an integer"),
                      ("1.5", "seed '1.5' is not an integer"),
                      ("0, -3", "seed '-3' must be >= 0")):
        with pytest.raises(HarnessError,
                           match=re.escape(f"--seeds '{text}': {why}")):
            resolve_seeds(Namespace(seeds=text), tiny_cfg)
    assert resolve_seeds(Namespace(seeds=""), tiny_cfg) == [0, 3]
    bare = tmp_path / "bare.yaml"
    bare.write_text(TINY.replace("seeds: [0, 3]\n", ""))
    assert resolve_seeds(Namespace(seeds=""), load_scenario(bare)) \
        == [0, 1, 2, 3, 4]


def test_resolve_scenario_names(scenario_path):
    assert resolve_scenario(scenario_path) == scenario_path
    assert resolve_scenario("reduced") == DATA_DIR / "reduced.yaml"
    assert resolve_scenario("reduced.yaml") == DATA_DIR / "reduced.yaml"
    with pytest.raises(ValueError, match="neither"):
        resolve_scenario("no_such_scenario")


def test_eval_rerun_byte_identical(tiny_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_eval(tiny_cfg, "greedy", [2, 5], a)
    run_eval(tiny_cfg, "greedy", [2, 5], b)
    for name in ("metrics.csv", "summary.csv", "steps_greedy_s2.csv",
                 "minutes_greedy_s5.csv", "droop_greedy_s2.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # timing.csv exists but is allowed to differ between runs
    assert (a / "timing.csv").exists()
    header = (a / "metrics.csv").read_text().splitlines()[0]
    assert header == "method,seed,ttt_s,cvv,wct_min"


@settings(derandomize=True, max_examples=20, deadline=None,
          phases=NO_SHRINK)
@given(cfg=scenarios(), seed=st.integers(0, 50))
def test_random_scenarios_rerun_and_round_trip(cfg, seed):
    """Per random scenario: a greedy rerun writes the same bytes, and a
    ppo checkpoint loaded into an agent built with another seed has the
    same parameters, bit for bit, and the same greedy actions."""
    env = CouplingEnv(cfg)
    try:
        env.reset(seed)
    except EnvError:
        return                      # no control-phase charging request
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        run_eval(cfg, "greedy", [seed], a, trace=True)
        run_eval(cfg, "greedy", [seed], b, trace=True)
        names = sorted(p.name for p in a.glob("*.csv"))
        assert names == sorted(p.name for p in b.glob("*.csv"))
        assert f"trace_greedy_s{seed}.csv" in names
        for name in names:
            if name != "timing.csv":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

        agent, _ = build_agent(cfg, env, "ppo", seed=seed)
        other, _ = build_agent(cfg, env, "ppo", seed=seed + 1)
        path = Path(tmp) / "ppo.bin"
        save_checkpoint(path, agent)
        load_checkpoint(path, other)
    want, got = agent.param_dict(), other.param_dict()
    assert list(want) == list(got)
    for key in want:
        assert np.array_equal(want[key].view(np.int64),
                              got[key].view(np.int64)), key
    ep = rollout(env, agent.act_greedy, seed)
    assert [other.act_greedy(s) for s in ep.states] == ep.actions.tolist()


def test_compliance_zero_matches_greedy(tiny_cfg, tmp_path):
    env = CouplingEnv(tiny_cfg)
    agent, predictor = build_agent(tiny_cfg, env, "ppo")
    ckpt = tmp_path / "fresh.bin"
    save_checkpoint(ckpt, agent, predictor)
    run_eval(apply_sweep_value(tiny_cfg, "compliance_rate", 0.0), "ppo", [4],
             tmp_path / "agent", checkpoint=ckpt)
    run_eval(tiny_cfg, "greedy", [4], tmp_path / "greedy")
    got = (tmp_path / "agent" / "metrics.csv").read_text()
    want = (tmp_path / "greedy" / "metrics.csv").read_text()
    assert got.replace("ppo", "greedy") == want


def test_eval_requires_checkpoint(tiny_cfg, tmp_path):
    with pytest.raises(ValueError, match="checkpoint"):
        run_eval(tiny_cfg, "ppo", [0], tmp_path)


def test_train_run_artifacts(train_run):
    assert (train_run / "checkpoint_ppo_s0.bin").exists()
    curve = (train_run / "training_curve_ppo_s0.csv").read_text().splitlines()
    assert curve[0] == "epoch,mean_ttt,mean_cvv,lambda,predictor_loss"
    assert len(curve) == 2  # one epoch
    metrics = (train_run / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 2 and metrics[1].startswith("ppo,0,")
    timing = (train_run / "timing.csv").read_text().splitlines()
    assert timing[0] == ("method,seed,et_s,dt_mean_s,ticks,ticks_coasted,"
                         "pf_lookups,pf_solves")
    _, _, et, _, ticks, coasted, lookups, solves = timing[1].split(",")
    assert float(et) > 0
    assert 0 < int(coasted) < int(ticks)
    assert int(lookups) > 0 and 0 <= int(solves) <= int(lookups)
    summary = (train_run / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,metric,n_seeds,mean,std"
    assert len(summary) == 4  # ttt/cvv/wct for one method


def last_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("ERROR ")
    return json.loads(err[len("ERROR "):])


def test_eval_rejects_another_methods_checkpoint(train_run, scenario_path,
                                                 tiny_cfg, tmp_path, capsys):
    ppo = train_run / "checkpoint_ppo_s0.bin"
    opsrl = tmp_path / "opsrl.bin"
    save_checkpoint(opsrl, *build_agent(tiny_cfg, CouplingEnv(tiny_cfg),
                                        "opsrl"))
    entries = load_params(ppo)
    untagged = tmp_path / "untagged.bin"
    save_params(untagged, {k: v for k, v in entries.items()
                           if k not in ("meta.method", "meta.state_dim",
                                        "meta.action_dim", "meta.pad_width")})
    extra = tmp_path / "extra.bin"
    save_params(extra, {**entries, "junk.w0": np.zeros(2)})

    def tagged(method, pad=0):
        return f"'{method}' (state dim 42, action dim 2, pad width {pad})"

    for method, checkpoint, message in (
            ("dqn", ppo, f"checkpoint was saved for {tagged('ppo')}, "
                         f"not {tagged('dqn')}"),
            ("ppolag", opsrl, f"checkpoint was saved for {tagged('opsrl', 4)}"
                              f", not {tagged('ppolag', 4)}"),
            ("reinforce", ppo, f"checkpoint was saved for {tagged('ppo')}, "
                               f"not {tagged('reinforce')}"),
            ("ppo", untagged, "checkpoint predates method tags; "
                              "train it again"),
            ("ppo", extra, "checkpoint has entries the target does not use: "
                           "junk.w0")):
        rc = main(["eval", "--scenario", str(scenario_path), "--method",
                   method, "--checkpoint", str(checkpoint), "--seeds", "0",
                   "--out", str(tmp_path / "ev")])
        assert rc == 1, (method, checkpoint.name)
        assert last_error(capsys) == {"type": "ValueError",
                                      "message": message}


def test_manifest_provenance(train_run, tiny_cfg):
    doc = json.loads((train_run / "manifest.json").read_text())
    assert doc["scenario"] == "tinyharness"
    assert doc["config_sha256"] == config_hash(tiny_cfg)
    assert doc["seeds"] == [0]
    assert doc["build"]["package"]
    assert doc["build"]["numpy"] == np.__version__
    assert "created_utc" in doc


def test_report_from_run(train_run):
    rc = main(["report", "--out", str(train_run)])
    assert rc == 0
    curve = (train_run / "report_training_curve.csv").read_text().splitlines()
    assert curve[0] == ("method,epoch,mean_ttt,mean_cvv,lambda,"
                        "predictor_loss")
    # single seed: the mean curve equals the per-seed curve
    per_seed = (train_run / "training_curve_ppo_s0.csv").read_text()
    assert curve[1].split(",")[2] == per_seed.splitlines()[1].split(",")[1]

    pct = (train_run / "report_cost_percentiles.csv").read_text().splitlines()
    assert pct[0] == "method,n_samples,p98"
    method, n, p98 = pct[1].split(",")
    _, steps = method, (train_run / "steps_ppo_s0.csv").read_text()
    costs = [float(r.split(",")[4]) for r in steps.splitlines()[1:]]
    assert int(n) == len(costs)
    assert float(p98) == pytest.approx(percentile98(costs), abs=1e-12)
    for name in ("report_power.csv", "report_occupancy.csv",
                 "report_cost_distribution.csv"):
        assert (train_run / name).exists()


def test_report_curve_mean_is_per_column(tmp_path):
    # From 8 seeds up, np.mean(rows, axis=0) can differ in the last bit
    # from per-column means; the report keeps the per-column ones.
    rng = np.random.default_rng(31)
    header = ["epoch", "mean_ttt", "mean_cvv", "lambda", "predictor_loss"]
    curves = {}
    for seed in range(9):
        rows = [[e, *(rng.lognormal(s, 1.0) for s in (8.0, -3.0, -1.0, 0.0))]
                for e in range(3)]
        curves[seed] = rows
        write_csv(tmp_path / f"training_curve_ppo_s{seed}.csv", header,
                  [(e, *map(repr, vals)) for e, *vals in rows])
    run_report(tmp_path)
    want = []
    for e in range(3):
        vals = [curves[seed][e][1:] for seed in range(9)]
        want.append(("ppo", e, *(repr(float(np.mean([v[j] for v in vals])))
                                 for j in range(4))))
    write_csv(tmp_path / "want" / "report.csv", ["method", *header], want)
    assert (tmp_path / "report_training_curve.csv").read_bytes() \
        == (tmp_path / "want" / "report.csv").read_bytes()


def test_report_missing_dir(tmp_path):
    with pytest.raises(ValueError, match="artifacts"):
        run_report(tmp_path)  # exists but empty
    with pytest.raises(ValueError, match="does not exist"):
        run_report(tmp_path / "nope")


def test_main_sweep_and_errors(scenario_path, tmp_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", "--scenario", str(scenario_path), "--method",
               "greedy", "--sweep-axis", "ev_fraction", "--sweep-values",
               "1/6", "--seeds", "1", "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep_summary.csv").read_text().splitlines()
    assert rows[0] == "axis,value,method,seed,ttt_s,cvv,wct_min"
    assert rows[1].startswith("ev_fraction,0.16666666666666666,greedy,1,")
    subdirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(subdirs) == 1 and (subdirs[0] / "metrics.csv").exists()
    sub_doc = json.loads((subdirs[0] / "manifest.json").read_text())
    top_doc = json.loads((out / "manifest.json").read_text())
    assert sub_doc["config_sha256"] != top_doc["config_sha256"]

    rc = main(["eval", "--scenario", "missing_scenario", "--method",
               "greedy", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert last_error(capsys)["type"] == "HarnessError"

    dec_len = "'PredictorConfig.dec_len' must be an integer >= 1, got 2.5"
    for axis, values, seeds, error, message in (
            ("ev_fraction", "1/0", "1", "HarnessError",
             "sweep value '1/0' divides by zero"),
            ("ev_fraction", "1/6", "0,,x", "HarnessError",
             "--seeds '0,,x': a seed is empty"),
            ("decoder_length", "2.5", "0", "FieldError", dec_len),
            ("decoder_length", "2,2.5", "0", "FieldError", dec_len)):
        rc = main(["sweep", "--scenario", str(scenario_path), "--method",
                   "greedy", "--sweep-axis", axis, "--sweep-values",
                   values, "--seeds", seeds, "--out", str(tmp_path / "z")])
        assert rc == 1
        assert last_error(capsys) == {"type": error, "message": message}
    # a bad value fails the sweep before any value runs
    assert not (tmp_path / "z").exists()
    rc = main(["sweep", "--scenario", str(scenario_path), "--method",
               "greedy", "--sweep-axis", "controller_interval",
               "--sweep-values", "1,0.025", "--seeds", "0",
               "--out", str(tmp_path / "w")])
    assert rc == 1
    assert last_error(capsys)["message"] == \
        "'DroopParams.interval_s' must be a whole number > 0, got 1.5"
    assert not (tmp_path / "w").exists()

    rc = main(["sweep", "--scenario", str(scenario_path), "--method",
               "greedy", "--sweep-axis", "controller_interval",
               "--sweep-values", "7", "--seeds", "0",
               "--out", str(tmp_path / "y")])
    assert rc == 1
