"""End-to-end acceptance gate.

Eleven checks with pinned tolerances, one visible verdict line each
(printed past pytest's capture so the gate reads as a checklist). The
directional training check retrains three methods on the bundled reduced
scenario and is the long pole; everything else is seconds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import evgrid
from evgrid.charging import BatteryParams, ChargingStation, DroopParams, droop_power
from evgrid.env import CouplingEnv, greedy_station
from evgrid.harness import apply_sweep_value, build_agent, run_eval
from evgrid.nn import LSTM, DenseNet
from evgrid.power import load_power_network, min_voltage, solve_power_flow
from evgrid.predictor import (PredictorBuffer, Seq2SeqForecaster,
                              convergence_check)
from evgrid.scenario import PredictorConfig, TrainConfig, load_scenario
from evgrid.srl import (EpisodeData, LagrangePPOAgent, compute_gae,
                        ppo_update, save_checkpoint, train)
from evgrid.traffic import DRIVE_CS, Vehicle

from oracles import finite_difference_grad, rel_grad_error, sweep_power_flow

BASE_MVA = 10.0
BASE_KV = 12.66

TINY = """
name: tinyaccept
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
seeds: [0]
"""


def verdict(capsys, n, ok, msg):
    with capsys.disabled():
        print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {msg}",
              flush=True)
    assert ok, msg


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("acc") / "tinyaccept.yaml"
    p.write_text(TINY)
    return load_scenario(p)


@pytest.fixture(scope="module")
def reduced_cfg():
    return load_scenario(evgrid.DATA_DIR / "reduced.yaml")


def test_c01_power_flow_accuracy_and_speed(capsys):
    net = load_power_network(evgrid.DATA_DIR / "ieee33")
    sol = solve_power_flow(net)
    buses = [(b.bus_id, b.kind, b.p_base_kw, b.q_base_kvar) for b in net.buses]
    lines = [(l.from_bus, l.to_bus, l.r_ohm, l.x_ohm) for l in net.lines]
    oracle = sweep_power_flow(buses, lines, BASE_MVA, BASE_KV)
    oracle_min = min(abs(v) for v in oracle.values())
    dv = abs(min_voltage(sol) - oracle_min)
    best_ms = min(_timed_solve(net) for _ in range(5))
    ok = (sol.max_mismatch_pu < 1e-8 and sol.iterations <= 10
          and dv < 1e-4 and best_ms < 50.0)
    verdict(capsys, 1, ok,
            f"33-bus residual={sol.max_mismatch_pu:.2e} (<1e-8), "
            f"iters={sol.iterations} (<=10), |minV-oracle|={dv:.2e} (<1e-4), "
            f"solve={best_ms:.1f} ms (<50)")


def _timed_solve(net):
    t0 = time.perf_counter()
    solve_power_flow(net)
    return (time.perf_counter() - t0) * 1e3


def test_c02_droop_exact_values(capsys):
    d = DroopParams()
    errs = (abs(droop_power(0.88, d) - 15.0),
            abs(droop_power(0.925, d) - 32.5),
            abs(droop_power(0.97, d) - 50.0))
    ok = all(e <= 1e-12 for e in errs)
    verdict(capsys, 2, ok,
            f"droop 15/32.5/50 kW errors={tuple(f'{e:.1e}' for e in errs)} "
            f"(<=1e-12)")


def test_c03_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(33)
    worst_dense = 0.0
    for _ in range(50):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 7)) for _ in range(depth + 1)]
        net = DenseNet(sizes, rng)
        x = rng.normal(size=(int(rng.integers(1, 4)), sizes[0]))
        proj = rng.normal(size=(x.shape[0], sizes[-1]))
        _, cache = net.forward(x)
        grads, _ = net.backward(cache, proj)
        params = net.param_dict()
        for name in params:
            def loss(vec, name=name):
                saved = params[name].copy()
                params[name][...] = vec.reshape(params[name].shape)
                o, _ = net.forward(x)
                params[name][...] = saved
                return float((proj * o).sum())
            num = finite_difference_grad(loss, params[name].ravel())
            worst_dense = max(worst_dense, rel_grad_error(grads[name], num))

    worst_lstm = 0.0
    for _ in range(50):
        layers = int(rng.integers(1, 3))
        hidden = int(rng.integers(2, 6))
        d_in = int(rng.integers(1, 5))
        T = int(rng.integers(1, 4))
        batch = int(rng.integers(1, 3))
        net = LSTM(d_in, hidden, layers, 0.0, rng)
        seq = rng.normal(size=(T, batch, d_in))
        proj = rng.normal(size=(T, batch, hidden))
        out, (h, c), cache = net.forward(seq)
        grads, _ = net.backward(cache, proj)
        params = net.param_dict()
        for name in params:
            def loss(vec, name=name):
                saved = params[name].copy()
                params[name][...] = vec.reshape(params[name].shape)
                o, _, _ = net.forward(seq)
                params[name][...] = saved
                return float((proj * o).sum())
            num = finite_difference_grad(loss, params[name].ravel())
            worst_lstm = max(worst_lstm, rel_grad_error(grads[name], num))

    ok = worst_dense < 1e-4 and worst_lstm < 1e-4
    verdict(capsys, 3, ok,
            f"50 random configs each: dense max rel err={worst_dense:.2e}, "
            f"lstm={worst_lstm:.2e} (<1e-4)")


def test_c04_gae_matches_double_sum(capsys):
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        T = 20
        r = rng.normal(size=T)
        v = rng.normal(size=T + 1)
        gamma = float(rng.uniform(0.5, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        fast = compute_gae(r, v, gamma, lam)
        delta = r + gamma * v[1:] - v[:-1]
        slow = np.array([sum((gamma * lam) ** l * delta[t + l]
                             for l in range(T - t)) for t in range(T)])
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    ok = worst <= 1e-10
    verdict(capsys, 4, ok,
            f"100 random 20-step trajectories, max |recursive - double sum|"
            f"={worst:.2e} (<=1e-10)")


def _full_episode(cfg, seed, policy):
    env = CouplingEnv(cfg)
    state = env.reset(seed)
    while True:
        out = env.apply_action(policy(state, env))
        if out.terminal:
            return env, env.episode_metrics()
        state = out.state


def test_c05_travel_time_duality(capsys, reduced_cfg, tiny_cfg):
    pol_greedy = lambda s, env: greedy_station(env.road, env.stations,
                                               env.pending_vehicle.origin)
    rng = np.random.default_rng(7)
    pol_random = lambda s, env: int(rng.integers(env.action_dim))
    pairs = [_full_episode(reduced_cfg, 0, pol_greedy)[1],
             _full_episode(tiny_cfg, 1, pol_random)[1],
             _full_episode(tiny_cfg, 2, pol_greedy)[1]]
    gaps = [abs(m.ttt_s - m.ttt_tick_s) for m in pairs]
    ok = all(m.ttt_s == m.ttt_tick_s for m in pairs)
    verdict(capsys, 5, ok,
            f"per-vehicle vs tick-counted total travel time equal on "
            f"{len(pairs)} episodes (gaps={gaps})")


def test_c06_energy_ledger(capsys, reduced_cfg):
    env, _ = _full_episode(
        reduced_cfg, 3,
        lambda s, e: greedy_station(e.road, e.stations,
                                    e.pending_vehicle.origin))
    cap = reduced_cfg.battery.capacity_kwh
    evs = [v for v in env.completed if v.is_ev]
    worst = max(abs(cap * (v.soc - v.soc_init)
                    - (v.charged_kwh - v.driven_kwh)) for v in evs)
    ok = len(evs) > 0 and worst <= 1e-9
    verdict(capsys, 6, ok,
            f"{len(evs)} completed EVs, worst ledger gap={worst:.2e} kWh "
            f"(<=1e-9)")


def _synth_episode(agent, rng, T, cost, dim):
    S, A, LP, R, C, VR, VC = [], [], [], [], [], [], []
    for t in range(T):
        s = rng.normal(size=dim)
        a, lp, vr, vc = agent.act(s, rng)
        S.append(s); A.append(a); LP.append(lp)
        R.append(rng.normal()); C.append(cost)
        VR.append(vr); VC.append(vc)
    return EpisodeData(np.array(S), np.array(A, dtype=int), np.array(LP),
                       np.array(R), np.array(C), np.array(VR), np.array(VC),
                       None)


def test_c07_lagrange_multiplier_dynamics(capsys):
    tc = TrainConfig(hidden=(8, 8), iters_per_epoch=2, lambda_lr=0.035)
    agent = LagrangePPOAgent(4, 3, tc, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    cost = 0.25
    T = 4                      # constant cost: J_c = 1.0 every epoch
    lam_path, worst = [], 0.0
    expect = 0.0
    for _ in range(6):
        eps = [_synth_episode(agent, rng, T, cost, 4) for _ in range(3)]
        ppo_update(agent, eps, np.random.default_rng(3))
        expect += 0.035 * (T * cost)
        worst = max(worst, abs(agent.lam - expect))
        lam_path.append(agent.lam)
    increments_ok = worst <= 1e-12 and all(l >= 0.0 for l in lam_path)

    # large budget drives the update negative; the multiplier must clamp at 0
    tc2 = replace(tc, cost_budget=100.0)
    agent2 = LagrangePPOAgent(4, 3, tc2, np.random.default_rng(4))
    for _ in range(3):
        eps = [_synth_episode(agent2, rng, T, cost, 4) for _ in range(2)]
        ppo_update(agent2, eps, np.random.default_rng(5))
        increments_ok = increments_ok and agent2.lam == 0.0
    verdict(capsys, 7, increments_ok,
            f"lambda += 0.035*J_c per epoch (max err={worst:.1e} <=1e-12), "
            f"clamped at 0 under negative drive")


def test_c08_charging_time_oracle(capsys):
    bat = BatteryParams(capacity_kwh=24.0, eta=0.9)
    cs = ChargingStation(0, 5, 18, piles=1)
    v = Vehicle(0, 1, 2, 0.0, is_ev=True, soc=0.5, soc_target=0.8)
    v.phase = DRIVE_CS
    cs.submit_arrival(v, 0.0)
    t, ticks = 0.0, 0
    while v.t_charge_end is None and ticks < 1000:
        t += 10.0
        ticks += 1
        cs.update_charging(10.0, 50.0, bat, t)
    ok = ticks == 58 and v.t_charge_end == 580.0
    verdict(capsys, 8, ok,
            f"50%->80% at 50 kW, 24 kWh, eta 0.9, 10 s ticks: "
            f"{ticks} ticks, end={v.t_charge_end} s (== 580 exactly)")


@pytest.mark.slow
def test_c09_directional_training_check(capsys, reduced_cfg):
    """Three methods, three bundled seeds, 100 epochs on the reduced
    scenario. The constrained method must end with lower voltage cost than
    unconstrained PPO, and the forecast-augmented method must match or beat
    it on travel time once its predictor has frozen."""
    cfg = reduced_cfg
    seeds = list(cfg.seeds)
    curves = {}
    t0 = time.perf_counter()
    for method in ("ppo", "ppolag", "opsrl"):
        for seed in seeds:
            curves[(method, seed)] = train(cfg, method, seed).curve
    runtime = time.perf_counter() - t0

    def seed_mean(method, key):
        return np.array([[row[key] for row in curves[(method, s)]]
                         for s in seeds]).mean(axis=0)

    cvv_ppo = seed_mean("ppo", "mean_cvv")[-1]
    cvv_lag = seed_mean("ppolag", "mean_cvv")[-1]

    # matched epochs start once every seed's predictor loss has frozen
    freeze = []
    for s in seeds:
        ploss = [row["predictor_loss"] for row in curves[("opsrl", s)]]
        final = ploss[-1]
        freeze.append(next(e for e in range(len(ploss))
                           if all(p == final for p in ploss[e:])))
    start = max(freeze)
    ttt_op = seed_mean("opsrl", "mean_ttt")[start:]
    ttt_lag = seed_mean("ppolag", "mean_ttt")[start:]

    ok = (cvv_lag < cvv_ppo and len(ttt_op) > 0
          and ttt_op.mean() <= ttt_lag.mean() and runtime < 45 * 60)
    verdict(capsys, 9, ok,
            f"final CVV ppolag={cvv_lag:.3f} < ppo={cvv_ppo:.3f}; "
            f"post-convergence (epochs {start}+) mean TTT "
            f"opsrl={ttt_op.mean():.0f} <= ppolag={ttt_lag.mean():.0f}; "
            f"runtime={runtime/60:.1f} min (<45)")


def test_c10_predictor_beats_mean_baseline(capsys):
    pattern = np.array([[1.0, 6.0], [3.0, 2.0], [7.0, 0.0], [3.0, 2.0]])
    demands = [pattern[w % 4] for w in range(140)]
    windows = [(np.asarray(d, dtype=float), np.asarray(d, dtype=float))
               for d in demands]
    buf = PredictorBuffer(enc_len=4, dec_len=2)
    while buf.add_next(windows):
        pass
    cfg = PredictorConfig(enc_len=4, dec_len=2, hidden=24, layers=1,
                          dropout=0.0, lr=3e-3, batch=32, iters_per_step=20)
    f = Seq2SeqForecaster(2, 2, cfg, np.random.default_rng(11))
    for _ in range(80):
        f.train_step(buf)
        if convergence_check(f.losses):
            break
    targets = np.stack(buf.targets)
    baseline = float(np.mean((targets - targets.mean(axis=(0, 1))) ** 2))
    smooth = np.convolve(f.losses[:5], [0.5, 0.5], mode="valid")
    ok = (convergence_check(f.losses) and f.losses[-1] < baseline
          and np.all(np.diff(smooth) < 0))
    verdict(capsys, 10, ok,
            f"periodic demand: converged MSE={f.losses[-1]:.2e} < "
            f"variance baseline={baseline:.2f}; smoothed first-5 losses "
            f"decreasing={bool(np.all(np.diff(smooth) < 0))}")


def test_c11_determinism_and_compliance_zero(capsys, tiny_cfg, tmp_path):
    env = CouplingEnv(tiny_cfg)
    agent, predictor = build_agent(tiny_cfg, env, "ppo")
    ckpt = tmp_path / "agent.bin"
    save_checkpoint(ckpt, agent, predictor)

    a, b = tmp_path / "a", tmp_path / "b"
    run_eval(tiny_cfg, "ppo", [4], a, checkpoint=ckpt)
    run_eval(tiny_cfg, "ppo", [4], b, checkpoint=ckpt)
    rerun_same = ((a / "metrics.csv").read_bytes()
                  == (b / "metrics.csv").read_bytes())

    c0, gr = tmp_path / "c0", tmp_path / "gr"
    run_eval(apply_sweep_value(tiny_cfg, "compliance_rate", 0.0), "ppo", [4],
             c0, checkpoint=ckpt)
    run_eval(tiny_cfg, "greedy", [4], gr)
    payload_same = all(
        (c0 / f"{stem}_ppo_s4.csv").read_bytes()
        == (gr / f"{stem}_greedy_s4.csv").read_bytes()
        for stem in ("steps", "minutes", "droop"))
    label_sub = ((c0 / "metrics.csv").read_text().replace("ppo", "greedy")
                 == (gr / "metrics.csv").read_text())

    ok = rerun_same and payload_same and label_sub
    verdict(capsys, 11, ok,
            f"re-run metrics byte-identical={rerun_same}; compliance-0 "
            f"episode payloads byte-match greedy={payload_same}, metrics "
            f"match up to the method label={label_sub}")
