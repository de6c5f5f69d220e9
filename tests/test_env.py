"""Environment tests: rewards, costs, duality, compliance, determinism."""

import math

import numpy as np
import pytest

import evgrid
from evgrid.env import (CouplingEnv, EnvError, greedy_station, segment_cost,
                        segment_reward)
from evgrid.power import load_power_network, solve_power_flow
from evgrid.scenario import RewardParams, generate_trips, load_scenario

TINY = """\
name: tiny
seed: 11
road_net: nguyen_dupuis
power_net: ieee33
stations:
  - {cs_id: 0, node: 6, bus: 18, piles: 3}
  - {cs_id: 1, node: 10, bus: 30, piles: 3}
demand:
  rate_veh_per_h: 120
  ev_fraction: 0.5
  warmup_s: 600
  control_s: 600
predictor:
  enc_len: 2
  dec_len: 2
"""

# sub-second departure spacing so two control requests share a tick
BURST = """\
name: burst
seed: 4
road_net: nguyen_dupuis
power_net: ieee33
stations:
  - {cs_id: 0, node: 6, bus: 2, piles: 200}
  - {cs_id: 1, node: 10, bus: 19, piles: 200}
demand:
  rate_veh_per_h: 4800
  ev_fraction: 1.0
  warmup_s: 240
  control_s: 10
  soc_init_low: 0.78
  soc_init_high: 0.79
predictor:
  enc_len: 1
  dec_len: 1
"""

# three stations on three buses, for splitting one charging count over buses
THREE = TINY.replace(
    "  - {cs_id: 1, node: 10, bus: 30, piles: 3}\n",
    "  - {cs_id: 1, node: 10, bus: 30, piles: 3}\n"
    "  - {cs_id: 2, node: 3, bus: 25, piles: 3}\n")


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("scn") / "tiny.yaml"
    p.write_text(TINY)
    return load_scenario(p)


def run_episode(env, seed, policy):
    state = env.reset(seed)
    outcomes = []
    while True:
        out = env.apply_action(policy(state, env))
        outcomes.append(out)
        if out.terminal:
            return outcomes, env.episode_metrics()
        state = out.state


def random_policy(rng):
    return lambda state, env: int(rng.integers(env.action_dim))


def greedy_policy(state, env):
    return greedy_station(env.road, env.stations, env.pending_vehicle.origin)


def test_segment_reward_branches():
    rp = RewardParams()
    assert segment_reward([80, 80, 80], 0, False, rp) == pytest.approx(0.4)
    assert segment_reward([0, 0], 0, False, rp) == pytest.approx(1.2)
    # zero-length segment falls back to the last counted tick
    assert segment_reward([], 30, False, rp) == pytest.approx(0.9)
    # final segment scales the count-time integral instead of averaging
    assert segment_reward([100] * 50, 0, True, rp) == pytest.approx(0.2)


def test_segment_cost_base_case_and_peak_selection():
    net = load_power_network(evgrid.DATA_DIR / "ieee33")
    solve = lambda loads: solve_power_flow(net, loads)
    idle = segment_cost([(0.0, {})], solve)
    assert idle == pytest.approx(0.051544, abs=1e-6)

    c200 = segment_cost([(200.0, {30: 200.0})], solve)
    c400 = segment_cost([(400.0, {30: 400.0})], solve)
    assert idle < c200 < c400
    # the max-total sample decides the cost, first one on ties
    mixed = segment_cost([(200.0, {30: 200.0}), (400.0, {30: 400.0}),
                          (300.0, {30: 300.0})], solve)
    assert mixed == c400
    tied = segment_cost([(200.0, {30: 200.0}), (200.0, {18: 200.0})], solve)
    assert tied == c200


def test_peak_ties_are_exact_and_keep_the_earliest(tmp_path):
    """Two instants with the same charging count split differently over
    buses tie exactly, and both the step cost and the droop update use the
    earlier one, even where float sums of the per-bus kW differ."""
    p = tmp_path / "three.yaml"
    p.write_text(THREE)
    env = CouplingEnv(load_scenario(p))
    env.reset(0)

    def sample(counts):
        for cs, k in zip(env.stations, counts):
            cs.charging = [None] * k
        return env._load_sample()

    rng = np.random.default_rng(0)
    for _ in range(1000):
        env._setpoint = float(rng.uniform(15.0, 50.0))
        first, second = sample((5, 7, 3)), sample((7, 3, 5))
        if sum(first[1].values()) != sum(second[1].values()):
            break
    else:
        pytest.fail("no setpoint separates the per-bus float sums")
    assert first[0] == second[0]
    assert first[1] != second[1]

    solved = []

    def solve(loads):
        solved.append(loads)
        return solve_power_flow(env.power, loads)

    segment_cost([first, second], solve)
    env._solve = solve
    env._interval_samples = [first, second]
    env._update_droop()
    assert solved == [first[1], first[1]]


def test_reset_state_and_history(tiny_cfg):
    env = CouplingEnv(tiny_cfg)
    state = env.reset(0)
    assert state.shape == (env.state_dim,)
    assert env.state_dim == 5 + 19 + 9 * 2
    assert np.all(np.isfinite(state))
    assert np.all(state[:4] >= 0) and np.all(state[:4] <= 1)
    veh = env.pending_vehicle
    assert veh.is_ev and veh.depart_s >= tiny_cfg.demand.warmup_s
    assert state[4] == pytest.approx(veh.soc)
    # one history row per simulated minute of warm-up
    assert len(env.minute_log) == 10
    assert [row[0] for row in env.minute_log] == [60 * k for k in range(1, 11)]


def test_reset_without_control_requests(tmp_path):
    p = tmp_path / "noev.yaml"
    p.write_text(TINY.replace("ev_fraction: 0.5", "ev_fraction: 0.0"))
    cfg = load_scenario(p)
    with pytest.raises(EnvError, match="no control-phase"):
        CouplingEnv(cfg).reset(0)


def test_step_count_matches_control_requests(tiny_cfg):
    env = CouplingEnv(tiny_cfg)
    _, metrics = run_episode(env, 3, random_policy(np.random.default_rng(0)))
    expected = sum(1 for t in generate_trips(tiny_cfg, 3)
                   if t.is_ev and math.ceil(t.depart_s) >= tiny_cfg.demand.warmup_s)
    assert metrics.n_steps == expected
    assert metrics.n_completed == len(generate_trips(tiny_cfg, 3))
    assert metrics.n_stranded == 0


def test_ttt_duality_and_energy_ledger(tiny_cfg):
    env = CouplingEnv(tiny_cfg)
    _, metrics = run_episode(env, 5, random_policy(np.random.default_rng(1)))
    assert metrics.ttt_s == metrics.ttt_tick_s
    cap = tiny_cfg.battery.capacity_kwh
    for veh in env.completed:
        if veh.is_ev:
            ledger = veh.charged_kwh - veh.driven_kwh
            assert cap * (veh.soc - veh.soc_init) == pytest.approx(ledger, abs=1e-9)


def test_timestamps_monotone(tiny_cfg):
    env = CouplingEnv(tiny_cfg)
    run_episode(env, 7, random_policy(np.random.default_rng(2)))
    for veh in env.completed:
        if veh.is_ev:
            assert (veh.depart_s <= veh.t_cs_arrive <= veh.t_charge_start
                    <= veh.t_charge_end <= veh.t_done)
        else:
            assert veh.t_done > veh.depart_s


def test_reward_and_cost_bounds(tiny_cfg):
    env = CouplingEnv(tiny_cfg)
    outs, metrics = run_episode(env, 9, random_policy(np.random.default_rng(3)))
    rp = tiny_cfg.reward
    for out in outs:
        assert out.reward <= rp.w1 * rp.r_max + 1e-12
        assert out.cost >= 0.0
    assert metrics.cvv == pytest.approx(sum(o.cost for o in outs))
    assert sum(o.terminal for o in outs) == 1 and outs[-1].terminal


def test_determinism(tiny_cfg):
    runs = []
    for _ in range(2):
        env = CouplingEnv(tiny_cfg, trace=True)
        outs, metrics = run_episode(env, 12, random_policy(np.random.default_rng(7)))
        runs.append((tuple(env.step_rewards), tuple(env.step_costs),
                     metrics, tuple(r[:5] for r in env.trace)))
    assert runs[0] == runs[1]


def test_compliance_zero_matches_greedy(tiny_cfg):
    defect = CouplingEnv(tiny_cfg, trace=True)
    defect.set_compliance(0.0)
    _, m_defect = run_episode(defect, 4, random_policy(np.random.default_rng(9)))

    greedy = CouplingEnv(tiny_cfg, trace=True)
    _, m_greedy = run_episode(greedy, 4, greedy_policy)

    assert m_defect == m_greedy
    assert [r[1] for r in defect.trace] == [r[1] for r in greedy.trace]
    assert all(not r[6] for r in defect.trace)
    assert all(r[6] for r in greedy.trace)


def test_compliance_pattern_deterministic(tiny_cfg):
    patterns = []
    for _ in range(2):
        env = CouplingEnv(tiny_cfg, trace=True)
        env.set_compliance(0.5)
        run_episode(env, 6, lambda s, e: 0)
        patterns.append([r[6] for r in env.trace])
    assert patterns[0] == patterns[1]
    with pytest.raises(EnvError):
        CouplingEnv(tiny_cfg).set_compliance(1.5)


def test_simultaneous_requests_zero_length_segments(tmp_path):
    p = tmp_path / "burst.yaml"
    p.write_text(BURST)
    cfg = load_scenario(p)
    env = CouplingEnv(cfg, trace=True)
    outs, metrics = run_episode(env, 0, lambda s, e: 0)
    elapsed = [r[4] for r in env.trace]
    assert 0 in elapsed
    rp = cfg.reward
    for row, out in zip(env.trace, outs):
        if row[4] == 0:
            # previous-tick count is an integer, so the reward must decode to one
            n = rp.r_max - out.reward / rp.w1
            assert abs(n - round(n)) < 1e-9
            assert out.cost >= 0.0
    assert metrics.n_steps == len(outs)
    assert metrics.ttt_s == metrics.ttt_tick_s


def test_droop_log_consistency(tiny_cfg):
    from evgrid.charging import droop_power
    env = CouplingEnv(tiny_cfg)
    run_episode(env, 2, random_policy(np.random.default_rng(4)))
    assert env.droop_log, "droop controller never updated"
    assert env.droop_log[0][0] == 600
    d = tiny_cfg.droop
    for t, v_avg, setpoint, occ in env.droop_log:
        assert t % 600 == 0
        assert setpoint == pytest.approx(droop_power(v_avg, d))
        assert d.p_min_kw <= setpoint <= d.p_max_kw
    # the 33-bus feeder at full base load sits below the upper droop knee
    assert all(row[2] < d.p_max_kw for row in env.droop_log)


def test_invalid_actions(tiny_cfg):
    env = CouplingEnv(tiny_cfg)
    env.reset(0)
    with pytest.raises(EnvError, match="out of range"):
        env.apply_action(2)
    with pytest.raises(EnvError, match="out of range"):
        env.apply_action(-1)
    run_episode(env, 0, lambda s, e: 0)
    with pytest.raises(EnvError, match="no pending"):
        env.apply_action(0)
    with pytest.raises(EnvError, match="not terminated"):
        CouplingEnv(tiny_cfg).episode_metrics()


def test_stranded_vehicles_keep_duality(tmp_path):
    p = tmp_path / "strand.yaml"
    p.write_text(TINY + "battery:\n  capacity_kwh: 0.5\n")
    cfg = load_scenario(p)
    env = CouplingEnv(cfg)
    _, metrics = run_episode(env, 1, lambda s, e: 0)
    assert metrics.n_stranded > 0
    assert metrics.ttt_s == metrics.ttt_tick_s
    assert metrics.n_completed + metrics.n_stranded == len(generate_trips(cfg, 1))
    from evgrid.traffic import STRANDED
    for veh in env.stranded:
        assert veh.is_ev and veh.phase == STRANDED and veh.t_done is None


def test_drained_list_equals_full_scan(tmp_path, monkeypatch):
    """Stranding runs on the EVs step drained: before removal a full scan
    of the driving vehicles finds exactly the drained list, and after
    every tick it finds nothing."""
    p = tmp_path / "strand.yaml"
    p.write_text(TINY + "battery:\n  capacity_kwh: 0.5\n")
    cfg = load_scenario(p)
    scans = []

    def check_stranded(self, t_end):
        scans.append([v.vid for v in self.sim.driving
                      if v.is_ev and v.soc <= 0.0])
        assert scans[-1] == [v.vid for v in self.sim.drained]
        original(self, t_end)

    def tick_post(self):
        tick(self)
        assert not [v for v in self.sim.driving if v.is_ev and v.soc <= 0.0]

    original, tick = CouplingEnv._check_stranded, CouplingEnv._tick_post
    monkeypatch.setattr(CouplingEnv, "_check_stranded", check_stranded)
    monkeypatch.setattr(CouplingEnv, "_tick_post", tick_post)
    for seed in range(3):
        env = CouplingEnv(cfg)
        _, metrics = run_episode(env, seed, lambda s, e: 0)
        assert metrics.n_stranded == len(env.stranded) > 0
    assert scans and all(scans)     # called only on ticks that drained


def test_greedy_station_matches_enumeration(tiny_cfg):
    from evgrid.traffic import shortest_path, path_length_m
    road = tiny_cfg.road_net
    meters = {lid: road.links[lid].length_m for lid in road.links}
    for origin in road.nodes:
        dists = []
        for i, st in enumerate(tiny_cfg.stations):
            try:
                path = shortest_path(road, origin, st.node, meters)
            except Exception:
                dists.append(math.inf)
                continue
            dists.append(path_length_m(road, path))
        if all(d == math.inf for d in dists):
            continue
        best = min(range(len(dists)), key=lambda i: (dists[i], i))
        assert greedy_station(road, tiny_cfg.stations, origin) == best
