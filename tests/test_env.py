"""Environment tests: rewards, costs, duality, compliance, determinism,
the shared power-flow memo."""

import copy
import functools
import gc
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evgrid
import evgrid.env as env_module
from evgrid.env import (TICK_S, CouplingEnv, EnvError, greedy_station,
                        later_peak, segment_reward)
from evgrid.power import (PFSolution, PowerFlowError, PowerNetwork,
                          average_voltage, load_power_network, min_voltage,
                          solve_power_flow, voltage_deviation)
from evgrid.scenario import (SAMPLE_S, RewardParams, generate_trips,
                             has_control_request, load_scenario)
from evgrid.srl import evaluate, train

from strategies import NO_SHRINK, scenarios

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
    env.reset(seed)
    outcomes = []
    while True:
        out = env.apply_action(policy(env.state(), env))
        outcomes.append(out)
        if out.terminal:
            return outcomes, env.episode_metrics()


def random_policy(rng):
    return lambda state, env: int(rng.integers(env.action_dim))


def greedy_policy(state, env):
    return greedy_station(env.road, env.stations, env.pending_vehicle.origin)


def test_segment_reward_branches():
    rp = RewardParams()
    # three ticks of 80 loaded vehicles each
    assert segment_reward(240, 3, 0, False, rp) == pytest.approx(0.4)
    assert segment_reward(0, 2, 0, False, rp) == pytest.approx(1.2)
    # zero-length segment falls back to the last counted tick
    assert segment_reward(0, 0, 30, False, rp) == pytest.approx(0.9)
    # final segment scales the count-time integral instead of averaging
    assert segment_reward(100 * 50, 50, 0, True, rp) == pytest.approx(0.2)


def test_segment_cost_base_case_and_peak_selection():
    net = load_power_network(evgrid.DATA_DIR / "ieee33")

    def cost(samples):
        # the env's running peak over a segment's samples, in time order
        peak = functools.reduce(later_peak, samples, None)
        return voltage_deviation(solve_power_flow(net, peak[1]))

    idle = cost([(0.0, {})])
    assert idle == pytest.approx(0.051544, abs=1e-6)

    c200 = cost([(200.0, {30: 200.0})])
    c400 = cost([(400.0, {30: 400.0})])
    assert idle < c200 < c400
    # the max-total sample decides the cost, first one on ties
    mixed = cost([(200.0, {30: 200.0}), (400.0, {30: 400.0}),
                  (300.0, {30: 300.0})])
    assert mixed == c400
    tied = cost([(200.0, {30: 200.0}), (200.0, {18: 200.0})])
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

    # two minute samples within one segment and one droop interval; no
    # demand window closes, since its features would read the None EVs
    env._seg_peak = env._interval_peak = None
    env._per_window = len(env.minute_log) + 3
    for counts in ((5, 7, 3), (7, 3, 5)):
        sample(counts)
        env._minute_sample()
    # the step cost's power flow reads the segment peak's loads
    assert env._seg_peak[1] == first[1]

    solved = []

    def power_flow(loads):
        solved.append(loads)
        sol = solve_power_flow(env.power, loads)
        return voltage_deviation(sol), average_voltage(sol), min_voltage(sol)

    env._power_flow = power_flow
    env._update_droop()
    assert solved == [first[1]]


class LoggingEnv(CouplingEnv):
    """Logs what each decision's figures are built from, apart from how the
    env accumulates them: the loaded count of every counted tick, stepped
    or skipped, every load sample with its tick and whether the droop
    update took it, and where each decision began in both logs."""

    def reset(self, seed):
        self.counts = []        # (tick, loaded count)
        self.samples = []       # (tick, taken by the droop update, sample)
        self.decisions = []     # (tick, len(counts), len(samples))
        self._in_droop = False
        return super().reset(seed)

    def apply_action(self, cs_index, decision_s=0.0):
        self.decisions.append((self._t, len(self.counts), len(self.samples)))
        return super().apply_action(cs_index, decision_s)

    def _tick_post(self):
        self.counts.append((self._t, self._n_loaded))
        super()._tick_post()

    def _skip(self):
        t = self._t
        super()._skip()
        self.counts.extend((u, self._n_loaded) for u in range(t, self._t))

    def _update_droop(self):
        self._in_droop = True
        super()._update_droop()
        self._in_droop = False

    def _load_sample(self):
        sample = super()._load_sample()
        self.samples.append((self._t, self._in_droop, sample))
        return sample


def check_decision_figures(cfg, ep_seed, policy_seed):
    """Play one random-action episode on a ``LoggingEnv`` and recompute each
    decision's reward from its per-tick counts, as a list, and its cost at
    its first largest sample; both must equal the ``trace`` row bit for
    bit. Returns the number of decisions (0: no control request)."""
    env = LoggingEnv(cfg)
    try:
        env.reset(ep_seed)
    except EnvError:
        return 0
    run_episode(env, ep_seed, random_policy(np.random.default_rng(policy_seed)))
    rp = cfg.reward
    ends = env.decisions[1:] + [(None, len(env.counts), len(env.samples))]
    for i, row in enumerate(env.trace):
        (t0, c0, s0), (_, c1, s1) = env.decisions[i], ends[i]
        ticks = env.counts[c0:c1]
        assert [t for t, _ in ticks] == list(range(t0, t0 + row[4]))
        counts = [n for _, n in ticks]
        if i == len(env.trace) - 1:
            r_t = rp.w2 * float(sum(counts)) * TICK_S
        elif counts:
            r_t = float(sum(counts)) / len(counts)
        else:
            r_t = float(env.counts[c1 - 1][1])
        assert repr(rp.w1 * (rp.r_max - r_t)) == repr(row[2])

        taken = [(t, s) for t, droop, s in env.samples[s0:s1] if not droop]
        assert taken[0][0] == t0
        assert all(t % SAMPLE_S == 0 and t0 < t <= t0 + row[4]
                   for t, _ in taken[1:])
        top = max(s[0] for _, s in taken)
        peak = next(s for _, s in taken if s[0] == top)
        sol = solve_power_flow(env.power, peak[1])
        assert repr(voltage_deviation(sol, rp.v_ref)) == repr(row[3])
    return len(env.trace)


@pytest.mark.parametrize("scenario", ["burst", "reduced", "case_a"])
def test_decision_figures_match_the_per_tick_logs(scenario, tmp_path):
    if scenario == "burst":
        path = tmp_path / "burst.yaml"
        path.write_text(BURST)
    else:
        path = evgrid.DATA_DIR / f"{scenario}.yaml"
    assert check_decision_figures(load_scenario(path), 1, policy_seed=2) > 0


@settings(derandomize=True, max_examples=100, deadline=None,
          phases=NO_SHRINK)
@given(cfg=scenarios(), ep_seed=st.integers(0, 50),
       policy_seed=st.integers(0, 50))
def test_random_decision_figures_match_the_per_tick_logs(cfg, ep_seed,
                                                         policy_seed):
    check_decision_figures(cfg, ep_seed, policy_seed)


def episode_outputs(cfg, ep_seed, policy_seed, read_state):
    """Play one random-action episode on a fresh env with its own copy of
    the feeder (so both runs start from an empty power-flow memo), calling
    ``state()`` before every decision when ``read_state``. Returns the
    episode's outputs as one repr, floats as bits (None: no control
    request)."""
    env = CouplingEnv(replace(cfg, power_net=copy.deepcopy(cfg.power_net)))
    try:
        env.reset(ep_seed)
    except EnvError:
        return None
    rng = np.random.default_rng(policy_seed)
    while True:
        if read_state:
            env.state()
        if env.apply_action(int(rng.integers(env.action_dim))).terminal:
            break
    with pytest.raises(EnvError, match="no pending"):
        env.state()
    return repr((
        env.trace,
        [(t, occ.tobytes(), kw, sp) for t, occ, kw, sp in env.minute_log],
        env.droop_log,
        [(feats.tobytes(), demand.tobytes()) for feats, demand in env.windows],
        env.episode_metrics()))


def check_reading_state_moves_nothing(cfg, ep_seed, policy_seed):
    read = episode_outputs(cfg, ep_seed, policy_seed, read_state=True)
    assert read == episode_outputs(cfg, ep_seed, policy_seed,
                                   read_state=False)
    return read


@settings(derandomize=True, max_examples=60, deadline=None,
          phases=NO_SHRINK)
@given(cfg=scenarios(), ep_seed=st.integers(0, 50),
       policy_seed=st.integers(0, 50))
def test_random_episodes_do_not_depend_on_reading_the_state(cfg, ep_seed,
                                                            policy_seed):
    check_reading_state_moves_nothing(cfg, ep_seed, policy_seed)


def test_case_a_does_not_depend_on_reading_the_state():
    cfg = load_scenario(evgrid.DATA_DIR / "case_a.yaml")
    assert check_reading_state_moves_nothing(cfg, 0, 0) is not None


def test_reset_state_and_history(tiny_cfg):
    env = CouplingEnv(tiny_cfg)
    env.reset(0)
    state = env.state()
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
    """EV trips that all depart during warm-up pass the config checks but
    leave no decision to make, which the env's per-seed check rejects."""
    p = tmp_path / "noev.yaml"
    p.write_text(TINY.replace("control_s: 600", "control_s: 10"))
    cfg = load_scenario(p)
    trips = generate_trips(cfg, 0)
    assert any(t.is_ev for t in trips)
    assert all(t.depart_s < cfg.demand.warmup_s for t in trips)
    with pytest.raises(EnvError, match="no control-phase"):
        CouplingEnv(cfg).reset(0)


def test_control_request_check_agrees_with_the_trips():
    """On reduced with one EV trip, whether an episode seed brings a
    control-phase request depends on the seed. ``has_control_request``,
    which makes only the trip table's first draw, says what the full trip
    table says, and ``reset`` fails on exactly the seeds it flags."""
    cfg = load_scenario(evgrid.DATA_DIR / "reduced.yaml")
    cfg = replace(cfg, demand=replace(cfg.demand, ev_fraction=1 / 160))
    assert cfg.demand.n_ev == 1
    env = CouplingEnv(cfg)
    warmup = cfg.demand.warmup_s
    flagged, failed = [], []
    for seed in range(40):
        want = any(t.is_ev and math.ceil(t.depart_s) >= warmup
                   for t in generate_trips(cfg, seed))
        assert has_control_request(cfg, seed) == want, seed
        if not want:
            flagged.append(seed)
        try:
            env.reset(seed)
        except EnvError:
            failed.append(seed)
    assert flagged == failed == [4, 5, 9, 12, 19, 21, 27, 29, 32, 33, 37]


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
        env = CouplingEnv(tiny_cfg)
        outs, metrics = run_episode(env, 12, random_policy(np.random.default_rng(7)))
        runs.append((metrics, tuple(env.trace)))
    assert runs[0] == runs[1]


def test_compliance_zero_matches_greedy(tiny_cfg):
    defect = CouplingEnv(replace(tiny_cfg, compliance_rate=0.0))
    _, m_defect = run_episode(defect, 4, random_policy(np.random.default_rng(9)))

    greedy = CouplingEnv(tiny_cfg)
    _, m_greedy = run_episode(greedy, 4, greedy_policy)

    assert m_defect == m_greedy
    assert [r[1] for r in defect.trace] == [r[1] for r in greedy.trace]
    assert all(not r[6] for r in defect.trace)
    assert all(r[6] for r in greedy.trace)


def test_compliance_pattern_deterministic(tiny_cfg):
    patterns = []
    for _ in range(2):
        env = CouplingEnv(replace(tiny_cfg, compliance_rate=0.5))
        run_episode(env, 6, lambda s, e: 0)
        patterns.append([r[6] for r in env.trace])
    assert patterns[0] == patterns[1]


def test_simultaneous_requests_zero_length_segments(tmp_path):
    p = tmp_path / "burst.yaml"
    p.write_text(BURST)
    cfg = load_scenario(p)
    env = CouplingEnv(cfg)
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
    for t, v_avg, setpoint, v_min, occ in env.droop_log:
        assert t % 600 == 0
        assert setpoint == pytest.approx(droop_power(v_avg, d))
        assert d.p_min_kw <= setpoint <= d.p_max_kw
        assert 0.0 < v_min <= v_avg
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


def test_non_integer_actions_are_rejected_before_any_draw(tiny_cfg):
    """Only Python and numpy integers name a station: a float, a bool or a
    string fails, naming the value, and leaves the decision log, the
    pending request and the compliance stream as they were."""
    env = CouplingEnv(tiny_cfg)
    env.reset(0)
    env.apply_action(0)
    trace, pending = list(env.trace), list(env._pending)
    rng_state = env._compliance_rng.bit_generator.state
    for bad in (1.7, 1.0, np.float64(1.0), True, np.True_, "1", None):
        with pytest.raises(EnvError, match=re.escape(
                f"station index must be an integer, got {bad!r}")):
            env.apply_action(bad)
        assert env.trace == trace and list(env._pending) == pending
        assert env._compliance_rng.bit_generator.state == rng_state
    env.apply_action(np.int64(1))
    assert env.trace[-1][1] in (0, 1) and type(env.trace[-1][1]) is int


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


@pytest.mark.parametrize("scenario", ["reduced", "case_a"])
def test_greedy_memo_matches_greedy_station(scenario):
    from evgrid.traffic import NoPathError
    cfg = load_scenario(evgrid.DATA_DIR / f"{scenario}.yaml")
    env = CouplingEnv(cfg)
    expected = {}
    for origin in cfg.road_net.nodes:
        try:
            expected[origin] = greedy_station(cfg.road_net, cfg.stations, origin)
        except NoPathError:
            with pytest.raises(NoPathError):
                env.greedy_station(origin)
            continue
        assert env.greedy_station(origin) == expected[origin]
    assert expected
    env.reset(0)        # the memo outlives episodes; stations are rebuilt
    for origin, idx in expected.items():
        assert env.greedy_station(origin) == idx
        assert greedy_station(env.road, env.stations, origin) == idx


# every EV starts at node 1, away from both stations, with ~20-40 m of range
STRANDED = TINY.replace(
    "  ev_fraction: 0.5\n",
    "  ev_fraction: 1.0\n  od_mode: table\n  od_table: [[1, 2]]\n") \
    + "battery:\n  capacity_kwh: 0.01\n"


def test_all_stranded_episode_has_no_wait_time(tmp_path):
    """No EV finishes charging, so the mean wait+charge time is undefined
    (None), not a zero wait."""
    p = tmp_path / "stranded.yaml"
    p.write_text(STRANDED)
    cfg = load_scenario(p)
    _, metrics = run_episode(CouplingEnv(cfg), 0, lambda s, e: 0)
    assert metrics.n_completed == 0 and metrics.n_ev_completed == 0
    assert metrics.n_stranded == len(generate_trips(cfg, 0)) > 0
    assert metrics.wct_min is None


# ---------------------------------------------------------------------------
# the power-flow memo shared by every env on one feeder
# ---------------------------------------------------------------------------

def new_feeder(scale=1.0):
    """A new ieee33 feeder object, every base load times ``scale``."""
    net = load_power_network(evgrid.DATA_DIR / "ieee33")
    return PowerNetwork([replace(b, p_base_kw=b.p_base_kw * scale)
                         for b in net.buses], net.lines, net.base_mva,
                        net.base_kv)


def memo_reads(cfg):
    """Everything a greedy episode and a one-epoch opsrl training and
    evaluation read from power flows: the per-step costs, droop voltages
    and setpoints (reprs, so bit for bit) and the episode metrics, which
    compare without ``pf_solves``, here also without the wall-clock
    ``dt_mean_s``."""
    cfg = replace(cfg, training=replace(cfg.training, epochs=1,
                                        episodes_per_epoch=2))
    res = train(cfg, "opsrl", 0)
    episodes = (evaluate(cfg, "greedy", seeds=(3,))
                + evaluate(cfg, "opsrl", res.agent, res.predictor,
                           seeds=(5,)))
    return (repr([(ep.trace, ep.droop_log) for ep in episodes]
                 + [res.curve]),
            [replace(ep.metrics, dt_mean_s=0.0) for ep in episodes])


def test_cold_and_warm_memos_give_identical_episodes(tiny_cfg):
    """An empty memo, the memo the same feeder's earlier runs filled, and
    memos left by feeders that died give the same episodes. Feeders built
    and dropped one after another often land at a dead one's address in
    CPython, so each must read its own voltages: keyed by ``id()``, a memo
    would hand them the dead feeder's."""
    base = new_feeder()
    cold = memo_reads(replace(tiny_cfg, power_net=base))
    assert memo_reads(replace(tiny_cfg, power_net=base)) == cold
    loads = {18: 100.0, 30: 50.0}
    for k in range(1, 41):
        net = new_feeder(1 + k / 40)
        env = CouplingEnv(replace(tiny_cfg, power_net=net))
        env.reset(0)
        sol = solve_power_flow(net, loads)
        assert env._power_flow(loads) == (voltage_deviation(sol),
                                          average_voltage(sol),
                                          min_voltage(sol))
    assert memo_reads(replace(tiny_cfg, power_net=new_feeder())) == cold


def test_memo_keys_hold_v_ref_and_station_buses(tiny_cfg, monkeypatch):
    """Configs that share one feeder but differ in ``v_ref`` or in their
    station buses each read what solving every lookup anew gives."""
    s0, s1 = tiny_cfg.stations
    variants = [
        tiny_cfg,
        replace(tiny_cfg, reward=replace(tiny_cfg.reward, v_ref=0.97)),
        replace(tiny_cfg, stations=(replace(s0, bus=s1.bus),
                                    replace(s1, bus=s0.bus))),
        replace(tiny_cfg, stations=(replace(s0, bus=25), s1)),
    ]
    shared = new_feeder()
    got = [memo_reads(replace(cfg, power_net=shared)) for cfg in variants]
    monkeypatch.setattr(env_module, "PF_MEMO_CAP", 0)   # every lookup solves
    want = [memo_reads(replace(cfg, power_net=new_feeder()))
            for cfg in variants]
    assert got == want
    assert len({reads for reads, _ in want}) == len(variants)


def test_memo_entries_die_with_their_feeder(tiny_cfg):
    net = new_feeder()
    env = CouplingEnv(replace(tiny_cfg, power_net=net))
    run_episode(env, 0, greedy_policy)
    assert len(env._pf_memo) > 0
    gc.collect()
    feeders = len(env_module._PF_MEMOS)
    dead = weakref.ref(net)
    del net, env
    gc.collect()
    assert dead() is None
    assert len(env_module._PF_MEMOS) == feeders - 1


def test_memo_keeps_the_most_recent_patterns_up_to_its_cap(tiny_cfg,
                                                            monkeypatch):
    monkeypatch.setattr(env_module, "PF_MEMO_CAP", 3)
    env = CouplingEnv(replace(tiny_cfg, power_net=new_feeder()))
    env.reset(0)
    env._pf_lookups = env._pf_solves = 0
    patterns = [{18: 10.0 * k, 30: 5.0} for k in range(4)]
    for loads in patterns[:3] + patterns[:1] + patterns[3:]:
        env._power_flow(loads)      # 0 1 2, 0 again, then 3 evicts 1
        assert len(env._pf_memo) <= 3
    assert (env._pf_lookups, env._pf_solves) == (5, 4)
    for k, solved in ((0, 0), (2, 0), (3, 0), (1, 1)):
        before = env._pf_solves
        env._power_flow(patterns[k])
        assert env._pf_solves - before == solved
    assert len(env._pf_memo) == 3


def test_full_memo_takes_at_most_one_megabyte(tiny_cfg, monkeypatch):
    """``PF_MEMO_CAP`` entries keyed by five station buses, as case_a's,
    with distinct loads on every bus."""
    env = CouplingEnv(replace(tiny_cfg, power_net=new_feeder()))
    env.reset(0)
    v = np.ones(33)
    monkeypatch.setattr(env_module, "solve_power_flow",
                        lambda net, loads: PFSolution((), v, v, 0, 0.0))
    buses = (6, 12, 18, 25, 30)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(env_module.PF_MEMO_CAP + 10):
            env._power_flow({bus: 7.0 * k + i for i, bus in enumerate(buses)})
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(env._pf_memo) == env_module.PF_MEMO_CAP
    assert size <= 1e6


def test_a_failing_pattern_raises_on_every_lookup(tiny_cfg, monkeypatch):
    env = CouplingEnv(replace(tiny_cfg, power_net=new_feeder()))
    env.reset(0)
    entries = len(env._pf_memo)
    calls = []

    def solve(net, loads):
        calls.append(loads)
        return solve_power_flow(net, loads)

    monkeypatch.setattr(env_module, "solve_power_flow", solve)
    overload = {18: 1e6, 30: 1e6}
    for attempt in (1, 2):
        with pytest.raises(PowerFlowError):
            env._power_flow(overload)
        assert calls == [overload] * attempt
    assert len(env._pf_memo) == entries
