"""Next-event time advance (parked vehicles and stations, skipped ticks)
against a frozen copy of the tick loop it replaced, bit for bit.

``FrozenEnv`` runs every tick one by one through frozen copies of
``CouplingEnv._advance``/``_tick_pre``/``_tick_post``,
``TrafficSim.step`` and ``ChargingStation.update_charging`` as they were
before any tick was skipped. A ``CouplingEnv`` and a ``FrozenEnv``
play the same episode with the same actions; after the reset and after
every decision their full episode state must agree exactly (floats compared
through ``repr``, which round-trips every double and tells -0.0 from 0.0):
vehicles, link counts, stations, ``_t``, ``_ttt_ticks``, ``_load_ticks``,
the running load peaks, ``minute_log``, ``windows``, ``droop_log``,
rewards, costs and observations. Each episode must also
account for every trip, close the energy ledger and keep every power-flow
mismatch below the solver's tolerance.
"""

import re
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evgrid
from evgrid.charging import ChargingStation
from evgrid.env import TICK_S, CouplingEnv, EnvError
from evgrid.scenario import generate_trips, load_scenario
from evgrid.traffic import (DRIVE_CS, DRIVE_DEST, V_MIN_MS, TrafficSim,
                            Vehicle, shortest_path)

from strategies import NO_SHRINK, scenarios
from test_env import BURST

PF_TOL = 1e-8


# ---------------------------------------------------------------------------
# frozen references: the tick loop as it was, one tick per iteration
# ---------------------------------------------------------------------------

def ref_step(sim, dt=1.0):
    params = sim.net.link_params
    counts = sim.counts
    battery = sim.battery
    if battery is not None:
        rho = battery.rho_kwh_per_km
        capacity = battery.capacity_kwh
    speeds = {}
    arrived = []
    drained = []
    for veh in sim.driving:
        route = veh.route
        idx = veh.route_idx
        lid = route[idx]
        memo = speeds.get(lid)
        if memo is None:
            length, cap, vf, kjam = params[lid]
            v = vf * (1.0 - ((counts[lid] - 1) / cap) / kjam)
            memo = ((v if v > V_MIN_MS else V_MIN_MS) * dt, length)
            speeds[lid] = memo
        remaining, length = memo
        to_end = length - veh.pos_m
        finished = False
        if remaining < to_end:
            veh.pos_m += remaining
            traveled = remaining
        else:
            traveled = 0.0
            while True:
                traveled += to_end
                remaining -= to_end
                counts[route[idx]] -= 1
                idx += 1
                if idx >= len(route):
                    finished = True
                    break
                counts[route[idx]] += 1
                veh.pos_m = 0.0
                to_end = params[route[idx]][0]
                if remaining < to_end:
                    veh.pos_m += remaining
                    traveled += remaining
                    break
            veh.route_idx = idx
        if veh.is_ev and battery is not None and traveled > 0.0:
            kwh = rho * (traveled / 1000.0)
            veh.driven_kwh += kwh
            veh.soc -= kwh / capacity
            if veh.soc <= 0.0 and not finished:
                drained.append(veh)
        if finished:
            arrived.append(veh)
    if arrived:
        sim.driving = [veh for veh in sim.driving
                       if veh.route_idx < len(veh.route)]
    sim.drained = drained
    return arrived


def ref_update_charging(cs, dt, setpoint_kw, battery, t_end):
    finished = []
    kwh = battery.eta * setpoint_kw * dt / 3600.0
    dsoc = kwh / battery.capacity_kwh
    for veh in cs.charging:
        veh.soc += dsoc
        veh.charged_kwh += kwh
        if veh.soc >= veh.soc_target:
            veh.t_charge_end = t_end
            finished.append(veh)
    if finished:
        cs.charging = [veh for veh in cs.charging
                       if veh.soc < veh.soc_target]
    while cs.queue and len(cs.charging) < cs.piles:
        cs._start(cs.queue.popleft(), t_end)
    return finished


class FrozenEnv(CouplingEnv):
    def _advance(self):
        while True:
            if not self._mid_tick:
                self._tick_pre()
                self._mid_tick = True
                if self._pending:
                    return False
            self._tick_post()
            if self._n_unfinished == 0:
                self._terminal = True
                return True
            if self._t > self._safety_cap:
                raise EnvError(f"episode exceeded {self._safety_cap} ticks with "
                               f"{self._n_unfinished} unfinished vehicles")

    def _tick_pre(self):
        t = self._t
        if t > 0 and t % self._droop_every == 0:
            self._update_droop()
        vehicles = self._vehicles
        while self._next_dep < len(vehicles) and vehicles[self._next_dep].depart_s <= t:
            self._depart(vehicles[self._next_dep], t)
            self._next_dep += 1

    def _tick_post(self):
        t = self._t
        n_p = self._n_loaded
        self._ttt_ticks += n_p * TICK_S
        self._load_ticks += n_p
        self._last_count = n_p
        t_end = float(t + 1)
        arrivals = ref_step(self.sim, TICK_S)
        if len(arrivals) > 1:
            arrivals.sort(key=lambda v: v.vid)
        for veh in arrivals:
            if veh.phase == DRIVE_CS:
                self.stations[self._cs_index[veh.cs_id]].submit_arrival(veh, t_end)
            else:
                self._finish(veh, t_end)
        battery = self.cfg.battery
        for cs in self.stations:
            if not cs.charging and not cs.queue:
                continue
            for veh in ref_update_charging(cs, TICK_S, self._setpoint,
                                           battery, t_end):
                if veh.dest == cs.node:
                    self._finish(veh, t_end)
                else:
                    veh.phase = DRIVE_DEST
                    veh.route = shortest_path(self.road, cs.node, veh.dest,
                                              self.sim.travel_times())
                    self.sim.enter_road(veh)
        if self.sim.drained:
            self._check_stranded(t_end)
        self._t = t + 1
        self._mid_tick = False
        if self._t % 60 == 0:
            self._minute_sample()


# ---------------------------------------------------------------------------
# lockstep comparison
# ---------------------------------------------------------------------------

def _bits(a):
    return None if a is None else a.tobytes()


def snapshot(env):
    """Everything an episode's outputs and later ticks can depend on,
    parked vehicles and stations synced first."""
    sim = env.sim
    sim.sync()
    for cs in env.stations:
        cs.sync(env._t)
    return repr((
        [[getattr(v, s) for s in Vehicle.__slots__] for v in env._vehicles],
        sim.counts, [v.vid for v in sim.driving], [v.vid for v in sim.drained],
        [([v.vid for v in cs.queue], [v.vid for v in cs.charging], cs.pending)
         for cs in env.stations],
        env._t, env._mid_tick, env._next_dep, env._n_loaded,
        env._n_unfinished, env._setpoint, list(env._pending),
        env._last_count, env._ttt_ticks, env._load_ticks, env._terminal,
        [(t, _bits(occ), kw, sp) for t, occ, kw, sp in env.minute_log],
        [(_bits(feats), _bits(demand)) for feats, demand in env.windows],
        env.droop_log, env._seg_peak, env._interval_peak,
        [v.vid for v in env.completed],
        [v.vid for v in env.stranded], env.trace,
    ))


def outcome_bits(env, out):
    """A decision's outcome with the next state, read through ``state()``
    (None at the terminal step)."""
    state = None if out.terminal else env.state()
    return repr((_bits(state), out.reward, out.cost, out.terminal))


def greedy(env, rng):
    return env.greedy_station(env.pending_vehicle.origin)


def random_action(env, rng):
    return int(rng.integers(env.action_dim))


@contextmanager
def solves_checked():
    """Require every power flow solved inside the block, by either env, to
    converge below PF_TOL (the memo keeps no solution to check later)."""
    solve = evgrid.env.solve_power_flow

    def checked(*args, **kwargs):
        sol = solve(*args, **kwargs)
        assert sol.max_mismatch_pu < PF_TOL
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evgrid.env, "solve_power_flow", checked)
        yield


@solves_checked()
def run_lockstep(cfg, ep_seed, policy_seed, policy=random_action,
                 peaks=None):
    """Play one episode on both envs with the same actions (``policy``,
    random by default), comparing after the reset and after every
    decision; ``peaks``, if given, collects the most EVs charging at one
    station at each decision. Returns the new env, or None when the
    scenario has no control request."""
    new, old = CouplingEnv(cfg), FrozenEnv(cfg)
    try:
        old.reset(ep_seed)
    except EnvError as exc:
        with pytest.raises(EnvError, match=re.escape(str(exc))):
            new.reset(ep_seed)
        return None
    new.reset(ep_seed)
    assert new.state().tobytes() == old.state().tobytes()
    assert snapshot(new) == snapshot(old)
    rng_new = np.random.default_rng(policy_seed)
    rng_old = np.random.default_rng(policy_seed)
    while True:
        out_new = new.apply_action(policy(new, rng_new))
        out_old = old.apply_action(policy(old, rng_old))
        assert outcome_bits(new, out_new) == outcome_bits(old, out_old)
        assert snapshot(new) == snapshot(old)
        if peaks is not None:
            peaks.append(max(len(cs.charging) for cs in new.stations))
        if out_new.terminal:
            break
    m_new, m_old = new.episode_metrics(), old.episode_metrics()
    assert m_new == replace(m_old, ticks_coasted=m_new.ticks_coasted)
    assert m_old.ticks_coasted == 0 and m_new.ticks == new._t
    check_episode(new, cfg, ep_seed)
    return new


def check_episode(env, cfg, ep_seed):
    m = env.episode_metrics()
    assert m.n_completed + m.n_stranded == len(generate_trips(cfg, ep_seed))
    assert m.ttt_s == m.ttt_tick_s
    cap = cfg.battery.capacity_kwh
    for veh in env._vehicles:
        if veh.is_ev:
            assert cap * (veh.soc - veh.soc_init) == pytest.approx(
                veh.charged_kwh - veh.driven_kwh, abs=1e-9)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@settings(derandomize=True, max_examples=100, deadline=None,
          phases=NO_SHRINK)
@given(cfg=scenarios(), ep_seed=st.integers(0, 50),
       policy_seed=st.integers(0, 50))
def test_random_scenarios_match_the_tick_loop(cfg, ep_seed, policy_seed):
    run_lockstep(cfg, ep_seed, policy_seed)


@pytest.mark.parametrize("scenario,ep_seed", [("burst", 0), ("reduced", 0),
                                              ("reduced", 5), ("case_a", 1)])
def test_bundled_scenarios_match_the_tick_loop(scenario, ep_seed, tmp_path):
    if scenario == "burst":
        path = tmp_path / "burst.yaml"
        path.write_text(BURST)
    else:
        path = evgrid.DATA_DIR / f"{scenario}.yaml"
    env = run_lockstep(load_scenario(path), ep_seed, policy_seed=3)
    if scenario != "burst":
        assert env.episode_metrics().ticks_coasted > 0


def test_greedy_case_a_matches_the_tick_loop():
    """Greedy sends every EV to the nearest station, so on case_a one
    station charges 30-60 EVs at once: the regime of the benchmark's
    greedy workload."""
    peaks = []
    run_lockstep(load_scenario(evgrid.DATA_DIR / "case_a.yaml"), 0,
                 policy_seed=0, policy=greedy, peaks=peaks)
    assert max(peaks) >= 30


def test_station_horizon_is_walked_once_per_change(monkeypatch):
    """On greedy case_a, seed 0, ``ChargingStation.plan`` (the walk over
    the charging EVs that bounds the next completion) runs at most once
    per change of the station's charging set or of the setpoint."""
    version = {}            # station -> changes so far
    planned = {}            # station -> version at its last plan
    plans = []
    start, update = ChargingStation._start, ChargingStation.update_charging
    plan, droop = ChargingStation.plan, CouplingEnv._update_droop

    def bump(cs):
        version[cs] = version.get(cs, 0) + 1

    def start_(self, veh, t):
        bump(self)
        start(self, veh, t)

    def update_(self, *args):
        finished = update(self, *args)
        if finished:
            bump(self)
        return finished

    def droop_(self):
        setpoint = self._setpoint
        droop(self)
        if self._setpoint != setpoint:
            for cs in self.stations:
                bump(cs)

    def plan_(self, *args):
        v = version.get(self, 0)
        assert planned.get(self, -1) < v, "planned twice without a change"
        planned[self] = v
        plans.append(len(self.charging))
        plan(self, *args)

    monkeypatch.setattr(ChargingStation, "_start", start_)
    monkeypatch.setattr(ChargingStation, "update_charging", update_)
    monkeypatch.setattr(ChargingStation, "plan", plan_)
    monkeypatch.setattr(CouplingEnv, "_update_droop", droop_)
    env = CouplingEnv(load_scenario(evgrid.DATA_DIR / "case_a.yaml"))
    env.reset(0)
    while not env.apply_action(greedy(env, None)).terminal:
        pass
    assert max(plans) >= 30 and len(plans) < sum(version.values())


def test_strategy_reaches_the_corners(monkeypatch):
    """Over the examples the oracle test draws, EVs strand, queues form,
    vehicles cross several nodes in one tick, ticks get skipped, crossers
    enter links with parked vehicles both ahead of and behind them in
    ``driving`` order, crossers fix a link's speed for the tick as they
    enter it, vehicles depart onto links with parked vehicles, the
    setpoint changes under parked chargers, and a decision returns with a
    parked vehicle's fields still lagging (what ``snapshot`` syncs)."""
    seen = {"stranded": 0, "queued": 0, "multi_cross": 0, "coasted": 0,
            "cross_between_parked": 0, "fixed_at_entry": 0,
            "enter_onto_parked": 0, "droop_over_parked": 0,
            "lagging_at_decision": 0}
    ahead, enter = TrafficSim._parked_ahead, TrafficSim.enter_road
    droop = CouplingEnv._update_droop

    def ahead_(self, lid, seq):
        # called as a crosser enters a link with parked vehicles and no
        # speed fixed for the tick yet
        seqs = [rec.seq for rec in self._parked_on[lid].values()]
        seen["cross_between_parked"] += min(seqs) < seq < max(seqs)
        fixes = ahead(self, lid, seq)
        seen["fixed_at_entry"] += fixes
        return fixes

    def enter_(self, veh):
        seen["enter_onto_parked"] += bool(self._parked_on[veh.route[0]])
        enter(self, veh)

    def droop_(self):
        parked = [cs for cs in self.stations if cs.charging
                  and cs.due > self._t]
        setpoint = self._setpoint
        droop(self)
        seen["droop_over_parked"] += bool(parked) and self._setpoint != setpoint

    monkeypatch.setattr(TrafficSim, "_parked_ahead", ahead_)
    monkeypatch.setattr(TrafficSim, "enter_road", enter_)
    monkeypatch.setattr(CouplingEnv, "_update_droop", droop_)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(cfg=scenarios(), ep_seed=st.integers(0, 50))
    def probe(cfg, ep_seed):
        env = CouplingEnv(cfg)
        shortest = min(ln.length_m for ln in cfg.road_net.links.values())
        fastest = max(ln.vf_ms for ln in cfg.road_net.links.values())
        seen["multi_cross"] += 2 * shortest < fastest * TICK_S
        try:
            env.reset(ep_seed)
        except EnvError:
            return
        while not env.apply_action(0).terminal:
            seen["lagging_at_decision"] += any(
                rec.synced < env.sim.now for rec in env.sim._parked.values())
        m = env.episode_metrics()
        seen["stranded"] += m.n_stranded > 0
        seen["queued"] += any(v.t_charge_start is not None
                              and v.t_charge_start > v.t_cs_arrive
                              for v in env.completed)
        seen["coasted"] += m.ticks_coasted > 0

    probe()
    assert all(n > 0 for n in seen.values()), seen
