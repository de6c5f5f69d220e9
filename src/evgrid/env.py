"""Coupled road-feeder decision environment for station recommendation.

One environment instance owns a traffic simulation, the charging stations,
and the feeder model. Control-phase EV departures pause the simulation and
become decision steps: the agent picks a station index, the EV is routed
there (or to the nearest station when the driver defects, sampled from a
dedicated compliance stream), and the simulation advances to the next
request or to episode end.

Each decision step covers a segment of simulation ticks and yields

* a reward built from the loaded-vehicle count per tick: small counts mean
  light congestion, so r = w1 * (r_max - R) with R the segment mean count
  (final segment: R = w2 * the segment's count-time integral, since that
  segment runs until every vehicle finishes and a mean would hide it);
* a cost equal to the bus-averaged voltage deviation at the segment's
  highest-charging-load sampled instant (sampled at the decision instant
  and every simulated minute; the load compared is the setpoint times the
  number of charging EVs, and ties go to the earliest instant).

Both come from running figures: ``_load_ticks`` sums the loaded count over
every counted tick (an exact int), so a segment's count sum is its change
since the decision and its length is the ticks elapsed, and ``_seg_peak``
is the segment's first largest sample so far, kept by ``later_peak``.

A droop controller refreshes the uniform pile setpoint once per interval
using the power flow at the previous interval's peak-load minute sample,
``_interval_peak``, kept by the same exact comparison (with no minute
sample in the interval, at the load of the boundary instant).

Both read a power flow through ``CouplingEnv._power_flow``, which memoises
three figures (the cost at ``v_ref``, the bus-average voltage and the
lowest bus voltage) per feeder: every env built on one ``PowerNetwork``
object, in any episode, seed or run of the process, reuses them. A solve
starts flat and depends only on the feeder and the per-bus loads, so a
reused figure is the float a new solve would give. The memo keeps the
``PF_MEMO_CAP`` most recently used load patterns per feeder and dies with
the feeder.
``EpisodeMetrics.pf_lookups`` and ``pf_solves`` count an episode's reads
and its misses, and ``pf_iterations`` the Newton-Raphson iterations of
those solves; the misses depend on what the memo already held.
``EpisodeMetrics.v_min`` is the lowest bus voltage over every read, memo
hits included, so it does not.

Time advances in 1 s ticks. Within a tick: droop boundary first, then
departures (pausing for decisions before any movement), then movement,
station arrivals in vehicle-id order, charging, and re-routing of finished
chargers; minute sampling happens after the tick's physics. Departure,
arrival, and completion timestamps therefore all land on tick boundaries,
which keeps the per-vehicle travel-time sum exactly equal to the
tick-counted dual (``EpisodeMetrics.ttt_s == EpisodeMetrics.ttt_tick_s``).

Most vehicles and chargers spend most ticks far from any event, so the
per-tick passes skip them: ``TrafficSim`` parks vehicles far from their
link's end and a ``ChargingStation`` is stepped only from its ``due`` tick
(see their module docstrings); both replay the skipped ticks lazily, bit
for bit. Whenever no vehicle is active and no station is due, ``_skip``
jumps straight to the next departure, minute sample, droop boundary,
vehicle wake or station due tick, and that tick then runs as above.
Two of these the env keeps rather than scans for: the next departure
tick ``_next_dep_t`` and the earliest station due tick ``_due``, refreshed
wherever a station's ``due`` can move (``plan``, an arrival that starts
charging, and the completions and queue promotions of the station pass).
A tick that runs still runs only the passes with work in it:
``_tick_pre`` (droop update, departures) only on a droop boundary, t = 0
included, or at ``_next_dep_t``, and the station pass only once ``_due``
has come.

Lazy state catches up where it is read or written, not at each decision:
a parked vehicle when it wakes or leaves the road, a station in ``plan``
and wherever the env writes to it or reads its features. No output reads a
parked vehicle's fields (states read the pending EV and link counts,
rewards and costs read counts and charging sets, ``episode_metrics`` reads
finished vehicles), so every output is bit for bit what stepping every tick
gives. An observer that wants every field current calls ``sim.sync()`` and
each station's ``sync(_t)``.
``EpisodeMetrics.ticks_coasted`` counts the ticks crossed without a
per-tick pass.

Each minute sample appends one ``minute_log`` row: (t, occupancy per
station, total kW, setpoint). Counting from the episode's first sample,
every ``samples_per_window``-th one closes a forecaster demand window and
appends one ``windows`` row: (station features at that sample, mean
occupancy over the window's samples). Only closing samples compute the
station features.

Each decision appends one ``trace`` row, the episode's only per-decision
record: (step, applied station, reward, cost, elapsed ticks, vehicle id,
whether the driver followed the recommendation). The driver follows with
probability ``cfg.compliance_rate``.

The observation is built only by ``state()``, for the pending request:
``reset`` and ``apply_action`` return none, so a policy that never reads
it (the nearest-station rule) costs no density vector and no station
features. Reading it syncs the stations, which moves no output (see the
lazy state above), so an episode is the same whether or not it is read.
"""

from __future__ import annotations

import math
import operator
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from .charging import ChargingStation, charging_loads_kw, droop_power
from .power import (average_voltage, min_voltage, solve_power_flow,
                    voltage_deviation)
from .scenario import (SAMPLE_S, RewardParams, ScenarioConfig,
                       build_vehicle, generate_trips, has_control_request,
                       samples_per_window)
from .traffic import (DRIVE_CS, DRIVE_DEST, DONE, STRANDED, NoPathError,
                      TrafficSim, path_length_m, record_trip_times,
                      shortest_path)

TICK_S = 1.0
WAIT_NORM_S = 600.0      # queue-wait scale used in station observations
# Entries per feeder in the power-flow memo; full, with five station buses
# per key and three figures per entry, it holds about 0.96 MB (see
# ``CouplingEnv._power_flow``).
PF_MEMO_CAP = 2048

# PowerNetwork -> OrderedDict
#     {(v_ref, bus, kW, bus, kW, ...): (cost, v_avg, v_min)}
# in least-recently-used order. Weak keys: a feeder's entries die with it.
_PF_MEMOS = weakref.WeakKeyDictionary()


class EnvError(RuntimeError):
    """Environment used outside its contract (no pending request, etc.)."""


@dataclass(frozen=True)
class StepOutcome:
    """One decision's score; the next observation is ``CouplingEnv.state()``
    while the episode runs."""
    reward: float
    cost: float
    terminal: bool


@dataclass(frozen=True)
class EpisodeMetrics:
    ttt_s: float           # per-vehicle travel time sum (drive + wait + charge)
    ttt_tick_s: float      # the same total counted per tick; equal exactly
    cvv: float             # summed per-step voltage deviation cost
    wct_min: float | None  # mean EV wait+charge minutes (None: no EV finished)
    n_steps: int
    n_completed: int
    n_ev_completed: int
    n_stranded: int
    v_min: float           # lowest bus voltage (p.u.) of the power flows read
    dt_mean_s: float       # mean caller-reported decision latency
    ticks: int             # simulated ticks, warm-up included
    ticks_coasted: int     # of which crossed without a per-tick pass
    pf_lookups: int        # power-flow results the episode read
    # of which solved anew (memo misses); it depends on what the feeder's
    # memo held, so equal episodes compare equal whatever it reads
    pf_solves: int = field(compare=False)
    pf_iterations: int = field(compare=False)   # NR iterations of those solves


def greedy_station(road, stations, origin):
    """Index of the station nearest to origin by path meters (ties: lowest)."""
    meters = {lid: road.links[lid].length_m for lid in road.links}
    best = None
    best_d = math.inf
    for i, st in enumerate(stations):
        try:
            d = path_length_m(road, shortest_path(road, origin, st.node, meters))
        except NoPathError:
            continue
        if d < best_d:
            best, best_d = i, d
    if best is None:
        raise NoPathError(f"no station reachable from node {origin}")
    return best


def segment_reward(load_ticks, ticks, last_count, final,
                   rp: RewardParams) -> float:
    """Reward for one decision segment of ``ticks`` counted ticks whose
    loaded counts sum to ``load_ticks``.

    Zero-length segments (simultaneous requests) fall back on
    ``last_count``, the count of the most recent counted tick.
    """
    if final:
        r_t = rp.w2 * float(load_ticks) * TICK_S
    elif ticks:
        r_t = float(load_ticks) / ticks
    else:
        r_t = float(last_count)
    return rp.w1 * (rp.r_max - r_t)


def later_peak(best, sample):
    """Running peak of load samples in time order: ``sample`` if there is
    no ``best`` yet or its key (``sample[0]``) is strictly larger than
    ``best``'s, else ``best``, so exact ties keep the earliest."""
    return sample if best is None or sample[0] > best[0] else best


class CouplingEnv:
    """Episodic environment; one instance may be reset for many episodes."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.road = cfg.road_net
        self.power = cfg.power_net
        self._droop_every = int(cfg.droop.interval_s)
        self._n_links = len(self.road.link_ids)
        self._per_window = samples_per_window(cfg.predictor.window_s)
        self._greedy_memo = {}
        self._pf_memo = _PF_MEMOS.setdefault(self.power, OrderedDict())
        self._terminal = False
        self._pending = deque()

    @property
    def action_dim(self) -> int:
        return len(self.cfg.stations)

    @property
    def state_dim(self) -> int:
        return (5 + self._n_links
                + ChargingStation.N_FEATURES * len(self.cfg.stations))

    @property
    def pending_vehicle(self):
        """Vehicle awaiting a station decision (None outside a pause)."""
        return self._vehicles[self._pending[0]] if self._pending else None

    # ------------------------------------------------------------------
    # episode lifecycle
    # ------------------------------------------------------------------

    def reset(self, seed: int) -> None:
        cfg = self.cfg
        self._vehicles = [build_vehicle(t, cfg.demand.soc_target)
                          for t in generate_trips(cfg, seed)]
        for veh in self._vehicles:
            veh.depart_s = float(math.ceil(veh.depart_s))   # align to ticks
        if not has_control_request(cfg, seed):
            raise EnvError("scenario generates no control-phase charging "
                           "requests (do all EV trips depart during warm-up?)")
        self._compliance_rng = np.random.default_rng([seed, cfg.seed, 1])
        self.stations = [ChargingStation(s.cs_id, s.node, s.bus, s.piles)
                         for s in cfg.stations]
        self._cs_index = {cs.cs_id: i for i, cs in enumerate(self.stations)}
        self.sim = TrafficSim(self.road, battery=cfg.battery)
        self._t = 0
        self._ticks_coasted = 0
        self._mid_tick = False
        self._next_dep = 0
        self._next_dep_t = int(self._vehicles[0].depart_s)
        self._due = math.inf        # earliest station due tick
        self._n_loaded = 0
        self._n_unfinished = len(self._vehicles)
        self._setpoint = cfg.droop.p_max_kw
        self._pending = deque()
        self._last_count = 0
        self._ttt_ticks = 0.0
        self._load_ticks = 0
        self._seg_peak = None
        self._interval_peak = None
        self._pf_lookups = 0
        self._pf_solves = 0
        self._pf_iterations = 0
        self._v_min = math.inf
        self.minute_log = []    # rows as in the module docstring
        self.windows = []       # rows as in the module docstring
        self.droop_log = []     # (t, v_avg, setpoint kW, occupancy tuple)
        self.completed = []
        self.stranded = []
        self.trace = []         # rows as in the module docstring
        self._decision_s_sum = 0.0
        self._terminal = False
        self._safety_cap = int(cfg.horizon_s) + 86400
        if self._advance():
            raise EnvError("episode ended before any charging request")

    def apply_action(self, cs_index: int, decision_s: float = 0.0) -> StepOutcome:
        if self._terminal or not self._pending:
            raise EnvError("no pending charging request")
        try:    # Python and numpy integers only; a bool is no station
            if isinstance(cs_index, bool):
                raise TypeError
            idx = operator.index(cs_index)
        except TypeError:
            raise EnvError(f"station index must be an integer, got "
                           f"{cs_index!r}") from None
        if not 0 <= idx < self.action_dim:
            raise EnvError(f"station index {idx} out of range "
                           f"[0, {self.action_dim})")
        vid = self._pending.popleft()
        veh = self._vehicles[vid]
        followed = bool(self._compliance_rng.random() < self.cfg.compliance_rate)
        applied = idx if followed else self.greedy_station(veh.origin)
        t0, load_ticks0 = self._t, self._load_ticks
        self._assign(veh, applied, t0)
        self._seg_peak = self._load_sample()
        if self._pending:
            terminal = False    # zero-length segment between simultaneous requests
        else:
            terminal = self._advance()
        reward = segment_reward(self._load_ticks - load_ticks0, self._t - t0,
                                self._last_count, terminal, self.cfg.reward)
        cost = self._power_flow(self._seg_peak[1])[0]
        self._decision_s_sum += decision_s
        self.trace.append((len(self.trace), applied, reward, cost,
                           self._t - t0, vid, followed))
        return StepOutcome(reward, cost, terminal)

    def episode_metrics(self) -> EpisodeMetrics:
        if not self._terminal:
            raise EnvError("episode has not terminated")
        ttt = 0.0
        wct_s = 0.0
        n_ev = 0
        n_steps = len(self.trace)
        for veh in self.completed:
            times = record_trip_times(veh)
            ttt += times.tt_total
            if veh.is_ev and veh.cs_id is not None:
                wct_s += times.tt_wait + times.tt_charge
                n_ev += 1
        return EpisodeMetrics(
            ttt_s=ttt,
            ttt_tick_s=self._ttt_ticks,
            cvv=float(sum(row[3] for row in self.trace)),
            wct_min=(wct_s / n_ev / 60.0) if n_ev else None,
            n_steps=n_steps,
            n_completed=len(self.completed),
            n_ev_completed=n_ev,
            n_stranded=len(self.stranded),
            v_min=self._v_min,
            dt_mean_s=self._decision_s_sum / n_steps if n_steps else 0.0,
            ticks=self._t,
            ticks_coasted=self._ticks_coasted,
            pf_lookups=self._pf_lookups,
            pf_solves=self._pf_solves,
            pf_iterations=self._pf_iterations,
        )

    # ------------------------------------------------------------------
    # observation assembly
    # ------------------------------------------------------------------

    def state(self) -> np.ndarray:
        """The observation for the pending request: origin and destination
        (normalized), SoC, link densities, then the station features."""
        if not self._pending:
            raise EnvError("no pending charging request")
        veh = self._vehicles[self._pending[0]]
        ox, oy = self.road.normalized_xy(veh.origin)
        dx, dy = self.road.normalized_xy(veh.dest)
        out = np.empty(self.state_dim)
        out[0:5] = (ox, oy, dx, dy, veh.soc)
        out[5:5 + self._n_links] = self.sim.density_vector()
        out[5 + self._n_links:] = self._station_features()
        return out

    def _station_features(self) -> np.ndarray:
        """Per-station 9-feature blocks, counts scaled by pile count and
        waits by WAIT_NORM_S, concatenated in station order."""
        k = ChargingStation.N_FEATURES
        out = np.empty(k * len(self.stations))
        for i, cs in enumerate(self.stations):
            cs.sync(self._t)
            f = cs.state_features(float(self._t))
            f[0] /= cs.piles
            f[1] /= cs.piles
            f[6] /= WAIT_NORM_S
            f[7] /= WAIT_NORM_S
            f[8] /= cs.piles
            out[k * i:k * i + k] = f
        return out

    # ------------------------------------------------------------------
    # simulation core
    # ------------------------------------------------------------------

    def _advance(self) -> bool:
        """Run ticks until a decision is pending (False) or terminal (True).
        Parked vehicles and stations are left lagging (module docstring)."""
        while True:
            if not self._mid_tick:
                if not self.sim.active:
                    self._skip()
                t = self._t
                if t % self._droop_every == 0 or t >= self._next_dep_t:
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

    def _skip(self):
        """Cross the ticks from ``_t`` on that need no per-tick pass.

        While no vehicle is active and no station is due, a tick moves and
        charges only parked vehicles and stations, which replay it lazily.
        The jump stops at the next departure, droop boundary, minute
        sample, vehicle wake, station due tick and safety cap. Every tick
        of it would add the same loaded count to the tick dual and to
        ``_load_ticks``, and integer-valued sums are exact, so
        ``n_loaded * k`` adds what k ticks would. The departure and station
        due ticks are the kept ``_next_dep_t`` and ``_due``. Call it only
        while no vehicle is active.
        """
        t = self._t
        k = min(SAMPLE_S - 1 - t % SAMPLE_S, -t % self._droop_every,
                self._safety_cap - t, self.sim.next_wake() - t,
                self._due - t, self._next_dep_t - t)
        if k <= 0:
            return
        self.sim.idle(k)
        n_p = self._n_loaded
        self._ttt_ticks += n_p * k * TICK_S
        self._load_ticks += n_p * k
        self._last_count = n_p
        self._t = t + k
        self._ticks_coasted += k

    def _tick_pre(self):
        """The droop update and the departures of tick ``_t``; ``_advance``
        calls it only on a droop boundary (t = 0 included) or at the next
        departure tick ``_next_dep_t``."""
        t = self._t
        replan = t == 0             # stations charge lazily from the start
        if t > 0 and t % self._droop_every == 0:
            setpoint = self._setpoint
            self._update_droop()
            replan = self._setpoint != setpoint
        if replan:
            for cs in self.stations:
                cs.plan(t, TICK_S, self._setpoint, self.cfg.battery)
            self._due = min(cs.due for cs in self.stations)
        vehicles = self._vehicles
        while self._next_dep < len(vehicles) and vehicles[self._next_dep].depart_s <= t:
            self._depart(vehicles[self._next_dep], t)
            self._next_dep += 1
        self._next_dep_t = (int(vehicles[self._next_dep].depart_s)
                            if self._next_dep < len(vehicles) else math.inf)

    def _tick_post(self):
        t = self._t
        n_p = self._n_loaded
        self._ttt_ticks += n_p * TICK_S
        self._load_ticks += n_p
        self._last_count = n_p
        t_end = float(t + 1)
        arrivals = self.sim.step(TICK_S)
        if len(arrivals) > 1:
            arrivals.sort(key=lambda v: v.vid)
        for veh in arrivals:
            if veh.phase == DRIVE_CS:
                self._arrive(self.stations[self._cs_index[veh.cs_id]], veh, t,
                             t_end)
            else:
                self._finish(veh, t_end)
        if self._due <= t:
            self._station_pass(t, t_end)
        if self.sim.drained:
            self._check_stranded(t_end)
        self._t = t + 1
        self._mid_tick = False
        if self._t % SAMPLE_S == 0:
            self._minute_sample()

    def _station_pass(self, t, t_end):
        """Step the stations due by tick ``t`` and re-route their finished
        chargers, then refresh ``_due``: completions re-plan a station, and
        queue promotions start charging."""
        battery = self.cfg.battery
        setpoint = self._setpoint
        for cs in self.stations:
            if cs.due > t:
                continue        # idle, or parked until its due tick
            cs.sync(t)
            finished = cs.update_charging(TICK_S, setpoint, battery, t_end)
            if not finished:
                continue
            cs.plan(t + 1, TICK_S, setpoint, battery)
            for veh in finished:
                if veh.dest == cs.node:
                    self._finish(veh, t_end)
                else:
                    veh.phase = DRIVE_DEST
                    veh.route = shortest_path(self.road, cs.node, veh.dest,
                                              self.sim.travel_times())
                    self.sim.enter_road(veh)
        self._due = min(cs.due for cs in self.stations)

    def _arrive(self, cs, veh, t, t_arrive):
        """``veh`` reaches station ``cs`` at ``t_arrive``, its tick ``t``
        synced first. A start of charging can only bring ``cs.due``
        forward, so ``_due`` takes the lower of the two."""
        cs.sync(t)
        cs.submit_arrival(veh, t_arrive)
        if cs.due < self._due:
            self._due = cs.due

    def _depart(self, veh, t):
        self._n_loaded += 1
        if veh.is_ev and veh.depart_s >= self.cfg.demand.warmup_s:
            self._pending.append(veh.vid)
        elif veh.is_ev:
            self._assign(veh, self.greedy_station(veh.origin), t)
        else:
            veh.phase = DRIVE_DEST
            veh.route = shortest_path(self.road, veh.origin, veh.dest,
                                      self.sim.travel_times())
            self.sim.enter_road(veh)

    def _assign(self, veh, index, t):
        st = self.stations[index]
        veh.cs_id = st.cs_id
        st.pending += 1
        if veh.origin == st.node:
            self._arrive(st, veh, t, float(t))
        else:
            veh.phase = DRIVE_CS
            veh.route = shortest_path(self.road, veh.origin, st.node,
                                      self.sim.travel_times())
            self.sim.enter_road(veh)

    def _finish(self, veh, t_end):
        veh.phase = DONE
        veh.t_done = t_end
        self._n_loaded -= 1
        self._n_unfinished -= 1
        self.completed.append(veh)

    def _check_stranded(self, t_end):
        """Take this tick's drained EVs off the road. Only the tick's
        movement lowers SoC, and chargers re-entering after it carry at
        least their target, so sim.drained is every driving EV at or
        below zero, in driving order."""
        for veh in self.sim.drained:
            self.sim.remove(veh)
            if veh.phase == DRIVE_CS and veh.cs_id is not None:
                cs = self.stations[self._cs_index[veh.cs_id]]
                if cs.pending > 0:
                    cs.pending -= 1
            veh.phase = STRANDED
            self._n_loaded -= 1
            self._n_unfinished -= 1
            self._ttt_ticks -= t_end - veh.depart_s   # keep the tick dual exact
            self.stranded.append(veh)

    def greedy_station(self, origin) -> int:
        """``greedy_station`` for this scenario's stations, memoised per
        origin. It ranks by static free-flow metres from the station nodes
        of ``cfg``, so one search per origin serves every episode, and the
        memo fills lazily (also before the first reset)."""
        idx = self._greedy_memo.get(origin)
        if idx is None:
            idx = greedy_station(self.road, self.cfg.stations, origin)
            self._greedy_memo[origin] = idx
        return idx

    # ------------------------------------------------------------------
    # sampling, droop, and power flow
    # ------------------------------------------------------------------

    def _load_sample(self):
        """(total kW, {bus: kW}). The total is one product, setpoint times
        charging EVs, so two instants with equal counts tie exactly however
        the EVs split over buses (a float sum of the per-bus kW would tie
        only up to rounding)."""
        n = sum(len(cs.charging) for cs in self.stations)
        return (self._setpoint * n,
                charging_loads_kw(self.stations, self._setpoint))

    def _minute_sample(self):
        """Record a load sample, append one ``minute_log`` row and, if the
        sample closes a demand window, one ``windows`` row (layouts in the
        module docstring)."""
        sample = self._load_sample()
        self._seg_peak = later_peak(self._seg_peak, sample)
        self._interval_peak = later_peak(self._interval_peak, sample)
        occ = np.array([len(cs.queue) + len(cs.charging) for cs in self.stations],
                       dtype=float)
        self.minute_log.append((self._t, occ, sample[0], self._setpoint))
        k = self._per_window
        if len(self.minute_log) % k == 0:
            demand = np.array([row[1] for row in self.minute_log[-k:]]).mean(axis=0)
            self.windows.append((self._station_features(), demand))

    def _update_droop(self):
        peak = self._interval_peak or self._load_sample()
        v_avg = self._power_flow(peak[1])[1]
        self._setpoint = droop_power(v_avg, self.cfg.droop)
        self._interval_peak = None
        occ = tuple(len(cs.queue) + len(cs.charging) for cs in self.stations)
        self.droop_log.append((self._t, v_avg, self._setpoint, occ))

    def _power_flow(self, loads):
        """(voltage deviation cost at ``cfg.reward.v_ref``, bus-average
        voltage, lowest bus voltage) of the power flow with per-bus extra
        loads {bus: kW}, from the feeder's memo (module docstring) or a new
        solve. The episode's ``v_min`` takes in the lowest voltage.

        The key holds ``v_ref`` and the loads with their bus ids, in bus
        order, since configs sharing a feeder may differ in both. A miss
        calls the module name ``solve_power_flow``, so a patch of it sees
        every solve; a ``PowerFlowError`` propagates and leaves no entry.
        """
        self._pf_lookups += 1
        key = (self.cfg.reward.v_ref,
               *[x for item in sorted(loads.items()) for x in item])
        memo = self._pf_memo
        figures = memo.get(key)
        if figures is not None:
            memo.move_to_end(key)
        else:
            sol = solve_power_flow(self.power, loads)
            self._pf_solves += 1
            self._pf_iterations += sol.iterations
            figures = (voltage_deviation(sol, self.cfg.reward.v_ref),
                       average_voltage(sol), min_voltage(sol))
            memo[key] = figures
            if len(memo) > PF_MEMO_CAP:
                memo.popitem(last=False)
        if figures[2] < self._v_min:
            self._v_min = figures[2]
        return figures
