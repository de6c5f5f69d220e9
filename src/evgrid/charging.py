"""Charging stations: FIFO pile queues, battery dynamics, droop setpoints.

A station owns a bounded set of charging piles and an unbounded FIFO queue.
Every pile delivers the station-wide setpoint, which a voltage droop rule
picks uniformly for all stations:

    p = p_min                      if v_avg <= v_ref1
    p = p_max                      if v_avg >= v_ref2
    p = slope * (v_avg - v_ref1) + p_min   otherwise,
    slope = (p_max - p_min) / (v_ref2 - v_ref1)

Charging advances in fixed ticks; a vehicle finishes on the tick its state
of charge reaches the target (no clamping, so the energy ledger stays exact:
capacity * (soc_end - soc_start) == charged_kwh - driven_kwh).

The environment steps a station only from its ``due`` tick. Between
changes of its charging set or of the setpoint, every tick of
``update_charging`` only adds one shared (kWh, SoC) gain to each charging
EV, so ``plan`` bounds, once per change, the ticks before any EV could
reach its target (a one-tick margin included) and the station is *parked*
until then: ``sync`` replays the skipped ticks lazily, one float operation
per tick (``soc += dsoc``, ``charged_kwh += kwh``), bit for bit. Its
charging EVs' fields lag until the next ``sync``: ``plan`` runs one itself,
and a caller runs one before it adds an EV, steps the station or reads its
features. Once due, a station is stepped every tick until its next
completion re-plans it. An idle station (nothing charging, hence nothing
queued) is never due.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .scenario import BatteryParams, DroopParams
from .traffic import CHARGING, QUEUED, Vehicle


def droop_power(v_avg: float, params: DroopParams) -> float:
    """Uniform pile setpoint in kW for a bus-average voltage."""
    if v_avg <= params.v_ref1:
        return params.p_min_kw
    if v_avg >= params.v_ref2:
        return params.p_max_kw
    slope = (params.p_max_kw - params.p_min_kw) / (params.v_ref2 - params.v_ref1)
    return slope * (v_avg - params.v_ref1) + params.p_min_kw


def tick_energy(dt: float, setpoint_kw: float, battery: BatteryParams):
    """(kWh, state-of-charge gain) of one charging EV over one tick.
    ``update_charging`` and ``plan`` both read it, so a parked station's
    replay stays bit for bit a run of ticks."""
    kwh = battery.eta * setpoint_kw * dt / 3600.0
    return kwh, kwh / battery.capacity_kwh


class ChargingStation:
    """One station: queue + piles at a road node, drawing at a feeder bus."""

    def __init__(self, cs_id: int, node: int, bus: int, piles: int):
        self.cs_id = cs_id
        self.node = node
        self.bus = bus
        self.piles = piles
        self.queue = deque()
        self.charging = []
        self.pending = 0            # EVs assigned and en route
        # lazy charging, set up by plan: the charging EVs carry every tick
        # before ``synced``, and from ``due`` on the station is stepped
        self.synced = 0
        self.due = math.inf
        self._gain = None           # tick_energy at the planned setpoint

    def submit_arrival(self, veh: Vehicle, t: float):
        """Vehicle reached the station node at time t."""
        if self.pending > 0:
            self.pending -= 1
        veh.t_cs_arrive = t
        if len(self.charging) < self.piles:
            self._start(veh, t)
        else:
            veh.phase = QUEUED
            self.queue.append(veh)

    def _start(self, veh: Vehicle, t: float):
        veh.t_charge_start = t
        veh.phase = CHARGING
        self.charging.append(veh)
        if self._gain is not None and self.due > self.synced:
            # parked, synced to now: the others' bound holds at the same
            # gain, so the newcomer's own bound is all that can come first
            due = self.synced + int((veh.soc_target - veh.soc)
                                    / self._gain[1]) - 1
            if due < self.due:
                self.due = due

    def update_charging(self, dt: float, setpoint_kw: float,
                        battery: BatteryParams, t_end: float):
        """One tick of charging at the current setpoint.

        Vehicles whose state of charge reaches the target stop at t_end and
        freed piles promote FIFO queue heads (they begin gaining energy on
        the next tick). Returns the finished vehicles in pile order.
        """
        finished = []
        kwh, dsoc = tick_energy(dt, setpoint_kw, battery)
        for veh in self.charging:
            veh.soc += dsoc
            veh.charged_kwh += kwh
            if veh.soc >= veh.soc_target:
                veh.t_charge_end = t_end
                finished.append(veh)
        if finished:
            self.charging = [veh for veh in self.charging
                             if veh.soc < veh.soc_target]
        while self.queue and len(self.charging) < self.piles:
            self._start(self.queue.popleft(), t_end)
        return finished

    def plan(self, tick: int, dt: float, setpoint_kw: float,
             battery: BatteryParams):
        """Sync to ``tick`` at the old setpoint, then charge lazily from
        ``tick`` on and set ``due`` to the first tick that must run
        ``update_charging``: the ticks before any charging EV could reach
        its target at this setpoint, with a one-tick margin against float
        rounding. Called once per change of the charging set or of the
        setpoint; ``_start`` updates the bound for an arrival."""
        self.sync(tick)
        self._gain = tick_energy(dt, setpoint_kw, battery)
        self.synced = tick
        gap = math.inf
        for veh in self.charging:
            g = veh.soc_target - veh.soc
            if g < gap:
                gap = g
        self.due = (tick + int(gap / self._gain[1]) - 1 if self.charging
                    else math.inf)

    def sync(self, tick: int):
        """Replay the charging of the ticks before ``tick`` that a parked
        station skipped (those before ``due``; from there on it is
        stepped), one float operation per tick as ``update_charging`` makes
        it, so the state is bit for bit what stepping every tick would
        leave. A station never planned has nothing to replay."""
        n = min(tick, self.due) - self.synced
        if n <= 0:
            return
        if self._gain is not None:
            kwh, dsoc = self._gain
            ticks = range(n)
            for veh in self.charging:
                soc = veh.soc
                charged = veh.charged_kwh
                for _ in ticks:
                    soc += dsoc
                    charged += kwh
                veh.soc = soc
                veh.charged_kwh = charged
        self.synced += n

    N_FEATURES = 9      # the length of ``state_features``

    def state_features(self, t: float) -> np.ndarray:
        """Raw 9-feature summary (counts, SoC stats, waiting stats, pending).

        Order: (n_queue, n_charging, mean/std queued SoC, mean/std charging
        SoC, mean/std elapsed queue wait in seconds, n_pending). Stats are
        population statistics; empty groups yield zeros.
        """
        q_soc = [v.soc for v in self.queue]
        c_soc = [v.soc for v in self.charging]
        waits = [t - v.t_cs_arrive for v in self.queue]
        mu_q, sd_q = _mean_std(q_soc)
        mu_c, sd_c = _mean_std(c_soc)
        mu_w, sd_w = _mean_std(waits)
        return np.array([len(self.queue), len(self.charging),
                         mu_q, sd_q, mu_c, sd_c, mu_w, sd_w,
                         float(self.pending)])


def _mean_std(xs):
    """(np.mean(xs), np.std(xs)) bit for bit, (0, 0) for an empty list.

    The same reductions numpy's _mean and _var make (pairwise add.reduce,
    one division by n, squared deviations, one sqrt) without their
    per-call dispatch."""
    n = len(xs)
    if not n:
        return 0.0, 0.0
    a = np.array(xs)
    mu = np.add.reduce(a) / n
    d = a - mu
    return float(mu), math.sqrt(np.add.reduce(d * d) / n)


def charging_loads_kw(stations, setpoint_kw: float):
    """Aggregate active-power draw per feeder bus, in kW."""
    out = {}
    for cs in stations:
        out[cs.bus] = out.get(cs.bus, 0.0) + setpoint_kw * len(cs.charging)
    return out
