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
capacity * (soc_end - soc_start) == charged_kwh - driven_kwh). The
environment does not step idle stations (nothing charging, nothing
queued): ``update_charging`` would change nothing there. Across a quiet
stretch, in which no EV reaches its target and so no queue head moves up,
``coast`` repeats each charger's per-tick float operations (``soc += dsoc``,
``charged_kwh += kwh``) and ``quiet_ticks`` bounds how long that holds.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .traffic import CHARGING, QUEUED, Vehicle


@dataclass(frozen=True)
class BatteryParams:
    capacity_kwh: float = 24.0
    eta: float = 0.9                    # charging efficiency
    rho_kwh_per_km: float = 0.15        # driving consumption

    def __post_init__(self):
        if self.capacity_kwh <= 0 or not (0 < self.eta <= 1) or self.rho_kwh_per_km < 0:
            raise ValueError("invalid battery parameters")


@dataclass(frozen=True)
class DroopParams:
    v_ref1: float = 0.90
    v_ref2: float = 0.95
    p_max_kw: float = 50.0
    min_fraction: float = 0.30
    interval_s: float = 600.0

    def __post_init__(self):
        if not (0 < self.v_ref1 < self.v_ref2):
            raise ValueError("need 0 < v_ref1 < v_ref2")
        if self.p_max_kw <= 0 or not (0 < self.min_fraction <= 1) or self.interval_s <= 0:
            raise ValueError("invalid droop parameters")

    @property
    def p_min_kw(self) -> float:
        return self.min_fraction * self.p_max_kw


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
    ``update_charging``, ``quiet_ticks`` and ``coast`` all read it, so a
    coast stays bit for bit a run of ticks."""
    kwh = battery.eta * setpoint_kw * dt / 3600.0
    return kwh, kwh / battery.capacity_kwh


class ChargingStation:
    """One station: queue + piles at a road node, drawing at a feeder bus."""

    def __init__(self, cs_id: int, node: int, bus: int, piles: int):
        if piles < 1:
            raise ValueError("need at least one pile")
        self.cs_id = cs_id
        self.node = node
        self.bus = bus
        self.piles = piles
        self.queue = deque()
        self.charging = []
        self.pending = 0            # EVs assigned and en route

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

    def quiet_ticks(self, dt: float, setpoint_kw: float,
                    battery: BatteryParams) -> int:
        """Ticks of ``update_charging`` before any charging EV could reach
        its target, with a one-tick margin against float rounding."""
        gap = math.inf
        for veh in self.charging:
            g = veh.soc_target - veh.soc
            if g < gap:
                gap = g
        return int(gap / tick_energy(dt, setpoint_kw, battery)[1]) - 1

    def coast(self, k: int, dt: float, setpoint_kw: float,
              battery: BatteryParams):
        """k ticks of ``update_charging`` in which no EV reaches its target
        (as ``quiet_ticks`` bounds), bit for bit."""
        kwh, dsoc = tick_energy(dt, setpoint_kw, battery)
        ticks = range(k)
        for veh in self.charging:
            soc = veh.soc
            charged = veh.charged_kwh
            for _ in ticks:
                soc += dsoc
                charged += kwh
            veh.soc = soc
            veh.charged_kwh = charged

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
