"""Charging-station, battery, and droop-law tests."""

import numpy as np
import pytest

from evgrid.charging import (
    BatteryParams,
    ChargingStation,
    DroopParams,
    _mean_std,
    charging_loads_kw,
    droop_power,
)
from evgrid.traffic import CHARGING, DRIVE_CS, QUEUED, Vehicle

BAT = BatteryParams()          # 24 kWh, eta 0.9, 0.15 kWh/km
DROOP = DroopParams()          # 0.90 / 0.95, 50 kW, 30% floor, 600 s


def _ev(vid, soc=0.5, target=0.8):
    v = Vehicle(vid, 1, 2, 0.0, is_ev=True, soc=soc, soc_target=target)
    v.phase = DRIVE_CS
    return v


def test_droop_exact_values():
    assert droop_power(0.88, DROOP) == 15.0
    assert droop_power(0.90, DROOP) == 15.0
    assert abs(droop_power(0.925, DROOP) - 32.5) < 1e-12
    assert droop_power(0.95, DROOP) == 50.0
    assert droop_power(0.97, DROOP) == 50.0
    assert DROOP.p_min_kw == pytest.approx(15.0)


def test_droop_piecewise_linear_monotone_continuous():
    vs = np.linspace(0.85, 1.0, 601)
    ps = [droop_power(float(v), DROOP) for v in vs]
    assert all(b - a >= -1e-12 for a, b in zip(ps, ps[1:]))
    assert all(DROOP.p_min_kw <= p <= DROOP.p_max_kw for p in ps)
    # continuity at the knees
    assert droop_power(0.90 + 1e-12, DROOP) == pytest.approx(15.0, abs=1e-8)
    assert droop_power(0.95 - 1e-12, DROOP) == pytest.approx(50.0, abs=1e-8)


def test_droop_parameter_validation():
    with pytest.raises(ValueError):
        DroopParams(v_ref1=0.95, v_ref2=0.90)
    with pytest.raises(ValueError):
        DroopParams(min_fraction=0.0)
    with pytest.raises(ValueError):
        BatteryParams(eta=0.0)


def test_arrival_starts_charging_when_pile_free():
    cs = ChargingStation(0, node=5, bus=18, piles=2)
    v = _ev(0)
    cs.pending = 1
    cs.submit_arrival(v, 100.0)
    assert v.phase == CHARGING
    assert v.t_cs_arrive == 100.0 and v.t_charge_start == 100.0
    assert cs.pending == 0
    assert (len(cs.queue), len(cs.charging)) == (0, 1)


def test_fifo_queue_and_promotion_order():
    cs = ChargingStation(0, node=5, bus=18, piles=1)
    a, b, c = _ev(0, soc=0.79), _ev(1, soc=0.3), _ev(2, soc=0.3)
    cs.submit_arrival(a, 0.0)
    cs.submit_arrival(b, 1.0)
    cs.submit_arrival(c, 2.0)
    assert a.phase == CHARGING and b.phase == QUEUED and c.phase == QUEUED
    assert [v.vid for v in cs.queue] == [1, 2]
    # a needs one tick at 50 kW to pass 0.8
    done = cs.update_charging(60.0, 50.0, BAT, 60.0)
    assert [v.vid for v in done] == [0]
    assert b.phase == CHARGING and b.t_charge_start == 60.0
    assert c.phase == QUEUED


def test_soc_gain_per_minute():
    cs = ChargingStation(0, 5, 18, piles=1)
    v = _ev(0, soc=0.5)
    cs.submit_arrival(v, 0.0)
    cs.update_charging(60.0, 50.0, BAT, 60.0)
    # 0.9 * 50 kW * 60 s = 0.75 kWh on 24 kWh -> 3.125 %
    assert v.soc == pytest.approx(0.53125)
    assert v.charged_kwh == pytest.approx(0.75)


def test_charging_time_oracle_580_seconds():
    # 50% -> 80% at 50 kW, eta 0.9, 24 kWh, 10 s ticks: exactly 58 ticks
    cs = ChargingStation(0, 5, 18, piles=1)
    v = _ev(0, soc=0.5, target=0.8)
    cs.submit_arrival(v, 0.0)
    t = 0.0
    ticks = 0
    while v.phase == CHARGING:
        t += 10.0
        ticks += 1
        cs.update_charging(10.0, 50.0, BAT, t)
        if v.t_charge_end is not None:
            break
        assert ticks < 100
    assert ticks == 58
    assert v.t_charge_end == pytest.approx(580.0)
    assert v.soc >= 0.8


def test_charging_duration_scales_with_setpoint():
    def ticks_needed(p_kw):
        cs = ChargingStation(0, 5, 18, piles=1)
        v = _ev(0, soc=0.5, target=0.8)
        cs.submit_arrival(v, 0.0)
        n = 0
        while v.t_charge_end is None:
            n += 1
            cs.update_charging(10.0, p_kw, BAT, n * 10.0)
        return n
    # p_min vs p_max: 10/3 ratio in energy rate
    assert ticks_needed(15.0) == 192        # ceil(57.6 * 10 / 3)
    assert ticks_needed(50.0) == 58


def test_energy_ledger_closes_exactly():
    bat = BAT
    v = _ev(0, soc=0.45, target=0.8)
    # simulate driving drain like the traffic engine does
    for _ in range(600):
        kwh = bat.rho_kwh_per_km * (12.0 / 1000.0)
        v.driven_kwh += kwh
        v.soc -= kwh / bat.capacity_kwh
    cs = ChargingStation(0, 5, 18, piles=1)
    cs.submit_arrival(v, 600.0)
    t = 600.0
    while v.t_charge_end is None:
        t += 1.0
        cs.update_charging(1.0, 42.5, bat, t)
    for _ in range(300):
        kwh = bat.rho_kwh_per_km * (13.0 / 1000.0)
        v.driven_kwh += kwh
        v.soc -= kwh / bat.capacity_kwh
    balance = bat.capacity_kwh * (v.soc - v.soc_init)
    assert balance == pytest.approx(v.charged_kwh - v.driven_kwh, abs=1e-9)


def test_state_features_empty_singleton_pair():
    cs = ChargingStation(0, 5, 18, piles=2)
    f = cs.state_features(0.0)
    assert np.array_equal(f, np.zeros(9))

    v = _ev(0, soc=0.4)
    cs.submit_arrival(v, 0.0)
    f = cs.state_features(30.0)
    # singleton charging set: mean 0.4, std 0
    assert f[1] == 1 and f[4] == pytest.approx(0.4) and f[5] == 0.0
    assert f[0] == 0 and f[6] == 0.0

    w1, w2 = _ev(1, soc=0.3), _ev(2, soc=0.5)
    cs.submit_arrival(w1, 10.0)
    cs.submit_arrival(w2, 20.0)        # piles=2 so w2 queues
    f = cs.state_features(50.0)
    assert f[0] == 1 and f[1] == 2
    assert f[2] == pytest.approx(0.5) and f[3] == 0.0
    assert f[4] == pytest.approx(0.35) and f[5] == pytest.approx(0.05)
    assert f[6] == pytest.approx(30.0) and f[7] == 0.0


def test_state_features_population_std():
    cs = ChargingStation(0, 5, 18, piles=4)
    for vid, soc in enumerate((0.3, 0.5)):
        cs.submit_arrival(_ev(vid, soc=soc), 0.0)
    f = cs.state_features(0.0)
    assert f[4] == pytest.approx(0.4)
    assert f[5] == pytest.approx(0.1)      # population, not sample, std


def test_pending_counts_in_features():
    cs = ChargingStation(0, 5, 18, piles=1)
    cs.pending = 3
    assert cs.state_features(0.0)[8] == 3.0


def test_aggregate_loads_by_bus():
    a = ChargingStation(0, 5, 18, piles=4)
    b = ChargingStation(1, 6, 18, piles=4)
    c = ChargingStation(2, 7, 25, piles=4)
    for cs, n in ((a, 2), (b, 1), (c, 3)):
        for k in range(n):
            cs.submit_arrival(_ev(10 * cs.cs_id + k), 0.0)
    loads = charging_loads_kw([a, b, c], 32.5)
    assert loads[18] == pytest.approx(32.5 * 3)
    assert loads[25] == pytest.approx(32.5 * 3)


def test_overshoot_kept_for_ledger_exactness():
    cs = ChargingStation(0, 5, 18, piles=1)
    v = _ev(0, soc=0.5, target=0.8)
    cs.submit_arrival(v, 0.0)
    while v.t_charge_end is None:
        cs.update_charging(10.0, 50.0, BAT, 10.0)
    # 58 ticks * 0.125 kWh = 7.25 kWh -> soc slightly above target
    assert v.soc == pytest.approx(0.5 + 7.25 / 24.0)
    assert v.soc > 0.8


def test_mean_std_matches_numpy_bit_for_bit():
    # lengths past 8 take numpy's pairwise-summation branch
    rng = np.random.default_rng(0)
    for n in list(range(1, 40)) + [int(k) for k in rng.integers(40, 301, 200)]:
        for scale in (1.0, 1e-3, 600.0):
            xs = list(rng.uniform(0.0, scale, n) + rng.choice([0.0, 1e6]))
            assert _mean_std(xs) == (float(np.mean(xs)), float(np.std(xs)))
    assert _mean_std([]) == (0.0, 0.0)


def test_idle_station_update_changes_nothing():
    """The environment skips stations with nothing charging or queued;
    update_charging there would return nothing and leave the state as is."""
    cs = ChargingStation(3, 1, 2, piles=2)
    cs.pending = 1
    before = dict(vars(cs))
    assert cs.update_charging(1.0, 50.0, BAT, t_end=7.0) == []
    assert vars(cs) == before
