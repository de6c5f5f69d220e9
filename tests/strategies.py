"""Hypothesis strategies for small random scenarios.

``scenarios()`` draws a complete, loadable ``ScenarioConfig`` built to reach
the corners of the simulator that the bundled scenarios rarely touch:

* a strongly connected road graph (a random Hamiltonian cycle plus extra
  links) with links from ~5 m, so that one tick crosses several nodes, up
  to a few hundred metres, and 1-3 lanes;
* a random radial feeder from ``random_radial``;
* 1-4 stations with 1-3 piles each, on random nodes and non-slack buses;
* tiny batteries, so that EVs strand, and sometimes a zero consumption;
* demand high enough to form queues at the piles;
* droop intervals that are, and are not, multiples of the minute sample,
  and, for half the feeders, a droop band where their voltages sit.

The drawn values are a handful of sizes and one numpy seed, from which the
networks and parameters follow, so ``derandomize=True`` examples stay cheap
to generate and to replay.

``NO_SHRINK`` is the phase list for tests whose examples run whole
episodes: shrinking replays them and can take minutes, so without it a
failure reports the first failing example in seconds, unminimised.
"""

from __future__ import annotations

import numpy as np
from hypothesis import Phase
from hypothesis import strategies as st

from evgrid.charging import BatteryParams, DroopParams
from evgrid.power import Bus, Line, PowerNetwork
from evgrid.scenario import (DemandSpec, PredictorConfig, RewardParams,
                             ScenarioConfig, StationSpec, TrainConfig)
from evgrid.traffic import RoadLink, RoadNetwork

BASE_MVA = 10.0
BASE_KV = 12.66
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


def random_radial(rng, n_buses):
    """Random radial feeder: bus 1 is the slack, every other bus hangs off
    an earlier one, with random loads and line impedances."""
    buses = [Bus(1, "slack", 0.0, 0.0)]
    lines = []
    for i in range(2, n_buses + 1):
        parent = int(rng.integers(1, i))
        buses.append(Bus(i, "pq", float(rng.uniform(0, 200)), float(rng.uniform(0, 120))))
        lines.append(Line(parent, i, float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0))))
    return PowerNetwork(buses, lines, BASE_MVA, BASE_KV)


def random_road(rng, n_nodes, n_extra):
    """Strongly connected road graph on nodes 1..n_nodes: a directed cycle
    through every node in random order, plus ``n_extra`` random links."""
    nodes = {i: (float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
             for i in range(1, n_nodes + 1)}
    order = [int(i) for i in rng.permutation(n_nodes) + 1]
    pairs = [(order[i], order[(i + 1) % n_nodes]) for i in range(n_nodes)]
    for _ in range(n_extra):
        a, b = (int(x) for x in rng.choice(n_nodes, 2, replace=False) + 1)
        pairs.append((a, b))
    links = [RoadLink(link_id=lid, from_node=a, to_node=b,
                      length_m=float(10 ** rng.uniform(np.log10(5), np.log10(400))),
                      lanes=int(rng.integers(1, 4)),
                      vf_ms=float(rng.uniform(20, 70)) / 3.6,
                      kjam_m_lane=float(rng.uniform(100, 200)) / 1000.0)
             for lid, (a, b) in enumerate(pairs, 1)]
    return RoadNetwork(nodes, links)


@st.composite
def scenarios(draw):
    """A small random ``ScenarioConfig`` (see the module docstring)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_nodes = draw(st.integers(3, 8))
    road = random_road(rng, n_nodes, draw(st.integers(0, 2 * n_nodes)))
    power = random_radial(rng, draw(st.integers(3, 8)))
    n_stations = draw(st.integers(1, 4))
    stations = tuple(
        StationSpec(cs_id=i, node=int(rng.integers(1, n_nodes + 1)),
                    bus=int(rng.integers(2, len(power.buses) + 1)),
                    piles=int(rng.integers(1, 4)))
        for i in range(n_stations))
    demand = DemandSpec(
        rate_veh_per_h=float(draw(st.integers(200, 1200))),
        ev_fraction=draw(st.sampled_from([0.3, 0.6, 1.0])),
        warmup_s=float(draw(st.sampled_from([60, 120]))),
        control_s=float(draw(st.integers(60, 240))))
    battery = BatteryParams(
        capacity_kwh=float(10 ** rng.uniform(-2, 0)),
        rho_kwh_per_km=draw(st.sampled_from([0.0, 0.15, 0.3])))
    interval_s = float(draw(st.sampled_from([30, 45, 60, 90, 600])))
    seed = int(rng.integers(0, 1000))
    # half the feeders get a droop band just under 1 pu, where their bus
    # voltages sit, so that the setpoint moves
    band = {} if rng.random() < 0.5 else {
        "v_ref1": float(rng.uniform(0.99, 0.999)), "v_ref2": 1.0}
    droop = DroopParams(interval_s=interval_s, **band)
    return ScenarioConfig(
        name="random", seed=seed, road_net=road,
        power_net=power, stations=stations, demand=demand, battery=battery,
        droop=droop, reward=RewardParams(),
        predictor=PredictorConfig(enc_len=1, dec_len=1, window_s=60.0),
        training=TrainConfig(),
        compliance_rate=draw(st.sampled_from([1.0, 0.5])))
