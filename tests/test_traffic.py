"""Road network, routing, and vehicle-stepping tests."""

import copy
import math
import re
import shutil

import numpy as np
import pytest

import evgrid
from evgrid.traffic import (
    DONE,
    DRIVE_DEST,
    NoPathError,
    RoadLink,
    RoadNetwork,
    V_MIN_MS,
    TrafficSim,
    Vehicle,
    link_speed,
    load_road_network,
    path_length_m,
    record_trip_times,
    shortest_path,
)

from strategies import random_road


class _Battery:
    capacity_kwh = 24.0
    rho_kwh_per_km = 0.15


def _link(lid, a, b, length=1000.0, lanes=1, vf=10.0, kjam=0.1):
    return RoadLink(lid, a, b, length, lanes, vf, kjam)


def _diamond():
    # 1 -> 2 via top (links 1,2) or bottom (links 3,4); equal geometry
    nodes = {1: (0, 0), 2: (2, 0), 3: (1, 1), 4: (1, -1)}
    links = [_link(1, 1, 3), _link(2, 3, 2), _link(3, 1, 4), _link(4, 4, 2)]
    return RoadNetwork(nodes, links)


def test_fixture_road_network_loads():
    net = load_road_network(evgrid.DATA_DIR / "nguyen_dupuis")
    assert len(net.nodes) == 13
    assert len(net.links) == 19
    for ln in net.links.values():
        assert 1000.0 <= ln.length_m <= 2000.0
        assert ln.vf_ms == pytest.approx(50.0 / 3.6)
    assert 2 in net.reachable_from(1)
    assert 1 not in net.reachable_from(2)       # node 2 is a sink


def test_normalized_coordinates():
    net = load_road_network(evgrid.DATA_DIR / "nguyen_dupuis")
    assert net.normalized_xy(4) == (0.0, pytest.approx(2.0 / 3.0))
    assert net.normalized_xy(8) == (1.0, pytest.approx(2.0 / 3.0))


def test_link_speed_and_travel_time():
    ln = _link(1, 1, 2, length=1000.0, vf=10.0, kjam=0.1)
    assert link_speed(ln, 0) == 10.0
    # half jam density: 50 others on 1000 m at kjam 0.1/m
    assert ln.length_m / link_speed(ln, 50) == pytest.approx(200.0)
    # floor at 1 m/s even past jam density
    assert link_speed(ln, 1000) == 1.0


def test_shortest_path_basics():
    net = _diamond()
    assert shortest_path(net, 1, 1) == []
    tt = {1: 30.0, 2: 30.0, 3: 20.0, 4: 20.0}
    assert shortest_path(net, 1, 2, tt) == [3, 4]
    tt = {1: 10.0, 2: 10.0, 3: 20.0, 4: 20.0}
    assert shortest_path(net, 1, 2, tt) == [1, 2]
    with pytest.raises(NoPathError):
        shortest_path(net, 2, 1)


def test_shortest_path_tie_breaks_lexicographically():
    net = _diamond()
    tt = {1: 25.0, 2: 25.0, 3: 25.0, 4: 25.0}     # exact tie
    assert shortest_path(net, 1, 2, tt) == [1, 2]
    # make the higher-id pair cheaper on the first hop but tie overall
    tt = {1: 30.0, 2: 20.0, 3: 20.0, 4: 30.0}
    assert shortest_path(net, 1, 2, tt) == [1, 2]  # still smallest sequence


def test_shortest_path_on_fixture_uses_free_flow_default():
    net = load_road_network(evgrid.DATA_DIR / "nguyen_dupuis")
    path = shortest_path(net, 1, 2)
    assert [net.links[lid].from_node for lid in path][0] == 1
    assert net.links[path[-1]].to_node == 2
    assert path_length_m(net, path) > 0


def test_single_vehicle_free_flow_arrival():
    # 700 m at 14 m/s: arrives exactly at tick 50 (self-excluding density)
    nodes = {1: (0, 0), 2: (1, 0)}
    net = RoadNetwork(nodes, [_link(1, 1, 2, length=700.0, vf=14.0, kjam=0.12)])
    sim = TrafficSim(net)
    veh = Vehicle(0, 1, 2, 0.0)
    veh.route = [1]
    sim.enter_road(veh)
    ticks = 0
    arrived = []
    while not arrived:
        arrived = sim.step(1.0)
        ticks += 1
        assert ticks <= 51
    assert ticks == 50
    assert sim.counts[1] == 0 and not sim.driving


def test_two_vehicles_slow_each_other():
    nodes = {1: (0, 0), 2: (1, 0)}
    net = RoadNetwork(nodes, [_link(1, 1, 2, length=500.0, vf=10.0, kjam=0.02)])
    sim = TrafficSim(net)
    a = Vehicle(0, 1, 2, 0.0)
    a.route = [1]
    b = Vehicle(1, 1, 2, 0.0)
    b.route = [1]
    sim.enter_road(a)
    sim.enter_road(b)
    sim.step(1.0)
    # each perceives one other: k = 1/500 = 0.002, v = 10 * (1 - 0.1) = 9
    assert a.pos_m == pytest.approx(9.0)
    assert b.pos_m == pytest.approx(9.0)


def test_leftover_distance_carries_across_links():
    nodes = {1: (0, 0), 2: (1, 0), 3: (2, 0)}
    net = RoadNetwork(nodes, [_link(1, 1, 2, length=95.0, vf=10.0),
                              _link(2, 2, 3, length=100.0, vf=10.0)])
    sim = TrafficSim(net)
    veh = Vehicle(0, 1, 3, 0.0)
    veh.route = [1, 2]
    sim.enter_road(veh)
    for _ in range(10):
        sim.step(1.0)
    # 100 m traveled: 95 on link 1, 5 carried onto link 2
    assert veh.route_idx == 1
    assert veh.pos_m == pytest.approx(5.0)
    assert sim.counts[1] == 0 and sim.counts[2] == 1


def test_ev_energy_drain_and_ledger():
    nodes = {1: (0, 0), 2: (1, 0)}
    net = RoadNetwork(nodes, [_link(1, 1, 2, length=1000.0, vf=10.0)])
    sim = TrafficSim(net, battery=_Battery())
    veh = Vehicle(0, 1, 2, 0.0, is_ev=True, soc=0.5)
    veh.route = [1]
    sim.enter_road(veh)
    while not sim.step(1.0):
        pass
    # 1 km at 0.15 kWh/km on a 24 kWh pack
    assert veh.driven_kwh == pytest.approx(0.15)
    assert veh.soc == pytest.approx(0.5 - 0.15 / 24.0)


def test_density_vector_counts_everyone():
    net = _diamond()
    sim = TrafficSim(net)
    for vid in range(3):
        v = Vehicle(vid, 1, 2, 0.0)
        v.route = [1, 2]
        sim.enter_road(v)
    dens = sim.density_vector()
    ln = net.links[1]
    expected = (3 / (ln.length_m * ln.lanes)) / ln.kjam_m_lane
    assert dens[0] == pytest.approx(expected)
    assert np.all(dens[1:] == 0.0)
    assert dens.shape == (4,)


def test_density_vector_clips_at_one():
    nodes = {1: (0, 0), 2: (1, 0)}
    net = RoadNetwork(nodes, [_link(1, 1, 2, length=100.0, kjam=0.01)])
    sim = TrafficSim(net)
    for vid in range(5):
        v = Vehicle(vid, 1, 2, 0.0)
        v.route = [1]
        sim.enter_road(v)
    assert sim.density_vector()[0] == 1.0


def check_travel_times(sim):
    """``sim.travel_times()`` is ``length_m / link_speed(link, count)`` per
    link, bit for bit; returns how many links ran at the ``V_MIN_MS``
    floor."""
    links = sim.net.links
    speeds = {lid: link_speed(links[lid], n) for lid, n in sim.counts.items()}
    want = {lid: (links[lid].length_m / v).hex() for lid, v in speeds.items()}
    assert {lid: t.hex() for lid, t in sim.travel_times().items()} == want
    return sum(v == V_MIN_MS for v in speeds.values())


def test_density_vector_matches_the_per_link_formula():
    """The array form gives each link's ``min((count / cap) / kjam, 1.0)``
    bit for bit, on networks whose links are given out of id order and
    counts on both sides of the clip. ``travel_times`` gives each link's
    ``length_m / link_speed`` bit for bit on the same counts, on counts
    drawn around each link's ``V_MIN_MS`` floor, and again on every count
    after its table entry was filled."""
    rng = np.random.default_rng(0)
    nets = [load_road_network(evgrid.DATA_DIR / "nguyen_dupuis")]
    for _ in range(30):
        base = random_road(rng, int(rng.integers(3, 9)),
                           int(rng.integers(0, 10)))
        order = rng.permutation(len(base.link_ids))
        nets.append(RoadNetwork(base.nodes, [base.links[base.link_ids[i]]
                                             for i in order]))
    floored = links = 0
    for net in nets:
        sim = TrafficSim(net)
        rounds = []
        for _ in range(5):
            for lid in net.link_ids:
                sim.counts[lid] = int(rng.integers(0, 250))
            want = np.empty(len(net.link_ids))
            for i, lid in enumerate(net.link_ids):
                _, cap, _, kjam = net.link_params[lid]
                want[i] = min((sim.counts[lid] / cap) / kjam, 1.0)
            assert sim.density_vector().tobytes() == want.tobytes()
            check_travel_times(sim)
            rounds.append(dict(sim.counts))
        for _ in range(5):
            for lid in net.link_ids:
                # v = vf * (1 - (n / cap) / kjam) falls to V_MIN_MS here
                _, cap, vf, kjam = net.link_params[lid]
                edge = math.floor(cap * kjam * (1.0 - V_MIN_MS / vf))
                sim.counts[lid] = max(0, edge + int(rng.integers(-1, 3)))
            floored += check_travel_times(sim)
            links += len(net.link_ids)
            rounds.append(dict(sim.counts))
        for counts in rounds:
            sim.counts.update(counts)
            check_travel_times(sim)
    assert 0 < floored < links


def test_record_trip_times_cv_and_ev():
    cv = Vehicle(0, 1, 2, 100.0)
    cv.t_done = 400.0
    t = record_trip_times(cv)
    assert (t.tt_drive, t.tt_wait, t.tt_charge, t.tt_total) == (300.0, 0, 0, 300.0)

    ev = Vehicle(1, 1, 2, 0.0, is_ev=True)
    ev.cs_id = 0
    ev.t_cs_arrive = 440.0
    ev.t_charge_start = 500.0
    ev.t_charge_end = 1100.0
    ev.t_done = 1700.0
    t = record_trip_times(ev)
    assert t.tt_drive == pytest.approx(1040.0)
    assert t.tt_wait == pytest.approx(60.0)
    assert t.tt_charge == pytest.approx(600.0)
    assert t.tt_total == pytest.approx(1700.0)

    unfinished = Vehicle(2, 1, 2, 0.0)
    with pytest.raises(ValueError, match="not finished"):
        record_trip_times(unfinished)


def test_vehicle_conservation_property():
    rng = np.random.default_rng(0)
    net = load_road_network(evgrid.DATA_DIR / "nguyen_dupuis")
    sim = TrafficSim(net)
    active = 0
    finished = 0
    vid = 0
    for tick in range(800):
        if tick % 3 == 0 and tick < 600:
            origin = 1 if vid % 2 == 0 else 4
            dests = [d for d in (2, 3) if d in net.reachable_from(origin)]
            dest = dests[vid % len(dests)]
            veh = Vehicle(vid, origin, dest, float(tick))
            veh.route = shortest_path(net, origin, dest)
            sim.enter_road(veh)
            active += 1
            vid += 1
        arrived = sim.step(1.0)
        active -= len(arrived)
        finished += len(arrived)
        assert sum(sim.counts.values()) == len(sim.driving) == active
        assert all(c >= 0 for c in sim.counts.values())
    assert finished > 0


def test_stepping_is_deterministic():
    net = load_road_network(evgrid.DATA_DIR / "nguyen_dupuis")

    def run():
        sim = TrafficSim(net)
        log = []
        for tick in range(400):
            if tick % 5 == 0:
                veh = Vehicle(tick, 1, 2, float(tick))
                veh.route = shortest_path(net, 1, 2, sim.travel_times())
                sim.enter_road(veh)
            for v in sim.step(1.0):
                log.append((tick, v.vid))
        return log

    assert run() == run()


def test_network_validation():
    with pytest.raises(ValueError, match="unknown node"):
        RoadNetwork({1: (0, 0)}, [_link(1, 1, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        RoadNetwork({1: (0, 0), 2: (1, 0)}, [_link(1, 1, 2), _link(1, 2, 1)])
    for bad in (dict(length=-5.0), dict(length=math.nan), dict(vf=math.nan),
                dict(kjam=math.nan)):
        with pytest.raises(ValueError, match="invalid parameters"):
            RoadNetwork({1: (0, 0), 2: (1, 0)}, [_link(1, 1, 2, **bad)])


def _edit_row(tmp_path, name, lineno, old, new):
    """A copy of the nguyen_dupuis fixture whose ``name`` file line
    ``lineno`` reads ``new`` instead of ``old``; returns (directory,
    file)."""
    net = tmp_path / "net"
    shutil.copytree(evgrid.DATA_DIR / "nguyen_dupuis", net)
    path = net / name
    rows = path.read_text().splitlines()
    assert rows[lineno - 1] == old
    rows[lineno - 1] = new
    path.write_text("\n".join(rows) + "\n")
    return net, path


LINK_1 = ("links.csv", 4, "1,1,5,1200,1,50,100")
NODE_1 = ("nodes.csv", 4, "1,1.0,3.0")


@pytest.mark.parametrize("row,new,error", [
    pytest.param(LINK_1, "1,1,5,12O0,1,50,100",
                 "could not convert string to float: '12O0'", id="typo"),
    pytest.param(LINK_1, "1,1,5,nan,1,50,100",
                 "length_m must be finite, got 'nan'", id="nan-length"),
    pytest.param(LINK_1, "1,1,5,1200,1,inf,100",
                 "vf_kmh must be finite, got 'inf'", id="inf-speed"),
    pytest.param(LINK_1, "1,1,5,1200,1,50,-inf",
                 "kjam_per_km must be finite, got '-inf'", id="inf-jam"),
    pytest.param(NODE_1, "1,nan,3.0", "x must be finite, got 'nan'",
                 id="nan-node"),
])
def test_bad_link_cell_names_its_file_and_line(tmp_path, row, new, error):
    net, path = _edit_row(tmp_path, *row, new)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:{row[1]}: {error}")):
        load_road_network(net)


def test_repeated_node_id_names_the_repeat(tmp_path):
    net, nodes = _edit_row(tmp_path, "nodes.csv", 16, "13,2.0,0.0",
                           "13,2.0,0.0\n1,999,999")
    with pytest.raises(ValueError, match=re.escape(
            f"{nodes}:17: duplicate id 1")):
        load_road_network(net)


def test_invalid_link_names_its_file(tmp_path):
    net, links = _edit_row(tmp_path, *LINK_1, "1,1,5,1200,1,50,0")
    with pytest.raises(ValueError, match=re.escape(
            f"{links}: link 1 has invalid parameters")):
        load_road_network(net)


def _reference_step(sim, dt=1.0):
    """TrafficSim.step as first written: per-vehicle link_speed calls and a
    single crossing loop. Returns (arrived, EVs still driving at SoC <= 0
    found by a full scan)."""
    links = sim.net.links
    counts = sim.counts
    speeds = {}
    arrived, still = [], []
    for veh in sim.driving:
        lid = veh.route[veh.route_idx]
        v = speeds.get(lid)
        if v is None:
            v = link_speed(links[lid], counts[lid] - 1)
            speeds[lid] = v
        remaining = v * dt
        traveled = 0.0
        finished = False
        while True:
            link = links[veh.route[veh.route_idx]]
            to_end = link.length_m - veh.pos_m
            if remaining < to_end:
                veh.pos_m += remaining
                traveled += remaining
                break
            traveled += to_end
            remaining -= to_end
            counts[veh.route[veh.route_idx]] -= 1
            veh.route_idx += 1
            if veh.route_idx >= len(veh.route):
                finished = True
                break
            counts[veh.route[veh.route_idx]] += 1
            veh.pos_m = 0.0
        if veh.is_ev and sim.battery is not None and traveled > 0.0:
            kwh = sim.battery.rho_kwh_per_km * (traveled / 1000.0)
            veh.driven_kwh += kwh
            veh.soc -= kwh / sim.battery.capacity_kwh
        (arrived if finished else still).append(veh)
    sim.driving = still
    return arrived, [v for v in still if v.is_ev and v.soc <= 0.0]


def _vehicle_state(v):
    return (v.vid, v.route_idx, v.pos_m, v.soc, v.driven_kwh)


def _shortened(factor):
    net = load_road_network(evgrid.DATA_DIR / "nguyen_dupuis")
    return RoadNetwork(net.nodes, [
        RoadLink(ln.link_id, ln.from_node, ln.to_node, ln.length_m / factor,
                 ln.lanes, ln.vf_ms, ln.kjam_m_lane)
        for ln in net.links.values()])


def test_step_matches_reference_bit_for_bit():
    """Random departures with short links (several crossings per tick) and
    small batteries (EVs drain to zero en route): every position, SoC,
    count, arrival and drained EV equals the reference step exactly."""
    short = _shortened(150.0)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        fast, ref = TrafficSim(short, _Battery()), TrafficSim(short, _Battery())
        nodes = sorted(short.nodes)
        n_drained = n_crossed = 0
        vid = 0
        for tick in range(300):
            for _ in range(int(rng.integers(0, 4))):
                o, d = (int(x) for x in rng.choice(nodes, 2, replace=False))
                if d not in short.reachable_from(o):
                    continue
                route = shortest_path(short, o, d, fast.travel_times())
                assert route == shortest_path(short, o, d, ref.travel_times())
                is_ev = bool(rng.random() < 0.5)
                soc = float(rng.uniform(0.00005, 0.0004))
                for sim in (fast, ref):
                    veh = Vehicle(vid, o, d, float(tick), is_ev=is_ev, soc=soc)
                    veh.route = list(route)
                    sim.enter_road(veh)
                vid += 1
            before = {v.vid: v.route_idx for v in fast.driving}
            arrived = fast.step(1.0)
            fast.sync()
            want_arrived, want_drained = _reference_step(ref, 1.0)
            assert ([_vehicle_state(v) for v in arrived]
                    == [_vehicle_state(v) for v in want_arrived])
            assert ([_vehicle_state(v) for v in fast.driving]
                    == [_vehicle_state(v) for v in ref.driving])
            assert ([v.vid for v in fast.drained]
                    == [v.vid for v in want_drained])
            assert fast.counts == ref.counts
            n_drained += len(fast.drained)
            n_crossed += sum(v.route_idx > before[v.vid] + 1
                             for v in fast.driving)
            for sim, bad in ((fast, fast.drained), (ref, want_drained)):
                for veh in bad:
                    sim.remove(veh)
        assert n_drained > 0 and n_crossed > 0


def _snapshot(sim):
    return repr(([(v.vid, v.route_idx, v.pos_m, v.soc, v.driven_kwh)
                  for v in sim.driving], sim.counts))


def test_parked_fleets_match_steps_bit_for_bit():
    """200 random fleets on 10x-shortened links, with departures on the
    way and drained EVs taken off: after every tick the parking simulator,
    synced, equals the reference step (every vehicle moved every tick) bit
    for bit, while parked and active vehicles share the road."""
    short = _shortened(10.0)
    nodes = sorted(short.nodes)
    mixed = parked_ticks = entries = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        sim = TrafficSim(short, _Battery())
        vid = 0

        def depart(sims, tick):
            """Enter one random trip on every sim; the last copy, or None."""
            nonlocal vid
            o, d = (int(x) for x in rng.choice(nodes, 2, replace=False))
            if d not in short.reachable_from(o):
                return None
            is_ev = bool(rng.random() < 0.5)
            soc = float(rng.uniform(0.0002, 0.01))
            route = shortest_path(short, o, d, sims[0].travel_times())
            for one in sims:
                veh = Vehicle(vid, o, d, float(tick), is_ev=is_ev, soc=soc)
                veh.route = list(route)
                one.enter_road(veh)
            vid += 1
            return veh

        for _ in range(int(rng.integers(0, 16))):
            veh = depart([sim], 0)
            if veh is not None:
                veh.pos_m = float(rng.uniform(
                    0.0, short.links[veh.route[0]].length_m))
        ref = copy.deepcopy(sim)
        for tick in range(int(rng.integers(1, 120))):
            if rng.random() < 0.4:
                depart([sim, ref], tick)
            active = {veh: veh.route_idx for _, veh in sim.active}
            parked_on = {veh.route[veh.route_idx] for veh in sim.driving
                         if veh not in active}
            parked_ticks += len(sim.driving) - len(active)
            mixed += bool(parked_on) and bool(active)
            arrived = sim.step(1.0)
            want_arrived, want_drained = _reference_step(ref, 1.0)
            entries += sum(veh.route_idx > idx
                           and veh.route_idx < len(veh.route)
                           and veh.route[veh.route_idx] in parked_on
                           for veh, idx in active.items())
            sim.sync()
            assert ([_vehicle_state(v) for v in arrived]
                    == [_vehicle_state(v) for v in want_arrived])
            assert _snapshot(sim) == _snapshot(ref)
            assert ([v.vid for v in sim.drained]
                    == [v.vid for v in want_drained])
            for veh in sim.drained:
                sim.remove(veh)
            for veh in want_drained:
                ref.remove(veh)
    assert parked_ticks > 20000 and mixed > 500 and entries > 50, (
        parked_ticks, mixed, entries)


def test_crossing_order_sets_a_parked_cars_speed():
    """Link 1 (100 m) feeds link 2 (1000 m), where one other vehicle slows
    a car from 10 to 9 m per tick. The car is parked on link 2 when a
    crosser enters it in tick 10. A crosser ahead of the car in
    ``driving`` order is in the count that fixes the car's speed for that
    tick (9.0 m); one behind it is not (10.0 m). Synced after every tick,
    the state equals the reference step bit for bit. Speeds taken from the
    counts at tick start would move the car 10.0 m in both orders."""
    net = RoadNetwork({1: (0, 0), 2: (1, 0), 3: (2, 0)},
                      [_link(1, 1, 2, length=100.0), _link(2, 2, 3, kjam=0.01)])
    for crosser_first, moved in ((True, 9.0), (False, 10.0)):
        sim = TrafficSim(net)
        car, crosser = Vehicle(0, 2, 3, 0.0), Vehicle(1, 1, 3, 0.0)
        car.route, crosser.route = [2], [1, 2]
        for veh in (crosser, car) if crosser_first else (car, crosser):
            sim.enter_road(veh)
        crosser.pos_m = 5.0
        ref = copy.deepcopy(sim)
        for tick in range(1, 12):
            sim.sync()
            before = car.pos_m
            if tick == 10:
                assert car in sim._parked and crosser.route_idx == 0
            sim.step(1.0)
            _reference_step(ref, 1.0)
            sim.sync()
            assert _snapshot(sim) == _snapshot(ref)
            if tick == 10:
                assert crosser.route_idx == 1
                assert car.pos_m - before == moved


def test_lone_car_parks_until_the_tick_it_reaches_its_node():
    # a lone car makes exactly 10 m per tick on the 1000 m link: ticks
    # 1-99 leave it short of the node and tick 100 ends the route
    net = RoadNetwork({1: (0, 0), 2: (1, 0)}, [_link(1, 1, 2)])
    for idle in (False, True):
        sim = TrafficSim(net)
        veh = Vehicle(0, 1, 2, 0.0)
        veh.route = [1]
        sim.enter_road(veh)
        assert sim.step(1.0) == [] and not sim.active
        assert sim.next_wake() == 99        # wakes for tick 100, not before
        if idle:
            sim.idle(98)
        else:
            for _ in range(98):
                assert sim.step(1.0) == []
        sim.sync()
        assert veh.pos_m == 990.0 and sim.now == 99
        assert sim.step(1.0) == [veh]


def test_remove_takes_a_parked_vehicle_off_with_its_ticks():
    net = RoadNetwork({1: (0, 0), 2: (1, 0)}, [_link(1, 1, 2)])
    sim, ref = TrafficSim(net, battery=_Battery()), None
    for veh in (Vehicle(0, 1, 2, 0.0, is_ev=True, soc=0.5),
                Vehicle(1, 1, 2, 0.0)):
        veh.route = [1]
        sim.enter_road(veh)
        if ref is None:
            sim.step(1.0)
            ref = copy.deepcopy(sim)
        else:
            ref.enter_road(copy.deepcopy(veh))
    assert not sim.active                   # the second parks at once
    sim.idle(5)
    for _ in range(5):
        _reference_step(ref, 1.0)
    a, b = sim.driving
    sim.remove(a)
    assert _vehicle_state(a) == _vehicle_state(ref.driving[0])
    assert sim.counts[1] == 1 and sim.driving == [b]
    sim.remove(b)
    assert b.pos_m == ref.driving[1].pos_m and sim.next_wake() == math.inf
