"""Road network, link-level flow model, and time-stepped vehicle movement.

Links follow a linear speed-density relation: v(k) = vf * (1 - k / kjam),
floored at V_MIN_MS so nothing ever stalls completely. A vehicle's perceived
density on its link excludes the vehicle itself (a lone car drives at free
flow); the observation-side density vector counts everyone.

Routing is Dijkstra over per-link travel times with a deterministic
tie-break: among equal-cost paths the lexicographically smallest link-id
sequence wins.

Movement advances in fixed ticks; distance left over after crossing a node
carries onto the next route link within the same tick. Within a tick,
``TrafficSim.step`` memoises each link's speed lazily: the first vehicle it
moves on a link fixes that link's speed for the tick from the link's count
at that moment. A vehicle that crossed onto the link earlier in the same
tick is already in that count, so results depend on the order of
``TrafficSim.driving``. This is kept on purpose until tick semantics become
order-independent (speeds snapshotted at tick start), which will move
outputs. ``step`` also reports, in ``drained``, the EVs still on the road
whose state of charge it drained to zero or below.

Most ticks are quiet: no vehicle crosses a node, so every link count and
speed stays fixed (the lazy memo only matters on ticks with crossings) and
vehicles do not interact. ``TrafficSim.coast`` moves the fleet across such
a stretch in one call. It bounds the ticks before any vehicle could reach
its link's end or drain its battery, then repeats each vehicle's per-tick
float operations (``pos_m += d``, ``driven_kwh += kwh``,
``soc -= kwh / capacity``) that many times, so the state is bit for bit
what as many ``step`` calls leave. ``pos_m + k * d`` would not be. ``step``
also sets ``far`` when every vehicle that stayed on its link ended the tick
more than ``MIN_COAST_TICKS`` ticks of travel, plus the one-tick margin,
from the link's end: a hint, free inside the compare ``step`` makes anyway,
that a coast can succeed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path

import numpy as np

V_MIN_MS = 1.0

# Shortest quiet stretch worth a coast. Measured warm, in greedy episodes
# of the bundled scenarios on an otherwise idle host (2 vCPUs, Python
# 3.11.7): stepping a quiet tick costs 2.0-5.5 us + 0.44-0.80 us per
# driving vehicle + 0.12-0.16 us per charging EV; a coast costs 6.3-14.6 us
# + 0.72-0.91 us per vehicle + 0.20-0.39 us per charging EV for its horizon
# passes, then 0.04-0.06 us per vehicle and per charging EV for each tick it
# crosses. Coasting k ticks breaks even at k = 1.5-3.1 over fleets of 0-60
# driving and 0-60 charging EVs, so from 3 ticks on it is at least even at
# every fleet size, while 2-tick stretches lose on small fleets.
MIN_COAST_TICKS = 3


class NoPathError(ValueError):
    """Raised when the destination is unreachable from the origin."""


@dataclass(frozen=True)
class RoadLink:
    link_id: int
    from_node: int
    to_node: int
    length_m: float
    lanes: int
    vf_ms: float                 # free-flow speed
    kjam_m_lane: float           # jam density, vehicles per meter per lane


class RoadNetwork:
    def __init__(self, nodes, links):
        """nodes: {node_id: (x, y)}; links: iterable of RoadLink."""
        self.nodes = dict(nodes)
        self.links = {}
        self.out_links = {nid: [] for nid in self.nodes}
        for ln in links:
            if ln.link_id in self.links:
                raise ValueError(f"duplicate link id {ln.link_id}")
            if ln.from_node not in self.nodes or ln.to_node not in self.nodes:
                raise ValueError(f"link {ln.link_id} references unknown node")
            if ln.length_m <= 0 or ln.lanes < 1 or ln.vf_ms <= 0 or ln.kjam_m_lane <= 0:
                raise ValueError(f"link {ln.link_id} has invalid parameters")
            self.links[ln.link_id] = ln
            self.out_links[ln.from_node].append(ln.link_id)
        # (length, length * lanes, free-flow speed, jam density) per link,
        # the operands of link_speed, read by the tick loop
        self.link_params = {lid: (ln.length_m, ln.length_m * ln.lanes,
                                  ln.vf_ms, ln.kjam_m_lane)
                            for lid, ln in self.links.items()}
        for nid in self.out_links:
            self.out_links[nid].sort()
        self.link_ids = tuple(sorted(self.links))

        xs = [p[0] for p in self.nodes.values()]
        ys = [p[1] for p in self.nodes.values()]
        self._x0, self._x1 = min(xs), max(xs)
        self._y0, self._y1 = min(ys), max(ys)
        self._reach_cache = {}

    def normalized_xy(self, node_id):
        x, y = self.nodes[node_id]
        dx = self._x1 - self._x0
        dy = self._y1 - self._y0
        return ((x - self._x0) / dx if dx > 0 else 0.5,
                (y - self._y0) / dy if dy > 0 else 0.5)

    def reachable_from(self, node_id):
        """Set of nodes reachable via directed links (cached)."""
        cached = self._reach_cache.get(node_id)
        if cached is None:
            seen = {node_id}
            stack = [node_id]
            while stack:
                for lid in self.out_links[stack.pop()]:
                    to = self.links[lid].to_node
                    if to not in seen:
                        seen.add(to)
                        stack.append(to)
            cached = frozenset(seen)
            self._reach_cache[node_id] = cached
        return cached


def load_road_network(path) -> RoadNetwork:
    """Read nodes.csv (id,x,y) and links.csv from a fixture directory."""
    path = Path(path)
    nodes = {}
    for lineno, raw in enumerate((path / "nodes.csv").read_text().splitlines(), 1):
        row = raw.strip()
        if not row or row.startswith("#") or row.lower().startswith("id"):
            continue
        parts = row.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path / 'nodes.csv'}:{lineno}: expected 3 columns")
        nodes[int(parts[0])] = (float(parts[1]), float(parts[2]))
    links = []
    for lineno, raw in enumerate((path / "links.csv").read_text().splitlines(), 1):
        row = raw.strip()
        if not row or row.startswith("#") or row.lower().startswith("id"):
            continue
        parts = row.split(",")
        if len(parts) != 7:
            raise ValueError(f"{path / 'links.csv'}:{lineno}: expected 7 columns")
        links.append(RoadLink(
            link_id=int(parts[0]), from_node=int(parts[1]), to_node=int(parts[2]),
            length_m=float(parts[3]), lanes=int(parts[4]),
            vf_ms=float(parts[5]) / 3.6,
            kjam_m_lane=float(parts[6]) / 1000.0,
        ))
    return RoadNetwork(nodes, links)


def link_speed(link: RoadLink, others: float) -> float:
    """Perceived speed given the count of *other* vehicles on the link."""
    k = others / (link.length_m * link.lanes)
    v = link.vf_ms * (1.0 - k / link.kjam_m_lane)
    return v if v > V_MIN_MS else V_MIN_MS


def shortest_path(net: RoadNetwork, origin: int, dest: int, travel_times=None):
    """Link-id sequence of the minimum-cost origin->dest path.

    travel_times: {link_id: cost}; defaults to free-flow times. Equal-cost
    ties resolve to the lexicographically smallest link-id sequence, which
    Dijkstra delivers exactly when the heap priority is (cost, sequence):
    costs are strictly positive, so every prefix of a candidate pops first.
    """
    if origin not in net.nodes or dest not in net.nodes:
        raise KeyError("origin or destination not in network")
    if origin == dest:
        return []
    if travel_times is None:
        travel_times = {lid: net.links[lid].length_m / net.links[lid].vf_ms
                        for lid in net.links}
    heap = [(0.0, (), origin)]
    done = set()
    while heap:
        cost, seq, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == dest:
            return list(seq)
        done.add(node)
        for lid in net.out_links[node]:
            to = net.links[lid].to_node
            if to in done:
                continue
            w = travel_times[lid]
            if w <= 0:
                raise ValueError(f"non-positive travel time on link {lid}")
            heapq.heappush(heap, (cost + w, seq + (lid,), to))
    raise NoPathError(f"no path from {origin} to {dest}")


def path_length_m(net: RoadNetwork, path) -> float:
    return sum(net.links[lid].length_m for lid in path)


# ---------------------------------------------------------------------------
# vehicles and stepping
# ---------------------------------------------------------------------------

WAITING = 0        # not yet departed
DRIVE_CS = 1       # EV heading to its assigned station
QUEUED = 2
CHARGING = 3
DRIVE_DEST = 4     # heading to the final destination
DONE = 5
STRANDED = 6       # battery hit empty en route; removed from the network

class Vehicle:
    __slots__ = ("vid", "is_ev", "origin", "dest", "depart_s", "soc",
                 "soc_target", "phase", "route", "route_idx", "pos_m",
                 "cs_id", "t_cs_arrive", "t_charge_start", "t_charge_end",
                 "t_done", "charged_kwh", "driven_kwh", "soc_init")

    def __init__(self, vid, origin, dest, depart_s, is_ev=False,
                 soc=1.0, soc_target=0.8):
        self.vid = vid
        self.is_ev = is_ev
        self.origin = origin
        self.dest = dest
        self.depart_s = depart_s
        self.soc = soc
        self.soc_init = soc
        self.soc_target = soc_target
        self.phase = WAITING
        self.route = []
        self.route_idx = 0
        self.pos_m = 0.0
        self.cs_id = None
        self.t_cs_arrive = None
        self.t_charge_start = None
        self.t_charge_end = None
        self.t_done = None
        self.charged_kwh = 0.0
        self.driven_kwh = 0.0

@dataclass(frozen=True)
class TripTimes:
    tt_drive: float
    tt_wait: float
    tt_charge: float
    tt_total: float


def record_trip_times(veh: Vehicle) -> TripTimes:
    """Per-vehicle time decomposition from the recorded phase timestamps."""
    if veh.t_done is None:
        raise ValueError(f"vehicle {veh.vid} has not finished")
    if not veh.is_ev or veh.cs_id is None:
        tt = veh.t_done - veh.depart_s
        return TripTimes(tt, 0.0, 0.0, tt)
    tt_drive = (veh.t_cs_arrive - veh.depart_s) + (veh.t_done - veh.t_charge_end)
    tt_wait = veh.t_charge_start - veh.t_cs_arrive
    tt_charge = veh.t_charge_end - veh.t_charge_start
    return TripTimes(tt_drive, tt_wait, tt_charge, veh.t_done - veh.depart_s)


class TrafficSim:
    """Moves driving vehicles in fixed ticks and tracks per-link counts."""

    def __init__(self, net: RoadNetwork, battery=None):
        self.net = net
        self.battery = battery          # BatteryParams for EV energy drain
        self.counts = {lid: 0 for lid in net.links}
        self.driving = []
        self.drained = []               # set by step, in driving order
        self.far = True                 # set by step, see the module docstring

    def enter_road(self, veh: Vehicle):
        """Start driving veh along veh.route (must be non-empty)."""
        if not veh.route:
            raise ValueError(f"vehicle {veh.vid} has an empty route")
        veh.route_idx = 0
        veh.pos_m = 0.0
        self.counts[veh.route[0]] += 1
        self.driving.append(veh)

    def travel_times(self):
        """Current planning costs: each link as seen by an entering vehicle.

        Inlines ``length_m / link_speed`` on the precomputed link
        parameters."""
        counts = self.counts
        out = {}
        for lid, (length, cap, vf, kjam) in self.net.link_params.items():
            v = vf * (1.0 - (counts[lid] / cap) / kjam)
            out[lid] = length / (v if v > V_MIN_MS else V_MIN_MS)
        return out

    def remove(self, veh: Vehicle):
        """Take a driving vehicle off the network (stranded-battery case)."""
        self.driving.remove(veh)
        self.counts[veh.route[veh.route_idx]] -= 1

    def density_vector(self):
        """Normalized densities over links, sorted by link id, clipped to 1."""
        params = self.net.link_params
        out = np.empty(len(self.net.link_ids))
        for i, lid in enumerate(self.net.link_ids):
            _, cap, _, kjam = params[lid]
            out[i] = min((self.counts[lid] / cap) / kjam, 1.0)
        return out

    def _tick_distance(self, lid, dt):
        """Distance a vehicle on link ``lid`` covers in one tick at the
        link's current count: ``link_speed(links[lid], counts[lid] - 1) * dt``
        on the precomputed link parameters. ``coast`` moves vehicles by it
        and ``step`` by an inlined copy, so a coast stays bit for bit a run
        of steps."""
        length, cap, vf, kjam = self.net.link_params[lid]
        v = vf * (1.0 - ((self.counts[lid] - 1) / cap) / kjam)
        return (v if v > V_MIN_MS else V_MIN_MS) * dt

    def step(self, dt: float = 1.0):
        """Advance one tick. Returns vehicles whose route finished this tick
        and sets ``drained`` to the EVs still driving with SoC <= 0."""
        params = self.net.link_params
        counts = self.counts
        battery = self.battery
        if battery is not None:
            rho = battery.rho_kwh_per_km
            capacity = battery.capacity_kwh
        # lid -> (distance per tick, link length, distance beyond which a
        # vehicle is far from the link's end in the sense of ``far``)
        speeds = {}
        arrived = []
        drained = []
        far = True
        for veh in self.driving:
            route = veh.route
            idx = veh.route_idx
            lid = route[idx]
            memo = speeds.get(lid)
            if memo is None:
                # _tick_distance(lid, dt), inlined: the call made a case_a
                # step 14% slower (25.9 -> 29.5 us, medians of 10 rounds over
                # the fleets at its greedy decisions; 2 vCPUs, Python
                # 3.11.7). test_coast_equals_quiet_steps_... in
                # test_traffic.py fails if the two copies part.
                length, cap, vf, kjam = params[lid]
                v = vf * (1.0 - ((counts[lid] - 1) / cap) / kjam)
                d = (v if v > V_MIN_MS else V_MIN_MS) * dt
                memo = (d, length, (MIN_COAST_TICKS + 2) * d)
                speeds[lid] = memo
            remaining, length, reach = memo
            to_end = length - veh.pos_m
            finished = False
            if reach < to_end:              # stays on its link, far from its end
                veh.pos_m += remaining
                traveled = remaining
            elif remaining < to_end:        # stays on its link
                veh.pos_m += remaining
                traveled = remaining
                far = False
            else:                           # crosses one or more nodes
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
            self.driving = [veh for veh in self.driving
                            if veh.route_idx < len(veh.route)]
        self.drained = drained
        self.far = far
        return arrived

    def coast(self, k_max: int, dt: float = 1.0) -> int:
        """Advance up to ``k_max`` quiet ticks in one call; return how many.

        The count is ``k_max`` capped at the ticks every driving vehicle can
        make without reaching its link's end or, for an EV, draining to
        SoC <= 0, each bound taken with a one-tick margin so that float
        rounding (~1e-13 m over a stretch, against at least ``V_MIN_MS``
        per tick) cannot matter. Below ``MIN_COAST_TICKS`` nothing moves and
        0 is returned. Otherwise each vehicle repeats its per-tick float
        operations, so the state is bit for bit what that many ``step``
        calls would leave, none of which would cross a node or drain an EV.
        """
        if k_max < MIN_COAST_TICKS:
            return 0
        params = self.net.link_params
        battery = self.battery
        rho = capacity = 0.0
        if battery is not None:
            rho = battery.rho_kwh_per_km
            capacity = battery.capacity_kwh
        speeds = {}         # lid -> (distance per tick, link length)
        plan = []
        k = k_max
        for veh in self.driving:
            lid = veh.route[veh.route_idx]
            memo = speeds.get(lid)
            if memo is None:
                memo = (self._tick_distance(lid, dt), params[lid][0])
                speeds[lid] = memo
            d, length = memo
            n = int((length - veh.pos_m) / d) - 1
            if n < k:
                if n < MIN_COAST_TICKS:
                    return 0
                k = n
            if veh.is_ev and battery is not None:
                kwh = rho * (d / 1000.0)
                dsoc = kwh / capacity
                if dsoc > 0.0:
                    n = int(veh.soc / dsoc) - 1
                    if n < k:
                        if n < MIN_COAST_TICKS:
                            return 0
                        k = n
                plan.append((veh, d, kwh, dsoc))
            else:
                plan.append((veh, d, None, None))
        ticks = range(k)
        for veh, d, kwh, dsoc in plan:
            pos = veh.pos_m
            for _ in ticks:
                pos += d
            veh.pos_m = pos
            if kwh is not None:
                driven = veh.driven_kwh
                soc = veh.soc
                for _ in ticks:
                    driven += kwh
                    soc -= dsoc
                veh.driven_kwh = driven
                veh.soc = soc
        self.drained = []
        return k
