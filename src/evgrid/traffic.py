"""Road network, link-level flow model, and time-stepped vehicle movement.

Links follow a linear speed-density relation: v(k) = vf * (1 - k / kjam),
floored at V_MIN_MS so nothing ever stalls completely. A vehicle's perceived
density on its link excludes the vehicle itself (a lone car drives at free
flow); the observation-side density vector counts everyone.

Routing is Dijkstra over per-link travel times with a deterministic
tie-break: among equal-cost paths the lexicographically smallest link-id
sequence wins.

Movement advances in fixed ticks; distance left over after crossing a node
carries onto the next route link within the same tick. ``TrafficSim.step``
moves vehicles in ``TrafficSim.driving`` order and memoises each link's
speed lazily: the first vehicle, in that order, that began the tick on a
link fixes the link's speed for the tick from its count at that moment. A
vehicle that crossed onto the link earlier in the same tick is in that
count, so results depend on the order of ``driving``. This is kept on
purpose until tick semantics become order-independent (speeds snapshotted
at tick start), which will move outputs. ``step`` also reports, in
``drained``, the EVs still on the road whose state of charge it drained to
zero or below.

Most vehicles spend most ticks far from their link's end, where a tick
only adds the link's distance per tick to their position (and spends its
energy). ``step`` therefore *parks* such a vehicle: it leaves the per-tick
loop until the first tick it could reach its link's end or drain its
battery at free flow (with a margin), and ``step`` moves only the *active*
ones, in ``driving`` order, with unchanged per-vehicle code. A parked
vehicle's skipped ticks are replayed lazily, one float operation per tick
as ``step`` makes them (``pos_m += d``, ``driven_kwh += kwh``,
``soc -= kwh / capacity``; ``pos_m + k * d`` would not be bit for bit),
when it wakes and on ``sync``, so its state is then bit for bit what
stepping every tick would leave; in between, its fields lag behind.

The replay follows each link's history of distances per tick, a new
stretch from every tick the link's count changes. When the vehicle that
fixes a link's speed for a tick is parked, the loop never reaches it, so
the rule is kept where a crosser enters a link: if no speed is fixed there
yet and a vehicle parked there comes before the crosser, the speed is
fixed from the count before the crosser joins. Exits need nothing (the
vehicles leaving began the tick there, after the first one). The parked
vehicles move, in that tick, at the fixed speed, or at the new count if
none was fixed (only crossers ahead of them entered).
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

V_MIN_MS = 1.0

# Fewest ticks a vehicle must be able to skip to be parked (see
# ``TrafficSim._park``). Parking and waking one vehicle cost as much as
# stepping it for a few ticks (3-7 us together, against 0.4-0.8 us per
# vehicle-tick; 2 vCPUs, Python 3.11.7); on greedy case_a, 1, 2 and 5
# measured within the host's noise (+-5%) of 3.
MIN_PARK_TICKS = 3
# Distance before its link's end that a parked vehicle's horizon keeps free.
PARK_MARGIN_M = 1e-3


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
    """Read nodes.csv (id,x,y) and links.csv from a fixture directory.

    A row with the wrong column count or a cell that does not parse fails
    with its ``file:line``; an error raised while building the network is
    prefixed with the links.csv path, since ``RoadNetwork`` checks links."""
    path = Path(path)
    node_file = path / "nodes.csv"
    link_file = path / "links.csv"
    nodes = {}
    for lineno, raw in enumerate(node_file.read_text().splitlines(), 1):
        row = raw.strip()
        if not row or row.startswith("#") or row.lower().startswith("id"):
            continue
        parts = row.split(",")
        if len(parts) != 3:
            raise ValueError(f"{node_file}:{lineno}: expected 3 columns")
        try:
            nodes[int(parts[0])] = (float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise ValueError(f"{node_file}:{lineno}: {exc}") from exc
    links = []
    for lineno, raw in enumerate(link_file.read_text().splitlines(), 1):
        row = raw.strip()
        if not row or row.startswith("#") or row.lower().startswith("id"):
            continue
        parts = row.split(",")
        if len(parts) != 7:
            raise ValueError(f"{link_file}:{lineno}: expected 7 columns")
        try:
            links.append(RoadLink(
                link_id=int(parts[0]), from_node=int(parts[1]),
                to_node=int(parts[2]), length_m=float(parts[3]),
                lanes=int(parts[4]), vf_ms=float(parts[5]) / 3.6,
                kjam_m_lane=float(parts[6]) / 1000.0,
            ))
        except ValueError as exc:
            raise ValueError(f"{link_file}:{lineno}: {exc}") from exc
    try:
        return RoadNetwork(nodes, links)
    except ValueError as exc:
        raise ValueError(f"{link_file}: {exc}") from exc


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


class _Speed:
    """One stretch of a link's distance per tick, as its parked vehicles
    see it: from tick ``start`` until the ``next`` stretch starts, each of
    them moves ``d`` metres and an EV spends ``kwh`` (``dsoc`` of its
    charge) per tick."""

    __slots__ = ("start", "d", "kwh", "dsoc", "next")


class _Parked:
    """A vehicle that ``TrafficSim.step`` skips until its wake tick. Its
    fields carry every tick before ``synced``, which falls in the link
    stretch ``speed``; ``seq`` is its place in ``driving`` order."""

    __slots__ = ("veh", "seq", "lid", "speed", "synced")


class TrafficSim:
    """Moves driving vehicles in fixed ticks and tracks per-link counts."""

    def __init__(self, net: RoadNetwork, battery=None):
        self.net = net
        self.battery = battery          # BatteryParams for EV energy drain
        self.counts = {lid: 0 for lid in net.links}
        self.driving = []
        self.drained = []               # set by step, in driving order
        self.now = 0                    # ticks stepped or idled so far
        self.active = []                # (seq, vehicle) that step moves, by seq
        self._parked = {}               # vehicle -> _Parked
        self._parked_on = {lid: {} for lid in net.links}
        self._speed = {}                # lid -> latest _Speed, while any parked
        # heap of (wake tick, seq, _Parked); each entry pops by its wake
        # tick, so it holds at most the parked vehicles and those removed
        # (stranded) while parked
        self._wakes = []
        self._seq = 0                   # entries so far, for driving order
        self._dt = None                 # tick length, fixed by the first step

    def enter_road(self, veh: Vehicle):
        """Start driving veh along veh.route (must be non-empty). Once a
        ``step`` has fixed the tick length, a vehicle far from its first
        link's end is parked at once."""
        if not veh.route:
            raise ValueError(f"vehicle {veh.vid} has an empty route")
        veh.route_idx = 0
        veh.pos_m = 0.0
        lid = veh.route[0]
        self.counts[lid] += 1
        self.driving.append(veh)
        self._seq += 1
        if lid in self._speed:
            self._new_speed(lid, self.now,
                            self._memo(lid, self.counts[lid], self._dt)[0])
        if self._dt is None or not self._park(self._seq, veh):
            self.active.append((self._seq, veh))

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
        lid = veh.route[veh.route_idx]
        self.counts[lid] -= 1
        rec = self._parked.get(veh)
        if rec is None:
            self.active = [e for e in self.active if e[1] is not veh]
        else:
            self._unpark(rec)
        if lid in self._speed:
            self._new_speed(lid, self.now,
                            self._memo(lid, self.counts[lid], self._dt)[0])

    def density_vector(self):
        """Normalized densities over links, sorted by link id, clipped to 1."""
        params = self.net.link_params
        out = np.empty(len(self.net.link_ids))
        for i, lid in enumerate(self.net.link_ids):
            _, cap, _, kjam = params[lid]
            out[i] = min((self.counts[lid] / cap) / kjam, 1.0)
        return out

    def _memo(self, lid, count, dt):
        """``step``'s memo for link ``lid`` holding ``count`` vehicles: the
        distance a vehicle covers in one tick there (``link_speed(links[lid],
        count - 1) * dt`` on the precomputed link parameters; parked vehicles
        move by it too), the link's length, and the distance from its end
        beyond which a vehicle can park."""
        length, cap, vf, kjam = self.net.link_params[lid]
        v = vf * (1.0 - ((count - 1) / cap) / kjam)
        return ((v if v > V_MIN_MS else V_MIN_MS) * dt, length,
                (MIN_PARK_TICKS + 2)
                * (vf if vf > V_MIN_MS else V_MIN_MS) * dt)

    def step(self, dt: float = 1.0):
        """Advance one tick. Returns vehicles whose route finished this tick
        and sets ``drained`` to the EVs still driving with SoC <= 0.

        The first vehicle, in ``driving`` order, that began the tick on a
        link fixes its speed for the tick; for a parked one, the first
        crosser behind it to enter the link does (see the module docstring)."""
        if dt != self._dt:
            if self._dt is not None:
                raise ValueError(f"step with dt {dt} after steps with dt "
                                 f"{self._dt}: parked vehicles move by one "
                                 f"tick length")
            self._dt = dt
        wakes = self._wakes
        if wakes and wakes[0][0] <= self.now:
            self._wake_due()
        if not self.active:
            self.now += 1
            self.drained = []
            return []
        params = self.net.link_params
        counts = self.counts
        battery = self.battery
        if battery is not None:
            rho = battery.rho_kwh_per_km
            capacity = battery.capacity_kwh
        parked_on = self._parked_on
        speeds = {}                     # lid -> memo for the tick (_memo)
        arrived = []
        drained = []
        settled = []                    # far from their link's end
        changed = set()                 # links whose count changed
        for entry in self.active:
            seq, veh = entry
            route = veh.route
            idx = veh.route_idx
            lid = route[idx]
            memo = speeds.get(lid)
            if memo is None:
                memo = speeds[lid] = self._memo(lid, counts[lid], dt)
            remaining, length, reach = memo
            to_end = length - veh.pos_m
            finished = False
            if remaining < to_end:          # stays on its link
                veh.pos_m += remaining
                traveled = remaining
                if reach < to_end:          # far from its end
                    settled.append(entry)
            else:                           # crosses one or more nodes
                traveled = 0.0
                while True:
                    traveled += to_end
                    remaining -= to_end
                    counts[lid] -= 1
                    changed.add(lid)
                    idx += 1
                    if idx >= len(route):
                        finished = True
                        break
                    lid = route[idx]
                    # A vehicle parked on the link ahead of this crosser
                    # would have fixed its speed before the crosser joined.
                    if (lid not in speeds and parked_on[lid]
                            and self._parked_ahead(lid, seq)):
                        speeds[lid] = self._memo(lid, counts[lid], dt)
                    counts[lid] += 1
                    changed.add(lid)
                    veh.pos_m = 0.0
                    to_end = params[lid][0]
                    if remaining < to_end:
                        veh.pos_m += remaining
                        traveled += remaining
                        settled.append(entry)   # parks if far from the end
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
        self.now += 1
        if arrived:
            self.driving = [veh for veh in self.driving
                            if veh.route_idx < len(veh.route)]
        if changed:
            self._settle_speeds(speeds, changed)
        if settled or arrived:
            parked = self._parked
            for seq, veh in settled:
                self._park(seq, veh)
            self.active = [e for e in self.active
                           if e[1] not in parked
                           and e[1].route_idx < len(e[1].route)]
        self.drained = drained
        return arrived

    def idle(self, k: int):
        """Let ``k`` ticks pass in which no vehicle is active: every driving
        vehicle is parked past them (``k <= next_wake() - now``), so nothing
        crosses a node or drains, no count changes, and the parked vehicles
        carry the ticks when they next sync."""
        self.now += k
        self.drained = []

    def next_wake(self):
        """The first tick a parked vehicle must be stepped (inf if none)."""
        wakes = self._wakes
        while wakes:
            wake, _, rec = wakes[0]
            if self._parked.get(rec.veh) is rec:
                return wake
            heapq.heappop(wakes)        # removed from the road since
        return math.inf

    def sync(self):
        """Bring every parked vehicle's position and energy up to ``now``,
        bit for bit what stepping every tick would have left."""
        self._replay(self._parked.values(), self.now)

    # ------------------------------------------------------------------
    # parking
    # ------------------------------------------------------------------

    def _park(self, seq, veh):
        """Park ``veh`` until the first tick it could reach its link's end
        or, for an EV, drain to SoC <= 0, if that is at least
        ``MIN_PARK_TICKS`` ticks away.

        The bounds assume free flow, the fastest any count allows, so that
        no later change of the link's count can bring them forward. The
        link's end is kept ``PARK_MARGIN_M`` away, far beyond the float
        rounding of a replay (~1e-9 m over 10^4 ticks on a 1 km link), and
        the battery bound keeps a one-tick margin."""
        lid = veh.route[veh.route_idx]
        length, _, vf, _ = self.net.link_params[lid]
        d_max = (vf if vf > V_MIN_MS else V_MIN_MS) * self._dt
        n = math.ceil((length - veh.pos_m - PARK_MARGIN_M) / d_max) - 1
        battery = self.battery
        if veh.is_ev and battery is not None:
            dsoc_max = (battery.rho_kwh_per_km * (d_max / 1000.0)
                        / battery.capacity_kwh)
            if dsoc_max > 0.0:
                n = min(n, int(veh.soc / dsoc_max) - 1)
            elif veh.soc <= 0.0:
                return False            # step flags it drained every tick
        if n < MIN_PARK_TICKS:
            return False
        now = self.now
        speed = self._speed.get(lid)
        if speed is None:
            speed = self._speed[lid] = self._stretch(
                now, self._memo(lid, self.counts[lid], self._dt)[0])
        rec = _Parked()
        rec.veh, rec.seq, rec.lid, rec.speed = veh, seq, lid, speed
        rec.synced = now
        self._parked[veh] = rec
        self._parked_on[lid][veh] = rec
        heapq.heappush(self._wakes, (now + n, seq, rec))
        return True

    def _unpark(self, rec):
        """Take ``rec`` off the parked vehicles, its fields synced to now."""
        self._replay((rec,), self.now)
        del self._parked[rec.veh]
        on = self._parked_on[rec.lid]
        del on[rec.veh]
        if not on:
            del self._speed[rec.lid]

    def _wake_due(self):
        """Wake the parked vehicles whose horizon ends at this tick."""
        now = self.now
        parked = self._parked
        wakes = self._wakes
        while wakes and wakes[0][0] <= now:
            rec = heapq.heappop(wakes)[2]
            if parked.get(rec.veh) is rec:
                self._unpark(rec)
                bisect.insort(self.active, (rec.seq, rec.veh))

    def _stretch(self, start, d):
        speed = _Speed()
        speed.start = start
        speed.d = d
        speed.kwh = speed.dsoc = None
        battery = self.battery
        if battery is not None:
            speed.kwh = kwh = battery.rho_kwh_per_km * (d / 1000.0)
            speed.dsoc = kwh / battery.capacity_kwh
        speed.next = None
        return speed

    def _new_speed(self, lid, start, d):
        """From tick ``start`` on, the parked vehicles on ``lid`` move ``d``
        metres per tick."""
        last = self._speed[lid]
        if d != last.d:
            last.next = self._speed[lid] = self._stretch(start, d)

    def _parked_ahead(self, lid, seq):
        """Whether a vehicle parked on ``lid`` comes before ``seq`` in
        ``driving`` order."""
        return any(rec.seq < seq for rec in self._parked_on[lid].values())

    def _settle_speeds(self, speeds, changed):
        """After a tick with crossings: the parked vehicles on each link
        whose count changed moved, in that tick, at the link's memo in
        ``speeds`` (fixed by the first vehicle to begin the tick there), or
        at the new count if no vehicle fixed one (only crossers ahead of
        them entered), and from now on move at the new count."""
        now = self.now
        for lid in changed:
            if lid in self._speed:
                d = self._memo(lid, self.counts[lid], self._dt)[0]
                memo = speeds.get(lid)
                self._new_speed(lid, now - 1, d if memo is None else memo[0])
                self._new_speed(lid, now, d)

    @staticmethod
    def _replay(recs, now):
        """Replay the ticks each parked record skipped before ``now``, one
        float operation per tick as ``step`` makes them, stretch by stretch
        of its link's speed: ``pos_m + k * d`` would not be bit for bit."""
        for rec in recs:
            t = rec.synced
            if t == now:
                continue
            veh = rec.veh
            speed = rec.speed
            ev = veh.is_ev and speed.kwh is not None
            pos = veh.pos_m
            if ev:
                driven = veh.driven_kwh
                soc = veh.soc
            while True:
                nxt = speed.next
                end = now if nxt is None else nxt.start
                ticks = range(end - t)
                d = speed.d
                for _ in ticks:
                    pos += d
                if ev:
                    kwh = speed.kwh
                    dsoc = speed.dsoc
                    for _ in ticks:
                        driven += kwh
                        soc -= dsoc
                if end == now:
                    break
                t = end
                speed = nxt
            veh.pos_m = pos
            if ev:
                veh.driven_kwh = driven
                veh.soc = soc
            rec.speed = speed
            rec.synced = now
