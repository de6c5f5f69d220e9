"""Radial distribution feeder model and Newton-Raphson AC power flow.

The feeder is described by bus and line tables (physical units: kW loads,
ohm impedances) plus per-unit bases declared in the bus file header. All
solving happens in per-unit. Only slack + PQ buses are supported, which is
all a passive distribution feeder needs.

The solver is full Newton-Raphson in polar form with an analytic Jacobian
rebuilt every iteration and a hard iteration cap. On a radial feeder the
Jacobian of S = V conj(Ybus V) is non-zero only on the diagonal and at the
two positions of each of the n-1 lines, so ``PowerNetwork`` precomputes
those positions, their admittances and where they land in the PQ-reduced
real Jacobian; each iteration then evaluates the entries elementwise in
O(n) and scatters them into the matrix handed to the dense linear solve.

Every solve starts flat (all voltages 1+0j). A warm start from the previous
solution would save an iteration or two, but it would make a solution
depend on which solve ran before it, and callers cache solutions by load
pattern. Charging loads enter as additional active-power consumption at
their coupling buses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class PowerFlowError(RuntimeError):
    """Raised when the solver cannot produce a valid solution."""


@dataclass(frozen=True)
class Bus:
    bus_id: int
    kind: str                 # "slack" or "pq"
    p_base_kw: float          # constant base load, consumption positive
    q_base_kvar: float


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r_ohm: float
    x_ohm: float


@dataclass(frozen=True)
class PFSolution:
    """Converged operating point, per-unit magnitudes and radian angles."""

    bus_ids: tuple
    v_mag: np.ndarray
    v_ang: np.ndarray
    iterations: int
    max_mismatch_pu: float

    def voltage(self, bus_id: int) -> float:
        return float(self.v_mag[self.bus_ids.index(bus_id)])


class PowerNetwork:
    """Validated radial feeder with a cached admittance matrix."""

    def __init__(self, buses, lines, base_mva: float, base_kv: float):
        if base_mva <= 0 or base_kv <= 0:
            raise ValueError("per-unit bases must be positive")
        self.buses = list(buses)
        self.lines = list(lines)
        self.base_mva = float(base_mva)
        self.base_kv = float(base_kv)
        self.z_base_ohm = (base_kv * 1e3) ** 2 / (base_mva * 1e6)
        self.s_base_kva = base_mva * 1e3

        ids = [b.bus_id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate bus ids")
        self.bus_ids = tuple(ids)
        self._index = {bid: i for i, bid in enumerate(ids)}

        slacks = [b for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise ValueError(f"exactly one slack bus required, got {len(slacks)}")
        for b in self.buses:
            if b.kind not in ("slack", "pq"):
                raise ValueError(f"bus {b.bus_id}: unsupported kind {b.kind!r}")
        self.slack_id = slacks[0].bus_id

        n = len(self.buses)
        if len(self.lines) != n - 1:
            raise ValueError(
                f"radial feeder needs exactly {n - 1} lines for {n} buses, "
                f"got {len(self.lines)}"
            )
        adj = {bid: [] for bid in ids}
        for ln in self.lines:
            if ln.from_bus not in self._index or ln.to_bus not in self._index:
                raise ValueError(
                    f"line {ln.from_bus}-{ln.to_bus} references unknown bus"
                )
            if ln.r_ohm < 0 or ln.x_ohm < 0 or (ln.r_ohm == 0 and ln.x_ohm == 0):
                raise ValueError(
                    f"line {ln.from_bus}-{ln.to_bus} has invalid impedance"
                )
            adj[ln.from_bus].append(ln.to_bus)
            adj[ln.to_bus].append(ln.from_bus)
        seen = {self.slack_id}
        stack = [self.slack_id]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != n:
            missing = sorted(set(ids) - seen)
            raise ValueError(f"buses not connected to the slack: {missing}")

        self.ybus = self._build_ybus()
        self.pq_indices = np.array(
            [i for i, b in enumerate(self.buses) if b.kind == "pq"], dtype=int
        )
        self._p_base = np.array([b.p_base_kw for b in self.buses])
        self._q_base = np.array([b.q_base_kvar for b in self.buses])
        self._build_jacobian_pattern()

    def _build_ybus(self) -> np.ndarray:
        n = len(self.buses)
        y = np.zeros((n, n), dtype=complex)
        for ln in self.lines:
            i = self._index[ln.from_bus]
            j = self._index[ln.to_bus]
            z_pu = complex(ln.r_ohm, ln.x_ohm) / self.z_base_ohm
            adm = 1.0 / z_pu
            y[i, i] += adm
            y[j, j] += adm
            y[i, j] -= adm
            y[j, i] -= adm
        return y

    def _build_jacobian_pattern(self) -> None:
        """Structural non-zeros of the PQ block of dS/dtheta and dS/d|V|.

        Entries are the PQ diagonal (first m) followed by both orientations
        of every line between two PQ buses. ``_jac_flat`` holds their flat
        positions in the 2m x 2m real Jacobian, block by block:
        [dP/dth, dP/d|V|; dQ/dth, dQ/d|V|].
        """
        pq = self.pq_indices
        m = len(pq)
        pos = np.full(len(self.buses), -1)
        pos[pq] = np.arange(m)
        ends = np.array([(self._index[ln.from_bus], self._index[ln.to_bus])
                         for ln in self.lines], dtype=int).reshape(-1, 2)
        ends = ends[(pos[ends] >= 0).all(axis=1)]
        rows = np.concatenate([pq, ends[:, 0], ends[:, 1]])
        cols = np.concatenate([pq, ends[:, 1], ends[:, 0]])
        self._jac_rows = rows
        self._jac_cols = cols
        self._jac_y = self.ybus[rows, cols]
        r, c = pos[rows], pos[cols]
        size = 2 * m
        self._jac_flat = np.concatenate([
            r * size + c, r * size + m + c,
            (m + r) * size + c, (m + r) * size + m + c,
        ])

    def index_of(self, bus_id: int) -> int:
        return self._index[bus_id]


def load_power_network(path) -> PowerNetwork:
    """Read buses.csv and lines.csv from a fixture directory.

    The bus file header must declare the bases as ``# base_mva=...`` and
    ``# base_kv=...`` comment lines. A row with the wrong column count or a
    cell that does not parse fails with its ``file:line``; an error
    building the feeder names the fixture directory, and its message the
    bus or line.
    """
    path = Path(path)
    bus_file = path / "buses.csv"
    line_file = path / "lines.csv"
    meta = {}
    buses = []
    for lineno, raw in enumerate(bus_file.read_text().splitlines(), start=1):
        row = raw.strip()
        if not row:
            continue
        if row.startswith("#"):
            body = row.lstrip("# ")
            if "=" in body:
                k, _, v = body.partition("=")
                try:
                    meta[k.strip()] = float(v)
                except ValueError:
                    pass
            continue
        if row.lower().startswith("id,"):
            continue
        parts = row.split(",")
        if len(parts) != 4:
            raise ValueError(f"{bus_file}:{lineno}: expected 4 columns")
        try:
            buses.append(Bus(int(parts[0]), parts[1].strip(), float(parts[2]),
                             float(parts[3])))
        except ValueError as exc:
            raise ValueError(f"{bus_file}:{lineno}: {exc}") from exc
    if "base_mva" not in meta or "base_kv" not in meta:
        raise ValueError(f"{bus_file}: missing base_mva/base_kv header")
    lines = []
    for lineno, raw in enumerate(line_file.read_text().splitlines(), start=1):
        row = raw.strip()
        if not row or row.startswith("#") or row.lower().startswith("from"):
            continue
        parts = row.split(",")
        if len(parts) != 4:
            raise ValueError(f"{line_file}:{lineno}: expected 4 columns")
        try:
            lines.append(Line(int(parts[0]), int(parts[1]), float(parts[2]),
                              float(parts[3])))
        except ValueError as exc:
            raise ValueError(f"{line_file}:{lineno}: {exc}") from exc
    try:
        return PowerNetwork(buses, lines, meta["base_mva"], meta["base_kv"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def bus_injections(net: PowerNetwork, extra_load_kw=None):
    """Per-unit complex power injections including charging loads.

    extra_load_kw maps bus_id -> additional active-power consumption in kW
    (charging stations draw at unity power factor). Loads are consumption,
    injections are their negation. A load on the slack bus is rejected: the
    slack balances the feeder and is outside the mismatch, so the solver
    would ignore it.
    """
    p_kw = net._p_base.copy()
    q_kvar = net._q_base.copy()
    if extra_load_kw:
        for bus_id, kw in extra_load_kw.items():
            if bus_id not in net._index:
                raise KeyError(f"unknown bus {bus_id}")
            if bus_id == net.slack_id:
                raise ValueError(f"charging load at bus {bus_id}, the slack bus")
            if not math.isfinite(kw):
                raise ValueError(f"non-finite charging load {kw} at bus {bus_id}")
            if kw < 0:
                raise ValueError(f"negative charging load at bus {bus_id}")
            p_kw[net.index_of(bus_id)] += kw
    return (-(p_kw) - 1j * q_kvar) / net.s_base_kva


def _jacobian(net: PowerNetwork, v: np.ndarray, i_bus: np.ndarray) -> np.ndarray:
    """Real Jacobian of the PQ mismatches [dP; dQ] w.r.t. [theta_pq; |V|_pq].

    Uses the complex-form derivatives of S = V conj(I), I = Ybus V:
    off the diagonal dS_i/dtheta_k = -j V_i conj(Y_ik V_k) and
    dS_i/d|V_k| = V_i conj(Y_ik V_k / |V_k|); the diagonal adds
    j V_i conj(I_i) and conj(I_i) V_i / |V_i| respectively.
    """
    rows, cols, pq = net._jac_rows, net._jac_cols, net.pq_indices
    m = len(pq)
    yv = net._jac_y * v[cols]
    v_rows = v[rows]
    ds_dth = -1j * v_rows * np.conj(yv)
    ds_dvm = v_rows * np.conj(yv / np.abs(v[cols]))
    v_pq = v[pq]
    i_conj = np.conj(i_bus[pq])
    ds_dth[:m] += 1j * v_pq * i_conj
    ds_dvm[:m] += i_conj * (v_pq / np.abs(v_pq))
    jac = np.zeros(4 * m * m)
    jac[net._jac_flat] = np.concatenate(
        [ds_dth.real, ds_dvm.real, ds_dth.imag, ds_dvm.imag])
    return jac.reshape(2 * m, 2 * m)


def solve_power_flow(net: PowerNetwork, extra_load_kw=None,
                     tol: float = 1e-8, max_iter: int = 30) -> PFSolution:
    """Newton-Raphson solve from a flat start.

    Mismatch convergence is max |S_calc - S_spec| component-wise below
    ``tol`` (per-unit). Raises PowerFlowError with the mismatch trace if the
    iteration cap is hit.
    """
    n = len(net.buses)
    s_spec = bus_injections(net, extra_load_kw)
    pq = net.pq_indices
    v = np.ones(n, dtype=complex)

    trace = []
    for it in range(max_iter + 1):
        i_bus = net.ybus @ v
        s_calc = v * np.conj(i_bus)
        dp = (s_calc.real - s_spec.real)[pq]
        dq = (s_calc.imag - s_spec.imag)[pq]
        max_mis = float(max(np.max(np.abs(dp)), np.max(np.abs(dq))))
        trace.append(max_mis)
        if max_mis < tol:
            return PFSolution(
                bus_ids=net.bus_ids,
                v_mag=np.abs(v),
                v_ang=np.angle(v),
                iterations=it,
                max_mismatch_pu=max_mis,
            )
        if it == max_iter:
            break

        jac = _jacobian(net, v, i_bus)
        rhs = -np.concatenate([dp, dq])
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular Jacobian at iteration {it}") from exc

        m = len(pq)
        ang = np.angle(v)
        mag = np.abs(v)
        ang[pq] += step[:m]
        mag[pq] += step[m:]
        if np.any(mag <= 0):
            raise PowerFlowError(
                f"voltage collapse (non-positive magnitude) at iteration {it}"
            )
        v = mag * np.exp(1j * ang)

    raise PowerFlowError(
        f"no convergence in {max_iter} iterations; mismatch trace: "
        + ", ".join(f"{m:.3e}" for m in trace)
    )


def voltage_deviation(sol: PFSolution, v_ref: float = 1.0) -> float:
    """Bus-averaged absolute voltage deviation |v - v_ref| in per-unit."""
    return float(np.mean(np.abs(sol.v_mag - v_ref)))


def average_voltage(sol: PFSolution) -> float:
    return float(np.mean(sol.v_mag))


def min_voltage(sol: PFSolution) -> float:
    return float(np.min(sol.v_mag))
