"""Power-flow solver tests, anchored on independent oracles from oracles.py."""

import re
import shutil

import numpy as np
import pytest

import evgrid
from evgrid.power import (
    _jacobian,
    Bus,
    Line,
    PFSolution,
    PowerFlowError,
    PowerNetwork,
    average_voltage,
    bus_injections,
    load_power_network,
    min_voltage,
    solve_power_flow,
    voltage_deviation,
)

from oracles import sweep_power_flow, two_bus_grid_search, two_bus_voltage
from strategies import BASE_KV, BASE_MVA, random_radial

Z_BASE = (BASE_KV * 1e3) ** 2 / (BASE_MVA * 1e6)


def _net33():
    return load_power_network(evgrid.DATA_DIR / "ieee33")


def _as_tuples(net):
    buses = [(b.bus_id, b.kind, b.p_base_kw, b.q_base_kvar) for b in net.buses]
    lines = [(l.from_bus, l.to_bus, l.r_ohm, l.x_ohm) for l in net.lines]
    return buses, lines


def _shuffled_radial(rng, n_buses):
    """Random radial feeder with scrambled bus ids, bus order, line order and
    line orientation. Returns the network and the oracle's tuples, whose lines
    run parent -> child as the sweep requires."""
    ids = [int(i) for i in rng.choice(np.arange(1, 10 * n_buses), n_buses, replace=False)]
    buses = [(ids[0], "slack", 0.0, 0.0)]
    lines = []
    for k in range(1, n_buses):
        parent = ids[int(rng.integers(0, k))]
        buses.append((ids[k], "pq", float(rng.uniform(0, 250)), float(rng.uniform(0, 150))))
        lines.append((parent, ids[k], float(rng.uniform(0.05, 0.8)), float(rng.uniform(0.05, 0.8))))
    net_buses = [Bus(*buses[i]) for i in rng.permutation(n_buses)]
    net_lines = []
    for i in rng.permutation(n_buses - 1):
        f, t, r, x = lines[i]
        net_lines.append(Line(t, f, r, x) if rng.random() < 0.5 else Line(f, t, r, x))
    return PowerNetwork(net_buses, net_lines, BASE_MVA, BASE_KV), buses, lines


def _voltages(net, x):
    """Complex bus voltages for x = [theta_pq; |V|_pq], slack at 1+0j."""
    pq = net.pq_indices
    m = len(pq)
    ang = np.zeros(len(net.buses))
    mag = np.ones(len(net.buses))
    ang[pq] = x[:m]
    mag[pq] = x[m:]
    return mag * np.exp(1j * ang)


def _pq_powers(net, x):
    """[P; Q] at the PQ buses, straight from S = V conj(Ybus V)."""
    v = _voltages(net, x)
    s = (v * np.conj(net.ybus @ v))[net.pq_indices]
    return np.concatenate([s.real, s.imag])


def test_flat_voltage_with_zero_load():
    buses = [Bus(1, "slack", 0, 0)] + [Bus(i, "pq", 0, 0) for i in range(2, 6)]
    lines = [Line(i, i + 1, 0.5, 0.3) for i in range(1, 5)]
    net = PowerNetwork(buses, lines, BASE_MVA, BASE_KV)
    sol = solve_power_flow(net)
    assert sol.iterations == 0
    assert np.allclose(sol.v_mag, 1.0, atol=1e-12)
    assert np.allclose(sol.v_ang, 0.0, atol=1e-12)


def test_two_bus_matches_closed_form():
    # one line, one load; closed-form quadratic gives |v2|
    r_pu, x_pu = 0.05, 0.04
    p_pu, q_pu = 0.8, 0.4
    buses = [Bus(1, "slack", 0, 0),
             Bus(2, "pq", p_pu * BASE_MVA * 1e3, q_pu * BASE_MVA * 1e3)]
    lines = [Line(1, 2, r_pu * Z_BASE, x_pu * Z_BASE)]
    net = PowerNetwork(buses, lines, BASE_MVA, BASE_KV)
    sol = solve_power_flow(net)
    v_expected = two_bus_voltage(r_pu, x_pu, p_pu, q_pu)
    assert abs(sol.voltage(2) - v_expected) < 1e-9


def test_two_bus_matches_grid_search():
    r_pu, x_pu = 0.08, 0.06
    p_pu, q_pu = 0.5, 0.2
    buses = [Bus(1, "slack", 0, 0),
             Bus(2, "pq", p_pu * BASE_MVA * 1e3, q_pu * BASE_MVA * 1e3)]
    lines = [Line(1, 2, r_pu * Z_BASE, x_pu * Z_BASE)]
    net = PowerNetwork(buses, lines, BASE_MVA, BASE_KV)
    sol = solve_power_flow(net)
    v_grid, _ = two_bus_grid_search(r_pu, x_pu, p_pu, q_pu)
    assert abs(sol.voltage(2) - v_grid) < 1e-6


def test_33bus_base_case_against_sweep_oracle():
    net = _net33()
    sol = solve_power_flow(net)
    oracle = sweep_power_flow(*_as_tuples(net), BASE_MVA, BASE_KV)
    for bid in net.bus_ids:
        assert abs(sol.voltage(bid) - abs(oracle[bid])) < 1e-8
    # canonical landmark values for this feeder, frozen from the oracle
    assert abs(min_voltage(sol) - 0.913090) < 1e-4
    assert net.bus_ids[int(np.argmin(sol.v_mag))] == 18
    assert abs(voltage_deviation(sol) - 0.051544) < 1e-4


def test_69bus_base_case_against_sweep_oracle():
    net = load_power_network(evgrid.DATA_DIR / "ieee69")
    sol = solve_power_flow(net)
    oracle = sweep_power_flow(*_as_tuples(net), BASE_MVA, BASE_KV)
    for bid in net.bus_ids:
        assert abs(sol.voltage(bid) - abs(oracle[bid])) < 1e-8
    assert abs(min_voltage(sol) - 0.909189) < 1e-4
    assert net.bus_ids[int(np.argmin(sol.v_mag))] == 65


def test_small_random_radial_nets_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        net = random_radial(rng, int(rng.integers(2, 7)))
        sol = solve_power_flow(net)
        oracle = sweep_power_flow(*_as_tuples(net), BASE_MVA, BASE_KV)
        for bid in net.bus_ids:
            assert abs(sol.voltage(bid) - abs(oracle[bid])) < 1e-6


def test_shuffled_random_feeders_match_oracle():
    # ids, bus order, line order and orientation must not matter
    rng = np.random.default_rng(2024)
    for _ in range(12):
        net, buses, lines = _shuffled_radial(rng, int(rng.integers(20, 81)))
        sol = solve_power_flow(net)
        assert sol.iterations <= 10
        oracle = sweep_power_flow(buses, lines, BASE_MVA, BASE_KV)
        for bid in net.bus_ids:
            assert abs(sol.voltage(bid) - abs(oracle[bid])) < 1e-8


def test_69bus_double_load_against_sweep_oracle():
    net = load_power_network(evgrid.DATA_DIR / "ieee69")
    extra = {b.bus_id: b.p_base_kw for b in net.buses if b.kind == "pq"}
    sol = solve_power_flow(net, extra_load_kw=extra)
    assert sol.iterations <= 10
    buses, lines = _as_tuples(net)
    oracle = sweep_power_flow(
        [(bid, kind, 2.0 * p, q) for bid, kind, p, q in buses], lines,
        BASE_MVA, BASE_KV)
    for bid in net.bus_ids:
        assert abs(sol.voltage(bid) - abs(oracle[bid])) < 1e-8


@pytest.mark.parametrize("feeder", ["ieee33", "shuffled"])
def test_jacobian_matches_central_differences(feeder):
    rng = np.random.default_rng(5)
    if feeder == "ieee33":
        net = _net33()
    else:
        net, _, _ = _shuffled_radial(rng, 40)
    m = len(net.pq_indices)
    x = np.concatenate([rng.uniform(-0.05, 0.05, m), rng.uniform(0.9, 1.05, m)])
    v = _voltages(net, x)
    jac = _jacobian(net, v, net.ybus @ v)
    h = 1e-6
    fd = np.empty((2 * m, 2 * m))
    for k in range(2 * m):
        e = np.zeros(2 * m)
        e[k] = h
        fd[:, k] = (_pq_powers(net, x + e) - _pq_powers(net, x - e)) / (2 * h)
    assert np.max(np.abs(jac - fd)) < 1e-6 * np.max(np.abs(fd))


def test_solution_satisfies_balance_equations():
    # plugging the accepted solution back must leave mismatches below tol
    net = _net33()
    sol = solve_power_flow(net, tol=1e-8)
    v = sol.v_mag * np.exp(1j * sol.v_ang)
    s_calc = v * np.conj(net.ybus @ v)
    s_spec = bus_injections(net)
    resid = np.abs(s_calc - s_spec)[net.pq_indices]
    assert float(resid.max()) < 1e-8


def test_convergence_within_10_iterations_at_triple_load():
    net = _net33()
    extra = {b.bus_id: 2.0 * b.p_base_kw for b in net.buses if b.kind == "pq"}
    sol = solve_power_flow(net, extra_load_kw=extra)
    assert sol.iterations <= 10
    oracle = sweep_power_flow(
        [(b.bus_id, b.kind, 3.0 * b.p_base_kw, b.q_base_kvar) for b in net.buses],
        [(l.from_bus, l.to_bus, l.r_ohm, l.x_ohm) for l in net.lines],
        BASE_MVA, BASE_KV)
    for bid in net.bus_ids:
        assert abs(sol.voltage(bid) - abs(oracle[bid])) < 1e-6


def test_single_load_increase_never_raises_min_voltage():
    net = _net33()
    base_min = min_voltage(solve_power_flow(net))
    rng = np.random.default_rng(11)
    for _ in range(12):
        bus = int(rng.choice([b.bus_id for b in net.buses if b.kind == "pq"]))
        bump = float(rng.uniform(10, 500))
        sol = solve_power_flow(net, extra_load_kw={bus: bump})
        assert min_voltage(sol) <= base_min + 1e-12


def test_charging_load_increases_deviation():
    net = _net33()
    lo = voltage_deviation(solve_power_flow(net))
    hi = voltage_deviation(solve_power_flow(net, extra_load_kw={18: 500.0}))
    assert hi > lo


def test_voltage_deviation_and_average():
    sol = PFSolution(bus_ids=(1, 2, 3),
                     v_mag=np.array([1.0, 0.95, 0.90]),
                     v_ang=np.zeros(3), iterations=1, max_mismatch_pu=0.0)
    assert voltage_deviation(sol) == pytest.approx(0.05)
    assert average_voltage(sol) == pytest.approx(0.95)
    assert min_voltage(sol) == pytest.approx(0.90)
    assert voltage_deviation(sol, v_ref=0.95) == pytest.approx(0.1 / 3)


def test_injections_sign_and_mapping():
    net = _net33()
    s = bus_injections(net, extra_load_kw={18: 100.0})
    i18 = net.index_of(18)
    # consumption enters negatively, in per-unit of 10 MVA
    assert s[i18].real == pytest.approx(-(90.0 + 100.0) / 1e4)
    assert s[i18].imag == pytest.approx(-40.0 / 1e4)
    with pytest.raises(KeyError):
        bus_injections(net, extra_load_kw={999: 1.0})
    with pytest.raises(ValueError):
        bus_injections(net, extra_load_kw={18: -5.0})


@pytest.mark.parametrize("kw", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_load_rejected_before_solving(kw):
    net = _net33()
    with pytest.raises(ValueError, match=f"non-finite charging load {kw} at bus 18"):
        solve_power_flow(net, extra_load_kw={18: kw})


def test_slack_bus_load_rejected():
    # the slack is outside the mismatch, so its load would be dropped silently
    net = _net33()
    with pytest.raises(ValueError, match="bus 1, the slack bus"):
        solve_power_flow(net, extra_load_kw={1: 5000.0})


def test_network_validation_errors():
    b = [Bus(1, "slack", 0, 0), Bus(2, "pq", 10, 5), Bus(3, "pq", 10, 5)]
    with pytest.raises(ValueError, match="radial"):
        PowerNetwork(b, [Line(1, 2, 0.1, 0.1), Line(2, 3, 0.1, 0.1),
                         Line(1, 3, 0.1, 0.1)], BASE_MVA, BASE_KV)
    with pytest.raises(ValueError, match="not connected"):
        PowerNetwork(b + [Bus(4, "pq", 1, 1)],
                     [Line(1, 2, 0.1, 0.1), Line(2, 3, 0.1, 0.1),
                      Line(3, 3, 0.1, 0.1)], BASE_MVA, BASE_KV)
    with pytest.raises(ValueError, match="slack"):
        PowerNetwork([Bus(1, "slack", 0, 0), Bus(2, "slack", 0, 0)],
                     [Line(1, 2, 0.1, 0.1)], BASE_MVA, BASE_KV)
    with pytest.raises(ValueError, match="unknown bus"):
        PowerNetwork(b, [Line(1, 2, 0.1, 0.1), Line(2, 9, 0.1, 0.1)],
                     BASE_MVA, BASE_KV)
    with pytest.raises(ValueError, match="impedance"):
        PowerNetwork(b, [Line(1, 2, 0.0, 0.0), Line(2, 3, 0.1, 0.1)],
                     BASE_MVA, BASE_KV)


def test_nonconvergence_raises_with_trace():
    # absurd overload cannot be solved; the error carries the mismatch trace
    net = _net33()
    extra = {b.bus_id: 1e6 for b in net.buses if b.kind == "pq"}
    with pytest.raises(PowerFlowError):
        solve_power_flow(net, extra_load_kw=extra)


def test_missing_base_header_rejected(tmp_path):
    (tmp_path / "buses.csv").write_text("id,type,p_base_kw,q_base_kvar\n1,slack,0,0\n2,pq,10,5\n")
    (tmp_path / "lines.csv").write_text("from,to,r_ohm,x_ohm\n1,2,0.1,0.1\n")
    with pytest.raises(ValueError, match="base_mva"):
        load_power_network(tmp_path)


def _edit_row(tmp_path, name, lineno, old, new):
    """A copy of the ieee33 fixture whose ``name`` file line ``lineno``
    reads ``new`` instead of ``old``; returns (directory, file)."""
    net = tmp_path / "net"
    shutil.copytree(evgrid.DATA_DIR / "ieee33", net)
    path = net / name
    rows = path.read_text().splitlines()
    assert rows[lineno - 1] == old
    rows[lineno - 1] = new
    path.write_text("\n".join(rows) + "\n")
    return net, path


def test_bad_bus_cell_names_its_file_and_line(tmp_path):
    net, buses = _edit_row(tmp_path, "buses.csv", 7, "2,pq,100,60",
                           "2,pq,4O,60")
    with pytest.raises(ValueError, match=re.escape(
            f"{buses}:7: could not convert string to float: '4O'")):
        load_power_network(net)


def test_invalid_line_names_its_fixture(tmp_path):
    net, _ = _edit_row(tmp_path, "lines.csv", 3, "1,2,0.0922,0.0470",
                       "1,2,0,0")
    with pytest.raises(ValueError, match=re.escape(
            f"{net}: line 1-2 has invalid impedance")):
        load_power_network(net)
