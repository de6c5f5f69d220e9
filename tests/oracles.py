"""Independent reference implementations used to cross-check the package.

Everything in this file deliberately avoids the package's own algorithms:

* power flow is solved by a backward/forward current sweep (Kirchhoff sweeps on
  the radial tree, no Jacobian, no admittance matrix), plus a closed-form
  quadratic for the two-bus case and a zoomed 2-D grid search;
* generalized advantage estimates come from the literal O(T^2) double sum;
* gradients are checked with central finite differences;
* percentiles come from the textbook sort-and-interpolate rule.

These were written (and frozen) before the corresponding solvers in the
package, so the two routes stay independent.
"""

from __future__ import annotations

import math


# ---------------------------------------------------------------------------
# power flow
# ---------------------------------------------------------------------------

def sweep_power_flow(buses, lines, base_mva, base_kv, tol=1e-12, max_iter=500):
    """Backward/forward sweep on a radial feeder.

    buses: list of (bus_id, bus_type, p_kw, q_kvar)  -- loads are consumption
    lines: list of (from_id, to_id, r_ohm, x_ohm)
    Returns dict bus_id -> complex voltage in per-unit (slack at 1+0j).
    """
    z_base = (base_kv * 1e3) ** 2 / (base_mva * 1e6)
    s_base_kva = base_mva * 1e3

    slack = None
    s_load = {}
    for bid, btype, p_kw, q_kvar in buses:
        if btype == "slack":
            slack = bid
        s_load[bid] = complex(p_kw, q_kvar) / s_base_kva
    if slack is None:
        raise ValueError("no slack bus")

    children = {bid: [] for bid in s_load}
    branch = {}
    for f, t, r, x in lines:
        children[f].append(t)
        branch[t] = (f, complex(r, x) / z_base)

    # depth-first order from the slack so a reversed walk is leaf-first
    order = []
    stack = [slack]
    seen = set()
    while stack:
        b = stack.pop()
        if b in seen:
            raise ValueError("network is not radial")
        seen.add(b)
        order.append(b)
        for c in children[b]:
            stack.append(c)
    if len(order) != len(s_load):
        raise ValueError("network is not connected")

    v = {bid: 1.0 + 0j for bid in s_load}
    for _ in range(max_iter):
        inj = {bid: (s_load[bid] / v[bid]).conjugate() for bid in s_load}
        flow = {bid: inj[bid] for bid in s_load}
        for b in reversed(order):
            if b == slack:
                continue
            parent, _ = branch[b]
            flow[parent] += flow[b]
        worst = 0.0
        for b in order:
            if b == slack:
                continue
            parent, z = branch[b]
            new_v = v[parent] - z * flow[b]
            worst = max(worst, abs(new_v - v[b]))
            v[b] = new_v
        if worst < tol:
            return v
    raise RuntimeError("sweep did not converge")


def two_bus_voltage(r_pu, x_pu, p_pu, q_pu, v_slack=1.0):
    """Closed-form receiving-end voltage magnitude for one line + one PQ load.

    With load s = p + jq drawn at bus 2 and v1 = v_slack:
        |v2|^4 + (2(p r + q x) - v1^2) |v2|^2 + (p^2 + q^2)(r^2 + x^2) = 0
    The physical (high-voltage) root is returned.
    """
    b = 2.0 * (p_pu * r_pu + q_pu * x_pu) - v_slack ** 2
    c = (p_pu ** 2 + q_pu ** 2) * (r_pu ** 2 + x_pu ** 2)
    disc = b * b - 4.0 * c
    if disc < 0:
        raise ValueError("no real power-flow solution (load beyond limit)")
    v2_sq = (-b + math.sqrt(disc)) / 2.0
    return math.sqrt(v2_sq)


def two_bus_grid_search(r_pu, x_pu, p_pu, q_pu, v_slack=1.0, rounds=12):
    """Zoomed dense grid search for the two-bus case (polar unknowns v2, th2).

    Minimizes the squared mismatch of the complex power balance at bus 2.
    Purely brute force; refines the grid around the best cell each round.
    """
    z = complex(r_pu, x_pu)
    s = complex(p_pu, q_pu)

    def mismatch(v2, th2):
        v2c = v2 * complex(math.cos(th2), math.sin(th2))
        i = (complex(v_slack, 0.0) - v2c) / z
        err = v2c * i.conjugate() - s      # delivered minus demanded
        return abs(err)

    lo_v, hi_v = 0.3, 1.2
    lo_t, hi_t = -0.6, 0.6
    best = (1.0, 0.0)
    for _ in range(rounds):
        best_err = float("inf")
        for iv in range(41):
            v2 = lo_v + (hi_v - lo_v) * iv / 40
            for it in range(41):
                th2 = lo_t + (hi_t - lo_t) * it / 40
                e = mismatch(v2, th2)
                if e < best_err:
                    best_err = e
                    best = (v2, th2)
        dv = (hi_v - lo_v) / 40
        dt = (hi_t - lo_t) / 40
        lo_v, hi_v = best[0] - 2 * dv, best[0] + 2 * dv
        lo_t, hi_t = best[1] - 2 * dt, best[1] + 2 * dt
    return best


# ---------------------------------------------------------------------------
# reinforcement-learning quantities
# ---------------------------------------------------------------------------

def gae_double_sum(signal, values, gamma, lam):
    """Literal advantage definition: A_t = sum_k (gamma*lam)^k * delta_{t+k}.

    values has length T+1 (bootstrap last); signal has length T.
    """
    T = len(signal)
    deltas = [signal[t] + gamma * values[t + 1] - values[t] for t in range(T)]
    out = []
    for t in range(T):
        acc = 0.0
        for k in range(T - t):
            acc += (gamma * lam) ** k * deltas[t + k]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

def finite_difference_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at flat numpy vector x."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_grad_error(analytic, numeric):
    import numpy as np

    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(n)), 1e-12)
    return float(np.linalg.norm(a - n)) / denom


def sort_percentile(xs, q):
    """Linear-interpolation percentile on the sorted sample (0 <= q <= 100)."""
    ys = sorted(xs)
    if not ys:
        raise ValueError("empty sample")
    if len(ys) == 1:
        return ys[0]
    pos = q / 100.0 * (len(ys) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ys) - 1)
    frac = pos - lo
    return ys[lo] * (1.0 - frac) + ys[hi] * frac
