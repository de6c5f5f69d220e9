"""The network, sampler, forecaster and power-flow fast paths against
frozen copies of the code they replaced, bit for bit.

The references below are the masked two-formula sigmoid, the LSTM
forward/backward with one sigmoid call per gate and a concatenated ``dz``,
the minibatch gather that stacked the buffer's pairs per minibatch, the
dense forward/backward that looked each parameter up by a formatted key,
the ``cumsum``/``searchsorted`` categorical sampler, the ``keepdims``
log-softmax, the constrained agent's decision and its two critic values
as three separate dense forwards on standalone parameter arrays, and the
Newton-Raphson solve that
allocated a new Jacobian per iteration. Every comparison is on the int64
view of the float64 results, so a difference in the last bit, in the sign
of a zero or in a NaN payload fails.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import evgrid
from evgrid.nn import (LSTM, DenseNet, _sigmoid, assign_params,
                       categorical_sample, log_softmax, log_softmax_1d)
from evgrid.power import (PFSolution, PowerFlowError, bus_injections,
                          load_power_network, solve_power_flow)
from evgrid.predictor import PredictorBuffer, Seq2SeqForecaster, _gather
from evgrid.scenario import TrainConfig, load_scenario
from evgrid.srl import (EpisodeData, LagrangePPOAgent, critic_values,
                        load_checkpoint, ppo_update, save_checkpoint)

from test_power import _shuffled_radial

FAST = settings(derandomize=True, max_examples=60, deadline=None)


def same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


# ---------------------------------------------------------------------------
# frozen references
# ---------------------------------------------------------------------------

def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm_forward(net, seq, state=None, training=False, dropout_rng=None,
                     dropout_masks=None):
    params = net.param_dict()
    seq = np.asarray(seq, dtype=float)
    T, batch, _ = seq.shape
    L, H = net.num_layers, net.hidden_dim
    if state is not None:
        h = [np.array(state[0][l], dtype=float) for l in range(L)]
        c = [np.array(state[1][l], dtype=float) for l in range(L)]
    else:
        h = [np.zeros((batch, H)) for _ in range(L)]
        c = [np.zeros((batch, H)) for _ in range(L)]
    use_drop = training and net.dropout > 0.0 and L > 1
    if use_drop and dropout_masks is None:
        keep = 1.0 - net.dropout
        dropout_masks = (dropout_rng.random((L - 1, T, batch, H)) < keep
                         ).astype(float) / keep
    steps = []
    outputs = np.empty((T, batch, H))
    for t in range(T):
        x = seq[t]
        for layer in range(L):
            hp, cp = h[layer], c[layer]
            z = (x @ params[f"wx{layer}"] + hp @ params[f"wh{layer}"]
                 + params[f"b{layer}"])
            i = ref_sigmoid(z[:, :H])
            f = ref_sigmoid(z[:, H:2 * H])
            g = np.tanh(z[:, 2 * H:3 * H])
            o = ref_sigmoid(z[:, 3 * H:])
            cn = f * cp + i * g
            tc = np.tanh(cn)
            hn = o * tc
            steps.append((x, hp, cp, i, f, g, o, cn, tc))
            h[layer] = hn
            c[layer] = cn
            x = hn
            if use_drop and layer < L - 1:
                x = x * dropout_masks[layer, t]
        outputs[t] = x
    cache = (seq.shape, steps, dropout_masks if use_drop else None)
    return outputs, (np.stack(h), np.stack(c)), cache


def ref_lstm_backward(net, cache, grad_outputs, grad_state=None):
    params = net.param_dict()
    (T, batch, _), steps, masks = cache
    L, H = net.num_layers, net.hidden_dim
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    grad_inputs = np.zeros((T, batch, net.input_dim))
    if grad_state is not None:
        dh_next = grad_state[0].copy()
        dc_next = grad_state[1].copy()
    else:
        dh_next = np.zeros((L, batch, H))
        dc_next = np.zeros((L, batch, H))
    grad_outputs = np.asarray(grad_outputs, dtype=float)
    for t in range(T - 1, -1, -1):
        dx_up = grad_outputs[t].copy()
        for layer in range(L - 1, -1, -1):
            x, hp, cp, i, f, g, o, cn, tc = steps[t * L + layer]
            dh = dx_up + dh_next[layer]
            dc = dc_next[layer] + dh * o * (1.0 - tc * tc)
            do = dh * tc
            di = dc * g
            dg = dc * i
            df = dc * cp
            dz = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ], axis=1)
            grads[f"wx{layer}"] += x.T @ dz
            grads[f"wh{layer}"] += hp.T @ dz
            grads[f"b{layer}"] += dz.sum(axis=0)
            dh_next[layer] = dz @ params[f"wh{layer}"].T
            dc_next[layer] = dc * f
            dx = dz @ params[f"wx{layer}"].T
            if layer == 0:
                grad_inputs[t] = dx
            else:
                if masks is not None:
                    dx = dx * masks[layer - 1, t]
                dx_up = dx
    return grads, grad_inputs, (dh_next, dc_next)


def ref_dense_forward(net, x):
    params = net.param_dict()
    n_layers = len(net.sizes) - 1
    squeeze = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=float))
    acts = [h]
    for k in range(n_layers):
        z = h @ params[f"w{k}"] + params[f"b{k}"]
        h = np.tanh(z) if k < n_layers - 1 else z
        acts.append(h)
    out = h[0] if squeeze else h
    return out, (acts, squeeze)


def ref_dense_backward(net, cache, grad_out):
    params = net.param_dict()
    n_layers = len(net.sizes) - 1
    acts, squeeze = cache
    g = np.atleast_2d(np.asarray(grad_out, dtype=float))
    grads = {}
    for k in range(n_layers - 1, -1, -1):
        h_in, h_out = acts[k], acts[k + 1]
        if k < n_layers - 1:
            g = g * (1.0 - h_out * h_out)
        grads[f"w{k}"] = h_in.T @ g
        grads[f"b{k}"] = g.sum(axis=0)
        g = g @ params[f"w{k}"].T
    return grads, (g[0] if squeeze else g)


def ref_categorical_sample(probs, rng):
    u = rng.random()
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1))


def ref_log_softmax(logits):
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _standalone(net):
    """``net``'s sizes and fresh copies of its parameters, for
    ``ref_dense_forward`` to read apart from the live net."""
    params = {k: v.copy() for k, v in net.param_dict().items()}
    return types.SimpleNamespace(sizes=net.sizes, param_dict=lambda: params)


def ref_act(agent, state, rng):
    s = np.asarray(state, dtype=float)
    logits, _ = ref_dense_forward(_standalone(agent.actor), s)
    lp = ref_log_softmax(logits)
    a = ref_categorical_sample(np.exp(lp), rng)
    vr = float(ref_dense_forward(_standalone(agent.critic_r), s)[0][0])
    vc = float(ref_dense_forward(_standalone(agent.critic_c), s)[0][0])
    return a, float(lp[a]), vr, vc


def ref_jacobian(net, v, i_bus):
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


def ref_solve_power_flow(net, extra_load_kw=None, tol=1e-8, max_iter=30):
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
            return PFSolution(bus_ids=net.bus_ids, v_mag=np.abs(v),
                              v_ang=np.angle(v), iterations=it,
                              max_mismatch_pu=max_mis)
        if it == max_iter:
            break
        jac = ref_jacobian(net, v, i_bus)
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
                f"voltage collapse (non-positive magnitude) at iteration {it}")
        v = mag * np.exp(1j * ang)
    raise PowerFlowError(
        f"no convergence in {max_iter} iterations; mismatch trace: "
        + ", ".join(f"{m:.3e}" for m in trace))


def ref_gather(pairs, idx):
    return np.stack([pairs[i] for i in idx], axis=1)


def ref_train_step(model, buffer, iters):
    """``Seq2SeqForecaster.train_step`` as it was, on the references."""
    batch = model.cfg.batch
    params = model.param_dict()
    rng = model._rng
    losses = np.empty(iters)
    for it in range(iters):
        idx = rng.choice(len(buffer), size=batch, replace=False)
        enc_x = ref_gather(buffer.enc_inputs, idx)
        dec_x = ref_gather(buffer.dec_inputs, idx)
        target = ref_gather(buffer.targets, idx)
        _, enc_state, enc_cache = ref_lstm_forward(
            model.encoder, enc_x, training=True, dropout_rng=rng)
        dec_out, _, dec_cache = ref_lstm_forward(
            model.decoder, dec_x, state=enc_state, training=True,
            dropout_rng=rng)
        ld, b, hid = dec_out.shape
        flat, head_cache = model.head.forward(dec_out.reshape(ld * b, hid))
        diff = flat.reshape(ld, b, -1) - target
        losses[it] = float(np.mean(diff * diff))
        dflat = (2.0 * diff / diff.size).reshape(ld * b, -1)
        head_grads, dout = model.head.backward(head_cache, dflat)
        dec_grads, _, dstate0 = ref_lstm_backward(
            model.decoder, dec_cache, dout.reshape(ld, b, hid))
        enc_grads, _, _ = ref_lstm_backward(
            model.encoder, enc_cache, np.zeros((enc_x.shape[0], b, hid)),
            grad_state=dstate0)
        grads = {}
        for prefix, gd in (("enc.", enc_grads), ("dec.", dec_grads),
                           ("head.", head_grads)):
            for k, v in gd.items():
                grads[prefix + k] = v
        model.optimizer.step(params, grads)
    mean_loss = float(losses.mean())
    model.losses.append(mean_loss)
    return mean_loss


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------

TINY = np.finfo(float).tiny          # smallest normal
SUB = 5e-324                         # smallest subnormal


def test_sigmoid_special_values():
    payload_nan = np.array([0x7FF0000000000123], dtype=np.int64).view(float)[0]
    x = np.array([0.0, -0.0, SUB, -SUB, TINY / 3, -TINY / 3, TINY, -TINY,
                  709.0, -709.0, 746.0, -746.0, 745.2, -745.2, 1e-20, -1e-20,
                  36.7, -36.7, np.inf, -np.inf, np.nan, -np.nan,
                  payload_nan, -payload_nan])
    assert same_bits(_sigmoid(x), ref_sigmoid(x))
    # 2-D and strided inputs, as the LSTM passes them
    grid = np.tile(x, (3, 2))
    assert same_bits(_sigmoid(grid), ref_sigmoid(grid))
    assert same_bits(_sigmoid(grid[:, ::3]), ref_sigmoid(grid[:, ::3]))


@FAST
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                               max_side=40),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_sigmoid_matches_masked_form(x):
    assert same_bits(_sigmoid(x), ref_sigmoid(x))


# ---------------------------------------------------------------------------
# LSTM forward / backward
# ---------------------------------------------------------------------------

def _lstm_case(layers, hidden, batch, data_seed, scale):
    rng = np.random.default_rng(data_seed)
    dropout = 0.5 if layers > 1 else 0.0
    net = LSTM(7, hidden, layers, dropout, np.random.default_rng(data_seed + 1))
    T = 3
    seq = rng.normal(size=(T, batch, 7)) * scale
    state = (rng.normal(size=(layers, batch, hidden)),
             rng.normal(size=(layers, batch, hidden)))
    masks = None
    if layers > 1:
        masks = (rng.random((layers - 1, T, batch, hidden)) < 0.5) / 0.5
    grad_out = rng.normal(size=(T, batch, hidden))
    grad_state = (rng.normal(size=(layers, batch, hidden)),
                  rng.normal(size=(layers, batch, hidden)))
    return net, seq, state, masks, grad_out, grad_state


def _assert_lstm_matches(layers, hidden, batch, data_seed, scale):
    net, seq, state, masks, grad_out, grad_state = _lstm_case(
        layers, hidden, batch, data_seed, scale)
    for st0, gs in ((None, None), (state, grad_state)):
        kw = dict(state=st0, training=masks is not None, dropout_masks=masks)
        out, (h, c), cache = net.forward(seq, **kw)
        r_out, (r_h, r_c), r_cache = ref_lstm_forward(net, seq, **kw)
        assert same_bits(out, r_out)
        assert same_bits(h, r_h) and same_bits(c, r_c)
        # None stands for an all-zero output gradient
        for g_out, r_g_out in ((grad_out, grad_out),
                               (None, np.zeros_like(grad_out))):
            grads, (dh0, dc0) = net.backward(cache, g_out, grad_state=gs)
            r_grads, _, (r_dh0, r_dc0) = ref_lstm_backward(
                net, r_cache, r_g_out, grad_state=gs)
            assert grads.keys() == r_grads.keys()
            assert all(same_bits(grads[k], r_grads[k]) for k in grads)
            assert same_bits(dh0, r_dh0) and same_bits(dc0, r_dc0)


@pytest.mark.parametrize("layers,hidden,batch", [(1, 32, 1), (1, 32, 32)])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data_seed=st.integers(0, 2**31), scale=st.sampled_from([0.1, 1.0, 40.0]))
def test_lstm_matches_reference(layers, hidden, batch, data_seed, scale):
    _assert_lstm_matches(layers, hidden, batch, data_seed, scale)


@settings(derandomize=True, max_examples=2, deadline=None)
@given(data_seed=st.integers(0, 2**31))
def test_lstm_matches_reference_two_layers_pinned_dropout(data_seed):
    _assert_lstm_matches(2, 256, 64, data_seed, 1.0)


# ---------------------------------------------------------------------------
# minibatch gather and train_step
# ---------------------------------------------------------------------------

@FAST
@given(n=st.integers(1, 40), t=st.integers(1, 6), width=st.integers(1, 12),
       data=st.data())
def test_gather_matches_per_minibatch_stack(n, t, width, data):
    pairs = [np.random.default_rng(k).normal(size=(t, width)) for k in range(n)]
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=n, unique=True)))
    got = _gather(np.stack(pairs), idx)
    want = ref_gather(pairs, idx)
    assert same_bits(got, want)
    assert got.flags.c_contiguous and got.strides == want.strides


def _random_pairs(buf, cfg, n_stations, rng, n):
    for _ in range(n):
        buf.enc_inputs.append(rng.normal(size=(cfg.enc_len, 9 * n_stations)))
        buf.dec_inputs.append(rng.random((cfg.dec_len, n_stations)) * 3.0)
        buf.targets.append(rng.random((cfg.dec_len, n_stations)) * 3.0)


@pytest.mark.parametrize("scenario,iters", [("reduced", None), ("case_a", 2)])
def test_train_step_matches_reference(scenario, iters):
    """Three train steps, the buffer growing between them; case_a runs two
    minibatches per step to keep the test short."""
    cfg = load_scenario(evgrid.DATA_DIR / f"{scenario}.yaml")
    p, m = cfg.predictor, cfg.n_stations
    iters = p.iters_per_step if iters is None else iters
    fast = Seq2SeqForecaster(m, 9 * m, p, np.random.default_rng(21))
    ref = Seq2SeqForecaster(m, 9 * m, p, np.random.default_rng(21))
    buf = PredictorBuffer(p.enc_len, p.dec_len)
    data_rng = np.random.default_rng(22)
    for _ in range(3):
        _random_pairs(buf, p, m, data_rng, p.batch // 2 + 3)
        if len(buf) < p.batch:
            _random_pairs(buf, p, m, data_rng, p.batch - len(buf))
        loss = fast.train_step(buf, iters=iters)
        r_loss = ref_train_step(ref, buf, iters)
        assert same_bits(np.float64(loss), np.float64(r_loss))
    assert same_bits(np.array(fast.losses), np.array(ref.losses))
    r_params = ref.param_dict()
    for k, v in fast.param_dict().items():
        assert same_bits(v, r_params[k]), k
    snaps = data_rng.normal(size=(p.enc_len, 9 * m))
    last = data_rng.random(m)
    # forecasts: the fast predict against the reference forward passes
    preds = fast.predict(snaps, last)
    _, state, _ = ref_lstm_forward(ref.encoder, snaps[:, None, :])
    x = last[None, None, :]
    for j in range(p.dec_len):
        out, state, _ = ref_lstm_forward(ref.decoder, x, state=state)
        y, _ = ref.head.forward(out[0])
        assert same_bits(preds[j], y[0])
        x = y[None, :, :]


# ---------------------------------------------------------------------------
# dense stack
# ---------------------------------------------------------------------------

def _dense_case(seed):
    rng = np.random.default_rng(seed)
    sizes = [int(k) for k in rng.integers(1, 13, size=rng.integers(2, 6))]
    net = DenseNet(sizes, np.random.default_rng(seed + 1))
    for p in net.param_dict().values():     # trained-looking, non-zero biases
        p += rng.normal(scale=0.5, size=p.shape)
    batch = int(rng.integers(1, 9))
    x2 = rng.normal(scale=2.0, size=(batch, sizes[0]))
    g2 = rng.normal(size=(batch, sizes[-1]))
    return net, ((x2[0], g2[0]), (x2, g2))


@pytest.mark.parametrize("seed", range(40))
def test_dense_matches_reference(seed):
    net, cases = _dense_case(seed)
    for x, grad_out in cases:
        out, (acts, squeeze) = net.forward(x)
        r_out, (r_acts, r_squeeze) = ref_dense_forward(net, x)
        assert same_bits(out, r_out) and squeeze == r_squeeze
        assert len(acts) == len(r_acts)
        assert all(same_bits(a, r) for a, r in zip(acts, r_acts))
        grads, grad_x = net.backward((acts, squeeze), grad_out)
        r_grads, r_grad_x = ref_dense_backward(net, (r_acts, r_squeeze),
                                               grad_out)
        assert list(grads) == list(r_grads)
        assert all(same_bits(grads[k], r_grads[k]) for k in grads)
        assert same_bits(grad_x, r_grad_x)


def test_dense_reads_its_parameters_live():
    """A write into ``param_dict()``'s arrays is what the next pass reads."""
    net = DenseNet([3, 4, 2], np.random.default_rng(0))
    x = np.array([0.5, -1.0, 2.0])
    before, _ = net.forward(x)
    params = net.param_dict()
    assert list(params) == ["w0", "b0", "w1", "b1"]
    params["w1"][...] = 0.0
    params["b1"][...] = [7.0, -3.0]
    out, cache = net.forward(x)
    assert not np.array_equal(out, before)
    assert same_bits(out, np.array([7.0, -3.0]))
    params["w1"][0, 1] = 2.0
    out, cache = net.forward(x)
    r_out, _ = ref_dense_forward(net, x)
    assert same_bits(out, r_out) and out[1] != -3.0
    _, grad_x = net.backward(cache, np.array([0.0, 1.0]))
    _, r_grad_x = ref_dense_backward(net, ref_dense_forward(net, x)[1],
                                     np.array([0.0, 1.0]))
    assert same_bits(grad_x, r_grad_x) and np.any(grad_x != 0.0)


# ---------------------------------------------------------------------------
# categorical sampler
# ---------------------------------------------------------------------------

class FixedDraw:
    """An rng stub whose every ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.u


def _probability_vectors(rng, count):
    for i in range(count):
        n = int(rng.integers(1, 9))
        kind = i % 5
        if kind == 0:
            p = rng.dirichlet(np.ones(n))
        elif kind == 1:                     # one-hot
            p = np.zeros(n)
            p[rng.integers(n)] = 1.0
        elif kind == 2:                     # near-degenerate
            p = rng.random(n) * 1e-12
            p[rng.integers(n)] = 1.0 - p.sum()
        elif kind == 3:                     # as the agents make them
            z = rng.normal(scale=rng.choice([0.1, 3.0, 40.0]), size=n)
            z = z - z.max()
            p = np.exp(z - np.log(np.exp(z).sum()))
        else:                               # sums a few ulps off 1
            p = rng.dirichlet(np.ones(n)) * (1.0 + rng.integers(-4, 5) * 1e-16)
        yield p


def test_sampler_matches_searchsorted_on_random_vectors():
    data = np.random.default_rng(11)
    for k, p in enumerate(_probability_vectors(data, 12_000)):
        r1 = np.random.default_rng(k)
        r2 = np.random.default_rng(k)
        assert categorical_sample(p, r1) == ref_categorical_sample(p, r2)
        assert r1.bit_generator.state == r2.bit_generator.state   # one draw


def test_sampler_matches_searchsorted_on_cumulative_boundaries():
    """``u`` exactly on each running sum, one ulp either side of it, and at
    or past the last sum (where both pick the last index). A NaN running sum
    is no draw an rng makes, so it is left out as a ``u``."""
    data = np.random.default_rng(12)
    vectors = list(_probability_vectors(data, 500))
    vectors += [np.array([0.25, 0.25, 0.5]), np.array([0.0, 0.0, 1.0]),
                np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.1] * 3),
                np.array([np.nan, 0.5]), np.array([0.5, np.nan, 0.5]),
                np.array([0.0, np.inf])]
    for p in vectors:
        cum = np.cumsum(p)
        draws = [0.0, 1.0 - 2.0 ** -53, cum[-1], cum[-1] + 1.0]
        for c in cum:
            draws += [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]
        for u in (u for u in draws if not np.isnan(u)):
            stub, ref = FixedDraw(float(u)), FixedDraw(float(u))
            assert categorical_sample(p, stub) == ref_categorical_sample(p, ref)
            assert stub.calls == 1


# ---------------------------------------------------------------------------
# log-softmax
# ---------------------------------------------------------------------------

def test_log_softmax_special_values():
    """Ties, infinities, NaN (with a payload) and magnitudes up to 1e300,
    in rows of one to four, through the 1-D form and the 2-D form."""
    payload_nan = np.array([0x7FF0000000000123], dtype=np.int64).view(float)[0]
    rows = [[0.0], [-0.0], [np.inf], [-np.inf], [np.nan], [1e300],
            [1.0, 1.0], [2.0, -1.0, 2.0], [0.0, -0.0], [-5.0] * 4,
            [np.inf, 0.0], [-np.inf, 1.0], [-np.inf, -np.inf], [np.inf, np.inf],
            [np.inf, -np.inf, 0.0], [np.nan, 1.0], [1.0, payload_nan],
            [-payload_nan, np.inf], [1e300, -1e300], [1e300, 1e300, 0.0],
            [-1e300, 3.0], [1.7e308, -1.7e308], [SUB, -SUB, TINY],
            [745.0, -745.0, 0.0, 709.0], [1e-300, 2e-300]]
    with np.errstate(all="ignore"):
        for row in rows:
            x = np.array(row)
            assert same_bits(log_softmax_1d(x), ref_log_softmax(x)), row
            assert same_bits(log_softmax(x), ref_log_softmax(x)), row
        grid = np.array([r + [0.0] * (4 - len(r)) for r in rows])
        assert same_bits(log_softmax(grid), ref_log_softmax(grid))


def test_log_softmax_matches_reference_on_random_rows():
    rng = np.random.default_rng(13)
    for k in range(3000):
        n = int(rng.integers(1, 10))
        scale = 10.0 ** float(rng.uniform(-3, 300)) if k % 3 == 0 \
            else float(rng.choice([1e-3, 1.0, 40.0, 1e3]))
        x = rng.normal(scale=scale, size=n)
        if k % 7 == 0:
            x[rng.integers(n)] = x.max()        # a tie at the maximum
        assert same_bits(log_softmax_1d(x), ref_log_softmax(x))
    for rows in (1, 5, 64):
        x = rng.normal(scale=30.0, size=(rows, 7))
        assert same_bits(log_softmax(x), ref_log_softmax(x))


@FAST
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                               max_side=12),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_log_softmax_matches_reference(x):
    with np.errstate(all="ignore"):
        want = ref_log_softmax(x)
        assert same_bits(log_softmax(x), want)
        if x.ndim == 1:
            assert same_bits(log_softmax_1d(x), want)


# ---------------------------------------------------------------------------
# decision path and critic values
# ---------------------------------------------------------------------------

HIDDEN = [(), (8,), (8, 8), (48, 24), (64, 64)]


def _agent(hidden, state_dim, n_actions, seed):
    agent = LagrangePPOAgent(state_dim, n_actions, TrainConfig(hidden=hidden),
                             np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for p in agent.param_dict().values():   # trained-looking, non-zero biases
        p += rng.normal(scale=0.3, size=p.shape)
    return agent


def _assert_act_matches(agent, states, seed):
    """``act`` against ``ref_act`` on each state: the action, the bits of
    its log-prob and the rng state after the draw. ``critic_values`` on the
    states, as ``ppo_update`` calls it, gives the bits of ``ref_act``'s
    per-decision V_r and V_c."""
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    want_r, want_c = [], []
    for s in states:
        a, lp = agent.act(s, r1)
        ra, rlp, rvr, rvc = ref_act(agent, s, r2)
        assert a == ra
        assert same_bits(np.float64(lp), np.float64(rlp))
        assert r1.bit_generator.state == r2.bit_generator.state
        want_r.append(rvr)
        want_c.append(rvc)
    assert same_bits(critic_values(agent.critic_r, states), np.array(want_r))
    assert same_bits(critic_values(agent.critic_c, states), np.array(want_c))


@pytest.mark.parametrize("hidden", HIDDEN)
def test_stacked_act_matches_three_forwards(hidden):
    rng = np.random.default_rng(len(hidden) * 100 + sum(hidden))
    for dim in (1, 2, 7, 17, 42, 64, 65, 97, 120):
        agent = _agent(hidden, dim, int(rng.integers(1, 10)), dim)
        for scale in (1e-3, 1.0, 1e3):
            _assert_act_matches(agent, rng.normal(scale=scale, size=(8, dim)),
                                dim)


def test_constrained_decision_is_one_actor_forward(monkeypatch):
    agent = _agent((8, 8), 5, 3, 0)
    nets = []
    forward = DenseNet.forward

    def spy(net, x):
        nets.append(net)
        return forward(net, x)

    monkeypatch.setattr(DenseNet, "forward", spy)
    agent.act(np.ones(5), np.random.default_rng(0))
    assert nets == [agent.actor]


def _episode(agent, states, rng):
    a, lp = (np.array(col) for col in zip(*[agent.act(s, rng)
                                             for s in states]))
    return EpisodeData(states=states, actions=a.astype(int), logps=lp,
                       rewards=rng.normal(size=len(a)),
                       costs=np.abs(rng.normal(size=len(a))), metrics=None,
                       seed=0, minute_log=[], droop_log=[], trace=[])


def test_stacked_act_reads_updated_parameters(tmp_path):
    """After Adam steps (``ppo_update``), ``assign_params`` and
    ``load_checkpoint``, ``act`` and ``critic_values`` still equal the
    frozen references on the updated nets."""
    tc = TrainConfig(hidden=(48, 24), iters_per_epoch=3, lr=0.01)
    agent = LagrangePPOAgent(6, 4, tc, np.random.default_rng(40))
    agent.tag = {"method": 1, "state_dim": 6, "action_dim": 4, "pad_width": 0}
    rng = np.random.default_rng(41)
    states = rng.normal(size=(30, 6))

    def outputs():
        return ([agent.act(s, np.random.default_rng(0))[1] for s in states],
                critic_values(agent.critic_r, states).tolist(),
                critic_values(agent.critic_c, states).tolist())

    before = outputs()
    ppo_update(agent, [_episode(agent, states[k::3], rng) for k in range(3)],
               rng)
    _assert_act_matches(agent, states, 1)
    after = outputs()
    assert all(x != y for x, y in zip(after, before))

    assign_params(agent.param_dict(),
                  {k: rng.normal(scale=0.5, size=v.shape)
                   for k, v in agent.param_dict().items()})
    _assert_act_matches(agent, states, 2)

    save_checkpoint(tmp_path / "agent.bin", agent)
    fresh = LagrangePPOAgent(6, 4, tc, np.random.default_rng(42))
    fresh.tag = agent.tag
    load_checkpoint(tmp_path / "agent.bin", fresh)
    _assert_act_matches(fresh, states, 3)
    assert [fresh.act(s, np.random.default_rng(0)) for s in states] \
        == [agent.act(s, np.random.default_rng(0)) for s in states]


def test_stacked_matmul_is_the_per_slice_product():
    """What ``DenseNet.forward`` on a row and ``critic_values`` rest on:
    ``np.matmul`` makes the same product for a row ``(d,)``, a one-row
    batch ``(1, d)`` and every slice of an ``(n, 1, d)`` stack, on the
    agents' layer shapes (hidden layers, logits, one value) and with
    inputs from 1e-3 to 1e3."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    why = (f"numpy {np.__version__} with {blas.get('name')} "
           f"{blas.get('version')} gives a row, a one-row batch or a slice "
           f"of a stack of one-row batches other bits; DenseNet.forward and "
           f"srl.critic_values assume numpy.matmul makes the same BLAS call "
           f"for each, so decisions and critic values would move")
    rng = np.random.default_rng(50)
    for dim in (1, 2, 17, 42, 64, 65, 120, 137):
        for out in (1, 3, 8, 24, 48, 64):
            w = rng.normal(size=(dim, out))
            n = int(rng.integers(1, 80))
            x = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
            stacked = np.matmul(x[:, None, :], w)
            assert stacked.shape == (n, 1, out)
            for i in range(n):
                row = x[i] @ w
                assert same_bits(x[i:i + 1] @ w, row[None]), why
                assert same_bits(stacked[i], row[None]), why


# ---------------------------------------------------------------------------
# power flow
# ---------------------------------------------------------------------------

def _same_solve(net, loads, **kw):
    """Both solvers on one case: equal bits, or equal errors."""
    try:
        want = ref_solve_power_flow(net, loads, **kw)
    except PowerFlowError as exc:
        with pytest.raises(type(exc)) as got:
            solve_power_flow(net, loads, **kw)
        assert str(got.value) == str(exc)
        return None
    sol = solve_power_flow(net, loads, **kw)
    assert same_bits(sol.v_mag, want.v_mag)
    assert same_bits(sol.v_ang, want.v_ang)
    assert sol.iterations == want.iterations
    assert same_bits(np.float64(sol.max_mismatch_pu),
                     np.float64(want.max_mismatch_pu))
    assert sol.bus_ids == want.bus_ids
    return sol


def _station_loads(net, rng, scale):
    pq = [b.bus_id for b in net.buses if b.kind == "pq"]
    buses = rng.choice(pq, size=min(5, len(pq)), replace=False)
    return {int(b): float(rng.uniform(0.0, scale)) for b in buses}


@pytest.mark.parametrize("feeder", ["ieee33", "ieee69", "shuffled"])
def test_power_flow_matches_reference(feeder):
    rng = np.random.default_rng(31)
    solved = 0
    for k in range(25):
        if feeder == "shuffled":
            net, _, _ = _shuffled_radial(rng, int(rng.integers(2, 45)))
        elif k == 0:
            net = load_power_network(evgrid.DATA_DIR / feeder)
        loads = None if k == 0 else _station_loads(net, rng, 1500.0)
        solved += _same_solve(net, loads) is not None
        _same_solve(net, loads, max_iter=2)     # the trace of a short cap
    assert solved == 25


@pytest.mark.parametrize("feeder", ["ieee33", "ieee69", "shuffled"])
def test_power_flow_failures_match_reference(feeder):
    """Loads no solve can carry: the same error type and message, mismatch
    trace included."""
    rng = np.random.default_rng(32)
    if feeder == "shuffled":
        net, _, _ = _shuffled_radial(rng, 30)
    else:
        net = load_power_network(evgrid.DATA_DIR / feeder)
    failed = 0
    for scale in (3e4, 1e5, 1e6, 1e8):
        loads = {b.bus_id: scale * float(rng.random())
                 for b in net.buses if b.kind == "pq"}
        failed += _same_solve(net, loads) is None
    assert failed >= 3
