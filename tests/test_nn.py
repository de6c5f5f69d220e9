"""Gradient, optimizer, and serialization tests for the nn substrate."""

import json
import re

import numpy as np
import pytest

from evgrid import DATA_DIR
from evgrid.env import CouplingEnv
from evgrid.harness import main
from evgrid.nn import (
    Adam,
    DenseNet,
    LSTM,
    assign_params,
    categorical_sample,
    load_params,
    log_softmax,
    save_params,
)
from evgrid.scenario import load_scenario
from evgrid.srl import build_agent, save_checkpoint

from oracles import finite_difference_grad, rel_grad_error


def _check_dense_grads(net, x, proj, tol=1e-6):
    out, cache = net.forward(x)
    grads, gx = net.backward(cache, proj)
    params = net.param_dict()
    for name in params:
        def loss(vec, name=name):
            saved = params[name].copy()
            params[name][...] = vec.reshape(params[name].shape)
            o, _ = net.forward(x)
            params[name][...] = saved
            return float((proj * o).sum())
        num = finite_difference_grad(loss, params[name].ravel())
        assert rel_grad_error(grads[name], num) < tol, name
    def loss_x(vec):
        o, _ = net.forward(vec.reshape(x.shape))
        return float((proj * o).sum())
    num_x = finite_difference_grad(loss_x, x.ravel())
    assert rel_grad_error(gx, num_x) < tol


def test_dense_zero_params_give_zero_output():
    rng = np.random.default_rng(0)
    net = DenseNet([4, 8, 3], rng)
    for p in net.param_dict().values():
        p[...] = 0.0
    out, _ = net.forward(rng.normal(size=(5, 4)))
    assert np.all(out == 0.0)


def test_dense_single_weight_identity():
    rng = np.random.default_rng(0)
    net = DenseNet([1, 1], rng)
    net.param_dict()["w0"][...] = [[1.0]]
    net.param_dict()["b0"][...] = [0.0]
    out, cache = net.forward(np.array([3.5]))
    assert out == pytest.approx(3.5)
    grads, gx = net.backward(cache, np.array([1.0]))
    assert grads["w0"][0, 0] == pytest.approx(3.5)
    assert grads["b0"][0] == pytest.approx(1.0)
    assert gx[0] == pytest.approx(1.0)


def test_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(8):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 8)) for _ in range(depth + 1)]
        net = DenseNet(sizes, rng)
        batch = int(rng.integers(1, 5))
        x = rng.normal(size=(batch, sizes[0]))
        proj = rng.normal(size=(batch, sizes[-1]))
        _check_dense_grads(net, x, proj, tol=1e-6)


def _check_lstm_grads(net, seq, proj, masks=None, tol=1e-6):
    training = masks is not None
    out, (h, c), cache = net.forward(seq, training=training, dropout_masks=masks)
    ph = np.ones_like(h) * 0.3
    pc = np.ones_like(c) * -0.2
    grads, (dh0, dc0) = net.backward(cache, proj, grad_state=(ph, pc))
    params = net.param_dict()

    def total(o, hh, cc):
        return float((proj * o).sum() + (ph * hh).sum() + (pc * cc).sum())

    for name in params:
        def loss(vec, name=name):
            saved = params[name].copy()
            params[name][...] = vec.reshape(params[name].shape)
            o, (hh, cc), _ = net.forward(seq, training=training, dropout_masks=masks)
            params[name][...] = saved
            return total(o, hh, cc)
        num = finite_difference_grad(loss, params[name].ravel())
        assert rel_grad_error(grads[name], num) < tol, name

    # the initial-state gradient carries the decoder's loss into the encoder
    zeros = np.zeros_like(h)
    for k, grad in ((0, dh0), (1, dc0)):
        def loss_state(vec, k=k):
            state = [zeros, zeros]
            state[k] = vec.reshape(zeros.shape)
            o, (hh, cc), _ = net.forward(seq, state=state, training=training,
                                         dropout_masks=masks)
            return total(o, hh, cc)
        num = finite_difference_grad(loss_state, zeros.ravel())
        assert rel_grad_error(grad, num) < tol, ("dh0", "dc0")[k]


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(5):
        layers = int(rng.integers(1, 3))
        hidden = int(rng.integers(2, 6))
        d_in = int(rng.integers(1, 5))
        T = int(rng.integers(1, 4))
        batch = int(rng.integers(1, 3))
        net = LSTM(d_in, hidden, layers, 0.0, rng)
        seq = rng.normal(size=(T, batch, d_in))
        proj = rng.normal(size=(T, batch, hidden))
        _check_lstm_grads(net, seq, proj)


def test_lstm_gradients_with_pinned_dropout_mask():
    rng = np.random.default_rng(9)
    net = LSTM(3, 4, 2, 0.5, rng)
    T, batch = 3, 2
    seq = rng.normal(size=(T, batch, 3))
    proj = rng.normal(size=(T, batch, 4))
    masks = (rng.random((1, T, batch, 4)) < 0.5).astype(float) / 0.5
    _check_lstm_grads(net, seq, proj, masks=masks)


def test_lstm_initialization_conventions():
    rng = np.random.default_rng(1)
    net = LSTM(5, 7, 2, 0.5, rng)
    H = 7
    for layer in range(2):
        b = net.param_dict()[f"b{layer}"]
        assert np.all(b[H:2 * H] == 1.0)          # forget gate
        assert np.all(b[:H] == 0.0) and np.all(b[2 * H:] == 0.0)
        wh = net.param_dict()[f"wh{layer}"]
        for gate in range(4):
            block = wh[:, gate * H:(gate + 1) * H]
            assert np.allclose(block.T @ block, np.eye(H), atol=1e-10)


def test_lstm_dropout_train_vs_eval():
    rng = np.random.default_rng(4)
    net = LSTM(2, 3, 2, 0.5, rng)
    seq = rng.normal(size=(4, 2, 2))
    out_eval, _, _ = net.forward(seq)
    out_eval2, _, _ = net.forward(seq, training=False)
    assert np.array_equal(out_eval, out_eval2)      # no dropout outside training
    d_rng = np.random.default_rng(77)
    out_tr, _, cache = net.forward(seq, training=True, dropout_rng=d_rng)
    masks = cache[2]
    assert masks.shape == (1, 4, 2, 3)
    assert set(np.unique(masks)).issubset({0.0, 2.0})   # inverted dropout at p=0.5
    assert not np.array_equal(out_tr, out_eval)


def test_softmax_values_and_logsoftmax():
    ls = log_softmax(np.array([[0.5, -0.5, 2.0]]))
    e = np.exp([0.5, -0.5, 2.0])
    assert np.allclose(np.exp(ls), e / e.sum(), atol=1e-12)


def test_categorical_sampling_is_seeded_and_unbiased():
    probs = np.array([0.2, 0.5, 0.3])
    r1 = np.random.default_rng(5)
    r2 = np.random.default_rng(5)
    s1 = [categorical_sample(probs, r1) for _ in range(50)]
    s2 = [categorical_sample(probs, r2) for _ in range(50)]
    assert s1 == s2
    rng = np.random.default_rng(123)
    draws = np.array([categorical_sample(probs, rng) for _ in range(20000)])
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.all(np.abs(freq - probs) < 0.02)


def test_adam_first_step_arithmetic():
    p = {"w": np.array([0.0])}
    opt = Adam(p, lr=0.1)
    opt.step(p, {"w": np.array([2.0])})
    # bias-corrected m=2, sqrt(v_hat)=2 at t=1
    expected = -0.1 * 2.0 / (2.0 + 1e-8)
    assert p["w"][0] == pytest.approx(expected, rel=1e-12)


def test_adam_matches_reference_loop():
    rng = np.random.default_rng(8)
    p = {"w": rng.normal(size=(3, 2))}
    ref = p["w"].copy()
    opt = Adam(p, lr=0.01)
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 6):
        g = rng.normal(size=(3, 2))
        opt.step(p, {"w": g.copy()})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert np.allclose(p["w"], ref, atol=1e-14)


def test_adam_zero_gradient_keeps_params():
    p = {"w": np.array([1.5, -2.0])}
    opt = Adam(p, lr=0.1)
    opt.step(p, {"w": np.zeros(2)})
    assert np.array_equal(p["w"], np.array([1.5, -2.0]))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    named = {
        "actor/w0": rng.normal(size=(4, 3)),
        "actor/b0": rng.normal(size=3),
        "scalar": np.array(2.75),
        "lam": np.array([0.035]),
    }
    f = tmp_path / "params.bin"
    save_params(f, named)
    loaded = load_params(f)
    assert list(loaded) == list(named)
    for k in named:
        assert loaded[k].shape == np.asarray(named[k]).shape
        assert np.array_equal(loaded[k], named[k])


def test_checkpoint_rejects_garbage(tmp_path):
    f = tmp_path / "bad.bin"
    f.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError, match="magic"):
        load_params(f)


def test_checkpoint_cut_short_or_padded_names_the_file(tmp_path, capsys):
    cfg = load_scenario(DATA_DIR / "reduced.yaml")
    good = tmp_path / "good.bin"
    save_checkpoint(good, *build_agent(cfg, CouplingEnv(cfg), "ppo"))
    raw = good.read_bytes()
    # in the magic, the header, the first name, an array, the last array
    bad = {f"cut_{n}": raw[:n] for n in (3, 13, 16, len(raw) // 2,
                                         len(raw) - 1)}
    bad["padded"] = raw + bytes(8)
    for name, data in bad.items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
            load_params(path)
        rc = main(["eval", "--scenario", "reduced", "--method", "ppo",
                   "--checkpoint", str(path), "--seeds", "0",
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err, name
        [line] = err.splitlines()
        assert line.startswith("ERROR ")
        error = json.loads(line[len("ERROR "):])
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{path}: "), name


def test_assign_params_validates_shapes(tmp_path):
    rng = np.random.default_rng(0)
    net = DenseNet([2, 3], rng)
    f = tmp_path / "p.bin"
    save_params(f, {"w0": np.zeros((9, 9)), "b0": np.zeros(3)})
    with pytest.raises(ValueError, match="shape mismatch"):
        assign_params(net.param_dict(), load_params(f))
    save_params(f, dict(net.param_dict()))
    other = DenseNet([2, 3], np.random.default_rng(99))
    assign_params(other.param_dict(), load_params(f))
    x = rng.normal(size=(4, 2))
    assert np.array_equal(net.forward(x)[0], other.forward(x)[0])
