"""Forecasting tests: demand windows, pair assembly, training, convergence."""

import numpy as np
import pytest

import evgrid
from evgrid.predictor import (DemandHistory, OnlinePredictor, PredictorBuffer,
                              Seq2SeqForecaster, augment_state, average_demand,
                              convergence_check)
from evgrid.scenario import PredictorConfig, load_scenario

PRED = """\
name: predtiny
seed: 9
road_net: nguyen_dupuis
power_net: ieee33
stations:
  - {cs_id: 0, node: 6, bus: 18, piles: 3}
  - {cs_id: 1, node: 10, bus: 30, piles: 4}
demand:
  rate_veh_per_h: 120
  ev_fraction: 0.5
  warmup_s: 480
  control_s: 120
predictor:
  enc_len: 2
  dec_len: 2
  hidden: 8
  layers: 1
  dropout: 0.0
  batch: 8
  min_buffer: 8
  train_every: 4
  iters_per_step: 2
"""


def minute_rows(occupancies, feats=None):
    """Fake minute-log rows shaped like the environment's."""
    rows = []
    for i, occ in enumerate(occupancies):
        occ = np.asarray(occ, dtype=float)
        f = occ if feats is None else np.asarray(feats[i], dtype=float)
        rows.append((60.0 * (i + 1), occ, f, 0.0, 800.0))
    return rows


def stub_history(demands, snapshots):
    h = DemandHistory()
    h.demands = [np.asarray(d, dtype=float) for d in demands]
    h.snapshots = [np.asarray(s, dtype=float) for s in snapshots]
    return h


def test_average_demand_examples():
    assert average_demand([[7.0]] * 4) == pytest.approx([7.0])
    assert average_demand([[0.0], [4.0], [4.0], [8.0]]) == pytest.approx([4.0])
    assert average_demand([[0.0, 0.0]] * 4) == pytest.approx([0.0, 0.0])
    np.testing.assert_allclose(average_demand([[1.0, 5.0], [3.0, 7.0]]),
                               [2.0, 6.0])
    with pytest.raises(ValueError):
        average_demand([])


def test_demand_history_window_assembly():
    occ = [[float(i), 10.0 - i] for i in range(9)]
    feats = [[float(i)] * 3 for i in range(9)]
    rows = minute_rows(occ, feats)

    h = DemandHistory(window_s=240.0)
    assert h.sync(rows[:3]) == 0
    assert len(h) == 0
    # re-syncing the full log must not double count the first rows
    assert h.sync(rows) == 2
    assert len(h) == 2

    np.testing.assert_allclose(h.demands[0], [1.5, 8.5])
    np.testing.assert_allclose(h.demands[1], [5.5, 4.5])
    # snapshot comes from the window's closing sample
    np.testing.assert_allclose(h.snapshots[0], [3.0] * 3)
    np.testing.assert_allclose(h.snapshots[1], [7.0] * 3)

    with pytest.raises(ValueError):
        DemandHistory(window_s=250.0)


def test_buffer_pair_indices_exclude_future():
    h = stub_history([[float(w)] for w in range(6)],
                     [[10.0 + w] for w in range(6)])
    buf = PredictorBuffer(enc_len=2, dec_len=2)
    assert buf.add_next(h)
    # pair closed by window 3: encoder sees snapshots 0..1, decoder maps
    # demands 1..2 onto targets 2..3
    np.testing.assert_allclose(buf.enc_inputs[0], [[10.0], [11.0]])
    np.testing.assert_allclose(buf.dec_inputs[0], [[1.0], [2.0]])
    np.testing.assert_allclose(buf.targets[0], [[2.0], [3.0]])

    assert buf.add_next(h) and buf.add_next(h)
    assert not buf.add_next(h)
    assert len(buf) == 3
    for enc, dec, tgt in zip(buf.enc_inputs, buf.dec_inputs, buf.targets):
        assert (enc - 10.0).max() < tgt.min()          # no future leakage
        np.testing.assert_allclose(dec, tgt - 1.0)     # teacher inputs shifted


def test_buffer_needs_enough_windows():
    vals = [[0.0]] * 3
    buf = PredictorBuffer(enc_len=2, dec_len=2)
    assert not buf.add_next(stub_history(vals, vals))
    assert buf.add_next(stub_history(vals + [[0.0]], vals + [[0.0]]))


def test_zero_weights_predict_bias():
    cfg = PredictorConfig(enc_len=3, dec_len=4, hidden=8, layers=2)
    f = Seq2SeqForecaster(2, 5, cfg, np.random.default_rng(0))
    for v in f.param_dict().values():
        v[...] = 0.0
    bias = np.array([0.7, -0.3])
    f.head.param_dict()["b0"][...] = bias

    rng = np.random.default_rng(1)
    pred = f.predict(rng.normal(size=(3, 5)), np.array([1.0, 1.0]))
    assert pred.shape == (4, 2)
    np.testing.assert_allclose(pred, np.tile(bias, (4, 1)))


def test_predict_shape_and_determinism():
    cfg = PredictorConfig(enc_len=2, dec_len=3, hidden=12, layers=2)
    f = Seq2SeqForecaster(4, 6, cfg, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    snaps = rng.normal(size=(2, 6))
    last = rng.uniform(size=4)
    a = f.predict(snaps, last)
    b = f.predict(snaps, last)
    assert a.shape == (3, 4)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        f.predict(snaps[:1], last)


def test_train_loss_decreases_on_constant_demand():
    rng = np.random.default_rng(3)
    n_win = 40
    demands = [np.array([3.0, 1.5])] * n_win
    snaps = [rng.normal(scale=0.1, size=4) for _ in range(n_win)]
    h = stub_history(demands, snaps)
    buf = PredictorBuffer(enc_len=2, dec_len=2)
    while buf.add_next(h):
        pass
    assert len(buf) == n_win - 3

    cfg = PredictorConfig(enc_len=2, dec_len=2, hidden=16, layers=2,
                          dropout=0.0, lr=1e-2, batch=16, iters_per_step=10)
    f = Seq2SeqForecaster(2, 4, cfg, np.random.default_rng(5))
    for _ in range(8):
        f.train_step(buf)

    smooth = [float(np.mean(f.losses[max(0, i - 2):i + 1]))
              for i in range(len(f.losses))]
    assert smooth[-1] < smooth[0]
    assert f.losses[-1] < 0.5 * f.losses[0]


def test_periodic_demand_beats_mean_baseline():
    pattern = np.array([[1.0, 6.0], [3.0, 2.0], [7.0, 0.0], [3.0, 2.0]])
    n_win = 140
    demands = [pattern[w % 4] for w in range(n_win)]
    h = stub_history(demands, demands)        # snapshots reveal the phase
    buf = PredictorBuffer(enc_len=4, dec_len=2)
    while buf.add_next(h):
        pass

    cfg = PredictorConfig(enc_len=4, dec_len=2, hidden=24, layers=1,
                          dropout=0.0, lr=3e-3, batch=32, iters_per_step=20)
    f = Seq2SeqForecaster(2, 2, cfg, np.random.default_rng(11))
    for _ in range(80):
        f.train_step(buf)
        if convergence_check(f.losses):
            break

    targets = np.stack(buf.targets)
    baseline = float(np.mean((targets - targets.mean(axis=(0, 1))) ** 2))
    assert baseline > 1.0
    assert f.losses[-1] < 0.5 * baseline
    assert convergence_check(f.losses)


def test_convergence_check_cases():
    assert not convergence_check([])
    assert not convergence_check([1.0] * 9)
    assert convergence_check([1.0] * 10)
    assert not convergence_check([2.0 ** -i for i in range(12)])
    drifting = [1.0] * 11 + [1.001]
    assert convergence_check(drifting)


def test_augment_scaling_and_shapes():
    state = np.arange(7.0)
    pred = np.array([[-1.0, 4.0], [2.0, 8.0]])
    out = augment_state(state, pred, piles=[2.0, 4.0])
    assert out.shape == (11,)
    np.testing.assert_array_equal(out[:7], state)
    # negatives clip to zero, then each column scales by its pile count
    np.testing.assert_allclose(out[7:], [0.0, 1.0, 1.0, 2.0])

    zero = augment_state(state, np.zeros((2, 2)), piles=[2.0, 4.0])
    np.testing.assert_array_equal(zero[7:], np.zeros(4))

    with pytest.raises(ValueError):
        augment_state(state, np.zeros((2, 3)), piles=[2.0, 4.0])
    with pytest.raises(ValueError):
        augment_state(state, np.zeros(4), piles=[2.0, 4.0])


@pytest.fixture(scope="module")
def pred_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("scn") / "predtiny.yaml"
    p.write_text(PRED)
    return load_scenario(p)


def fake_episode_rows(rng, n_windows, n_stations=2):
    n = 4 * n_windows
    occ = rng.integers(0, 6, size=(n, n_stations)).astype(float)
    feats = rng.uniform(size=(n, 9 * n_stations))
    return minute_rows(occ, feats)


def test_online_predictor_trigger_and_freeze(pred_cfg):
    op = OnlinePredictor(pred_cfg, seed=5)
    op.start_episode()
    rng = np.random.default_rng(42)
    rows = fake_episode_rows(rng, n_windows=30)

    # feed the log in uneven increments; windows close only on full rows
    for cut in (5, 13, 14, 60, 61, 119, len(rows)):
        op.observe(rows[:cut])
    assert len(op.history) == 30
    assert len(op.buffer) == 27

    # trigger fires at every multiple of train_every once past min_buffer
    expect = [n for n in range(8, 28, 4)]
    got = [n for n, _ in op.train_log]
    if not op.model.converged:
        assert got == expect
    else:
        assert got == expect[:len(got)]

    pred = op.predict()
    assert pred.shape == (2, 2)
    assert op.predict() is pred                     # memoized
    assert op.augment(np.zeros(5)).shape == (9,)

    # chunking the same rows differently must not change the outcome
    op_b = OnlinePredictor(pred_cfg, seed=5)
    op_b.start_episode()
    op_b.observe(rows)
    assert [n for n, _ in op_b.train_log] == got
    np.testing.assert_array_equal(op_b.predict(), pred)

    # convergence freezes training and buffer growth but not prediction
    op.model.converged = True
    n_pairs, n_steps = len(op.buffer), len(op.model.losses)
    more = fake_episode_rows(np.random.default_rng(43), n_windows=8)
    shifted = [(rows[-1][0] + r[0], r[1], r[2], r[3], r[4]) for r in more]
    op.observe(rows + shifted)
    assert len(op.buffer) == n_pairs
    assert len(op.model.losses) == n_steps
    assert len(op.history) == 38
    assert op.predict().shape == (2, 2)


def test_online_predictor_buffer_spans_episodes(pred_cfg):
    op = OnlinePredictor(pred_cfg, seed=1)
    rng = np.random.default_rng(2)

    op.start_episode()
    op.observe(fake_episode_rows(rng, n_windows=10))
    assert len(op.buffer) == 7

    op.start_episode()
    assert len(op.history) == 0
    op.observe(fake_episode_rows(rng, n_windows=6))
    assert len(op.history) == 6
    assert len(op.buffer) == 7 + 3


def test_minute_rows_carry_features_only_on_window_close(monkeypatch):
    """An opsrl episode on reduced: each closing row's features are what
    the env would compute on every row, the other rows hold None, and the
    forecaster's history is what a features-on-every-row log gives."""
    from evgrid.env import CouplingEnv
    from evgrid.srl import LagrangePPOAgent, pad_width, rollout

    cfg = load_scenario(evgrid.DATA_DIR / "reduced.yaml")
    full = []           # features computed on every row, as before
    sample = CouplingEnv._minute_sample

    def minute_sample(env):
        full.append(env._station_features())
        sample(env)

    monkeypatch.setattr(CouplingEnv, "_minute_sample", minute_sample)
    env = CouplingEnv(cfg)
    pad = pad_width(cfg)
    agent = LagrangePPOAgent(env.state_dim + pad, env.action_dim, cfg.training,
                             np.random.default_rng(1))
    predictor = OnlinePredictor(cfg, seed=3)
    act_rng = np.random.default_rng(2)
    rollout(env, lambda s: agent.act(s, act_rng), 7, predictor, pad)

    rows = env.minute_log
    per_window = predictor.history.per_window
    assert len(rows) == len(full) >= 3 * per_window
    for k, row in enumerate(rows):
        if (k + 1) % per_window:
            assert row[2] is None
        else:
            np.testing.assert_array_equal(row[2], full[k])

    old_log = [(r[0], r[1], f, r[3], r[4]) for r, f in zip(rows, full)]
    rebuilt = DemandHistory(cfg.predictor.window_s)
    rebuilt.sync(old_log)
    assert len(rebuilt) == len(predictor.history) > 0
    for got, want in zip(predictor.history.snapshots, rebuilt.snapshots):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(predictor.history.demands, rebuilt.demands):
        np.testing.assert_array_equal(got, want)


def test_history_rejects_a_closing_row_without_features():
    rows = minute_rows([[1.0]] * 4)
    rows[3] = rows[3][:2] + (None,) + rows[3][3:]
    with pytest.raises(ValueError, match="no station features"):
        DemandHistory().sync(rows)
