"""Forecasting tests: env demand windows, pair assembly, training,
convergence."""

from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

import evgrid
from evgrid.charging import ChargingStation
from evgrid.env import CouplingEnv
import evgrid.predictor as predictor_module
from evgrid.predictor import (OnlinePredictor, PredictorBuffer,
                              Seq2SeqForecaster, convergence_check,
                              forecast_slots)
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


def stub_windows(demands, snapshots):
    """(snapshot, demand) rows shaped like ``CouplingEnv.windows``."""
    return [(np.asarray(f, dtype=float), np.asarray(d, dtype=float))
            for f, d in zip(snapshots, demands)]


def sample_occupancies(env, occupancies):
    """Restart ``env``'s minute log and windows, then take one minute
    sample per row of ``occupancies`` with that many EVs queued at each
    station (none charging); returns the windows."""
    env.minute_log, env.windows = [], []
    for occ in occupancies:
        env.stations = []
        for spec, n in zip(env.cfg.stations, occ):
            cs = ChargingStation(spec.cs_id, spec.node, spec.bus, spec.piles)
            cs.queue = deque(SimpleNamespace(soc=0.5, t_cs_arrive=0.0)
                             for _ in range(int(n)))
            env.stations.append(cs)
        env._minute_sample()
    return env.windows


def test_demand_history_window_assembly(pred_cfg):
    """Every 4th sample of an episode (window_s 240) closes a window: its
    demand is the mean occupancy over the window's samples and its
    snapshot the station features at the closing sample."""
    env = CouplingEnv(pred_cfg)
    env.reset(0)
    piles = [s.piles for s in pred_cfg.stations]

    occ = [[float(i), 10.0 - i] for i in range(9)]
    assert sample_occupancies(env, occ[:3]) == []
    windows = sample_occupancies(env, occ)
    assert len(env.minute_log) == 9 and len(windows) == 2
    np.testing.assert_allclose(windows[0][1], [1.5, 8.5])
    np.testing.assert_allclose(windows[1][1], [5.5, 4.5])
    # queue counts over piles, in each station's 9-feature block
    np.testing.assert_allclose(windows[0][0][[0, 9]], [3 / piles[0], 7 / piles[1]])
    np.testing.assert_allclose(windows[1][0][[0, 9]], [7 / piles[0], 3 / piles[1]])


def test_average_demand_examples(pred_cfg):
    """A window's demand is the mean of its samples' occupancies."""
    env = CouplingEnv(pred_cfg)
    env.reset(0)
    for occ, mean in (([[7.0, 7.0]] * 4, [7.0, 7.0]),
                      ([[0.0, 1.0], [4.0, 5.0], [4.0, 3.0], [8.0, 3.0]],
                       [4.0, 3.0]),
                      ([[0.0, 0.0]] * 4, [0.0, 0.0]),
                      ([[1.0, 5.0], [3.0, 7.0]] * 2, [2.0, 6.0])):
        (window,) = sample_occupancies(env, occ)
        assert window[1] == pytest.approx(mean)


def test_buffer_pair_indices_exclude_future():
    h = stub_windows([[float(w)] for w in range(6)],
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
    assert not buf.add_next(stub_windows(vals, vals))
    assert buf.add_next(stub_windows(vals + [[0.0]], vals + [[0.0]]))


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
    h = stub_windows(demands, snaps)
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
    h = stub_windows(demands, demands)        # snapshots reveal the phase
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


def ref_augment_state(state, prediction, piles):
    """The per-decision augmentation ``OnlinePredictor.augment`` replaced:
    the state with the pile-normalized, non-negative forecast appended."""
    pred = np.asarray(prediction, dtype=float)
    piles = np.asarray(piles, dtype=float)
    if pred.ndim != 2 or pred.shape[1] != piles.shape[0]:
        raise ValueError(f"prediction shape {pred.shape} does not match "
                         f"{piles.shape[0]} stations")
    scaled = np.clip(pred, 0.0, None) / piles
    return np.concatenate([np.asarray(state, dtype=float), scaled.reshape(-1)])


def test_augment_scaling_and_shapes():
    pred = np.array([[-1.0, 4.0], [2.0, 8.0]])
    out = forecast_slots(pred, piles=[2.0, 4.0])
    assert out.shape == (4,)
    # negatives clip to zero, then each column scales by its pile count
    np.testing.assert_allclose(out, [0.0, 1.0, 1.0, 2.0])

    zero = forecast_slots(np.zeros((2, 2)), piles=[2.0, 4.0])
    np.testing.assert_array_equal(zero, np.zeros(4))

    with pytest.raises(ValueError):
        forecast_slots(np.zeros((2, 3)), piles=[2.0, 4.0])
    with pytest.raises(ValueError):
        forecast_slots(np.zeros(4), piles=[2.0, 4.0])


def test_augment_builds_the_slots_once_per_forecast(monkeypatch):
    """A whole opsrl episode on reduced: at every decision ``augment``
    gives the bits of the old per-decision augmentation, and the slots are
    computed once per forecast, though decisions outnumber forecasts."""
    from evgrid.srl import LagrangePPOAgent, pad_width, rollout

    forecasts, slots = [], []
    predict, build = Seq2SeqForecaster.predict, forecast_slots

    def counted_predict(model, snapshots, last_demand):
        forecasts.append(len(slots))
        return predict(model, snapshots, last_demand)

    def counted_slots(prediction, piles):
        slots.append(len(forecasts))
        return build(prediction, piles)

    monkeypatch.setattr(Seq2SeqForecaster, "predict", counted_predict)
    monkeypatch.setattr(predictor_module, "forecast_slots", counted_slots)
    cfg = load_scenario(evgrid.DATA_DIR / "reduced.yaml")
    env = CouplingEnv(cfg)
    pad = pad_width(cfg)
    agent = LagrangePPOAgent(env.state_dim + pad, env.action_dim, cfg.training,
                             np.random.default_rng(1))
    predictor = OnlinePredictor(cfg, seed=3)
    augment = predictor.augment
    decisions = []

    def checked_augment(state, windows):
        got = augment(state, windows)
        want = ref_augment_state(state, predictor.predict(windows),
                                 predictor.piles)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        decisions.append(len(forecasts))
        return got

    predictor.augment = checked_augment
    act_rng = np.random.default_rng(2)
    ep = rollout(env, lambda s: agent.act(s, act_rng), 7, predictor, pad)
    assert len(decisions) == len(ep.actions)
    # each forecast is followed by its slots before the next forecast
    assert forecasts == list(range(len(forecasts)))
    assert slots == list(range(1, len(forecasts) + 1))
    assert 1 < len(forecasts) < len(decisions)


def test_a_misshapen_forecast_still_raises(pred_cfg):
    """The forecast's shape is checked where its slots are built."""
    op = OnlinePredictor(pred_cfg, seed=5)
    windows = fake_episode_windows(np.random.default_rng(6), n_windows=4)
    for bad in (np.zeros((2, 3)), np.zeros(4)):
        op.model.predict = lambda snapshots, last_demand, bad=bad: bad
        op.start_episode()
        with pytest.raises(ValueError, match="does not match 2 stations"):
            op.augment(np.zeros(5), windows)


@pytest.fixture(scope="module")
def pred_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("scn") / "predtiny.yaml"
    p.write_text(PRED)
    return load_scenario(p)


def fake_episode_windows(rng, n_windows, n_stations=2):
    demands = rng.integers(0, 6, size=(n_windows, n_stations)).astype(float)
    feats = rng.uniform(size=(n_windows, 9 * n_stations))
    return stub_windows(demands, feats)


def test_online_predictor_trigger_and_freeze(pred_cfg):
    op = OnlinePredictor(pred_cfg, seed=5)
    op.start_episode()
    rng = np.random.default_rng(42)
    windows = fake_episode_windows(rng, n_windows=30)

    # feed the windows in uneven increments, repeats included
    for cut in (1, 3, 3, 4, 15, 16, 29, len(windows)):
        op.observe(windows[:cut])
    assert len(op.buffer) == 27

    # trigger fires at every multiple of train_every once past min_buffer
    expect = [n for n in range(8, 28, 4)]
    got = [n for n, _ in op.train_log]
    if not op.model.converged:
        assert got == expect
    else:
        assert got == expect[:len(got)]

    pred = op.predict(windows)
    assert pred.shape == (2, 2)
    assert op.predict(windows) is pred              # memoized
    assert op.augment(np.zeros(5), windows).shape == (9,)

    # chunking the same windows differently must not change the outcome
    op_b = OnlinePredictor(pred_cfg, seed=5)
    op_b.start_episode()
    op_b.observe(windows)
    assert [n for n, _ in op_b.train_log] == got
    np.testing.assert_array_equal(op_b.predict(windows), pred)

    # convergence freezes training and buffer growth but not prediction
    op.model.converged = True
    n_pairs, n_steps = len(op.buffer), len(op.model.losses)
    more = windows + fake_episode_windows(np.random.default_rng(43), 8)
    op.observe(more)
    assert len(op.buffer) == n_pairs
    assert len(op.model.losses) == n_steps
    assert op.predict(more).shape == (2, 2)
    assert op.predict(more) is not pred


def test_online_predictor_buffer_spans_episodes(pred_cfg):
    op = OnlinePredictor(pred_cfg, seed=1)
    rng = np.random.default_rng(2)

    op.start_episode()
    op.observe(fake_episode_windows(rng, n_windows=10))
    assert len(op.buffer) == 7

    op.start_episode()
    op.observe(fake_episode_windows(rng, n_windows=6))
    assert len(op.buffer) == 7 + 3


def test_new_episode_never_reuses_the_last_forecast(pred_cfg):
    """Same window count, same train count: still a new forecast."""
    op = OnlinePredictor(pred_cfg, seed=1)
    op.model.converged = True
    rng = np.random.default_rng(4)
    first = fake_episode_windows(rng, n_windows=5)
    second = fake_episode_windows(rng, n_windows=5)
    op.start_episode()
    op.observe(first)
    op.predict(first)
    op.start_episode()
    op.observe(second)
    want = op.model.predict(np.stack([f for f, _ in second[-2:]]), second[-1][1])
    np.testing.assert_array_equal(op.predict(second), want)


def test_env_windows_match_a_features_on_every_row_rebuild(monkeypatch):
    """An opsrl episode on reduced: the env's windows are what a rebuild
    from station features computed at every minute sample gives, and the
    forecaster's pairs come from them."""
    from evgrid.srl import LagrangePPOAgent, pad_width, rollout

    cfg = load_scenario(evgrid.DATA_DIR / "reduced.yaml")
    full = []           # features computed at every minute sample
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
    k = int(cfg.predictor.window_s // 60)
    assert len(rows) == len(full) >= 3 * k
    rebuilt = [(full[end - 1], sum(row[1] for row in rows[end - k:end]) / k)
               for end in range(k, len(rows) + 1, k)]
    assert len(env.windows) == len(rebuilt) == len(rows) // k
    for (feats, demand), (want_feats, want_demand) in zip(env.windows, rebuilt):
        np.testing.assert_array_equal(feats, want_feats)
        np.testing.assert_array_equal(demand, want_demand)

    p = cfg.predictor
    assert len(predictor.buffer) == len(rebuilt) - p.enc_len - p.dec_len + 1
    np.testing.assert_array_equal(
        predictor.buffer.enc_inputs[-1][-1],
        rebuilt[len(predictor.buffer) + p.enc_len - 2][0])
