"""Online station-demand forecasting with a Seq2Seq recurrent model.

The forecaster reads the env's demand windows (``CouplingEnv.windows``,
default 240 s = 4 minute samples each): one row per closed window, holding
a station-feature snapshot (the features at the closing sample) and a
demand vector (mean queued plus charging count over the window's samples).
An encoder LSTM reads the ``enc_len`` snapshots, its final state seeds a
decoder LSTM that emits ``dec_len`` demand vectors through a linear head.

Training is teacher-forced: decoder inputs are the ground-truth demands
shifted one window back from the targets. Inference is autoregressive: the
first decoder input is the most recent observed demand, then the head's own
raw output. Training pairs only ever map strictly past windows to strictly
future windows, and the online trigger fires whenever the pair buffer size
is both >= ``min_buffer`` and a multiple of ``train_every``, until the
smoothed loss flattens out (see ``convergence_check``); after that the
model keeps predicting but stops training and the buffer stops growing.

``train_step`` stacks the buffer's pairs once per call into (N, T, ·)
arrays and gathers each minibatch from them (``_gather``), so the LSTMs
see the same arrays as from stacking each minibatch's pairs.
"""

from __future__ import annotations

import numpy as np

from .nn import LSTM, Adam, DenseNet, prefixed
from .scenario import PredictorConfig, ScenarioConfig


class PredictorBuffer:
    """Training pairs at the window timescale.

    The pair closed by window w (0-based) needs every index down to
    w - dec_len - enc_len + 1 to exist, so pairs start at
    w = enc_len + dec_len - 1. Encoder inputs are the enc_len snapshots
    ending at w - dec_len; targets are the dec_len demands ending at w;
    decoder inputs are the targets shifted one window back.
    """

    def __init__(self, enc_len: int, dec_len: int):
        self.enc_len = enc_len
        self.dec_len = dec_len
        self.enc_inputs = []
        self.dec_inputs = []
        self.targets = []
        self._next_w = enc_len + dec_len - 1

    def __len__(self):
        return len(self.targets)

    def add_next(self, windows) -> bool:
        """Append the next pending pair if its window has closed;
        ``windows`` holds (snapshot, demand) rows."""
        w = self._next_w
        if w >= len(windows):
            return False
        le, ld = self.enc_len, self.dec_len
        demands = [d for _, d in windows[w - ld:w + 1]]
        self.enc_inputs.append(
            np.stack([f for f, _ in windows[w - ld - le + 1:w - ld + 1]]))
        self.dec_inputs.append(np.stack(demands[:-1]))
        self.targets.append(np.stack(demands[1:]))
        self._next_w += 1
        return True

    def rebase(self):
        """Start reading a fresh (e.g. new-episode) window list; pairs are
        kept."""
        self._next_w = self.enc_len + self.dec_len - 1


def convergence_check(losses, window: int = 10, smooth: int = 5,
                      tol: float = 0.02) -> bool:
    """True when the smoothed loss moved < tol relatively over the last
    ``window`` train steps (trailing-``smooth`` moving average)."""
    if len(losses) < window:
        return False

    def smoothed(i):
        return float(np.mean(losses[max(0, i - smooth + 1):i + 1]))

    now = smoothed(len(losses) - 1)
    then = smoothed(len(losses) - window)
    return abs(now - then) / max(abs(then), 1e-12) < tol


def augment_state(state, prediction, piles) -> np.ndarray:
    """Append pile-normalized, non-negative predictions to a state vector."""
    pred = np.asarray(prediction, dtype=float)
    piles = np.asarray(piles, dtype=float)
    if pred.ndim != 2 or pred.shape[1] != piles.shape[0]:
        raise ValueError(f"prediction shape {pred.shape} does not match "
                         f"{piles.shape[0]} stations")
    scaled = np.clip(pred, 0.0, None) / piles
    return np.concatenate([np.asarray(state, dtype=float), scaled.reshape(-1)])


class Seq2SeqForecaster:
    """Encoder-decoder LSTM pair with a shared linear output head."""

    def __init__(self, n_stations: int, feat_dim: int, cfg: PredictorConfig, rng):
        self.n_stations = n_stations
        self.cfg = cfg
        self.encoder = LSTM(feat_dim, cfg.hidden, cfg.layers, cfg.dropout, rng)
        self.decoder = LSTM(n_stations, cfg.hidden, cfg.layers, cfg.dropout, rng)
        self.head = DenseNet([cfg.hidden, n_stations], rng)
        self._rng = rng
        self.optimizer = Adam(self.param_dict(), cfg.lr)
        self.losses = []
        self.converged = False

    def param_dict(self):
        return prefixed(enc=self.encoder.param_dict(),
                        dec=self.decoder.param_dict(),
                        head=self.head.param_dict())

    def predict(self, snapshots, last_demand) -> np.ndarray:
        """Autoregressive forecast: (enc_len, feat) history -> (dec_len, M)."""
        snaps = np.asarray(snapshots, dtype=float)
        if snaps.shape[0] != self.cfg.enc_len:
            raise ValueError(f"need exactly {self.cfg.enc_len} snapshots")
        _, state, _ = self.encoder.forward(snaps[:, None, :])
        x = np.asarray(last_demand, dtype=float)[None, None, :]
        preds = np.empty((self.cfg.dec_len, self.n_stations))
        for j in range(self.cfg.dec_len):
            out, state, _ = self.decoder.forward(x, state=state)
            y, _ = self.head.forward(out[0])
            preds[j] = y[0]
            x = y[None, :, :]
        return preds

    def train_step(self, buffer: PredictorBuffer, iters=None) -> float:
        """Teacher-forced Adam updates on sampled minibatches; mean loss."""
        iters = self.cfg.iters_per_step if iters is None else iters
        batch = self.cfg.batch
        if len(buffer) < batch:
            raise ValueError(f"buffer holds {len(buffer)} pairs, need {batch}")
        params = self.param_dict()
        enc_all = np.stack(buffer.enc_inputs)       # (N, enc_len, feat)
        dec_all = np.stack(buffer.dec_inputs)       # (N, dec_len, M)
        tgt_all = np.stack(buffer.targets)          # (N, dec_len, M)
        losses = np.empty(iters)
        for it in range(iters):
            idx = self._rng.choice(len(buffer), size=batch, replace=False)
            enc_x = _gather(enc_all, idx)
            dec_x = _gather(dec_all, idx)
            target = _gather(tgt_all, idx)

            _, enc_state, enc_cache = self.encoder.forward(
                enc_x, training=True, dropout_rng=self._rng)
            dec_out, _, dec_cache = self.decoder.forward(
                dec_x, state=enc_state, training=True, dropout_rng=self._rng)
            ld, b, hid = dec_out.shape
            flat, head_cache = self.head.forward(dec_out.reshape(ld * b, hid))
            diff = flat.reshape(ld, b, -1) - target
            losses[it] = float(np.mean(diff * diff))

            dflat = (2.0 * diff / diff.size).reshape(ld * b, -1)
            head_grads, dout = self.head.backward(head_cache, dflat)
            dec_grads, dstate0 = self.decoder.backward(
                dec_cache, dout.reshape(ld, b, hid))
            enc_grads, _ = self.encoder.backward(
                enc_cache, None, grad_state=dstate0)
            self.optimizer.step(params, prefixed(enc=enc_grads, dec=dec_grads,
                                                 head=head_grads))
        mean_loss = float(losses.mean())
        self.losses.append(mean_loss)
        return mean_loss


def _gather(pairs, idx):
    """Time-major minibatch (T, len(idx), ·) of the (N, T, ·) stacked pairs:
    the values, C layout and strides of
    ``np.stack([pairs[i] for i in idx], axis=1)`` from one fancy-index and
    one copy (a copy even where the transpose is already contiguous, as with
    one pair, so the strides match too)."""
    return pairs[idx].transpose(1, 0, 2).copy()


class OnlinePredictor:
    """Owns the cross-episode buffer and model; reads the env's windows.

    ``observe(windows)`` must be called after every environment advance;
    it appends training pairs for newly closed windows one at a time and
    honors the online train trigger until convergence. ``predict(windows)``
    returns the latest (dec_len, M) forecast, memoized per (window count,
    train count) within an episode.
    """

    def __init__(self, cfg: ScenarioConfig, seed: int):
        p = cfg.predictor
        self.pcfg = p
        self.piles = np.array([s.piles for s in cfg.stations], dtype=float)
        self.buffer = PredictorBuffer(p.enc_len, p.dec_len)
        self.model = Seq2SeqForecaster(
            cfg.n_stations, 9 * cfg.n_stations, p,
            np.random.default_rng([seed, cfg.seed, 3]))
        self.train_log = []      # (buffer size at trigger, mean loss)
        self._memo = None

    def start_episode(self):
        self.buffer.rebase()
        self._memo = None

    def observe(self, windows):
        if self.model.converged:
            return
        p = self.pcfg
        while self.buffer.add_next(windows):
            n = len(self.buffer)
            if n >= p.min_buffer and n % p.train_every == 0:
                loss = self.model.train_step(self.buffer)
                self.train_log.append((n, loss))
                if convergence_check(self.model.losses, p.converge_window,
                                     tol=p.converge_tol):
                    self.model.converged = True
                    break

    def predict(self, windows) -> np.ndarray:
        key = (len(windows), len(self.model.losses))
        if self._memo is None or self._memo[0] != key:
            snaps = np.stack([f for f, _ in windows[-self.pcfg.enc_len:]])
            pred = self.model.predict(snaps, windows[-1][1])
            self._memo = (key, pred)
        return self._memo[1]

    def augment(self, state, windows) -> np.ndarray:
        return augment_state(state, self.predict(windows), self.piles)
