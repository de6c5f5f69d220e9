"""Minimal neural-network substrate: dense stacks, LSTM stacks, Adam.

Everything is hand-rolled on numpy arrays in float64. Networks expose their
parameters as an ordered ``{name: array}`` dict (live references), and every
backward pass returns a gradient dict with matching keys, so the optimizer
and the checkpoint format stay trivial.

Initialization conventions:
  * dense / input-to-hidden weights: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))
  * recurrent (hidden-to-hidden) weights: orthogonal, per gate block
  * biases zero, except LSTM forget-gate bias = 1.0

Checkpoint format (``save_params`` / ``load_params``): little-endian binary,
magic ``b"EVGD"``, uint32 version, uint32 entry count, then per entry a
uint16 name length, the utf-8 name, a uint8 rank, uint64 dims, and the raw
float64 data. Agent checkpoints (``srl.save_checkpoint``) hold the agent's
parameters, the forecaster's under ``pred.`` with ``predmeta.losses`` and
``predmeta.converged``, and float ``meta.*`` entries: the tag
``meta.method`` (an index into ``srl.METHODS``), ``meta.state_dim``,
``meta.action_dim`` and ``meta.pad_width``, plus ``meta.lam`` or
``meta.updates`` where the agent keeps them.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"EVGD"
CHECKPOINT_VERSION = 1


def fan_in_uniform(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(rng, rows: int, cols: int) -> np.ndarray:
    a = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))          # deterministic sign convention
    q = q[:rows, :cols] if q.shape[0] >= rows else q.T[:rows, :cols]
    return np.ascontiguousarray(q)


# ---------------------------------------------------------------------------
# dense stack
# ---------------------------------------------------------------------------

class DenseNet:
    """Feed-forward stack with tanh hidden layers and identity output."""

    def __init__(self, sizes, rng):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(sizes)
        self._params = {}
        for k in range(len(sizes) - 1):
            self._params[f"w{k}"] = fan_in_uniform(rng, sizes[k], (sizes[k], sizes[k + 1]))
            self._params[f"b{k}"] = np.zeros(sizes[k + 1])

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def param_dict(self):
        return self._params

    def forward(self, x):
        """x: (batch, in) or (in,). Returns (output, cache)."""
        squeeze = x.ndim == 1
        h = np.atleast_2d(np.asarray(x, dtype=float))
        acts = [h]
        for k in range(self.n_layers):
            z = h @ self._params[f"w{k}"] + self._params[f"b{k}"]
            h = np.tanh(z) if k < self.n_layers - 1 else z
            acts.append(h)
        out = h[0] if squeeze else h
        return out, (acts, squeeze)

    def backward(self, cache, grad_out):
        """grad_out matches forward output shape. Returns (grads, grad_x)."""
        acts, squeeze = cache
        g = np.atleast_2d(np.asarray(grad_out, dtype=float))
        grads = {}
        for k in range(self.n_layers - 1, -1, -1):
            h_in, h_out = acts[k], acts[k + 1]
            if k < self.n_layers - 1:
                g = g * (1.0 - h_out * h_out)    # through tanh
            grads[f"w{k}"] = h_in.T @ g
            grads[f"b{k}"] = g.sum(axis=0)
            g = g @ self._params[f"w{k}"].T
        return grads, (g[0] if squeeze else g)


# ---------------------------------------------------------------------------
# LSTM stack
# ---------------------------------------------------------------------------

class LSTM:
    """Stacked LSTM with inter-layer dropout (training only).

    Gate order inside the concatenated weight matrices is (i, f, g, o).
    Inputs are (T, batch, input_dim); outputs (T, batch, hidden). Dropout is
    inverted (scaled at train time) and applied to the outputs of every
    layer except the last, with a fresh mask per time step.

    Each (t, layer) step makes one gate-activation pass: ``_sigmoid`` runs
    once on the whole (batch, 4H) pre-activation ``s`` (its g block is
    computed and ignored, cheaper than two more calls), i, f, o are
    contiguous copies of its column blocks and g is tanh of its own block.
    ``backward`` forms the pre-activation gradient at full width too:
    ``dz = [di | df | dg | do] * s * (1 - s)``, then the g block is
    overwritten with ``dg * (1 - g*g)``. Every element sees the same
    operations in the same order as per-gate code (``(di * i) * (1 - i)``
    and so on), so all values are bit for bit what per-gate calls give.
    """

    def __init__(self, input_dim, hidden_dim, num_layers, dropout, rng):
        if not (0.0 <= dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.dropout = dropout
        self._params = {}
        for layer in range(num_layers):
            d_in = input_dim if layer == 0 else hidden_dim
            self._params[f"wx{layer}"] = fan_in_uniform(rng, d_in, (d_in, 4 * hidden_dim))
            wh = np.concatenate(
                [orthogonal(rng, hidden_dim, hidden_dim) for _ in range(4)], axis=1)
            self._params[f"wh{layer}"] = wh
            b = np.zeros(4 * hidden_dim)
            b[hidden_dim:2 * hidden_dim] = 1.0      # forget gate starts open
            self._params[f"b{layer}"] = b

    def param_dict(self):
        return self._params

    def forward(self, seq, state=None, training=False, dropout_rng=None,
                dropout_masks=None):
        """Returns (outputs, (h, c), cache).

        ``dropout_masks`` may pin the masks explicitly (shape
        (num_layers-1, T, batch, hidden)); otherwise they are drawn from
        ``dropout_rng`` when training with dropout > 0.
        """
        seq = np.asarray(seq, dtype=float)
        T, batch, _ = seq.shape
        if state is not None:
            # layer states kept as rebindable lists so cached arrays stay intact
            h = [np.array(state[0][l], dtype=float) for l in range(self.num_layers)]
            c = [np.array(state[1][l], dtype=float) for l in range(self.num_layers)]
        else:
            h = [np.zeros((batch, self.hidden_dim)) for _ in range(self.num_layers)]
            c = [np.zeros((batch, self.hidden_dim)) for _ in range(self.num_layers)]

        use_drop = training and self.dropout > 0.0 and self.num_layers > 1
        if use_drop and dropout_masks is None:
            if dropout_rng is None:
                raise ValueError("training with dropout needs dropout_rng or masks")
            keep = 1.0 - self.dropout
            dropout_masks = (dropout_rng.random(
                (self.num_layers - 1, T, batch, self.hidden_dim)) < keep
            ).astype(float) / keep

        H = self.hidden_dim
        steps = []          # per (t, layer) cache
        outputs = np.empty((T, batch, H))
        for t in range(T):
            x = seq[t]
            for layer in range(self.num_layers):
                hp, cp = h[layer], c[layer]
                z = (x @ self._params[f"wx{layer}"]
                     + hp @ self._params[f"wh{layer}"]
                     + self._params[f"b{layer}"])
                s = _sigmoid(z)         # one pass; the g block goes unused
                # contiguous copies: backward reuses each gate several times,
                # and elementwise ops on strided column views cost ~3x more
                i = s[:, :H].copy()
                f = s[:, H:2 * H].copy()
                g = np.tanh(z[:, 2 * H:3 * H])
                o = s[:, 3 * H:].copy()
                cn = f * cp + i * g
                tc = np.tanh(cn)
                hn = o * tc
                steps.append((x, hp, cp, s, i, f, g, o, cn, tc))
                h[layer] = hn
                c[layer] = cn
                x = hn
                if use_drop and layer < self.num_layers - 1:
                    x = x * dropout_masks[layer, t]
            outputs[t] = x
        cache = (seq.shape, steps, dropout_masks if use_drop else None)
        return outputs, (np.stack(h), np.stack(c)), cache

    def backward(self, cache, grad_outputs, grad_state=None):
        """BPTT. grad_outputs: (T, batch, hidden), or None when no gradient
        reaches the outputs; grad_state optional (dh, dc) on the final state.
        Returns (grads, (dh0, dc0)). No gradient with respect to the input
        sequence is formed: the inputs are data, never a trained quantity,
        and the layer-0 product it would take is a sixth of a call.

        None for grad_outputs gives the values an all-zero array gives:
        adding a zero changes no gradient value, only, in principle, the sign
        of a zero one, which no Adam step can tell apart."""
        (T, batch, _), steps, masks = cache
        H = self.hidden_dim
        L = self.num_layers
        grads = {k: np.zeros_like(v) for k, v in self._params.items()}
        if grad_state is not None:
            dh_next = grad_state[0].copy()
            dc_next = grad_state[1].copy()
        else:
            dh_next = np.zeros((L, batch, H))
            dc_next = np.zeros((L, batch, H))

        if grad_outputs is not None:
            grad_outputs = np.asarray(grad_outputs, dtype=float)
        for t in range(T - 1, -1, -1):
            # gradient arriving at the top layer's h_t
            dx_up = None if grad_outputs is None else grad_outputs[t]
            for layer in range(L - 1, -1, -1):
                x, hp, cp, s, i, f, g, o, cn, tc = steps[t * L + layer]
                dh = dh_next[layer] if dx_up is None else dx_up + dh_next[layer]
                dc = dc_next[layer] + dh * o * (1.0 - tc * tc)
                do = dh * tc
                di = dc * g
                dg = dc * i
                df = dc * cp
                dz = np.concatenate([di, df, dg, do], axis=1)
                dz *= s                 # full width: (d * s) * (1 - s)
                dz *= 1.0 - s
                dz[:, 2 * H:3 * H] = dg * (1.0 - g * g)
                grads[f"wx{layer}"] += x.T @ dz
                grads[f"wh{layer}"] += hp.T @ dz
                grads[f"b{layer}"] += dz.sum(axis=0)
                dh_next[layer] = dz @ self._params[f"wh{layer}"].T
                dc_next[layer] = dc * f
                if layer > 0:
                    dx = dz @ self._params[f"wx{layer}"].T
                    if masks is not None:
                        dx = dx * masks[layer - 1, t]
                    dx_up = dx
        return grads, (dh_next, dc_next)


def _sigmoid(x):
    """Overflow-free logistic: 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x))
    otherwise, element by element.

    One pass over the whole array instead of two masked ones, with the same
    arithmetic per element: ``np.minimum(x, -x)`` is -|x| for every number,
    so ``e`` is exp(-x) where x >= 0 and exp(x) elsewhere, and each element
    gets the same exp, add and divide on the same operands as the masked
    form. The results agree bit for bit, including ±0, subnormals, ±inf and
    NaN: ``np.minimum`` returns a NaN operand as it is, where ``-np.abs``
    would flip its sign bit.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# categorical head
# ---------------------------------------------------------------------------

def log_softmax(logits):
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def categorical_sample(probs, rng):
    """Inverse-CDF sample; probs (n,) -> int index."""
    u = rng.random()
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, p in params.items():
            g = grads[k]
            m = self._m[k]
            v = self._v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_params(path, named_arrays):
    """Write an ordered {name: array} dict in the documented binary layout."""
    path = Path(path)
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(named_arrays))]
    for name, arr in named_arrays.items():
        data = np.asarray(arr, dtype="<f8")   # keeps 0-d arrays 0-d
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{max(data.ndim, 1)}Q",
                                  *(data.shape if data.ndim else (1,))))
        chunks.append(data.tobytes())
    path.write_bytes(b"".join(chunks))


def load_params(path):
    """Read a ``save_params`` file. Raises ValueError, naming the file, for a
    bad header, a file that ends inside an entry, or bytes after the last."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC or len(raw) < 12:
        raise ValueError(f"{path}: not a parameter checkpoint (bad magic or "
                         f"short header)")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    off = 12
    out = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", raw, off)
            off += 2
            name = raw[off:off + nlen].decode("utf-8")
            off += nlen
            (ndim,) = struct.unpack_from("<B", raw, off)
            off += 1
            dims = struct.unpack_from(f"<{max(ndim, 1)}Q", raw, off)
            off += 8 * max(ndim, 1)
            shape = dims[:ndim] if ndim else ()
            size = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(raw, "<f8", size, off).copy()
            off += 8 * size
            out[name] = arr.reshape(shape) if ndim else arr.reshape(())
    except (struct.error, ValueError):      # a read past the end of ``raw``
        raise ValueError(f"{path}: checkpoint ends inside entry {len(out)}") \
            from None
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} bytes after the last entry")
    return out


def prefixed(**named):
    """One ordered dict of ``"<name>.<key>": array`` from named parameter
    or gradient dicts, in argument order (the arrays are not copied)."""
    return {f"{name}.{k}": v for name, d in named.items() for k, v in d.items()}


def assign_params(params, loaded):
    """Copy loaded arrays into live parameter dicts, validating shapes."""
    for k, p in params.items():
        if k not in loaded:
            raise ValueError(f"checkpoint has no parameter '{k}'")
        src = loaded[k]
        if src.shape != p.shape:
            raise ValueError(f"shape mismatch for {k}: {src.shape} vs {p.shape}")
        p[...] = src
