"""In-memory span tracer that wraps evgrid's public entry points.

Every wrapped call records one span (name, start, end, parent span) in
flat arrays; nothing is written until the traced phase ends, when
``layer_metrics`` turns the spans and a few counters into the per-layer
figures. Each name is patched where the caller looks it up: module-level
functions in the module that calls them (``evgrid.env.solve_power_flow``,
not ``evgrid.power.solve_power_flow``), methods on their class.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from evgrid import charging, env, harness, nn, predictor, srl, traffic

# Per-span-name summary metrics: (metric, span, statistic, per_unit, unit).
# "mean" is the mean duration per call, "calls" the calls per episode.
SPAN_METRICS = (
    ("scenario.generate_trips_ms", "scenario.generate_trips", "mean", 1e3, "ms"),
    ("traffic.step_us", "traffic.step", "mean", 1e6, "us"),
    ("traffic.step_calls", "traffic.step", "calls", 1, "count/episode"),
    ("traffic.shortest_path_us", "traffic.shortest_path", "mean", 1e6, "us"),
    ("traffic.shortest_path_calls", "traffic.shortest_path", "calls", 1,
     "count/episode"),
    ("charging.update_us", "charging.update", "mean", 1e6, "us"),
    ("charging.update_calls", "charging.update", "calls", 1, "count/episode"),
    ("charging.features_us", "charging.features", "mean", 1e6, "us"),
    ("charging.features_calls", "charging.features", "calls", 1,
     "count/episode"),
    ("power.solve_ms", "power.solve", "mean", 1e3, "ms"),
    ("power.solves", "power.solve", "calls", 1, "count/episode"),
    ("env.reset_ms", "env.reset", "mean", 1e3, "ms"),
    ("nn.dense_forward_us", "nn.dense_forward", "mean", 1e6, "us"),
    ("nn.dense_forward_calls", "nn.dense_forward", "calls", 1, "count/episode"),
    ("nn.dense_backward_us", "nn.dense_backward", "mean", 1e6, "us"),
    ("nn.dense_backward_calls", "nn.dense_backward", "calls", 1,
     "count/episode"),
    ("nn.lstm_forward_ms", "nn.lstm_forward", "mean", 1e3, "ms"),
    ("nn.lstm_forward_calls", "nn.lstm_forward", "calls", 1, "count/episode"),
    ("nn.lstm_backward_ms", "nn.lstm_backward", "mean", 1e3, "ms"),
    ("nn.lstm_backward_calls", "nn.lstm_backward", "calls", 1, "count/episode"),
    ("nn.adam_step_us", "nn.adam_step", "mean", 1e6, "us"),
    ("nn.adam_step_calls", "nn.adam_step", "calls", 1, "count/episode"),
    ("predictor.train_step_ms", "predictor.train_step", "mean", 1e3, "ms"),
    ("predictor.train_steps", "predictor.train_step", "calls", 1,
     "count/episode"),
    ("predictor.predict_us", "predictor.predict", "mean", 1e6, "us"),
    ("predictor.observe_us", "predictor.observe", "mean", 1e6, "us"),
    ("srl.ppo_update_ms", "srl.ppo_update", "mean", 1e3, "ms"),
    ("srl.ppo_updates", "srl.ppo_update", "calls", 1, "count/episode"),
    ("srl.act_us", "srl.act", "mean", 1e6, "us"),
)

# Layers whose busy time is reported: the summed duration of the spans of
# that layer not nested inside another span of the same layer.
BUSY_LAYERS = ("traffic", "charging", "power", "predictor")


class Tracer:
    """Patches the traced names on ``install`` and restores them on
    ``uninstall``. One tracer serves one traced phase of one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._span_name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack = [-1]
        self._patches = []
        self.vehicle_ticks = 0
        self.idle_updates = 0
        self.nr_iterations = 0
        self.decisions = 0
        self.droop_updates = 0

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, before hook, after hook)."""
        write = "harness.write"
        return (
            (env, "generate_trips", "scenario.generate_trips", None, None),
            (env, "shortest_path", "traffic.shortest_path", None, None),
            (env, "solve_power_flow", "power.solve", None, self._after_solve),
            (srl, "ppo_update", "srl.ppo_update", None, None),
            (srl, "greedy_action", "srl.greedy_action", None, None),
            (traffic.TrafficSim, "step", "traffic.step", self._before_step,
             None),
            (charging.ChargingStation, "update_charging", "charging.update",
             self._before_update, None),
            (charging.ChargingStation, "state_features", "charging.features",
             None, None),
            (env.CouplingEnv, "reset", "env.reset", None, None),
            (env.CouplingEnv, "apply_action", "env.apply_action", None,
             self._after_action),
            (nn.DenseNet, "forward", "nn.dense_forward", None, None),
            (nn.DenseNet, "backward", "nn.dense_backward", None, None),
            (nn.LSTM, "forward", "nn.lstm_forward", None, None),
            (nn.LSTM, "backward", "nn.lstm_backward", None, None),
            (nn.Adam, "step", "nn.adam_step", None, None),
            (predictor.Seq2SeqForecaster, "train_step", "predictor.train_step",
             None, None),
            (predictor.Seq2SeqForecaster, "predict", "predictor.predict", None,
             None),
            (predictor.OnlinePredictor, "observe", "predictor.observe", None,
             None),
            (predictor.OnlinePredictor, "augment", "predictor.augment", None,
             None),
            (srl.LagrangePPOAgent, "act", "srl.act", None, None),
            (harness, "write_eval_artifacts", write, None, None),
            (harness, "write_metrics", write, None, None),
            (harness, "write_summary", write, None, None),
            (harness, "write_curve", write, None, None),
            (harness, "save_checkpoint", write, None, None),
        )

    def install(self):
        for owner, attr, name, before, after in self._targets():
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, name, before, after))
            self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, before, after):
        nid = self._name_id(name)
        span_name, start, end, parent = (self._span_name, self._start,
                                         self._end, self._parent)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # counters recorded at the same boundaries as the spans
    # ------------------------------------------------------------------

    def _before_step(self, args):
        self.vehicle_ticks += len(args[0].driving)

    def _before_update(self, args):
        station = args[0]
        if not station.charging and not station.queue:
            self.idle_updates += 1

    def _after_solve(self, args, sol):
        self.nr_iterations += sol.iterations

    def _after_action(self, args, outcome):
        self.decisions += 1
        if outcome.terminal:
            self.droop_updates += len(args[0].droop_log)

    # ------------------------------------------------------------------
    # per-layer figures
    # ------------------------------------------------------------------

    def layer_metrics(self, wall_s, scale, episodes):
        """Per-layer metrics over the traced phase, as {name: (value, unit)}.

        wall_s: summed wall time of the traced workload units.
        scale: the phase's mean host-speed rescaling factor, applied to
            every duration reported (see ``calibration``).
        episodes: episodes that ran to the end during the traced phase.
        """
        n_names = len(self.names)
        names = np.frombuffer(self._span_name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = (np.frombuffer(self._end, dtype=np.float64)
               - np.frombuffer(self._start, dtype=np.float64)) * scale
        wall_s *= scale
        nested = parent >= 0
        child_s = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=dur, minlength=n_names)
        self_s = np.bincount(names, weights=dur - child_s, minlength=n_names)

        ids = self._name_ids          # every traced name, from install

        def count(span):
            return int(calls[ids[span]])

        def total_s(span):
            return float(total[ids[span]])

        out = {}
        per_episode = 1.0 / max(episodes, 1)
        for metric, span, stat, per_unit, unit in SPAN_METRICS:
            if stat == "mean":
                n = count(span)
                value = total_s(span) / n * per_unit if n else 0.0
            else:
                value = count(span) * per_episode
            out[metric] = (value, unit)

        layer_names = sorted({nm.split(".")[0] for nm in self.names})
        layer_of_name = np.array([layer_names.index(nm.split(".")[0])
                                  for nm in self.names], dtype=np.int64)
        span_layer = layer_of_name[names]
        parent_layer = np.where(nested, span_layer[np.maximum(parent, 0)], -1)
        outer = span_layer != parent_layer
        busy = np.bincount(span_layer[outer], weights=dur[outer],
                           minlength=len(layer_names))
        for layer in BUSY_LAYERS:
            out[f"{layer}.busy_s"] = (float(busy[layer_names.index(layer)]),
                                      "s")

        steps = count("traffic.step")
        updates = count("charging.update")
        solves = count("power.solve")
        out["traffic.vehicle_ticks"] = (self.vehicle_ticks * per_episode,
                                        "count/episode")
        out["traffic.ns_per_vehicle_tick"] = (
            total_s("traffic.step") / self.vehicle_ticks * 1e9
            if self.vehicle_ticks else 0.0, "ns")
        out["charging.idle_update_frac"] = (
            self.idle_updates / updates if updates else 0.0, "fraction")
        out["power.nr_iterations_mean"] = (
            self.nr_iterations / solves if solves else 0.0, "count")
        lookups = self.decisions + self.droop_updates
        out["power.cache_hit_frac"] = (
            1.0 - solves / lookups if lookups else 0.0, "fraction")

        act_ms = dur[names == ids["env.apply_action"]] * 1e3
        out["env.apply_action_ms_p50"] = (
            float(np.percentile(act_ms, 50)) if act_ms.size else 0.0, "ms")
        out["env.apply_action_ms_p99"] = (
            float(np.percentile(act_ms, 99)) if act_ms.size else 0.0, "ms")
        out["env.self_s"] = (float(self_s[ids["env.reset"]]
                                   + self_s[ids["env.apply_action"]]), "s")
        out["env.ticks_per_decision"] = (
            steps / self.decisions if self.decisions else 0.0, "count")
        out["harness.write_ms"] = (total_s("harness.write") * 1e3 * per_episode,
                                   "ms/episode")
        out["trace.unattributed_frac"] = (
            1.0 - float(dur[~nested].sum()) / wall_s if wall_s > 0 else 0.0,
            "fraction")
        out["trace.wall_s"] = (wall_s, "s")
        return out
