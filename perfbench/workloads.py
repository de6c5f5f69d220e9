"""The benchmark's workloads.

Each workload drives the same in-process entry points as the ``evgrid``
command line (``harness.run_eval`` for ``eval``, ``harness.run_train`` for
``train``) and is built so that one group of layers does most of the work
while the others stay nearly idle:

* ``eval_greedy_case_a``: greedy evaluation on bundled case_a. The
  simulation core (traffic, charging, station features) dominates; greedy
  sends every EV to the same station, so power-flow lookups mostly hit the
  cache, and no network or predictor runs.
* ``train_reduced_opsrl``: opsrl training on bundled reduced. The learner
  layers (forecaster training, PPO, the networks) carry the largest share.
  A unit trains for ``OPSRL_EPOCHS`` epochs of five episodes; the predictor
  needs ``converge_window`` (10) train steps before it can freeze, and
  three epochs give it about eight, so every epoch measured is one in
  which the predictor still trains.
* ``train_ieee69_ppolag``: ppolag training on a benchmark-owned scenario
  with case_a's demand on the 69-bus feeder. The stochastic policy spreads
  EVs over the stations, so the cache mostly misses and Newton-Raphson
  power flow takes most of the time.

A run repeats units of work (one harness call each) with unit seeds
derived from the benchmark seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from evgrid import harness
from evgrid.env import CouplingEnv
from evgrid.scenario import load_scenario

HERE = Path(__file__).resolve().parent
OPSRL_EPOCHS = 3
PPOLAG_EPOCHS = 1
PPOLAG_EPISODES_PER_EPOCH = 3


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Path
    method: str
    epochs: int = 0                  # training workloads only
    episodes_per_epoch: int = 0      # 0 keeps the scenario's value

    def load(self):
        """Load the scenario through the full schema validation."""
        return load_scenario(self.scenario)

    def setup(self, cfg):
        """Build what a harness verb builds before its first episode."""
        env = CouplingEnv(cfg)
        if self.method != "greedy":
            harness.build_agent(cfg, env, self.method)

    def run_config(self, cfg):
        """The scenario with the workload's training length applied."""
        if self.method == "greedy":
            return cfg
        training = replace(cfg.training, epochs=self.epochs)
        if self.episodes_per_epoch:
            training = replace(training,
                               episodes_per_epoch=self.episodes_per_epoch)
        return replace(cfg, training=training)

    def run_unit(self, cfg, seed: int, k: int, out: Path):
        """Unit k of a run: one harness call with its own seed."""
        unit_seed = seed * 1000 + k
        if self.method == "greedy":
            harness.run_eval(cfg, "greedy", [unit_seed], out)
        else:
            harness.run_train(cfg, self.method, [unit_seed], out)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="eval_greedy_case_a",
        scenario=harness.resolve_scenario("case_a"),
        method="greedy"),
    Workload(
        name="train_reduced_opsrl",
        scenario=harness.resolve_scenario("reduced"),
        method="opsrl",
        epochs=OPSRL_EPOCHS),
    Workload(
        name="train_ieee69_ppolag",
        scenario=HERE / "scenarios" / "case_a_ieee69.yaml",
        method="ppolag",
        epochs=PPOLAG_EPOCHS,
        episodes_per_epoch=PPOLAG_EPISODES_PER_EPOCH),
)}
