"""Per-episode correctness checks and decision-latency samples.

``EpisodeChecker`` is the one wrapper installed in the timed runs. It wraps
``CouplingEnv.apply_action`` and ``evgrid.env.generate_trips``; both run
at most once per decision, and the checks run once per episode, after the
episode's terminal step. In the traced run it also wraps
``evgrid.env.solve_power_flow`` to check every solution's residual. The
decision latency it samples is the ``decision_s`` argument the rollout
loops pass to ``apply_action``: the time of the policy call that picked
the station, including predictor augmentation, which is the quantity the
harness averages into ``dt_mean_s`` in ``timing.csv``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from evgrid import env

PF_MISMATCH_TOL = 1e-8     # the solver's own convergence tolerance


class EpisodeChecker:
    """Counts attempted and failed episodes and samples decision latency.

    An episode is attempted when ``CouplingEnv.reset`` draws its trips and
    fails when it raises before its terminal step, when its terminal
    metrics break one of the simulator's invariants, or (with
    ``check_power_flow``) when a power-flow solution it used has a mismatch
    at or above the solver's tolerance.
    """

    def __init__(self, check_power_flow=False):
        self.check_power_flow = check_power_flow
        self.decision_s = []
        self.attempted = 0
        self.finished = 0
        self.failed_checks = 0
        self.problems = []
        self._n_trips = 0
        self._bad_solutions = 0
        self._patches = []

    @property
    def failed(self) -> int:
        return self.attempted - self.finished + self.failed_checks

    def install(self, clock):
        """Patch the names; ``clock`` rescales the decision samples and
        recalibrates between decisions, outside every traced span."""
        checker = self
        gen = env.generate_trips
        act = env.CouplingEnv.apply_action

        def generate_trips(cfg, seed):
            trips = gen(cfg, seed)
            checker.attempted += 1
            checker._n_trips = len(trips)
            checker._bad_solutions = 0
            return trips

        def apply_action(self, cs_index, decision_s=0.0):
            checker.decision_s.append(decision_s * clock.factor)
            clock.checkpoint()
            outcome = act(self, cs_index, decision_s=decision_s)
            if outcome.terminal:
                checker.finished += 1
                checker._check(self.episode_metrics())
            return outcome

        self._patches = [(env, "generate_trips", gen),
                         (env.CouplingEnv, "apply_action", act)]
        env.generate_trips = generate_trips
        env.CouplingEnv.apply_action = apply_action
        if self.check_power_flow:
            solve = env.solve_power_flow

            def solve_power_flow(*args, **kwargs):
                sol = solve(*args, **kwargs)
                if not sol.max_mismatch_pu < PF_MISMATCH_TOL:
                    checker._bad_solutions += 1
                return sol

            self._patches.append((env, "solve_power_flow", solve))
            env.solve_power_flow = solve_power_flow

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def _check(self, m):
        problems = []
        if m.ttt_s != m.ttt_tick_s:
            problems.append(f"ttt_s {m.ttt_s!r} != ttt_tick_s {m.ttt_tick_s!r}")
        if m.n_completed + m.n_stranded != self._n_trips:
            problems.append(f"{m.n_completed} completed + {m.n_stranded} "
                            f"stranded != {self._n_trips} trips")
        if not math.isfinite(m.cvv):
            problems.append(f"cvv {m.cvv!r} is not finite")
        if self._bad_solutions:
            problems.append(f"{self._bad_solutions} power-flow solutions with "
                            f"mismatch >= {PF_MISMATCH_TOL}")
        if problems:
            self.failed_checks += 1
            self.problems.append("; ".join(problems))


def outputs_digest(out_dir) -> str:
    """SHA-256 over the byte-reproducible CSVs a harness verb wrote.

    ``timing.csv`` holds wall-clock figures and is left out.
    """
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*.csv")):
        if path.name == "timing.csv":
            continue
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
