"""Command-line experiment runner.

Verbs: ``train`` (per-seed training, checkpoints, curves, final metrics),
``eval`` (deterministic rollouts from a checkpoint or the greedy rule),
``sweep`` (one full run per axis value per seed), ``report`` (plot-ready
CSVs from a finished run directory).

Output conventions: ``metrics.csv`` and ``summary.csv`` carry only
simulation-derived quantities and are byte-identical across re-runs;
wall-clock figures live in ``timing.csv``, next to each episode's simulated
ticks, how many of them were crossed without a per-tick pass (see
``CouplingEnv._skip``), and its power-flow lookups and solves, which
depend on what earlier runs on the feeder left in its memo (see
``CouplingEnv._power_flow``). Every run directory gets a
``manifest.json`` with the seeds, build info and ``config_hash`` of the
effective config, which covers every setting, defaults included, and both
networks' tables.
An episode in which no EV finished charging has no mean wait+charge time:
its ``wct_min`` field is empty, and ``summary.csv`` and ``report`` average
that metric over the episodes that define it and count those.

Every run setting lives in the ``ScenarioConfig`` a verb receives, the
checked config being the only copy: ``--compliance`` is written into its
``compliance_rate`` (as the ``compliance_rate`` sweep axis does), so the
config hash covers it, and without ``--seeds`` a verb runs its ``seeds``.
``--trace`` only chooses whether ``write_eval_artifacts`` writes the
decision log (``CouplingEnv.trace``, always recorded) to ``trace_*.csv``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import DATA_DIR, __version__
from .env import CouplingEnv
from .scenario import ScenarioError, load_scenario
from .srl import (METHODS, build_agent, evaluate, load_checkpoint,
                  save_checkpoint, train)

EVAL_SEED_BASE = 990_000
SWEEP_AXES = ("ev_fraction", "controller_interval", "decoder_length",
              "compliance_rate")


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class MetricsRecord:
    method: str
    seed: int
    ttt_s: float
    cvv: float
    wct_min: float | None       # None when no EV finished
    et_s: float
    dt_mean_s: float
    ticks: int                  # of the episode, in timing.csv only
    ticks_coasted: int
    pf_lookups: int             # in timing.csv only, as pf_solves depends
    pf_solves: int              # on what the feeder's memo already held

    def __post_init__(self):
        for name in ("ttt_s", "cvv", "wct_min", "et_s", "dt_mean_s"):
            if name == "wct_min" and self.wct_min is None:
                continue
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0:
                raise HarnessError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)


# ---------------------------------------------------------------------------
# Small IO helpers
# ---------------------------------------------------------------------------

def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def config_hash(cfg) -> str:
    """SHA-256 of every setting of ``cfg``, defaults included, and of both
    networks' tables: equal effective configs hash equal."""
    road, power = cfg.road_net, cfg.power_net
    settings = [(f.name, getattr(cfg, f.name)) for f in fields(cfg)
                if f.name not in ("road_net", "power_net")]
    text = repr((settings, sorted(road.nodes.items()),
                 [road.links[lid] for lid in road.link_ids],
                 power.buses, power.lines, power.base_mva, power.base_kv))
    return hashlib.sha256(text.encode()).hexdigest()


def percentile98(values) -> float:
    """Linear-interpolation 98th percentile, as np.percentile defines it."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise HarnessError("no cost samples to take a percentile of")
    return float(np.percentile(arr, 98))


def write_manifest(out, cfg, args_dict, seeds, sweep=None):
    doc = {
        "scenario": cfg.name,
        "config_sha256": config_hash(cfg),
        "seeds": [int(s) for s in seeds],
        "args": args_dict,
        "sweep": sweep,
        "build": {
            "package": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    path = Path(out) / "manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def field(value) -> str:
    """A metric's CSV field: its repr, or empty when it is undefined."""
    return "" if value is None else repr(value)


def write_metrics(out, records):
    rows = [(r.method, r.seed, repr(r.ttt_s), repr(r.cvv), field(r.wct_min))
            for r in records]
    write_csv(Path(out) / "metrics.csv",
              ["method", "seed", "ttt_s", "cvv", "wct_min"], rows)
    write_csv(Path(out) / "timing.csv",
              ["method", "seed", "et_s", "dt_mean_s", "ticks",
               "ticks_coasted", "pf_lookups", "pf_solves"],
              [(r.method, r.seed, repr(r.et_s), repr(r.dt_mean_s), r.ticks,
                r.ticks_coasted, r.pf_lookups, r.pf_solves) for r in records])


METRICS = ("ttt_s", "cvv", "wct_min")


def summary_rows(values):
    """(method, metric, n, mean, std) rows from {(method, metric): [value
    or None]}, by method and then in insertion order: mean and population
    std over the values that are defined, n counts them, and mean and std
    are empty when there are none."""
    rows = []
    for (method, metric), vals in sorted(values.items(),
                                         key=lambda kv: kv[0][0]):
        vals = np.array([v for v in vals if v is not None])
        stats = (repr(float(vals.mean())), repr(float(vals.std()))) \
            if vals.size else ("", "")
        rows.append((method, metric, vals.size, *stats))
    return rows


def write_summary(out, records):
    """Mean and population std per method over seeds, one row per metric."""
    values = {}
    for r in records:
        for metric in METRICS:
            values.setdefault((r.method, metric), []).append(
                getattr(r, metric))
    write_csv(Path(out) / "summary.csv",
              ["method", "metric", "n_seeds", "mean", "std"],
              summary_rows(values))


def write_curve(out, method, seed, curve):
    rows = [(row["epoch"], repr(row["mean_ttt"]), repr(row["mean_cvv"]),
             repr(row["lam"]), repr(row["predictor_loss"]))
            for row in curve]
    return write_csv(Path(out) / f"training_curve_{method}_s{seed}.csv",
                     ["epoch", "mean_ttt", "mean_cvv", "lambda",
                      "predictor_loss"], rows)


def write_eval_artifacts(out, method, seed, records, trace):
    """Per-episode minute, droop, and step CSVs backing the report verb,
    plus the decision-log CSV when ``trace`` is set."""
    out = Path(out)
    minute_rows, droop_rows, step_rows, trace_rows = [], [], [], []
    n_cs = None
    for i, rec in enumerate(records):
        for t, occ, total_kw, setpoint in rec.minute_log:
            n_cs = len(occ)
            minute_rows.append((i, rec.seed, repr(float(t)),
                                repr(float(total_kw)), repr(float(setpoint)),
                                *[repr(float(o)) for o in occ]))
        for t, v_avg, setpoint, occ in rec.droop_log:
            droop_rows.append((i, rec.seed, repr(float(t)), repr(float(v_avg)),
                               repr(float(setpoint)),
                               *[repr(float(o)) for o in occ]))
        for step, action, r, c, elapsed, vid, followed in rec.trace:
            step_rows.append((i, rec.seed, step, repr(float(r)),
                              repr(float(c))))
            if trace:
                trace_rows.append((i, rec.seed, step, action, repr(float(r)),
                                   repr(float(c)), repr(float(elapsed)), vid,
                                   int(followed)))
    occ_cols = [f"occ_{j}" for j in range(n_cs or 0)]
    write_csv(out / f"minutes_{method}_s{seed}.csv",
              ["episode", "ep_seed", "t_s", "total_kw", "setpoint_kw",
               *occ_cols], minute_rows)
    write_csv(out / f"droop_{method}_s{seed}.csv",
              ["episode", "ep_seed", "t_s", "v_avg", "setpoint_kw",
               *occ_cols], droop_rows)
    write_csv(out / f"steps_{method}_s{seed}.csv",
              ["episode", "ep_seed", "step", "reward", "cost"], step_rows)
    if trace:
        write_csv(out / f"trace_{method}_s{seed}.csv",
                  ["episode", "ep_seed", "step", "action", "reward", "cost",
                   "elapsed_s", "vid", "followed"], trace_rows)


# ---------------------------------------------------------------------------
# Scenario, sweep and seed resolution
# ---------------------------------------------------------------------------

def apply_sweep_value(cfg, axis, value):
    """Return a config with one sensitivity axis changed. Building it checks
    the new value against its field's table entry."""
    v = float(value)
    if axis == "ev_fraction":
        return replace(cfg, demand=replace(cfg.demand, ev_fraction=v))
    if axis == "controller_interval":
        interval = v * 60.0
        if interval <= 0 or cfg.demand.control_s % interval != 0:
            raise HarnessError(
                f"controller interval {v:g} min must divide the "
                f"control duration ({cfg.demand.control_s:g} s)")
        return replace(cfg, droop=replace(cfg.droop, interval_s=interval))
    if axis == "decoder_length":
        n = int(v) if v.is_integer() else v
        return replace(cfg, predictor=replace(cfg.predictor, dec_len=n))
    if axis == "compliance_rate":
        return replace(cfg, compliance_rate=v)
    raise HarnessError(f"unknown sweep axis '{axis}' (choose from "
                       f"{', '.join(SWEEP_AXES)})")


def _parse_values(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        num, slash, den = tok.partition("/")
        try:
            value = float(num) / float(den) if slash else float(num)
        except ValueError:
            raise HarnessError(f"sweep value '{tok}' is not a number") \
                from None
        except ZeroDivisionError:
            raise HarnessError(f"sweep value '{tok}' divides by zero") \
                from None
        if not np.isfinite(value):
            raise HarnessError(f"sweep value '{tok}' is not finite")
        out.append(value)
    if not out:
        raise HarnessError("empty sweep value list")
    return out


def resolve_seeds(args, cfg):
    if args.seeds:
        seeds = []
        for tok in args.seeds.split(","):
            try:
                seeds.append(int(tok))
            except ValueError:
                what = (f"seed '{tok.strip()}' is not an integer"
                        if tok.strip() else "a seed is empty")
                raise HarnessError(f"--seeds '{args.seeds}': {what}") \
                    from None
            if seeds[-1] < 0:
                raise HarnessError(f"--seeds '{args.seeds}': seed "
                                   f"'{tok.strip()}' must be >= 0")
        return seeds
    return list(cfg.seeds)


def resolve_scenario(name):
    """Accept a YAML path or the bare name of a bundled scenario."""
    p = Path(name)
    if p.is_file():
        return p
    for cand in (DATA_DIR / name, DATA_DIR / f"{name}.yaml"):
        if cand.is_file():
            return cand
    raise HarnessError(f"scenario '{name}' is neither a file nor bundled")


def _load_cfg(args):
    cfg = load_scenario(resolve_scenario(args.scenario))
    if getattr(args, "compliance", None) is not None:
        cfg = apply_sweep_value(cfg, "compliance_rate", args.compliance)
    return cfg


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def _record(method, seed, m, et_s):
    """The MetricsRecord of one evaluated episode's EpisodeMetrics ``m``."""
    return MetricsRecord(method, seed, m.ttt_s, m.cvv, m.wct_min, et_s,
                         m.dt_mean_s, m.ticks, m.ticks_coasted, m.pf_lookups,
                         m.pf_solves)


def run_train(cfg, method, seeds, out, trace=False, progress=None):
    """Train per seed, then evaluate each checkpoint once for the metrics
    table. Returns the MetricsRecords."""
    out = Path(out)
    records = []
    for seed in seeds:
        t0 = time.perf_counter()
        res = train(cfg, method, seed, progress=progress)
        et = time.perf_counter() - t0
        write_curve(out, method, seed, res.curve)
        save_checkpoint(out / f"checkpoint_{method}_s{seed}.bin",
                        res.agent, res.predictor)
        evals = evaluate(cfg, method, res.agent, res.predictor,
                         seeds=(EVAL_SEED_BASE + seed,))
        records.append(_record(method, seed, evals[0].metrics, et))
        write_eval_artifacts(out, method, seed, evals, trace)
    write_metrics(out, records)
    write_summary(out, records)
    return records


def run_eval(cfg, method, seeds, out, checkpoint=None, trace=False):
    out = Path(out)
    agent = predictor = None
    if method != "greedy":
        if checkpoint is None:
            raise HarnessError(f"method '{method}' needs --checkpoint")
        env = CouplingEnv(cfg)
        agent, predictor = build_agent(cfg, env, method)
        load_checkpoint(checkpoint, agent, predictor)
    records = []
    for seed in seeds:
        t0 = time.perf_counter()
        evals = evaluate(cfg, method, agent, predictor, seeds=(seed,))
        et = time.perf_counter() - t0
        records.append(_record(method, seed, evals[0].metrics, et))
        write_eval_artifacts(out, method, seed, evals, trace)
    write_metrics(out, records)
    write_summary(out, records)
    return records


def run_sweep(cfg, method, axis, values, seeds, out, trace=False):
    """One run per axis value. Every value's config is built, and so
    checked, before the first run starts."""
    out = Path(out)
    combined = []
    sub_cfgs = [apply_sweep_value(cfg, axis, value) for value in values]
    for value, sub_cfg in zip(values, sub_cfgs):
        sub_out = out / f"{axis}_{value:g}"
        if method == "greedy":
            recs = run_eval(sub_cfg, method, seeds, sub_out, trace=trace)
        else:
            recs = run_train(sub_cfg, method, seeds, sub_out, trace=trace)
        write_manifest(sub_out, sub_cfg, {"axis": axis, "value": value},
                       seeds)
        combined.extend((axis, repr(float(value)), r.method, r.seed,
                         repr(r.ttt_s), repr(r.cvv), field(r.wct_min))
                        for r in recs)
    write_csv(out / "sweep_summary.csv",
              ["axis", "value", "method", "seed", "ttt_s", "cvv", "wct_min"],
              combined)
    return combined


def run_report(out):
    """Aggregate a finished run directory into plot-ready CSVs."""
    out = Path(out)
    if not out.is_dir():
        raise HarnessError(f"run directory {out} does not exist")
    curves = sorted(out.glob("training_curve_*.csv"))
    minutes = sorted(out.glob("minutes_*.csv"))
    steps = sorted(out.glob("steps_*.csv"))
    if not (curves or minutes or steps):
        raise HarnessError(f"no run artifacts found under {out}")

    if (out / "metrics.csv").exists():
        header, rows = read_csv(out / "metrics.csv")
        values = {}
        for row in rows:
            for metric in METRICS:
                text = row[header.index(metric)]
                values.setdefault((row[0], metric), []).append(
                    float(text) if text else None)
        write_csv(out / "report_metrics.csv",
                  ["method", "metric", "n_defined", "mean", "std"],
                  summary_rows(values))

    if curves:
        by_key = {}
        for path in curves:
            method = path.stem[len("training_curve_"):].rsplit("_s", 1)[0]
            _, rows = read_csv(path)
            for row in rows:
                by_key.setdefault((method, int(row[0])), []).append(
                    [float(x) for x in row[1:]])
        # per-column means: np.mean(vals, axis=0) sums in another order
        rows = [(m, e, *(repr(float(np.mean(col))) for col in zip(*vals)))
                for (m, e), vals in sorted(by_key.items())]
        write_csv(out / "report_training_curve.csv",
                  ["method", "epoch", "mean_ttt", "mean_cvv", "lambda",
                   "predictor_loss"], rows)

    if minutes:
        power_rows, occ_rows = [], []
        for path in minutes:
            method = path.stem[len("minutes_"):].rsplit("_s", 1)[0]
            header, rows = read_csv(path)
            n_cs = len(header) - 5
            for row in rows:
                power_rows.append((method, row[1], row[0], row[2], row[3],
                                   row[4]))
                for j in range(n_cs):
                    occ_rows.append((method, row[1], row[0], row[2], j,
                                     row[5 + j]))
        write_csv(out / "report_power.csv",
                  ["method", "ep_seed", "episode", "t_s", "total_kw",
                   "setpoint_kw"], power_rows)
        write_csv(out / "report_occupancy.csv",
                  ["method", "ep_seed", "episode", "t_s", "cs_id",
                   "occupancy"], occ_rows)

    if steps:
        cost_rows, pct_rows = [], []
        by_method = {}
        for path in steps:
            method = path.stem[len("steps_"):].rsplit("_s", 1)[0]
            _, rows = read_csv(path)
            for row in rows:
                cost_rows.append((method, row[1], row[0], row[2], row[4]))
                by_method.setdefault(method, []).append(float(row[4]))
        for method, costs in sorted(by_method.items()):
            pct_rows.append((method, len(costs), repr(percentile98(costs))))
        write_csv(out / "report_cost_distribution.csv",
                  ["method", "ep_seed", "episode", "step", "cost"], cost_rows)
        write_csv(out / "report_cost_percentiles.csv",
                  ["method", "n_samples", "p98"], pct_rows)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="evgrid",
        description="Coupled traffic/grid charging-recommendation experiments")
    sub = p.add_subparsers(dest="mode", required=True)

    def common(sp, scenario=True):
        if scenario:
            sp.add_argument("--scenario", required=True,
                            help="scenario YAML path or bundled name")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seeds", default="",
                        help="comma-separated seeds (default: scenario "
                             "seeds, else 0-4)")
        sp.add_argument("--compliance", type=float, default=None,
                        help="override driver compliance rate in [0, 1]")
        sp.add_argument("--trace", action="store_true",
                        help="write per-decision trace CSVs")

    tr = sub.add_parser("train", help="train a method across seeds")
    common(tr)
    tr.add_argument("--method", required=True,
                    choices=[m for m in METHODS if m != "greedy"])

    ev = sub.add_parser("eval", help="evaluate a checkpoint or greedy")
    common(ev)
    ev.add_argument("--method", required=True, choices=list(METHODS))
    ev.add_argument("--checkpoint", default=None,
                    help="checkpoint file from a train run")

    sw = sub.add_parser("sweep", help="sensitivity sweep along one axis")
    common(sw)
    sw.add_argument("--method", required=True, choices=list(METHODS))
    sw.add_argument("--sweep-axis", required=True, choices=list(SWEEP_AXES))
    sw.add_argument("--sweep-values", required=True,
                    help="comma-separated values; fractions like 1/6 allowed; "
                         "controller_interval is in minutes")

    rp = sub.add_parser("report", help="build plot-ready CSVs from a run")
    rp.add_argument("--out", required=True, help="finished run directory")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.mode == "report":
            run_report(args.out)
            print(f"report written under {args.out}")
            return 0
        cfg = _load_cfg(args)
        seeds = resolve_seeds(args, cfg)
        args_dict = {k: v for k, v in vars(args).items() if k != "mode"}
        if args.mode == "train":
            def progress(row):
                print(f"[{args.method} epoch {row['epoch']}] "
                      f"ttt={row['mean_ttt']:.0f}s cvv={row['mean_cvv']:.4f} "
                      f"lam={row['lam']:.4f}")
            run_train(cfg, args.method, seeds, args.out, trace=args.trace,
                      progress=progress)
        elif args.mode == "eval":
            run_eval(cfg, args.method, seeds, args.out,
                     checkpoint=args.checkpoint, trace=args.trace)
        else:
            values = _parse_values(args.sweep_values)
            run_sweep(cfg, args.method, args.sweep_axis, values, seeds,
                      args.out, trace=args.trace)
        write_manifest(args.out, cfg, args_dict, seeds,
                       sweep=None if args.mode != "sweep" else
                       {"axis": args.sweep_axis, "values": args.sweep_values})
        print(f"done; outputs under {args.out}")
        return 0
    except (HarnessError, ScenarioError, ValueError, OSError,
            RuntimeError) as exc:
        print("ERROR " + json.dumps({"type": type(exc).__name__,
                                     "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
