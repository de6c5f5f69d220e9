"""Benchmark runner for evgrid.

Run from the repository root:

    python3 perfbench/run.py --workload eval_greedy_case_a --seed 0 \
        --seconds 30 --trace 0

The workload names, the metrics and their units are listed in
``BENCHMARK.json`` at the repository root; ``perfbench/README.md`` says what
each one measures. A run sets up the workload several times (``setup_s``),
then repeats units of work, one harness call each, until ``--seconds`` of
unit wall time have passed. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
first half of the time runs untraced and the second half traced, and the
object holds the per-layer metrics. The line before it is a JSON object
with the machine, library versions, the digest of the first unit's
byte-reproducible output CSVs (``outputs_sha256``) and any failures.

``--smoke`` runs one unit per phase with tracing and prints every metric
of both lists; the benchmark's own tests use it.

BLAS is pinned to one thread before numpy loads, so that the numbers do not
depend on how many cores a shared machine lends to OpenBLAS's threads.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPS = 25
SMOKE_SETUP_REPS = 2


@dataclass
class Phase:
    clock: object         # wall and rescaled time of the units
    units: int
    digest: str | None    # outputs_sha256 of unit 0
    checker: object
    tracer: object
    error: str | None


def run_phase(workload, cfg, seed, seconds, out_root, tracer=None):
    """Run units until their summed wall time reaches ``seconds`` (at least
    one unit). Stops at the first unit that raises."""
    from calibration import CalibratedClock
    from checks import EpisodeChecker, outputs_digest

    clock = CalibratedClock()
    checker = EpisodeChecker(check_power_flow=tracer is not None)
    if tracer is not None:
        tracer.install()
    checker.install(clock)
    k = 0
    digest = error = None
    try:
        while k == 0 or clock.raw_s < seconds:
            out = out_root / f"unit{k}"
            clock.start()
            try:
                workload.run_unit(cfg, seed, k, out)
            except Exception:
                error = traceback.format_exc()
            clock.stop()
            if k == 0:
                digest = outputs_digest(out)
            shutil.rmtree(out, ignore_errors=True)
            k += 1
            if error is not None:
                break
    finally:
        checker.uninstall()
        if tracer is not None:
            tracer.uninstall()
    return Phase(clock, k, digest, checker, tracer, error)


def machine_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def select_metrics(measured, declared):
    """The declared metrics, in declared order, checked against the units
    the benchmark measured them in."""
    out = {}
    for m in declared:
        if m["name"] not in measured:
            raise SystemExit(f"metric {m['name']} was not measured")
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"metric {m['name']} measured in {unit}, "
                             f"declared in {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="one unit per phase, traced; print every metric")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evgrid" / "__init__.py").is_file():
        print(f"evgrid sources not found under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"{SPEC} not found", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))

    import numpy as np
    from calibration import CalibratedClock
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace) or args.smoke
    seconds = 0.0 if args.smoke else args.seconds

    clock = CalibratedClock()
    load_s, setup_s = [], []
    for _ in range(SMOKE_SETUP_REPS if args.smoke else SETUP_REPS):
        clock.start()
        t0 = time.perf_counter()
        cfg = workload.load()
        t1 = time.perf_counter()
        workload.setup(cfg)
        t2 = time.perf_counter()
        clock.stop()
        load_s.append((t1 - t0) * clock.factor)
        setup_s.append((t2 - t0) * clock.factor)
    cfg = workload.run_config(cfg)

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        plain = run_phase(workload, cfg, args.seed,
                          seconds / 2 if traced else seconds, work)
        tphase = run_phase(workload, cfg, args.seed, seconds / 2, work,
                           tracer=Tracer()) if traced else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = [plain] + ([tphase] if tphase else [])
    attempted = sum(p.checker.attempted for p in phases)
    failed = sum(p.checker.failed for p in phases)
    problems = [pr for p in phases for pr in p.checker.problems]
    problems += [p.error for p in phases if p.error]
    if tphase and tphase.digest != plain.digest:
        problems.append("traced outputs differ from untraced outputs")

    plain_eps = plain.checker.finished / plain.clock.scaled_s
    decision_ms = np.asarray(plain.checker.decision_s) * 1e3
    measured = {
        "setup_s": (statistics.median(setup_s), "s"),
        "episodes_per_s": (plain_eps, "1/s"),
        "decision_ms_p50": (float(np.percentile(decision_ms, 50)), "ms"),
        "decision_ms_p99": (float(np.percentile(decision_ms, 99)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "failed_frac": (failed / attempted if attempted else 1.0, "fraction"),
        "scenario.load_ms": (statistics.median(load_s) * 1e3, "ms"),
    }
    if tphase:
        tclock = tphase.clock
        traced_eps = tphase.checker.finished / tclock.scaled_s
        measured.update(tphase.tracer.layer_metrics(
            tclock.raw_s, tclock.scaled_s / tclock.raw_s,
            tphase.checker.finished))
        measured["trace.overhead_frac"] = (
            plain_eps / traced_eps - 1.0 if traced_eps else 0.0, "fraction")

    if args.smoke:
        declared = spec["end_to_end"] + spec["per_layer"]
    else:
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = select_metrics(measured, declared)

    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": [p.units for p in phases],
        "wall_s": [p.clock.raw_s for p in phases],
        "raw_episodes_per_s": plain.checker.finished / plain.clock.raw_s,
        "speed_factor": [p.clock.scaled_s / p.clock.raw_s for p in phases],
        "decisions": len(decision_ms),
        "outputs_sha256": plain.digest,
        "problems": problems,
        "machine": machine_info(),
    }))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
