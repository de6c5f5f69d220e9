"""Golden regression outputs: byte-exact CSVs from pinned runs.

``tests/golden/`` holds every byte-reproducible CSV (all but
``timing.csv``) of the runs in ``RUNS``: greedy evaluation on the bundled
reduced and case_a scenarios with seeds 0-2, a 3-epoch ppolag training
run on reduced, and a 2-epoch x 3-episode training run on reduced of
every other trainable method (each training run with seed 0: its training
curve plus the evaluation of the trained agent). The opsrl run is long
enough for its forecaster to train, so the augmented state is pinned too.
The test reruns them all and compares byte for byte.

Floating-point results are reproducible per platform, not across Python
or numpy versions, so ``manifest.json`` records the versions the files
were made with, and the test fails on any other version. It also lists
every pinned run. To regenerate (after checking that the outputs are
meant to move), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py

It prints the first difference of every CSV it changes, and how many
changed, before it overwrites them.
"""

import json
import platform
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import evgrid
from evgrid.harness import run_eval, run_train
from evgrid.scenario import load_scenario
from evgrid.srl import METHODS

GOLDEN = Path(__file__).resolve().parent / "golden"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"
EVAL_SEEDS = [0, 1, 2]
TRAIN_SEEDS = [0]
SHORT_TRAINING = {"epochs": 2, "episodes_per_epoch": 3}


def _run(verb, method, scenario, seeds, training=None):
    return {"verb": verb, "method": method, "scenario": scenario,
            "seeds": seeds, "training": training or {}}


# One output directory per pinned run; "training" overrides the scenario's
# training settings.
RUNS = {
    "eval_greedy_reduced": _run("eval", "greedy", "reduced", EVAL_SEEDS),
    "eval_greedy_case_a": _run("eval", "greedy", "case_a", EVAL_SEEDS),
    "train_ppolag_reduced": _run("train", "ppolag", "reduced", TRAIN_SEEDS,
                                 {"epochs": 3}),
    **{f"train_{m}_reduced": _run("train", m, "reduced", TRAIN_SEEDS,
                                  SHORT_TRAINING)
       for m in ("opsrl", "ppo", "ppopenalty", "dqn", "reinforce",
                 "actorcritic")},
}


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def generate(out):
    """Write the pinned runs' byte-reproducible CSVs under out/<run>/."""
    out = Path(out)
    for name, run in RUNS.items():
        cfg = load_scenario(evgrid.DATA_DIR / f"{run['scenario']}.yaml")
        if run["verb"] == "eval":
            run_eval(cfg, run["method"], run["seeds"], out / name)
        else:
            cfg = replace(cfg, training=replace(cfg.training,
                                                **run["training"]))
            run_train(cfg, run["method"], run["seeds"], out / name)
    for path in out.glob("*/*"):
        if path.suffix != ".csv" or path.name == "timing.csv":
            path.unlink()


def csv_files(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*.csv"))


def first_difference(a: Path, b: Path):
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    for i, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            return f"line {i}: golden {x!r}, now {y!r}"
    return f"golden has {len(la)} lines, now {len(lb)}"


def drift(root):
    """One line per CSV that differs between tests/golden/ and ``root``,
    naming its first difference."""
    root = Path(root)
    lines = []
    for name in sorted(set(csv_files(GOLDEN)) | set(csv_files(root))):
        gold, new = GOLDEN / name, root / name
        if not gold.exists() or not new.exists():
            side = "golden" if gold.exists() else "new"
            lines.append(f"{name}: only in {side}")
        elif gold.read_bytes() != new.read_bytes():
            lines.append(f"{name}: {first_difference(gold, new)}")
    return lines


def test_every_method_has_a_pinned_run():
    assert {run["method"] for run in RUNS.values()} == set(METHODS)


def test_golden_outputs_are_byte_identical(tmp_path):
    made = json.loads((GOLDEN / "manifest.json").read_text())
    now = versions()
    pinned = {k: made[k] for k in now}
    assert pinned == now, (
        f"golden outputs were made with {pinned} and this is {now}; "
        f"floating-point outputs are only byte-reproducible per version, so "
        f"regenerate them with `{REGENERATE}` and review the diff")
    assert made["runs"] == RUNS, (
        f"manifest.json lists other runs than RUNS; regenerate with "
        f"`{REGENERATE}`")

    generate(tmp_path)
    assert csv_files(tmp_path) == csv_files(GOLDEN)
    diffs = drift(tmp_path)
    assert not diffs, ("outputs moved from tests/golden/ (regenerate with "
                       f"`{REGENERATE}` only if that is intended):\n"
                       + "\n".join(diffs))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        generate(tmp)
        diffs = drift(tmp)
        for line in diffs:
            print(line)
        print(f"{len(diffs)} changed files")
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(tmp, GOLDEN)
    manifest = {**versions(), "runs": RUNS, "regenerate": REGENERATE}
    (GOLDEN / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(csv_files(GOLDEN))} files under {GOLDEN}")


if __name__ == "__main__":
    sys.exit(main())
