"""Golden regression outputs: byte-exact CSVs from pinned runs.

``tests/golden/`` holds every byte-reproducible CSV (all but
``timing.csv``) of three runs: greedy evaluation on the bundled reduced
and case_a scenarios with seeds 0-2, and a 3-epoch ppolag training run on
reduced with seed 0 (its training curve plus the evaluation of the
trained agent). The test reruns them and compares byte for byte.

Floating-point results are reproducible per platform, not across Python
or numpy versions, so ``manifest.json`` records the versions the files
were made with, and the test fails on any other version. To regenerate
(after checking that the outputs are meant to move), run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
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

GOLDEN = Path(__file__).resolve().parent / "golden"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"
EVAL_SEEDS = (0, 1, 2)
TRAIN_SEED = 0
TRAIN_EPOCHS = 3


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def generate(out):
    """Write the pinned runs' byte-reproducible CSVs under out/<run>/."""
    out = Path(out)
    reduced = load_scenario(evgrid.DATA_DIR / "reduced.yaml")
    case_a = load_scenario(evgrid.DATA_DIR / "case_a.yaml")
    run_eval(reduced, "greedy", EVAL_SEEDS, out / "eval_greedy_reduced")
    run_eval(case_a, "greedy", EVAL_SEEDS, out / "eval_greedy_case_a")
    short = replace(reduced, training=replace(reduced.training,
                                              epochs=TRAIN_EPOCHS))
    run_train(short, "ppolag", [TRAIN_SEED], out / "train_ppolag_reduced")
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


def test_golden_outputs_are_byte_identical(tmp_path):
    made = json.loads((GOLDEN / "manifest.json").read_text())
    now = versions()
    pinned = {k: made[k] for k in now}
    assert pinned == now, (
        f"golden outputs were made with {pinned} and this is {now}; "
        f"floating-point outputs are only byte-reproducible per version, so "
        f"regenerate them with `{REGENERATE}` and review the diff")

    generate(tmp_path)
    assert csv_files(tmp_path) == csv_files(GOLDEN)
    diffs = []
    for name in csv_files(GOLDEN):
        gold, new = GOLDEN / name, tmp_path / name
        if gold.read_bytes() != new.read_bytes():
            diffs.append(f"{name}: {first_difference(gold, new)}")
    assert not diffs, ("outputs moved from tests/golden/ (regenerate with "
                       f"`{REGENERATE}` only if that is intended):\n"
                       + "\n".join(diffs))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        generate(tmp)
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(tmp, GOLDEN)
    manifest = {**versions(),
                "eval_seeds": list(EVAL_SEEDS),
                "train": {"method": "ppolag", "scenario": "reduced",
                          "seed": TRAIN_SEED, "epochs": TRAIN_EPOCHS},
                "regenerate": REGENERATE}
    (GOLDEN / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(csv_files(GOLDEN))} files under {GOLDEN}")


if __name__ == "__main__":
    sys.exit(main())
