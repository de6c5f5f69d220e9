"""Golden regression outputs: byte-exact CSVs from pinned runs.

``tests/golden/`` holds every byte-reproducible CSV (all but
``timing.csv``) of the runs in ``RUNS``: greedy evaluation on the bundled
reduced and case_a scenarios with seeds 0-2, a 3-epoch ppolag training
run on reduced, and a 2-epoch x 3-episode training run on reduced of
every other trainable method (each training run with seed 0: its training
curve plus the evaluation of the trained agent). The opsrl run is long
enough for its forecaster to train, so the augmented state is pinned too.
Each training run's checkpoint is pinned by its SHA-256, which
``manifest.json`` records under ``checkpoints``. The test reruns them all
and compares the CSVs byte for byte and the checkpoints by digest.

Floating-point results are reproducible per platform, not across Python
or numpy versions, so ``manifest.json`` records the versions the files
were made with, and the test fails on any other version. It also lists
every pinned run. To see whether the outputs moved, without writing
anything, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --check

It prints the first difference of every CSV that moved, the old and new
digest of every checkpoint that moved, and how many files moved, and exits 1 when any did or when the versions or runs differ from
the manifest's. To regenerate (after checking that the outputs are meant
to move), run it without ``--check``: it prints the same report, then
overwrites the files and the manifest.
"""

import argparse
import hashlib
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
    """Write the pinned runs' byte-reproducible CSVs under out/<run>/ and
    return the SHA-256 of each checkpoint, by its path under ``out``."""
    out = Path(out)
    for name, run in RUNS.items():
        cfg = load_scenario(evgrid.DATA_DIR / f"{run['scenario']}.yaml")
        if run["verb"] == "eval":
            run_eval(cfg, run["method"], run["seeds"], out / name)
        else:
            cfg = replace(cfg, training=replace(cfg.training,
                                                **run["training"]))
            run_train(cfg, run["method"], run["seeds"], out / name)
    digests = {}
    for path in sorted(out.glob("*/*")):
        if path.suffix == ".bin":
            digests[path.relative_to(out).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
        if path.suffix != ".csv" or path.name == "timing.csv":
            path.unlink()
    return digests


def csv_files(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*.csv"))


def first_difference(a: Path, b: Path):
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    for i, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            return f"line {i}: golden {x!r}, now {y!r}"
    return f"golden has {len(la)} lines, now {len(lb)}"


def manifest():
    return json.loads((GOLDEN / "manifest.json").read_text())


def drift(root, checkpoints):
    """One line per file that differs between the goldens and a
    ``generate`` run: each CSV in tests/golden/ and ``root``, naming its
    first difference, and each checkpoint digest in ``manifest.json`` and
    ``checkpoints``, naming both digests' first 16 digits."""
    root = Path(root)
    lines = []
    for name in sorted(set(csv_files(GOLDEN)) | set(csv_files(root))):
        gold, new = GOLDEN / name, root / name
        if not gold.exists() or not new.exists():
            side = "golden" if gold.exists() else "new"
            lines.append(f"{name}: only in {side}")
        elif gold.read_bytes() != new.read_bytes():
            lines.append(f"{name}: {first_difference(gold, new)}")
    pinned = manifest().get("checkpoints", {})
    for name in sorted(set(pinned) | set(checkpoints)):
        if name not in pinned or name not in checkpoints:
            side = "golden" if name in pinned else "new"
            lines.append(f"{name}: only in {side}")
        elif pinned[name] != checkpoints[name]:
            lines.append(f"{name}: SHA-256 golden {pinned[name][:16]}, now "
                         f"{checkpoints[name][:16]}")
    return lines


def manifest_mismatches():
    """One line per way ``manifest.json`` does not describe this checkout:
    other Python/numpy versions, or other runs than ``RUNS``."""
    made = manifest()
    now = versions()
    pinned = {k: made.get(k) for k in now}
    lines = []
    if pinned != now:
        lines.append(f"golden outputs were made with {pinned} and this is "
                     f"{now}; floating-point outputs are only "
                     f"byte-reproducible per version")
    if made.get("runs") != RUNS:
        lines.append("manifest.json lists other runs than RUNS")
    return lines


def test_every_method_has_a_pinned_run():
    assert {run["method"] for run in RUNS.values()} == set(METHODS)


def test_golden_outputs_are_byte_identical(tmp_path):
    mismatches = manifest_mismatches()
    assert not mismatches, (
        "; ".join(mismatches) + f"; regenerate with `{REGENERATE}` and "
        f"review the diff")

    checkpoints = generate(tmp_path)
    assert csv_files(tmp_path) == csv_files(GOLDEN)
    assert len(checkpoints) == sum(run["verb"] == "train"
                                   for run in RUNS.values())
    diffs = drift(tmp_path, checkpoints)
    assert not diffs, ("outputs moved from tests/golden/ (regenerate with "
                       f"`{REGENERATE}` only if that is intended):\n"
                       + "\n".join(diffs))


def _snapshot(root):
    return {p: p.read_bytes() for p in sorted(Path(root).rglob("*"))
            if p.is_file()}


def _fake_generate(edit):
    """A ``generate`` that copies the golden CSVs, returns the pinned
    checkpoint digests, and first calls ``edit`` on the copy's root and a
    copy of the digests."""
    def fake(out):
        shutil.copytree(GOLDEN, out, dirs_exist_ok=True)
        (Path(out) / "manifest.json").unlink()
        digests = dict(manifest()["checkpoints"])
        edit(Path(out), digests)
        return digests
    return fake


def _drift_one_file(root, checkpoints):
    path = root / "train_ppolag_reduced" / "metrics.csv"
    path.write_text(path.read_text().replace(",", ";", 1))


def test_check_reports_drift_and_writes_nothing(monkeypatch, capsys):
    before = _snapshot(GOLDEN)
    monkeypatch.setattr(sys.modules[__name__], "generate",
                        _fake_generate(_drift_one_file))
    assert main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("train_ppolag_reduced/metrics.csv: line 1: ")
    assert out[-1] == "1 changed files"
    assert _snapshot(GOLDEN) == before


def _move_one_checkpoint(root, checkpoints):
    checkpoints["train_dqn_reduced/checkpoint_dqn_s0.bin"] = "0" * 64


def test_check_reports_a_moved_checkpoint(monkeypatch, capsys):
    before = _snapshot(GOLDEN)
    pinned = manifest()["checkpoints"]
    monkeypatch.setattr(sys.modules[__name__], "generate",
                        _fake_generate(_move_one_checkpoint))
    assert main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    name = "train_dqn_reduced/checkpoint_dqn_s0.bin"
    assert out == [f"{name}: SHA-256 golden {pinned[name][:16]}, now "
                   f"{'0' * 16}", "1 changed files"]
    assert _snapshot(GOLDEN) == before


def test_check_passes_unmoved_outputs_and_fails_other_versions(monkeypatch,
                                                               capsys):
    before = _snapshot(GOLDEN)
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "generate",
                        _fake_generate(lambda root, checkpoints: None))
    assert main(["--check"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 changed files"
    monkeypatch.setattr(module, "versions",
                        lambda: {"python": "0.0", "numpy": "0.0"})
    assert main(["--check"]) == 1
    assert "golden outputs were made with" in capsys.readouterr().out
    assert _snapshot(GOLDEN) == before


def main(argv=None):
    p = argparse.ArgumentParser(description="Regenerate tests/golden/, or "
                                "with --check only report what moved.")
    p.add_argument("--check", action="store_true",
                   help="write nothing; exit 1 on any drift or on other "
                        "versions or runs than the manifest's")
    check = p.parse_args(argv).check
    with tempfile.TemporaryDirectory() as tmp:
        checkpoints = generate(tmp)
        diffs = drift(tmp, checkpoints)
        for line in diffs:
            print(line)
        print(f"{len(diffs)} changed files")
        if check:
            mismatches = manifest_mismatches()
            for line in mismatches:
                print(line)
            return 1 if diffs or mismatches else 0
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(tmp, GOLDEN)
    made = {**versions(), "runs": RUNS, "checkpoints": checkpoints,
            "regenerate": REGENERATE}
    (GOLDEN / "manifest.json").write_text(
        json.dumps(made, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(csv_files(GOLDEN))} files under {GOLDEN}")


if __name__ == "__main__":
    sys.exit(main())
