"""Which source mutants Tier-1 catches without its golden digests.

    python tests/mutants.py

The digests catch any change to an output, so they say nothing about which
tests check an output's meaning. For each mutant in MUTANTS this script
copies src/, tests/, pyproject.toml and README.md into a temporary
directory, makes the mutant's one edit there, and runs Tier-1 in that copy
with the three golden-digest tests deselected. It prints how many tests
each mutant fails, lists the mutants that no test catches, and exits 1 if
there are any (2 if a mutant's text is not found exactly once, or if the
unmutated copy fails). The unmutated copy runs first, so a broken
environment does not pass for caught mutants.

pytest does not collect this file (it is not named test_*.py). Each mutant
takes one Tier-1 run, so the whole script takes several minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The tests that compare whole outputs with recorded sha256 digests.
DIGEST_TESTS = (
    "tests/test_cli.py::test_run_outputs_match_golden_digests",
    "tests/test_cli.py::test_bright_run_pulses_csv_matches_golden_digest",
    "tests/test_cli.py::test_sweep_outputs_match_golden_digests",
)

#: (name, file under src/memqkd, text, replacement): nine physics mutants,
#: then four output mutants.
MUTANTS = (
    (
        "one detector's background at q/1.8",
        "simulation.py",
        "c1 += rng.poisson(background_mean / 2.0, len(state))",
        "c1 += rng.poisson(background_mean / 1.8, len(state))",
    ),
    (
        "the lost mean ignoring the leak",
        "simulation.py",
        "mu_lost = float(mu_eff.sum()) * (1.0 - leak - p_retrieve)",
        "mu_lost = float(mu_eff.sum()) * (1.0 - p_retrieve)",
    ),
    (
        "ROI clicks spread over the leak window",
        "simulation.py",
        "_spread(n_roi, roi, memory.roi_width_ns, rng)",
        "_spread(n_roi, leak, pulse_width, rng)",
    ),
    (
        "H's bit-0 probability scaled by 0.97",
        "simulation.py",
        "1.0 - _BIT_OF_STATE[:, None], 0.5\n)\n",
        "1.0 - _BIT_OF_STATE[:, None], 0.5\n)\n_P0[0] *= 0.97\n",
    ),
    (
        "D's key bit 1 in the encoding table",
        "simulation.py",
        '("D", 1, 0)',
        '("D", 1, 1)',
    ),
    (
        "ties always given bit 0",
        "simulation.py",
        "bit[tie] = rng.integers(2, size=np.count_nonzero(tie), dtype=np.int8)",
        "bit[tie] = 0",
    ),
    (
        "leak-window hits +10%",
        "simulation.py",
        "poisson(_leak_hits_mean(config), m)",
        "poisson(_leak_hits_mean(config) * 1.1, m)",
    ),
    (
        "leaked photons +5%",
        "simulation.py",
        "mu = np.multiply(mu_eff, leak)",
        "mu = np.multiply(mu_eff, leak * 1.05)",
    ),
    (
        "other background +5%",
        "simulation.py",
        "rng.poisson(memory.effective_background * rest / memory.roi_width_ns * n_pulses)",
        "rng.poisson(memory.effective_background * rest / memory.roi_width_ns * n_pulses * 1.05)",
    ),
    (
        "summary.txt printing errors_z from n_err_x",
        "reports.py",
        'f"errors_z = {sample.n_err_z}"',
        'f"errors_z = {sample.n_err_x}"',
    ),
    (
        "summary.txt printing photons_lost from the leaked count",
        "reports.py",
        'f"photons_lost = {photons.lost}"',
        'f"photons_lost = {photons.leaked}"',
    ),
    (
        "pulses.csv clicks_d0 and clicks_d1 swapped",
        "reports.py",
        "_int_field(result.c0),\n        _int_field(result.c1),",
        "_int_field(result.c1),\n        _int_field(result.c0),",
    ),
    (
        "histogram.csv bin starts shifted by one bin",
        "reports.py",
        "starts = hist.bin_starts\n",
        "starts = hist.bin_starts + hist.bin_width\n",
    ),
)


def copy_tree(into: Path) -> None:
    """Copy what Tier-1 reads into an empty directory."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, into / name)


def tier1(tree: Path) -> tuple[int, str, list[str]]:
    """Run Tier-1 in tree without the digest tests: (pytest's exit code, its
    summary line, the failing test ids). No bytecode is written, so a
    restored file is never read from a mutant's cache."""
    deselect = [arg for test in DIGEST_TESTS for arg in ("--deselect", test)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "-o", "addopts=", *deselect],
            cwd=tree, env=env, capture_output=True, text=True, timeout=1800,
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        return -1, "timed out", []
    lines = run.stdout.splitlines() or [""]
    failing = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in lines
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return run.returncode, lines[-1].strip("= "), failing


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="memqkd-mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        code, summary, _ = tier1(tree)
        if code:
            print(f"the unmutated copy does not pass: {summary}")
            return 2
        survivors = []
        for name, file, text, replacement in MUTANTS:
            path = tree / "src" / "memqkd" / file
            original = path.read_text()
            if original.count(text) != 1:
                print(f"{name}: its text is not found exactly once in src/memqkd/{file}")
                return 2
            path.write_text(original.replace(text, replacement))
            try:
                code, summary, failing = tier1(tree)
            finally:
                path.write_text(original)
            shown = ", ".join(test.split("::")[-1] for test in failing[:3])
            print(f"{name}: {summary}" + (f" ({shown}, ...)" if shown else ""), flush=True)
            if not code:
                survivors.append(name)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survive", *survivors, sep="\n  ")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
