"""Batch command-line interface: run, sweep-keyrate, calibrate.

Exit codes: 0 success, 1 configuration error (bad flags, bad config file),
2 runtime error.

Every command (and cli.main) first has glibc's malloc keep freed memory in
the process: each simulated block frees buffers of 128 KiB to 1 MiB that
the next block allocates again, and by default glibc unmaps them or trims
them off the heap, and the next block faults them in again, page by page.
It also keeps the --workers pool threads on glibc's main arena: by default
each thread gets an arena (a heap) of its own, and memory one thread frees
is never reused by a block on another.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import errno
import math
import operator
import os
import re
import shutil
import sys
import tempfile
from contextlib import closing, contextmanager
from functools import partial, reduce
from pathlib import Path
from typing import Callable

import numpy as np

from .config import ConfigError, MemoryConfig, RunConfig, parse_config, resolve_output_dir
from .keyrate import (
    DEFAULT_EC_INEFFICIENCY,
    REFERENCE_OPERATING_POINTS,
    key_rate_map,
    secret_key_rate,
)
from .presets import PRESET_NAMES, background_mean_for_sbr, preset_config
from .reports import (
    PULSE_CSV_HEADER,
    block_outputs,
    boundary_csv_lines,
    histogram_csv_lines,
    keyrate_csv_lines,
    summary_text,
    write_lines,
)
from .simulation import BlockTotals, DoubleClickPolicy, map_blocks


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as configuration errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A separate value that starts with "-" and a digit, such as the
        # range "-1:2", is a value, not an option (argparse's own pattern
        # admits only plain negative numbers).
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="memqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Simulate one run and write CSVs plus a summary.")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--preset", choices=PRESET_NAMES, help="named operating regime")
    which.add_argument("--config", type=Path, help="INI-style config file")
    run.add_argument("--seed", type=int, default=None, help="64-bit simulation seed")
    run.add_argument("--pulses", type=int, default=None, help="number of pulses")
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="blocks simulated at once, one thread each, at most one per usable CPU",
    )
    run.add_argument("--outdir", default=None, help="output directory")

    sweep = sub.add_parser(
        "sweep-keyrate", help="Evaluate the key rate on a (mu, qber) grid."
    )
    sweep.add_argument("--mu-range", required=True, help="MIN:MAX (or a single value)")
    sweep.add_argument("--qber-range", required=True, help="MIN:MAX (or a single value)")
    sweep.add_argument("--resolution", default="50x50", help="ROWSxCOLS, e.g. 50x50")
    sweep.add_argument(
        "--f",
        dest="ec_inefficiency",
        type=float,
        default=DEFAULT_EC_INEFFICIENCY,
        help="error-correction inefficiency factor",
    )
    sweep.add_argument("--tol", type=float, default=1e-6, help="boundary solver tolerance")
    sweep.add_argument("--outdir", default=None, help="output directory")

    cal = sub.add_parser(
        "calibrate", help="Background level that produces a target SBR."
    )
    cal.add_argument("--target-sbr", type=float, required=True)
    cal.add_argument("--mu", type=float, required=True, help="mean at the memory input")
    efficiency = cal.add_mutually_exclusive_group()
    efficiency.add_argument(
        "--retrieval-efficiency",
        type=float,
        default=MemoryConfig.retrieval_efficiency,
        help="override the assumed retrieval efficiency (default %(default)s)",
    )
    efficiency.add_argument(
        "--config", type=Path, help="take retrieval efficiency from a config"
    )
    return parser


def _one_or_two(text: str, sep: str, parse: Callable) -> tuple:
    """(a, a) for one value, (a, b) for two around sep; ValueError otherwise."""
    parts = text.split(sep)
    if len(parts) > 2:
        raise ValueError(f"more than two values in {text!r}")
    return parse(parts[0]), parse(parts[-1])


def _parse_range(text: str, name: str) -> tuple[float, float]:
    try:
        lo, hi = _one_or_two(text, ":", float)
    except ValueError:
        raise ConfigError(f"{name} must be MIN:MAX or a single number, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{name} bounds must be finite, got {text!r}")
    if hi < lo:
        raise ConfigError(f"{name} is inverted: {text!r}")
    return lo, hi


def _parse_resolution(text: str) -> tuple[int, int]:
    try:
        rows, cols = _one_or_two(text.lower(), "x", int)
        if rows < 1 or cols < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"resolution must be ROWSxCOLS with positive counts, got {text!r}")
    return rows, cols


def _axis(lo: float, hi: float, n: int, name: str) -> np.ndarray:
    if n == 1:
        if hi != lo:
            raise ConfigError(
                f"{name}: a 1-point axis needs a degenerate range, got {lo}:{hi}"
            )
        return np.array([lo])
    axis = np.linspace(lo, hi, n)
    # A range a few floats wide repeats some of the n points.
    if not np.all(np.diff(axis) > 0):
        raise ConfigError(f"{name}: range {lo}:{hi} cannot hold {n} distinct points")
    return axis


def _read_config(path: Path) -> RunConfig:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return parse_config(text)


def _load_run_config(args) -> RunConfig:
    if args.preset is not None:
        config = preset_config(args.preset)
    else:
        config = _read_config(args.config)
    try:
        if args.pulses is not None:
            source = dataclasses.replace(config.source, n_pulses=args.pulses)
            config = dataclasses.replace(config, source=source)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return config


@contextmanager
def _output_set(outdir: Path, names: tuple[str, ...]):
    """Yield {name: path} to write a set of output files at; they replace
    outdir/name only when the block completes, so a failure leaves none.

    Each path is first checked not to be a directory, and outdir's nearest
    existing ancestor (outdir itself when it exists) to be one. The files
    are staged in a temporary directory in that ancestor (the same file
    system, so os.replace moves each file whole); outdir is created only on
    success, and the staging directory is removed whatever happens: on
    success it is empty.
    """
    for name in names:
        if (outdir / name).is_dir():
            path = str(outdir / name)
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)
    base = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not base.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "output path is not a directory", str(base))
    stage = Path(tempfile.mkdtemp(prefix=".memqkd-", dir=base))
    try:
        yield {name: stage / name for name in names}
        outdir.mkdir(parents=True, exist_ok=True)
        for name in names:
            os.replace(stage / name, outdir / name)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    stage.rmdir()


def _write_rows(out, block) -> BlockTotals:
    """Write a reduced block's rows to out and return its totals only, so
    that no block's rows are held past their write."""
    rows, totals = block
    out.writelines(rows)
    return totals


def _cmd_run(args) -> int:
    config = _load_run_config(args)
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    outdir = resolve_output_dir(args.outdir, config)
    names = ("pulses.csv", "histogram.csv", "summary.txt")
    with _output_set(outdir, names) as paths:
        blocks = map_blocks(
            config, args.workers, partial(block_outputs, config, DoubleClickPolicy.RANDOM)
        )
        with closing(blocks), paths["pulses.csv"].open("wb") as out:
            out.write(PULSE_CSV_HEADER.encode() + b"\n")
            # Rows are written in block order; the totals are summed over
            # the blocks (there is always at least one).
            totals = reduce(operator.add, map(partial(_write_rows, out), blocks))
        write_lines(paths["histogram.csv"], histogram_csv_lines(totals.histogram))
        summary = summary_text(config, totals)
        paths["summary.txt"].write_text(summary)
    sys.stdout.write(summary)
    print(f"wrote {', '.join(str(outdir / name) for name in names)}")
    return 0


def _cmd_sweep(args) -> int:
    mu_lo, mu_hi = _parse_range(args.mu_range, "--mu-range")
    q_lo, q_hi = _parse_range(args.qber_range, "--qber-range")
    rows, cols = _parse_resolution(args.resolution)
    mu_axis = _axis(mu_lo, mu_hi, rows, "--mu-range")
    qber_axis = _axis(q_lo, q_hi, cols, "--qber-range")
    try:
        grid = key_rate_map(mu_axis, qber_axis, args.ec_inefficiency, args.tol)
    except ValueError as exc:
        raise ConfigError(str(exc))

    outdir = resolve_output_dir(args.outdir, RunConfig())
    names = ("keyrate_map.csv", "keyrate_boundary.csv")
    with _output_set(outdir, names) as paths:
        write_lines(paths["keyrate_map.csv"], keyrate_csv_lines(grid))
        write_lines(paths["keyrate_boundary.csv"], boundary_csv_lines(grid))

    def report_point(mu: float, qber: float, label: str) -> None:
        rate = secret_key_rate(mu, qber, qber, args.ec_inefficiency)
        region = "inside positive region" if rate > 0 else "outside positive region"
        print(f"{label} mu={mu:g} qber={qber:g}: rate={rate:.6f} ({region})")

    if mu_axis.size == 1 and qber_axis.size == 1:
        report_point(float(mu_axis[0]), float(qber_axis[0]), "point query")
    for mu, qber in REFERENCE_OPERATING_POINTS:
        if mu_lo <= mu <= mu_hi and q_lo <= qber <= q_hi:
            report_point(mu, qber, "operating point")
    print(f"wrote {', '.join(str(outdir / name) for name in names)}")
    return 0


def _cmd_calibrate(args) -> int:
    efficiency = args.retrieval_efficiency
    if args.config is not None:
        efficiency = _read_config(args.config).memory.retrieval_efficiency
    try:
        background = background_mean_for_sbr(args.target_sbr, args.mu, efficiency)
    except ValueError as exc:
        raise ConfigError(str(exc))
    print(f"# assuming retrieval_efficiency = {efficiency!r}")
    print("[memory]")
    print(f"background_mean = {background!r}")
    return 0


#: mallopt's M_TRIM_THRESHOLD, M_MMAP_THRESHOLD and M_ARENA_MAX (glibc's malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _keep_freed_memory() -> None:
    """Keep freed memory in the process: a 1 GiB trim threshold and a 32 MiB
    mmap threshold (glibc's maximum); either alone faults more than neither.
    One arena, so pool threads reuse what every block frees (with an arena
    per thread, a 10^5-pulse two-worker run faulted in about twice the pages
    of a one-worker run). glibc applies this only to arenas made after the
    call, so it comes before any pool starts.
    Without mallopt (not glibc), nothing is set."""
    try:
        # Windows has no dlopen(NULL): CDLL(None) raises TypeError there.
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 2**30)
    mallopt(_M_MMAP_THRESHOLD, 2**25)
    mallopt(_M_ARENA_MAX, 1)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep-keyrate":
            return _cmd_sweep(args)
        return _cmd_calibrate(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one has no message.
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
