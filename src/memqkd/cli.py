"""Batch command-line interface: run, sweep-keyrate, calibrate.

Exit codes: 0 success, 1 configuration error (bad flags, bad config file),
2 runtime error.

Every command (and cli.main) first has glibc's malloc keep freed memory in
the process: each simulated block frees buffers of 128 KiB to 1 MiB that
the next block allocates again, and by default glibc unmaps them or trims
them off the heap, and the next block faults them in again, page by page.
It also keeps the --workers block threads (one per block, at most one per
worker at once) on glibc's main arena: by default each thread gets an
arena (a heap) of its own, and memory one thread frees is never reused by
a block on another.
"""

from __future__ import annotations

import ctypes
import dataclasses
import errno
import getopt
import math
import operator
import os
import shutil
import sys
import tempfile
from contextlib import closing, contextmanager
from functools import partial, reduce
from pathlib import Path
from types import SimpleNamespace
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
    _csv_rows,
    block_outputs,
    boundary_csv_lines,
    histogram_csv_lines,
    keyrate_csv_lines,
    summary_text,
    write_lines,
)
from .simulation import BlockTotals, draw_histogram, map_blocks


def _preset(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r} (choose from {', '.join(PRESET_NAMES)})")
    return name


#: Each command's help line and flags, which the parser and the usage text
#: both read. A flag is (name, converter, default, required, excludes, help):
#: excludes names the one flag it may not be given with, and a required flag
#: with an excluded one needs one of the two. A flag's value is the
#: attribute named after it (--mu-range: mu_range). A converter's ValueError
#: is a configuration error that names the flag.
# fmt: off
_COMMANDS = {
    "run": ("Simulate one run and write CSVs plus a summary.", (
        ("--preset", _preset, None, True, "--config",
         "named operating regime, one of\n" + ", ".join(PRESET_NAMES)),
        ("--config", Path, None, True, "--preset", "INI-style config file"),
        ("--seed", int, None, False, None, "64-bit simulation seed"),
        ("--pulses", int, None, False, None, "number of pulses"),
        ("--workers", int, 1, False, None,
         "blocks simulated at once, one thread each, at most one per usable CPU"),
        ("--outdir", str, None, False, None, "output directory"),
    )),
    "sweep-keyrate": ("Evaluate the key rate on a (mu, qber) grid.", (
        ("--mu-range", str, None, True, None, "MIN:MAX (or a single value)"),
        ("--qber-range", str, None, True, None, "MIN:MAX (or a single value)"),
        ("--resolution", str, "50x50", False, None, "ROWSxCOLS, e.g. 50x50"),
        ("--f", float, DEFAULT_EC_INEFFICIENCY, False, None,
         "error-correction inefficiency factor"),
        ("--tol", float, 1e-6, False, None, "boundary solver tolerance"),
        ("--outdir", str, None, False, None, "output directory"),
    )),
    "calibrate": ("Background level that produces a target SBR.", (
        ("--target-sbr", float, None, True, None, "signal-to-background ratio to reach"),
        ("--mu", float, None, True, None, "mean at the memory input"),
        ("--retrieval-efficiency", float, MemoryConfig.retrieval_efficiency, False, "--config",
         "override the assumed retrieval efficiency"),
        ("--config", Path, None, False, "--retrieval-efficiency",
         "take retrieval efficiency from a config"),
    )),
}
# fmt: on


def _help(command: str | None) -> str:
    """Usage of memqkd (command None) or of one command, from _COMMANDS."""
    if command is None:
        lines = ["usage: memqkd COMMAND [FLAGS]", "", "commands:"]
        lines += [f"  {name:15}{summary}" for name, (summary, _) in _COMMANDS.items()]
        lines += [
            "",
            "'memqkd COMMAND --help' lists a command's flags. Exit codes: 0 success,",
            "1 configuration error (bad flags, bad config file), 2 runtime error.",
        ]
        return "\n".join(lines)
    summary, flags = _COMMANDS[command]
    lines = [f"usage: memqkd {command} [FLAGS]", "", summary, "", "flags:"]
    for name, _, default, required, excludes, text in flags:
        notes = []
        if required:
            notes.append(f"this or {excludes} is required" if excludes else "required")
        elif excludes:
            notes.append(f"not with {excludes}")
        if default is not None:
            notes.append(f"default {default}")
        if notes:
            text += f"\n({'; '.join(notes)})"
        lines.append(f"  {name:24}{text}".replace("\n", "\n" + " " * 26))
    lines += [f"  {'-h, --help':24}print this help and exit", ""]
    lines.append("Give values as --flag VALUE or --flag=VALUE; a unique prefix names a flag.")
    return "\n".join(lines)


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command line as a namespace of the command and its flags' values,
    or None when -h/--help asked for the usage, which is then printed."""
    try:
        top, rest = getopt.getopt(argv, "h", ["help"])
        if top:
            print(_help(None))
            return None
        if not rest:
            raise ConfigError(f"a command is required: {', '.join(_COMMANDS)}")
        command, *rest = rest
        if command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
        flags = _COMMANDS[command][1]
        names = [flag[0][2:] + "=" for flag in flags]
        opts, stray = getopt.gnu_getopt(rest, "h", ["help", *names])
    except getopt.GetoptError as exc:
        raise ConfigError(str(exc))
    # The last of a repeated flag wins.
    given = dict(opts)
    if "-h" in given or "--help" in given:
        print(_help(command))
        return None
    if stray:
        raise ConfigError(f"unexpected argument {stray[0]!r}")
    args = SimpleNamespace(command=command)
    for name, convert, default, required, excludes, _ in flags:
        if name in given and excludes in given:
            raise ConfigError(f"{name} cannot be given with {excludes}")
        if required and name not in given and excludes not in given:
            raise ConfigError(f"{name}{f' or {excludes}' if excludes else ''} is required")
        value = default
        if name in given:
            try:
                value = convert(given[name])
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}")
        setattr(args, name[2:].replace("-", "_"), value)
    return args


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
    """Make a reduced block's pulses.csv rows from its fields and write each
    chunk of them to out as it is made (_csv_rows); return the block's totals
    only, so that neither its fields nor its rows are held past their write."""
    fields, totals = block
    out.writelines(_csv_rows(fields))
    return totals


def _cmd_run(args) -> int:
    config = _load_run_config(args)
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    outdir = resolve_output_dir(args.outdir, config)
    names = ("pulses.csv", "histogram.csv", "summary.txt")
    with _output_set(outdir, names) as paths:
        blocks = map_blocks(config, args.workers, partial(block_outputs, config))
        with closing(blocks), paths["pulses.csv"].open("wb") as out:
            out.write(PULSE_CSV_HEADER.encode() + b"\n")
            # Rows are written in block order; the totals are summed over
            # the blocks (there is always at least one).
            totals = reduce(operator.add, map(partial(_write_rows, out), blocks))
        histogram = draw_histogram(config, totals)
        write_lines(paths["histogram.csv"], histogram_csv_lines(histogram))
        summary = summary_text(config, totals, histogram)
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
        grid = key_rate_map(mu_axis, qber_axis, args.f, args.tol)
    except ValueError as exc:
        raise ConfigError(str(exc))

    outdir = resolve_output_dir(args.outdir, RunConfig())
    names = ("keyrate_map.csv", "keyrate_boundary.csv")
    with _output_set(outdir, names) as paths:
        write_lines(paths["keyrate_map.csv"], keyrate_csv_lines(grid))
        write_lines(paths["keyrate_boundary.csv"], boundary_csv_lines(grid))

    def report_point(mu: float, qber: float, label: str) -> None:
        rate = secret_key_rate(mu, qber, qber, args.f)
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
    One arena, so each block's thread reuses what every earlier block freed
    (with an arena per thread, a 10^5-pulse two-worker run faulted in about
    twice the pages of a one-worker run). glibc applies this only to arenas
    made after the call, so it comes before any block thread starts.
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
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
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
