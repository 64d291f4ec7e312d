"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: python3 benchmarks/child.py SPAWNED PRESET PULSES SEED '<json spec>'

SPAWNED is the parent's ``time.perf_counter()`` just before it started this
interpreter (a system-wide monotonic clock on Linux), so the set-up time
includes interpreter start-up. PRESET, PULSES and SEED give the workload's
config; PRESET is ``-`` for a sweep, which builds the default config. They
are plain arguments so that nothing but ``time`` and ``sys`` is imported
before memqkd: the harness's own imports would otherwise load modules
memqkd shares with it, and their import time would leave ``setup_s``.

The spec names the CLI arguments and the mode:

- ``setup``: import memqkd and build the config, nothing else.
- ``plain``: set up, then one ``memqkd.cli.main(argv)`` call, untraced,
  with the host-speed probe running.
- ``trace``: the same call with the tracer's hooks installed.
- ``memory``: the same call under ``tracemalloc``, measuring what
  ``run_experiment`` allocates and retains; never timed.

The last line of standard output is ``BENCH_CHILD <json report>``. The
call's own output (the run summary) goes to standard output before it.
"""

import time

BOOT = time.perf_counter()

# Loaded by interpreter start-up already, so importing them costs nothing.
import marshal  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

REPORT_PREFIX = "BENCH_CHILD "
#: Probe samples taken before memqkd is imported, to scale the set-up time.
SETUP_PROBE_SAMPLES = 10


def _median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    return ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


_HERE = os.path.dirname(os.path.abspath(__file__))
#: A fixed module body: defining functions and classes is most of what
#: executing an imported module does.
_MODULE_BLOB = marshal.dumps(
    compile(
        "".join(f"def f{i}(a, b=1, *c, **d):\n    return a + b + len(c)\n" for i in range(30))
        + "".join(f"class K{i}:\n    x = {i}\n    def m(self):\n        return self.x\n" for i in range(5)),
        "<probe>",
        "exec",
    )
)


def load_module_like() -> None:
    """Set-up probe kernel: the work of an import, importing nothing.

    It stats and lists this directory, as the import system's path finder
    does, then unmarshals and runs the fixed module body, as loading a
    cached module does.
    """
    for _ in range(10):
        os.stat(_HERE)
        os.listdir(_HERE)
    exec(marshal.loads(_MODULE_BLOB), {"__name__": "probe"})


def open_streams() -> None:
    """Call probe kernel: seeded numpy streams, as the program opens per pulse."""
    import numpy as np

    for i in range(5):
        np.random.default_rng([7, i]).uniform(0.0, 1.0, 3)


class SpeedProbe:
    """Host speed, from a fixed kernel timed warm: open_streams for the
    call, load_module_like for the set-up.

    The host this benchmark was tuned on slowed every process by up to 1.7x,
    in phases of seconds to minutes, and the phases slowed different code by
    different factors. A repetition's time is the time integral of that
    slowness, so it is scaled by the mean probe sample taken at even
    intervals during it.

    The kernel is not memqkd code, so a change to the program cannot change
    it. A sample runs it WARM_UP + RUNS times back to back and keeps the
    median of the last RUNS; the median drops a run the scheduler
    interrupted. The warm-up runs bring the kernel back into the caches and
    its freed blocks back to the allocator's free lists, so a sample does
    not depend on what the program left there: taken between stretches of a
    64 MiB random gather, of Python object walks, of heap fragmentation and
    of a small arithmetic loop, open_streams samples differed by at most 2%
    (a cold first run differed by 12%).

    Of the kernels tried on the tuning host (an arithmetic loop, a walk over
    small objects, small numpy ufunc calls, open_streams), open_streams
    followed the program's time most closely on every workload: the
    repetitions' times divided by it spread by 4-9% (interquartile range
    over median) where raw times spread by 29-40%. The set-up, mostly file
    system calls, unmarshalling and module bodies, slowed less than Python
    loops did, and load_module_like followed it best.

    During the call, a SIGALRM handler takes a sample every INTERVAL_S; it
    runs only between bytecodes, so the samples are spread over the call as
    far as the program allows, and their time is taken out of the call's
    time. BATCH samples are also taken before the call and after it, so
    that there are always samples.
    """

    INTERVAL_S = 0.05
    BATCH = 3
    WARM_UP = 2
    RUNS = 5

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.samples: list[float] = []
        self.in_call_s = 0.0

    def _timed_kernel(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def sample(self) -> float:
        runs = [self._timed_kernel() for _ in range(self.WARM_UP + self.RUNS)]
        return _median(runs[self.WARM_UP :])

    def batch(self, n: int = BATCH) -> None:
        self.samples.extend(self.sample() for _ in range(n))

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.sample())
        self.in_call_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        import signal

        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


#: Hooks of every traced pass: (module, attribute looked up, metric, kind).
HOOKS = (
    ("memqkd.cli", "main", "cli.main", "span"),
    ("memqkd.cli", "run_experiment", "simulation.run_experiment", "span"),
    ("memqkd.cli", "write_lines", "reports", "file_span"),
    ("memqkd.cli", "summary_text", "reports.summary_text", "span"),
    ("memqkd.cli", "key_rate_map", "keyrate.key_rate_map", "span"),
    ("memqkd.reports", "bin_clicks", "histogram.bin_clicks", "timed"),
    ("memqkd.reports", "sbr_from_histogram", "histogram.sbr_from_histogram", "timed"),
    ("memqkd.keyrate", "positive_rate_boundary", "keyrate.positive_rate_boundary", "timed"),
    ("memqkd.keyrate", "secret_key_rate", "keyrate.secret_key_rate", "count"),
    ("memqkd.cli", "secret_key_rate", "keyrate.secret_key_rate", "count"),
)

#: Per-pulse hooks, called from run_experiment's chunk loop. They are only
#: installed for single-process runs: in a multi-worker run the calls happen
#: in pool workers, whose counters never come back to this process.
PER_PULSE_HOOKS = (
    ("memqkd.simulation", "pulse_rng", "simulation.pulse_rng", "timed"),
    (
        "memqkd.simulation",
        "sample_arriving_photons",
        "simulation.sample_arriving_photons",
        "timed",
    ),
    ("memqkd.simulation", "apply_memory", "simulation.apply_memory", "timed"),
    ("memqkd.simulation", "measure", "simulation.measure", "timed"),
)


def _capture_run_result(cli, captured: dict, measure_memory: bool) -> None:
    """Keep the last run_experiment result; optionally measure its allocations."""
    import tracemalloc

    run_experiment = getattr(cli, "run_experiment", None)
    if run_experiment is None:
        return

    def capturing(*args, **kwargs):
        if measure_memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        result = run_experiment(*args, **kwargs)
        if measure_memory:
            current, peak = tracemalloc.get_traced_memory()
            captured["retained_bytes"] = current - base
            captured["peak_traced_bytes"] = peak - base
        captured["result"] = result
        return result

    cli.run_experiment = capturing


def _replay_sift(simulation, result) -> float | None:
    """Time sift_and_estimate on the run's own records, if both still exist."""
    sift = getattr(simulation, "sift_and_estimate", None)
    if sift is None or result is None:
        return None
    try:
        start = time.perf_counter()
        sift(result.clicks, result.pulses)
        return time.perf_counter() - start
    except (AttributeError, TypeError, ValueError):
        return None


def _peak_rss_mib() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str]) -> dict:
    spawned = float(argv[0])
    preset, pulses, seed = argv[1:4]
    setup_probe = SpeedProbe(load_module_like)
    setup_probe.batch(SETUP_PROBE_SAMPLES)
    start = time.perf_counter()
    import memqkd
    import memqkd.cli as cli

    imported = time.perf_counter()
    if preset == "-":
        memqkd.RunConfig()
    else:
        memqkd.preset_config(preset, n_pulses=int(pulses), seed=int(seed))
    configured = time.perf_counter()

    import json
    from pathlib import Path

    spec = json.loads(argv[4])
    src = Path(spec["src"]).resolve()
    if Path(memqkd.__file__).resolve().parent.parent != src:
        raise SystemExit(f"memqkd imported from {memqkd.__file__}, not from {src}")
    report = {
        # From the parent's spawn to the end of the import, less the probe.
        "import_s": (BOOT - spawned) + (imported - start),
        "config_s": configured - imported,
        "setup_probe_s": setup_probe.mean_s(),
    }

    mode = spec["mode"]
    if mode == "setup":
        return report
    captured: dict = {}
    tracer = None
    if mode in ("trace", "memory"):
        _capture_run_result(cli, captured, measure_memory=mode == "memory")
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(HOOKS + (PER_PULSE_HOOKS if spec["per_pulse"] else ()))
    if mode == "memory":
        import tracemalloc

        tracemalloc.start()

    if mode == "plain":
        probe = SpeedProbe(open_streams)
        probe.batch()
        with probe:
            call_start = time.perf_counter()
            rc = cli.main(spec["argv"])
            report["main_s"] = time.perf_counter() - call_start - probe.in_call_s
        probe.batch()
        report["probe_s"] = probe.mean_s()
    else:
        call_start = time.perf_counter()
        rc = cli.main(spec["argv"])
        report["main_s"] = time.perf_counter() - call_start
    report["rc"] = rc
    sys.stdout.flush()

    if mode == "memory":
        import pickle

        tracemalloc.stop()
        report["retained_bytes"] = captured.get("retained_bytes", 0)
        report["peak_traced_bytes"] = captured.get("peak_traced_bytes", 0)
        try:
            pickled = pickle.dumps(captured.get("result"), pickle.HIGHEST_PROTOCOL)
            report["result_pickle_bytes"] = len(pickled)
        except (pickle.PicklingError, TypeError, AttributeError):
            report["result_pickle_bytes"] = 0
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.report()
        simulation = sys.modules.get("memqkd.simulation")
        report["sift_s"] = _replay_sift(simulation, captured.get("result"))
    report["peak_rss_mib"] = _peak_rss_mib()
    return report


if __name__ == "__main__":
    report = main(sys.argv[1:])
    import json

    print(REPORT_PREFIX + json.dumps(report))
