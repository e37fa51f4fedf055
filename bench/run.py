"""Closed-loop benchmark of the hirota-ist command line.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

One client in one process calls ``hirota_ist.cli.main`` in a closed loop:
each op starts when the previous one (and its read-back) has ended.  The
loop cycles through the workload's ops, always completes one full pass, and
afterwards stops before an op whose last duration would carry it past
``--seconds``.  Every op is checked by its correctness gate outside the
timed region.

On a shared 2-core VM the speed of every process drifts by 20-40% over
tens of seconds.  So a fixed calibration kernel (``calibrate``, which never
calls hirota_ist) is timed before the first op, after every op and, from a
signal handler, every TICK_S while an op runs; each op's time is divided by
the mean kernel time over those samples.  ``pass_s`` and ``setup_s`` are
those ratios times ``CAL_REF_S``: seconds at the kernel's reference speed.
Raw wall times are printed too.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1 repeats
the untraced loop, then runs one more pass with the package's public
functions wrapped in spans (bench/spans.py) and reports the per-layer
metrics of that pass.  The last line of standard output is the JSON result;
the lines before it print every metric by name and unit.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
N_SETUPS = 5
# Seconds one ``calibrate`` rep takes on the reference machine (a quiet
# 2-core Intel Xeon VM); the normalised metrics read in seconds at that speed.
CAL_REF_S = 0.008
EDGE_REPS = 10  # kernel reps timed before the first op and after every op
TICK_S = 0.5  # one kernel rep every TICK_S of wall time while an op runs


def calibrate(reps: int) -> float:
    """Wall seconds per rep of a fixed kernel with the program's instruction mix.

    Multi-word integer arithmetic (what mpmath runs on), small complex numpy
    solves and a plain-Python float loop, as in the mpmath path, the double
    path and the ODE glue of hirota_ist, which it never calls.  It touches
    no shared state, so it may run from a signal handler inside an op.
    """
    t0 = time.perf_counter()
    A = np.array([[4, 1, 0.5, 0.1], [1, 3, 0.2, 0.3], [0.5, 0.2, 5, 1], [0.1, 0.3, 1, 2]], dtype=complex)
    b = np.ones((4, 2), dtype=complex)
    eye = np.eye(4)
    big = 3**160
    n, acc, x = 1, 0j, 0.0
    for _ in range(reps):
        for k in range(400):
            n = (n * big + k) % (big + 2 * k + 1)
        for k in range(300):
            acc += np.linalg.solve(A + (k * 1e-3j) * eye, b)[0, 0]
        for k in range(12000):
            x += math.sin(k * 1e-3) * 1.0001
    if not math.isfinite(abs(acc) + x):
        raise ArithmeticError("calibration kernel overflowed")
    return (time.perf_counter() - t0) / reps


class SpeedSampler:
    """Times one kernel rep every TICK_S while an op runs.

    The rep runs in a SIGALRM handler on the main thread (no thread or
    process is started); ``spent`` is the wall time the handler took, which
    the caller subtracts from the op's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate(1))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def set_up(seed: int, workdir: Path):
    """Import hirota_ist afresh, load every preset and write the seeded config."""
    for name in [n for n in sys.modules if n == "hirota_ist" or n.startswith("hirota_ist.")]:
        del sys.modules[name]
    api = importlib.import_module("hirota_ist")
    cli = importlib.import_module("hirota_ist.cli")
    if Path(api.__file__).resolve().parent != SRC / "hirota_ist":
        raise ImportError(f"hirota_ist imported from {api.__file__}, not from {SRC}")
    for name in api.preset_names():
        api.preset(name)
    return api, cli, workloads.write_config(seed, workdir)


def run_op(op, cli, tracer=None):
    """Run one op; returns (seconds, kernel samples taken during it, Outcome, problems).

    Untraced ops run under a SpeedSampler, whose own time is not counted.
    """
    buf = io.StringIO()
    sampler = SpeedSampler()
    try:
        with warnings.catch_warnings(record=tracer is not None) as caught:
            if tracer is not None:
                warnings.simplefilter("always")
                tracer.active = True
            with contextlib.ExitStack() as stack:
                if tracer is None:
                    stack.enter_context(sampler)
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(op.argv)
                    value = op.read() if op.read is not None else None
                elapsed = time.perf_counter() - t0
            elapsed -= sampler.spent
            if tracer is not None:
                n = sum(type(w.message).__name__ == "NoConvergenceWarning" for w in caught)
                tracer.count("scattering.no_convergence_warnings", n)
    except Exception:  # an op that raises is a failed op, not a crashed benchmark
        traceback.print_exc()
        return 0.0, [], None, ["raised"]
    finally:
        if tracer is not None:
            tracer.active = False
    outcome = workloads.Outcome(rc=rc, stdout=buf.getvalue(), value=value)
    try:
        problems = op.gate(outcome)
    except Exception as exc:
        traceback.print_exc()
        problems = [f"gate raised {exc!r}"]
    return elapsed, sampler.samples, outcome, problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {}  # wall seconds of passing ops
        self.ratios: dict[str, list[float]] = {}  # the same over the calibration time

    def record(self, op, elapsed, problems, cal=None):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {op.key}: {'; '.join(problems)}", file=sys.stderr)
            return
        self.times.setdefault(op.key, []).append(elapsed)
        if cal is not None:
            self.ratios.setdefault(op.key, []).append(elapsed / cal)


def closed_loop(ops, cli, seconds: float, tally: Tally) -> float:
    """Cycle through ops until the next one would end past ``seconds``.

    Each op's time is divided by the mean kernel time over the edge samples
    before and after it and the samples taken during it.  Returns the
    normalised pass time: the sum over ops of each op's median ratio, times
    CAL_REF_S.
    """
    start = time.perf_counter()
    last: dict[str, float] = {}
    cal = calibrate(EDGE_REPS)
    i = 0
    while True:
        op = ops[i % len(ops)]
        if i >= len(ops) and time.perf_counter() - start + last[op.key] > seconds:
            break
        elapsed, during, _, problems = run_op(op, cli)
        cal_after = calibrate(EDGE_REPS)
        tally.record(op, elapsed, problems, statistics.fmean([cal, cal_after, *during]))
        cal = cal_after
        last[op.key] = elapsed
        i += 1
    return CAL_REF_S * sum(statistics.median(tally.ratios.get(op.key, [0.0])) for op in ops)


def traced_pass(ops, api, cli, tally: Tally):
    """One pass with spans on; returns the tracer and the normalised pass time."""
    tracer = spans.Tracer()
    tracer.install(api, cli)
    try:
        total = 0.0
        cal = calibrate(EDGE_REPS)
        for k, op in enumerate(ops):
            tracer.op = k
            elapsed, _, _, problems = run_op(op, cli, tracer)
            cal_after = calibrate(EDGE_REPS)
            tally.record(op, elapsed, problems)
            total += elapsed / (0.5 * (cal + cal_after))
            cal = cal_after
    finally:
        tracer.restore()
    return tracer, CAL_REF_S * total


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hirota_ist" / "__init__.py").is_file():
        print(f"error: no hirota_ist package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            workdir.parent.rmdir()


def bench(args, workdir: Path) -> int:
    setups, cals = [], []
    for k in range(N_SETUPS):
        t0 = _PROCESS_START if k == 0 else time.perf_counter()
        try:
            api, cli, config_path = set_up(args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import hirota_ist: {exc}", file=sys.stderr)
            return 2
        setups.append(time.perf_counter() - t0)
        cals.append(calibrate(EDGE_REPS))
    # each set-up over the calibration time after it (and before it, from the second on)
    norm = [CAL_REF_S * s / (0.5 * (cals[k - 1] + cals[k]) if k else cals[0]) for k, s in enumerate(setups)]

    ops = workloads.make_ops(args.workload, args.seed, workdir, config_path, api)
    tally = Tally()
    pass_s = closed_loop(ops, cli, args.seconds, tally)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        tracer, traced_s = traced_pass(ops, api, cli, tally)
        closed_form_err = max((op.stats.get("closed_form_err", 0.0) for op in ops), default=0.0)
        values = spans.layer_metrics(tracer, closed_form_err, traced_s / pass_s - 1.0 if pass_s else 0.0)
        for name, (unit, _, needs) in spans.LAYER_METRICS.items():
            metrics[name] = (values[name], unit)
            if needs in tracer.absent:
                print(f"absent: {name} ({needs} is not exported by hirota_ist; reads 0)")
    else:
        metrics["setup_s"] = (statistics.median(norm), "s")
        metrics["pass_s"] = (pass_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} ops attempted, {tally.failed} failed")
    print("  set-ups, wall s: " + ", ".join(f"{s:.4f}" for s in setups))
    print(f"  calibration kernel, wall s per rep: median {statistics.median(cals):.5f} (reference {CAL_REF_S})")
    for key, times in tally.times.items():
        print(f"  op {key}: n={len(times)} min={min(times):.4f} median={statistics.median(times):.4f} "
              f"max={max(times):.4f} s")
    if not args.trace:
        for label, value in derived(args.workload, ops, tally).items():
            print(f"  {label} = {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def derived(workload: str, ops, tally: Tally) -> dict[str, float]:
    """The workload's headline number from raw wall times (not gated)."""
    med = {op.key: statistics.median(tally.times[op.key]) for op in ops if op.key in tally.times}
    if len(med) != len(ops):
        return {}
    if workload == "grid":
        return {"wall solve_pts_per_s (1/s)": sum(op.work for op in ops) / sum(med.values())}
    if workload == "verify":
        return {"wall verify_s (s)": sum(med.values())}
    if workload == "scatter":
        return {"wall scatter_samples_per_s (1/s)": sum(op.work for op in ops) / sum(med.values())}
    return {"wall roundtrip_s (s)": sum(med.values())}


if __name__ == "__main__":
    sys.exit(main())
