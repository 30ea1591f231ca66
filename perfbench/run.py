"""Run one benchmark workload of entrokit and print its metrics as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workload's inputs are made from --seed.  Its fixed work (one round) is
repeated until --seconds have passed, at least once; every round does the
same work on the same inputs.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Times are scaled to a reference host speed.  A fixed calibration job
(``calibrate``) runs after set-up and after every operation; a time is
multiplied by REFERENCE_CALIBRATION_S over the calibration times around it,
so that the host's own swings in speed, which reach a factor of two on a
shared VM, cancel out while a change in the program does not.

--trace 0 reports the end-to-end metrics:
  setup_s       process start to inputs ready: interpreter start, imports,
                model construction and input generation (one cold set-up)
  run_s         median over the rounds of a round's scaled wall time
  peak_rss_mib  the process's memory high-water mark after the rounds

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds (median self time per layer, counts per round)
and trace.overhead_s, the median traced round minus the median untraced
round.  The aggregated spans are written to perfbench/traces/.

The program is imported from src/ of the checkout this file sits in, never
from anywhere else; without it the run fails without printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SINGLE_THREADED = {
    "ENTROKIT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_TIMES = (
    "models.sample_paths",
    "models.sample_blockwise",
    "typeclass.type_class_size",
    "typeclass.rank_in_type_class",
    "typeclass.unrank",
    "typeclass.block_frequencies",
    "coder.encode",
    "coder.decode",
    "coder.bitstream",
    "coder.codelength_from_counts",
    "analytics.path_log_likelihoods",
    "analytics.long_run_variance_mc",
    "analytics.sigma_squared",
    "stability.compute_constants",
    "experiments.run_clt",
    "experiments.run_concentration",
    "experiments.run_example1",
    "cli.dispatch",
    "manifest.write_csv",
)
PER_LAYER_COUNTS = {
    "models.sample_paths.symbols": "count",
    "models.sample_blockwise.symbols": "count",
    "models.tail_capped": "count",
    "typeclass.type_class_size.calls": "count",
    "typeclass.index_bits": "bit",
    "typeclass.steps": "count",
    "coder.bitstream.bits": "bit",
    "coder.codeword_bits": "bit",
    "analytics.sigma_squared.terms": "count",
    "stability.delta_coefficients.terms": "count",
    "experiments.replicates": "count",
    "cli.output_bytes": "B",
}
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in PER_LAYER_TIMES},
    **PER_LAYER_COUNTS,
    "trace.overhead_s": "s",
}


# median seconds of the calibration job on the 2-vCPU reference VM (Xeon, Python 3.11)
REFERENCE_CALIBRATION_S = 0.11


def calibrate() -> float:
    """Wall seconds of a fixed job of the kinds of work entrokit does.

    A Python loop over a dict, big-integer products and divisions, small
    numpy array operations and a vectorized path walker in about equal
    shares, plus a little Fraction arithmetic and a sort.  A slow phase of
    the host slows these kinds of work by different amounts, so the job mixes
    them.  It never calls entrokit, so a change to the program cannot move
    it; only the host can.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(120_000):
        acc += i * i % 7
        table[i & 1023] = acc
    big = 3**20_000
    for _ in range(10):
        q, r = divmod(big * (big + 1), big - 7)
    f = Fraction(0)
    for k in range(1, 600):
        f += Fraction(k, 2 * k + 1)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        acc += int(np.cumsum(rng.random(2000))[-1])
    rng.random(600_000).sort()
    # a path walker: one step for 400 paths at a time, written column by column
    paths = np.empty((400, 3000), dtype=np.int32)
    state = np.zeros(400, dtype=np.int32)
    flip = np.array([0.1, 0.9])
    for t in range(paths.shape[1]):
        state = (rng.random(400) < flip[state]).astype(np.int32)
        paths[:, t] = state
    return time.perf_counter() - t0


def _process_age_s() -> float:
    """Seconds since this process started, from its start time in /proc."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        stat = fh.read()
    start_ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def _import_program():
    """Import entrokit from this checkout's src/ or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import entrokit

    if Path(entrokit.__file__).resolve().parent != SRC / "entrokit":
        raise ImportError(f"entrokit was imported from {entrokit.__file__}, not from {SRC}")
    return entrokit


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seconds: float, trace: bool):
    """Rounds until `seconds` have passed, at least one (two when traced).

    Returns (rounds, tracers, calibrations).  A calibration runs before the
    first round and after every operation, so operation k of the run lies
    between calibrations k and k + 1.
    """
    rounds, tracers = [], []
    start = time.perf_counter()
    calibrations = [calibrate()]
    while True:
        traced = trace and len(rounds) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer is None:
            rnd = workload.run_round(len(rounds), calibrate)
        else:
            with tracer:
                rnd = workload.run_round(len(rounds), calibrate)
        calibrations += rnd.calibrations
        rounds.append(rnd)
        tracers.append(tracer)
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            return rounds, tracers, calibrations


def scaled_round_times(rounds, calibrations) -> list[float]:
    """Each round's time at the reference speed.

    An operation's wall time is multiplied by ``REFERENCE_CALIBRATION_S`` over
    the geometric mean of the calibrations just before and just after it; a
    round's time is the sum over its operations.
    """
    factors = iter(REFERENCE_CALIBRATION_S / math.sqrt(a * b) for a, b in zip(calibrations, calibrations[1:]))
    return [sum(t * next(factors) for t in rnd.seconds) for rnd in rounds]


def per_layer_metrics(workload, rounds, scaled, tracers) -> tuple[dict, list[str]]:
    traced = [(rnd, t, tr) for rnd, t, tr in zip(rounds, scaled, tracers) if tr is not None]
    plain = [t for t, tr in zip(scaled, tracers) if tr is None]
    errors = []
    counts = []
    for rnd, _, tr in traced:
        c = {name: tr.counters.get(name, 0) for name in PER_LAYER_COUNTS}
        if hasattr(workload, "output_bytes"):
            c["cli.output_bytes"] = workload.output_bytes(rnd)
        counts.append(c)
    if any(c != counts[0] for c in counts):
        errors.append(f"counts differ between traced rounds: {counts}")
    metrics = {}
    for name in PER_LAYER_TIMES:
        # a round's self times are scaled by the round's mean speed factor
        value = statistics.median(tr.self_s.get(name, 0.0) * t / sum(rnd.seconds) for rnd, t, tr in traced)
        metrics[f"{name}.self_s"] = _metric(value, "s")
    for name, unit in PER_LAYER_COUNTS.items():
        metrics[name] = _metric(counts[0][name], unit)
    overhead = statistics.median(t for _, t, _ in traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics, errors


def write_trace(name: str, seed: int, rounds, scaled, tracers) -> None:
    out = BENCH_DIR / "traces"
    out.mkdir(exist_ok=True)
    doc = {
        "workload": name,
        "seed": seed,
        "rounds": [
            {"traced": tr is not None, "wall_s": sum(rnd.seconds), "scaled_s": t, **(tr.to_dict() if tr is not None else {})}
            for rnd, t, tr in zip(rounds, scaled, tracers)
        ],
    }
    with open(out / f"{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    args = _parse(argv)
    # one process, no worker pool, single-threaded BLAS/OpenMP: set before numpy is imported
    os.environ.update(SINGLE_THREADED)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import entrokit from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        setup_wall_s = _process_age_s()
        rounds, tracers, calibrations = measure(workload, args.seconds, bool(args.trace))
        scaled = scaled_round_times(rounds, calibrations)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = workload.check(rounds[0])
        errors += [f"round {i} outputs differ from round 0" for i, r in enumerate(rounds) if not workload.same(rounds[0], r)]
        if args.trace:
            metrics, trace_errors = per_layer_metrics(workload, rounds, scaled, tracers)
            errors += trace_errors
            write_trace(args.workload, args.seed, rounds, scaled, tracers)
        else:
            # set-up is scaled by the first calibration, taken right after it
            setup_s = setup_wall_s * REFERENCE_CALIBRATION_S / calibrations[0]
            values = {"setup_s": setup_s, "run_s": statistics.median(scaled), "peak_rss_mib": peak_rss_mib}
            metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    # the raw measurements behind the scaled times
    ops = " ".join(",".join(f"{t:.4f}" for t in r.seconds) for r in rounds)
    cals = " ".join(f"{c:.4f}" for c in calibrations)
    print(f"perfbench: wall set-up {setup_wall_s:.4f} s; operations per round {ops} s; calibrations {cals} s", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": workload.ops() * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
