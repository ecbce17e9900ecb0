#!/usr/bin/env python3
"""Benchmark of ma-lin: one workload per process, timed from outside the package.

    python3 bench/run.py --workload lift-solve --seed 1 --seconds 50 --trace 0

Runs as many whole rounds of the workload's fixed batch of operations as
fit in --seconds, checks every output against oracles.py, prints one
line per metric and, last, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Times are scaled to a reference machine speed by
samples of calibration.py's loop taken between operations.  --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
rounds and reports the per-layer metrics.
--quick runs one round at tiny sizes.  ma_lin is imported from src/ of the
checkout this file sits in.  See bench/README.md.
"""

import os

# numeric thread pools held to one thread; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibration import REFERENCE_LOOP_S, Speedometer, scale
from tracing import Tracer
from workloads import WORKLOADS, Outcome, build

HERE = Path(__file__).resolve().parent
SRC = (HERE.parent / "src").resolve()
SETUPS = 9  # set-ups per run; setup_s is their median
SAMPLE_SHARE = 0.15  # speed sample after a timed stretch, as a share of its length
SAMPLE_MIN_S = 0.03

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("op_median_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.lift_s", "s"), ("cli.requests", "count"),
    ("equations.classify_s", "s"), ("equations.classify_calls", "count"),
    ("equations.khabirov_s", "s"), ("equations.khabirov_checks", "count"),
    ("linsolve.build_s", "s"), ("linsolve.solve_s", "s"),
    ("linsolve.iterations", "count"), ("linsolve.node_updates", "count"),
    ("linsolve.unknowns", "count"),
    ("lift.lift_s", "s"), ("lift.lifted_nodes", "count"), ("lift.masked_nodes", "count"),
    ("lift.resample_s", "s"), ("lift.resample_targets", "count"),
    ("lift.resample_hits", "count"), ("lift.resample_hit_ratio", "ratio"),
    ("lift.verify_s", "s"), ("lift.verify_samples", "count"),
    ("lift.write_lifted_s", "s"), ("grids.write_grid_s", "s"), ("grids.csv_bytes", "B"),
    ("grids.sample_s", "s"),
    ("transforms.chain_s", "s"), ("transforms.chain_points", "count"),
    ("transforms.conjugate_s", "s"), ("transforms.conjugate_queries", "count"),
    ("transforms.ampere_s", "s"), ("transforms.ampere_samples", "count"),
    ("elasticity.check_s", "s"), ("elasticity.samples", "count"),
    ("trace.overhead_s", "s"),
)


def import_fresh():
    """Import ma_lin (and its CLI) anew, as a fresh process would."""
    for name in [m for m in sys.modules if m == "ma_lin" or m.startswith("ma_lin.")]:
        del sys.modules[name]
    ma = importlib.import_module("ma_lin")
    importlib.import_module("ma_lin.cli")
    return ma


@dataclass
class Tally:
    """Timings scaled to the reference speed; `raw` keeps the measured ones."""

    meter: Speedometer = field(default_factory=Speedometer)
    setup_times: list = field(default_factory=list)
    op_times: list = field(default_factory=list)
    rounds: dict = field(default_factory=lambda: {False: [], True: []})  # by traced
    round_factor: dict = field(default_factory=dict)  # scaled / measured, by round
    raw: dict = field(default_factory=lambda: {"setup": [], "op": [], "round": []})
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def set_up(args, workdir, tally: Tally):
    """Import ma_lin afresh and build the workload's inputs, SETUPS times.

    All at the start: every fresh import leaves some objects behind, so a
    fixed count keeps that out of peak_rss_mb's run-to-run differences.
    """
    before = tally.meter.sample(SAMPLE_MIN_S)
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ma = import_fresh()
        ops, probes = build(args.workload, args.seed, args.quick, workdir, ma, bool(args.trace))
        took = time.perf_counter() - t0
        after = tally.meter.sample(SAMPLE_MIN_S)
        tally.setup_times.append(scale(took, before, after))
        tally.raw["setup"].append(took)
        before = after
    return ma, ops, probes


def run_rounds(args, ma, ops, probes, tracer, tally: Tally) -> None:
    """Whole rounds that fit in --seconds, at least one; traced runs alternate
    untraced and traced rounds and stop only after a traced one.

    Each operation's stretch (its call and its checks, replay excluded) is
    followed by a speed sample and scaled by the samples on either side."""
    meter = tally.meter
    start = time.perf_counter()
    before = meter.sample(SAMPLE_MIN_S)
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        tracer.start_round(k if traced else None)
        t0 = time.perf_counter()
        scaled = measured = 0.0
        for i, op in enumerate(ops + probes):
            t1 = time.perf_counter()
            try:
                out = op.run(ma, tracer, f"{k}.{i}.{op.label}")
            except Exception:  # a fault in the program fails this operation only
                traceback.print_exc(file=sys.stderr)
                out = Outcome(0.0, failed=True)
            stretch = time.perf_counter() - t1 - out.untimed
            after = meter.sample(max(SAMPLE_MIN_S, SAMPLE_SHARE * stretch))
            scaled += scale(stretch, before, after)
            measured += stretch
            tally.problems += out.problems
            if i < len(ops):  # probes are not operations of the workload
                tally.attempted += 1
                tally.failed += out.failed
                if not out.failed and not op.expect_reject:
                    tally.op_times.append(scale(out.seconds, before, after))
                    tally.raw["op"].append(out.seconds)
            before = after
        last = time.perf_counter() - t0
        tally.rounds[traced].append(scaled)
        tally.round_factor[k] = scaled / measured
        if not traced:
            tally.raw["round"].append(measured)
        tracer.start_round(None)
        k += 1
        if args.trace and not tally.rounds[True]:
            continue
        # stop before a round that would end past --seconds, judged by the last one
        if args.quick or time.perf_counter() - start + last > args.seconds:
            return


def per_layer(tracer, tally: Tally):
    """Median over traced rounds of each layer's per-round figure; span times
    are scaled by their round's factor."""
    rounds = tally.rounds
    totals = []
    for r in tracer.rounds:
        t = tracer.round_totals(r)
        totals.append({name: v * tally.round_factor[r] if name.endswith("_s") else v
                       for name, v in t.items()})
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(rounds[True]) - statistics.median(rounds[False])
        elif name == "lift.resample_hit_ratio":
            value = statistics.median(t.get("lift.resample_hits", 0.0) / t["lift.resample_targets"]
                                      if t.get("lift.resample_targets") else 0.0 for t in totals)
        else:
            value = statistics.median(t.get(name, 0.0) for t in totals)
        if unit in ("count", "B") and float(value).is_integer():
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one round at tiny sizes")
    args = ap.parse_args(argv)

    if not (SRC / "ma_lin" / "__init__.py").is_file():
        print(f"error: no ma_lin package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    workdir.mkdir(parents=True)
    tally = Tally()
    ma, ops, probes = set_up(args, workdir, tally)
    if not Path(ma.__file__).resolve().is_relative_to(SRC):
        print(f"error: ma_lin was imported from {ma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer()
    run_rounds(args, ma, ops, probes, tracer, tally)
    rounds = tally.rounds
    if not tally.op_times:
        print("error: every operation failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(tracer, tally)
        trace_path = workdir.parent / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "untraced_round_s": rounds[False],
                                  "traced_round_s": rounds[True],
                                  "overhead_s": metrics["trace.overhead_s"]["value"]})
        for layer, busy in sorted(tracer.layer_busy().items()):
            print(f"layer {layer:<12} busy {busy:.4f} s (self time, all traced rounds)")
        print(f"trace written to {trace_path}")
    else:
        values = {"setup_s": statistics.median(tally.setup_times),
                  "run_s": statistics.median(rounds[False]),
                  "op_median_s": statistics.median(tally.op_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for name, m in metrics.items():
        print(f"{name:<30} {m['value']:.6g} {m['unit']}")
    meter = tally.meter
    print(f"reference loop: {meter.loops} samples, mean {meter.seconds / meter.loops * 1e3:.3f} ms "
          f"against {REFERENCE_LOOP_S * 1e3:g} ms at the reference speed")
    if not args.trace:
        raw = {k: statistics.median(v) for k, v in tally.raw.items()}
        print(f"measured, unscaled: setup {raw['setup']:.6g} s, round {raw['round']:.6g} s, "
              f"operation {raw['op']:.6g} s (medians)")
    print(f"rounds {len(rounds[False]) + len(rounds[True])}, operations attempted "
          f"{tally.attempted}, failed {tally.failed}")
    for p in tally.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
