"""thintree benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload thin-planar --seed 1 --seconds 30 --trace 0

Works from any directory: the package is imported from ``src`` next to
this file's parent directory, never from the environment.

Every time is CPU time of this process (``time.process_time``).  The load
model has one client in one process and no threads, so on an idle host that
is the wall time of the same work; on a shared host it leaves out the time
the process waits for a processor.  The timed runs' end-to-end times are
then divided by the host's measured slow-down (``hostspeed.py``), because
the speed of the host's cores itself drifts.  The run length is measured
on the wall clock.

``--trace 0`` (timed run): set-up (import, instance generation, parsing,
metric completion) runs three times before the timed loop and twice after
it; ``setup_s`` is their median.  Then whole passes over the instance pool
are solved, one instance at a time, until ``--seconds`` have passed, so
every run solves the same instances whatever the program's speed.  Every
distinct result is verified afterwards, outside the timed region, and every
repeat must equal the first result.  Prints one JSON line per instance
(sizes beside times), one line per metric, and last the result object;
exits 1 if any check failed.  Failures are reported as ``ok_frac``
(1 - failed_frac), so that no metric reads 0; a quality metric with no
sample on a workload (no tree returned by atsp_approx, no tour on the
thin-tree workloads) reads the neutral 1.

``--trace 1`` (traced run): one pass over the pool, whatever ``--seconds``
says, in which each instance is solved once without and once with the
wrappers of ``tracing.py``; per-layer metrics come from the wrapped solves
and the traced set-up of the same instances, and the self-check of
``layers.py`` must pass.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import layers
from hostspeed import CLOCK, HostSpeed
from tracing import Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("atsp", "dual", "embedding", "errors", "flows", "formats", "genlab",
           "heldkarp", "oracle", "pipeline", "prng", "simplex", "spanning", "surgery")
SETUP_REPS = (3, 2)  # set-ups before and after the timed loop

END_TO_END = (
    ("instances_per_s", "1/s"),
    ("instance_s.p50", "s"),
    ("instance_s.tail", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("oracle_thinness.max", "ratio"),
    ("tree_cost_ratio.gmean", "ratio"),
    ("tour_ratio.gmean", "ratio"),
    ("setup_s", "s"),
)


class Api:
    """The program's modules, imported fresh from ``SRC``."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"thintree.{name}"))
        origin = Path(self.embedding.__file__).resolve()
        if SRC not in origin.parents:
            raise ImportError(f"thintree imported from {origin}, not from {SRC}")
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == "thintree" or name.startswith("thintree.")]


def purge_program() -> None:
    for name in list(sys.modules):
        if name == "thintree" or name.startswith("thintree."):
            del sys.modules[name]


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def gmean(values):
    """Geometric mean; 1.0 (the neutral ratio) when there is no sample."""
    values = [v for v in values if v is not None]
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def solve_timed(workload, api, inst):
    """(seconds, result or None, error text or None) for one solve."""
    start = CLOCK()
    try:
        out = workload.solve(api, inst)
        error = None
    except Exception as exc:  # a raised exception is a failed attempt
        out, error = None, f"{type(exc).__name__}: {exc}"
    return CLOCK() - start, out, error


class Attempts:
    """Every solve of a run, per instance, and the verdicts on them."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}       # id -> first result
        self.times = {}       # id -> [seconds]
        self.failed = {}      # id -> failed solves
        self.problems = {}    # id -> [text]

    def record(self, inst, seconds, out, error):
        self.times.setdefault(inst.id, []).append(seconds)
        if error is None and inst.id not in self.first:
            self.first[inst.id] = out
        elif error is not None or self.workload.signature(out) != self.workload.signature(
                self.first[inst.id]):
            self.failed[inst.id] = self.failed.get(inst.id, 0) + 1
            self.problems.setdefault(inst.id, []).append(
                error or "result differs from first solve")

    def samples(self):
        return [t for times in self.times.values() for t in times]

    def verify(self, api, pool):
        """Verify the first result of every solved instance, outside any
        timed region, and print one line of sizes and times per instance.

        Returns (qualities, attempted, failed, verification seconds).  A
        set-up error is one failed attempt; an instance whose result fails a
        check fails on every solve.
        """
        start = CLOCK()
        qualities = []
        sizes = {}
        for inst in pool:
            if inst.id not in self.first:
                continue
            try:
                problems, sizes[inst.id], quality = self.workload.verify(
                    api, inst, self.first[inst.id])
            except Exception as exc:
                problems, quality = [f"verification raised {type(exc).__name__}: {exc}"], None
            if quality is not None:
                qualities.append(quality)
            if problems:
                self.failed[inst.id] = len(self.times[inst.id])
                self.problems.setdefault(inst.id, []).extend(problems)
        verify_s = CLOCK() - start

        attempted = failed = 0
        for inst in pool:
            times = self.times.get(inst.id, [])
            if inst.error is not None:
                attempted += 1
                failed += 1
                self.problems[inst.id] = [f"set-up: {inst.error}"]
            elif not times:
                continue
            else:
                attempted += len(times)
                failed += self.failed.get(inst.id, 0)
            print(json.dumps({
                "instance": inst.id, "label": inst.label, **sizes.get(inst.id, {}),
                "solves": len(times),
                "time_s_median": statistics.median(times) if times else None,
                "problems": sorted(set(self.problems.get(inst.id, ())))}))
        return qualities, attempted, failed, verify_s


def result(declared, metrics, attempted, failed, correct):
    """Print one line per metric and return the result object."""
    for name, unit in declared:
        print(f"{name} {metrics[name]:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }


def set_up(workload, seed):
    """(seconds, api, pool) for one set-up from a fresh import."""
    purge_program()
    gc.collect()
    start = CLOCK()
    api = Api()
    pool = workload.build(api, seed)
    return CLOCK() - start, api, pool


def timed_run(workload, seed, seconds):
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPS[0]):
        setup_s, api, pool = set_up(workload, seed)
        speed.after(setup_s)
        setups.append(setup_s)

    attempts = Attempts(workload)
    usable = [inst for inst in pool if inst.error is None]
    gc.collect()
    wall = time.perf_counter()
    while usable:
        for inst in usable:
            solve_s, out, error = solve_timed(workload, api, inst)
            speed.after(solve_s)
            attempts.record(inst, solve_s, out, error)
        if time.perf_counter() - wall >= seconds:
            break
    wall = time.perf_counter() - wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUP_REPS[1]):
        setup_s = set_up(workload, seed)[0]
        speed.after(setup_s)
        setups.append(setup_s)
    factor = speed.factor()

    qualities, attempted, failed, _ = attempts.verify(api, pool)
    samples = attempts.samples()
    thinness = [q["thinness"] for q in qualities if q["thinness"] is not None]
    tours = [q["tour_ratio"] for q in qualities if q["tour_ratio"] is not None]
    tail_value = percentile(samples, workload.TAIL) if samples else 0.0
    beyond = sum(t > tail_value for t in samples)
    ok = attempted - failed
    metrics = {
        "instances_per_s": ok / sum(samples) * factor if samples else 0.0,
        "instance_s.p50": percentile(samples, 50.0) / factor if samples else 0.0,
        "instance_s.tail": tail_value / factor,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": ok / attempted if attempted else 0.0,
        "oracle_thinness.max": max(thinness) if thinness else 1.0,
        "tree_cost_ratio.gmean": gmean([q["tree_cost_ratio"] for q in qualities]),
        "tour_ratio.gmean": gmean(tours),
        "setup_s": statistics.median(setups) / factor,
    }
    print(f"# {workload.name}: {len(samples)} solves of {len(attempts.times)} "
          f"instances in {sum(samples):.3f} s CPU, {wall:.3f} s wall; host slow-down "
          f"{factor:.3f} from {len(speed.samples)} reference samples; tail is "
          f"p{workload.TAIL:g}, {beyond} of {len(samples)} samples beyond it; "
          f"failed_frac {failed / attempted if attempted else 0:.4f}")
    if not thinness:
        print("# oracle_thinness.max: no tree returned on this workload (reported as 1)")
    if not tours:
        print("# tour_ratio.gmean: no tour returned on this workload (reported as 1)")
    return result(END_TO_END, metrics, attempted, failed, failed == 0)


def traced_run(workload, seed, _seconds):
    api = Api()
    tracer = Tracer(api)
    tracer.install()
    try:
        pool = workload.build(api, seed, mark=lambda i: setattr(tracer, "instance", i))
    finally:
        tracer.uninstall()

    attempts = Attempts(workload)
    traced_ids = []
    untraced_s = traced_s = 0.0
    for position, inst in enumerate(i for i in pool if i.error is None):
        runs = {}
        # alternate the order, so warm-up favours neither side
        for traced in ((False, True) if position % 2 == 0 else (True, False)):
            if traced:
                tracer.instance = inst.id
                tracer.install()
            try:
                runs[traced] = solve_timed(workload, api, inst)
            finally:
                if traced:
                    tracer.uninstall()
        for traced in (False, True):
            attempts.record(inst, *runs[traced])
        untraced_s += runs[False][0]
        traced_s += runs[True][0]
        traced_ids.append(inst.id)

    qualities, attempted, failed, verify_s = attempts.verify(api, pool)
    summary = tracer.summary(traced_ids)
    metrics = layers.per_layer_metrics(
        summary, len(traced_ids), untraced_s, traced_s, verify_s,
        len(qualities), sum(q["cuts_checked"] for q in qualities))
    problems = layers.self_check(workload.name, summary)
    for text in problems:
        print(f"# self-check: {text}")
    declared = [(name, unit) for name, unit, _ in layers.PER_LAYER]
    return result(declared, metrics, attempted, failed + len(problems),
                  failed == 0 and not problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    try:
        result = run(workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
