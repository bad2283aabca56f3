"""Runs one workload in this process and prints its measurements as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

run.py starts this script with seqlab's sources on PYTHONPATH; it is not
meant to be called directly. setup_s is the time from the top of this file
(a fresh interpreter) until the workload's seeded inputs are built.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
MIN_PASSES = 3


class Runner:
    """Repeats the workload's operations in passes and keeps every check."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.first: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.layer_failed: Counter = Counter()

    def _fail(self, op, layer: str, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(f"{op.name}: [{layer}] {message}")
        self.layer_failed[layer] += 1

    def run_pass(self, tracer=None) -> tuple[dict[str, float], Counter]:
        state: dict = {}
        times: dict[str, float] = {}
        counts: Counter = Counter()
        for op in self.workload.ops:
            self.attempted += 1
            mark = len(tracer.spans) if tracer else 0
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run(state)
                else:
                    out = tracer.root(f"op.{op.name}", lambda op=op: op.run(state))
            except Exception as exc:  # a failed operation is counted, not fatal
                times[op.name] = time.perf_counter() - start
                self.failed += 1
                layer = op.layer
                if tracer:  # blame the innermost traced call that raised
                    errors = [tracing.layer_of(s[3]) for s in tracer.spans[mark:]
                              if s[8] and tracing.layer_of(s[3]) in tracing.LAYER_NAMES]
                    layer = errors[0] if errors else op.layer
                self._fail(op, layer, f"raised {exc!r}")
                continue
            times[op.name] = time.perf_counter() - start
            problems = self._check(op, out, state)
            if problems:
                self.failed += 1
                for layer, message in problems[:1]:
                    self._fail(op, layer, message)
            counts.update(op.counts(out))
        return times, counts

    def _check(self, op, out, state) -> list[tuple[str, str]]:
        try:
            digest = json.loads(json.dumps(op.digest(out)))
            if op.name in self.first:
                if digest != self.first[op.name]:
                    return [(op.layer, "output differs from the first pass")]
                return []
            self.first[op.name] = digest
            problems = op.check(out, state)
            if self.reference is not None:
                ref = self.reference.get(op.name)
                if ref is not None:
                    same = op.same or (lambda r, g: [] if r == g else
                                       [(op.layer, "differs from the reference")])
                    problems += same(ref, digest)
            return problems
        except Exception as exc:  # a check that cannot run fails the operation
            return [(op.layer, f"check raised {exc!r}")]


def op_medians(pass_times: list[dict[str, float]]) -> dict[str, float]:
    return {n: statistics.median(p[n] for p in pass_times if n in p) for n in pass_times[0]}


def wall(pass_times: list[dict[str, float]]) -> float:
    """Time of one pass: the sum over operations of their median time."""
    return sum(op_medians(pass_times).values())


def run_phase(runner, budget: float, tracer=None):
    times, counts, per_layer = [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        if tracer:
            mark = len(tracer.spans)
            tracer.install()
            try:
                pass_times, pass_counts = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            per_layer.append(tracing.pass_metrics(tracer.spans[mark:]))
        else:
            pass_times, pass_counts = runner.run_pass()
        times.append(pass_times)
        counts.append(pass_counts)
        last = time.perf_counter() - t
        if len(times) >= MIN_PASSES and time.perf_counter() - start + last > budget:
            return times, counts, per_layer


def reference_for(workload: str, seed: int, profile: str) -> dict | None:
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh).get(profile, {}).get(workload, {})
    merged = dict(ref.get("common", {}))
    if seed == DEFAULT_SEED:
        merged.update(ref.get(f"seed{seed}", {}))
    return merged


def record(workload, seed: int, profile: str) -> None:
    """Write the outputs of one pass as the reference for this seed."""
    runner = Runner(workload, None)
    runner.run_pass()
    if runner.failed:
        raise SystemExit(f"not recording: {runner.failures}")
    doc = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            doc = json.load(fh)
    entry = doc.setdefault(profile, {}).setdefault(workload.name, {})
    seeded = {op.name for op in workload.ops if op.seeded}
    entry["common"] = {k: v for k, v in runner.first.items() if k not in seeded}
    entry[f"seed{seed}"] = {k: v for k, v in runner.first.items() if k in seeded}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed, args.profile)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record:
        record(workload, args.seed, args.profile)
        print(json.dumps({"recorded": REFERENCE}))
        return 0

    runner = Runner(workload, reference_for(args.workload, args.seed, args.profile))
    result: dict = {"setup_s": setup_s, "sizes": workload.sizes,
                    "numpy": workloads.np.__version__}
    if args.trace:
        # untraced passes first, as the baseline that the tracing overhead is read against
        plain, _, _ = run_phase(runner, 0.4 * args.seconds)
        tracer = tracing.Tracer()
        traced, counts, per_layer = run_phase(runner, 0.6 * args.seconds, tracer)
        for spans_metrics, pass_counts in zip(per_layer, counts):
            spans_metrics.update({k: pass_counts.get(k, 0) for k in ("cli.calls", "cli.bytes_out")})
        metrics = tracing.median_metrics(per_layer)
        metrics.update({k: per_layer[0][k] for k in tracing.COUNT_METRICS})
        for layer in tracing.LAYER_NAMES:
            metrics[f"{layer}.failed"] = runner.layer_failed[layer]
        metrics["trace.overhead_ratio"] = wall(traced) / wall(plain) - 1
        varying = [k for k in tracing.COUNT_METRICS if len({p[k] for p in per_layer}) > 1]
        result.update(per_layer=metrics, counts={k: metrics[k] for k in tracing.COUNT_METRICS},
                      varying_counts=varying, passes=[len(plain), len(traced)])
        if args.spans:
            tracer.write(args.spans)
    else:
        times, _, _ = run_phase(runner, args.seconds)
        result.update(wall_s=wall(times), passes=[len(times)], op_medians=op_medians(times))
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
