"""seqlab benchmark: one workload per call, measured in fresh processes.

    python3 perfbench/run.py --workload long-scan --seed 1 --seconds 36 --trace 0

Run it from the root of a seqlab checkout. It times set-up in several fresh
interpreters, then runs the workload in one single-threaded worker process
for --seconds, checking every output. With --trace 0 it prints the
end-to-end metrics named in BENCHMARK.json, with --trace 1 the per-layer
ones, and in both cases the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. The environment, the sizes
and the counts go to the lines before it and to perfbench/out/.

--smoke runs every workload at tiny sizes with every check still on;
--record rewrites perfbench/reference.json from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 9
DEADLINE_S = 170  # the whole command ends within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(argv: list[str], env: dict[str, str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run([sys.executable, WORKER, *argv], env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest(root: str) -> str:
    h = hashlib.blake2b(digest_size=12)
    src = os.path.join(root, "src", "seqlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: str, args, result: dict, env: dict[str, str]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": "smoke" if args.smoke else "full",
        "sizes": result["sizes"],
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def check_counts(key: str, counts: dict) -> list[str]:
    """Counts must repeat exactly across runs of one seed on one program."""
    path = os.path.join(OUT, "counts.json")
    seen = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    before = seen.get(key)
    if before is None:
        seen[key] = counts
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(seen, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    return [f"count {k} is {counts.get(k)}, an earlier run had {v}"
            for k, v in before.items() if counts.get(k) != v]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all checks on")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference outputs for this seed")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "seqlab", "__init__.py")):
        print("error: run from the root of a seqlab checkout (src/seqlab is missing)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    env = child_env(root)
    profile = "smoke" if args.smoke else "full"
    base = ["--workload", args.workload, "--seed", str(args.seed), "--profile", profile]
    if args.record:
        run_worker([*base, "--record"], env, deadline)
        print(f"recorded {profile} reference for {args.workload}, seed {args.seed}")
        return 0

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{profile}-trace{args.trace}")
    try:
        setups = [run_worker([*base, "--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        argv = [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            argv += ["--spans", stem + "-spans.json"]
        result = run_worker(argv, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    info = environment(root, args, result, env)
    setups.append(result["setup_s"])

    problems = list(result["failures"])
    if args.trace:
        values = result["per_layer"]
        key = f"{args.workload}|{args.seed}|{profile}|{info['source_digest']}"
        problems += [f"count {k} differs between passes" for k in result["varying_counts"]]
        problems += check_counts(key, result["counts"])
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not problems
    record = {"environment": info, "passes": result["passes"], "setup_samples": setups,
              "op_medians": result.get("op_medians"),
              "problems": problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + json.dumps(info, sort_keys=True))
    print(f"passes: {result['passes']}")
    for problem in problems:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'ops_failed':36s} {failed / attempted:>16.6f} ratio ({failed} of {attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
