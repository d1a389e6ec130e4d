"""Run one workload of the sobex benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; sobex is imported from `src/`.  The process
repeats whole rounds (fresh inputs, timed operations, checks) until S seconds
have passed.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: setup_s (the median time to import
sobex over this process and four fresh interpreters, plus the median
per-round input generation), run_s (the timed operations of one
round, each at its median wall time across rounds) and peak_rss_mb.  --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics from the traced ones, plus
the tracing overhead (median traced minus median untraced run_s).  Spans and
the result are written under `perfbench-out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench-out")
WORKLOAD_NAMES = ("extension-planar", "curves-planar", "cantor-3d")

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
EXTRA_IMPORTS = 4
_TIMED_IMPORT = ("import time; t = time.perf_counter(); import sobex; "
                 "print(time.perf_counter() - t)")


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if ".dijkstra_ms." in name:
        return "ms"
    if name.endswith("bytes_computed") or name.endswith("spec_bytes"):
        return "B"
    if name.endswith("fraction"):
        return "fraction"
    return "count"


def fresh_import_s(src: str) -> float:
    """Time `import sobex` in a new interpreter (its start-up excluded)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _TIMED_IMPORT], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def typical_run_s(rounds: list[dict]) -> float:
    """Sum over the round's operations of each one's median wall time across
    rounds: a burst of contention that hits one operation in one round does
    not move it."""
    per_op = zip(*(r["op_s"] for r in rounds))
    return sum(statistics.median(ts) for ts in per_op)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # single-threaded numerics: the workloads measure one core's work
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sobex", "__init__.py")):
        print(f"error: no sobex sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import sobex  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload](workloads.SIZES["bench"])
    tracer = Tracer() if args.trace else None
    rounds = []
    attempted = failed = 0
    failures: list[str] = []
    digests: set[str] = set()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        ops = workloads.Ops()
        try:
            t = time.perf_counter()
            inputs = wl.setup(args.seed)
            gen_s = time.perf_counter() - t
            c = time.process_time()
            raw = wl.run(inputs, ops)
            cpu_s = time.process_time() - c
        finally:
            if traced:
                tracer.uninstall()
        results = wl.summarize(inputs, raw)
        del raw, inputs
        failures += wl.check(results)
        rows = wl.digest_rows(results)
        del results
        digests.add(hashlib.sha256("\n".join(rows).encode()).hexdigest())
        attempted += ops.attempted
        failed += ops.failed
        for err in ops.errors:
            print(f"failed operation: {err}", file=sys.stderr)
        rounds.append({"traced": traced, "gen_s": gen_s, "op_s": ops.seconds,
                       "run_s": sum(ops.seconds), "cpu_s": cpu_s})
        print(f"round {len(rounds)} traced={int(traced)} gen_s={gen_s:.4f} "
              f"run_s={sum(ops.seconds):.4f} cpu_s={cpu_s:.4f} ops={ops.attempted}",
              file=sys.stderr)
        if time.perf_counter() - start >= args.seconds and \
                (tracer is None or len(rounds) >= 2):
            break

    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    # information only: the exact result rows of this seed, never compared
    for d in sorted(digests):
        print(f"digest {args.workload} seed={args.seed} sha256={d}")

    plain = [r for r in rounds if not r["traced"]]
    if tracer is None:
        imports = [import_s] + [fresh_import_s(src) for _ in range(EXTRA_IMPORTS)]
        metrics = {
            "setup_s": statistics.median(imports)
            + statistics.median(r["gen_s"] for r in plain),
            "run_s": typical_run_s(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        values = tracer.layer_metrics(len(traced_rounds))
        values["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        values["trace.overhead_s"] = typical_run_s(traced_rounds) - typical_run_s(plain)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"rounds": rounds, "import_s": import_s, **result}, f, indent=1)
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
