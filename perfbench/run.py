"""relsim benchmark: time the public entry points from outside, check output bytes.

Usage (from the root of a relsim checkout):

    python3 perfbench/run.py --workload sweep-50 --seed 1 --seconds 56 --trace 0

The workload's scenario configs are generated from ``--seed``
(``workloads.py``).  Each pass spawns a fresh interpreter
(``worker.py``) that imports ``relsim.cli`` from ``src/``, runs every
config, and writes the workload CSV; passes repeat until ``--seconds``
is used up, and every metric is a median over passes.  Each pass's CSV
must match the SHA-256 stored in ``digests.json``: a mismatch counts all
of the pass's runs as failed and the command exits 1.

Timings are scaled to a reference host.  A shared host's speed drifts
by up to 2x within minutes as its neighbours come and go, which no
amount of repetition averages out.  So the parent (before each spawn)
and the worker (between pieces of work) time slices of a fixed
pure-Python walk that uses no relsim code (``calibrate.py``), and
each process's timings are multiplied by ``REFERENCE_S`` over its median
slice: they read as seconds on a host where one walk takes
``REFERENCE_S``.  The raw host-time medians and the host speed are
printed beside the metrics and kept in the result file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (``layers.py``) and prints the per-layer
metrics plus the tracing overhead.  Each invocation also writes a result
file with the run context under ``.perfbench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from calibrate import Reference  # noqa: E402
from layers import LAYERS, PassTrace  # noqa: E402
from workloads import WORKLOADS, generate, variant_of  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = BENCH / "digests.json"

END_TO_END = [
    ("wall_s", "s"),
    ("startup_s", "s"),
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]
MIN_PASSES = 2
# host time of one reference walk (calibrate.py) on the reference host
REFERENCE_S = 0.010
LAST_PASS_END_S = 150.0  # no pass is started that would likely end later
RUN_LIMIT_S = 170.0  # a pass still running then is killed


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_pass(inputs: Path, tag: str, mode: str, reference: Reference,
             timeout: float = RUN_LIMIT_S) -> dict:
    """Spawn one worker in ``mode`` ("run", "trace" or "setup"); returns
    its result plus the parent's timings, the reference slices taken just
    before the spawn and the CSV digest."""
    csv_path = OUT / f"{tag}.csv"
    result_path = OUT / f"{tag}.json"
    for stale in (csv_path, result_path):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(inputs), str(csv_path), str(result_path)]
    cmd += {"run": [], "trace": ["--trace"], "setup": ["--setup-only"]}[mode]
    # one slice: a second one would find the array still in cache, which
    # the slices the worker takes between pieces of its work never do
    slices = [reference.time_s()]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"ok": False, "mode": mode, "error": "pass timed out",
                "duration": time.perf_counter() - t_spawn}
    duration = time.perf_counter() - t_spawn
    if proc.returncode != 0:
        return {"ok": False, "mode": mode, "duration": duration,
                "error": proc.stderr.strip()[-2000:]}
    result = json.loads(result_path.read_text())
    result.update(ok=True, mode=mode, duration=duration, t_spawn=t_spawn,
                  parent_reference_s=slices)
    if mode != "setup":
        result["digest"] = sha256(csv_path.read_bytes())
    return result


def check_pass(result: dict, expected: str | None, runs: int) -> tuple[int, str | None]:
    """Failed runs of one pass, and why the whole pass failed (or None).

    A crashed worker, relsim imported from outside ``src/`` or a CSV
    whose digest differs from ``expected`` fail all ``runs`` runs; a
    set-up probe writes no CSV and is not checked against it.
    """
    if not result["ok"]:
        return runs, "worker failed"
    if result["relsim"] != str(SRC.resolve()):
        return runs, f"imported relsim from {result['relsim']}"
    if result["mode"] != "setup" and (expected is None or result["digest"] != expected):
        return runs, f"CSV sha256 {result['digest']} != stored {expected}"
    return sum(r["failed"] for r in result["runs"]), None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least 10 values beyond it, and
    that percentile; the maximum (100) when there are fewer than 11."""
    n = len(values)
    if n < 11:
        return max(values), 100
    pct = math.floor(100 * (1 - 10 / n))
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct


def wall(result: dict) -> float:
    """Spawn of the interpreter to the workload CSV written, less the
    reference slices the worker took meanwhile."""
    return result["t_written"] - result["t_spawn"] - result["paused_s"]


def scale(result: dict) -> float:
    """Factor that turns host time of one spawned worker into time on
    the reference host: ``REFERENCE_S`` over the median reference slice
    taken around it (by the parent just before the spawn and by the
    worker throughout).  The median, because a slice that a preemption
    hit reads several times too long."""
    return REFERENCE_S / statistics.median(result["parent_reference_s"] + result["reference_s"])


def end_to_end(passes: list[dict], probes: list[dict]) -> tuple[dict, dict]:
    """Metric -> median, and metric -> printable quartiles and sample count.

    Every timing is scaled to the reference host (``scale``); the raw
    host-time median is printed beside it.  Start-up is sampled by the
    passes and the set-up probes, set-up by the probes alone, which
    construct every config of the workload back to back.
    """
    samples = {
        "wall_s": (wall, passes),
        "startup_s": (lambda p: p["t_imported"] - p["t_spawn"], passes + probes),
        "setup_s": (lambda p: sum(r["setup_s"] for r in p["runs"]), probes),
        "peak_rss_mb": (lambda p: p["peak_rss_kb"] / 1024, passes),
    }
    values, detail = {}, {}
    for name, (measure, source) in samples.items():
        factor = (lambda p: 1.0) if name == "peak_rss_mb" else scale
        q1, values[name], q3 = quartiles([measure(p) * factor(p) for p in source])
        raw = statistics.median(measure(p) for p in source)
        detail[name] = f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(source)} processes  raw {raw:.4f}"
    # per run of the workload: median over passes of construction + execute()
    per_run = [
        statistics.median(1000 * (p["runs"][i]["setup_s"] + p["runs"][i]["execute_s"]) * scale(p)
                          for p in passes)
        for i in range(len(passes[0]["runs"]))
    ]
    q1, values["run_ms_p50"], q3 = quartiles(per_run)
    detail["run_ms_p50"] = f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(per_run)} runs"
    values["run_ms_tail"], pct = tail(per_run)
    detail["run_ms_tail"] = f"p{pct}  n={len(per_run)} runs"
    speeds = [scale(p) for p in passes + probes]
    detail["host_speed"] = (f"median {statistics.median(speeds):.4f}  min {min(speeds):.4f}  "
                            f"max {max(speeds):.4f}  n={len(speeds)} processes")
    return values, detail


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    views = [PassTrace(p["trace"], p) for p in traced]
    values = {}
    for layer in LAYERS:
        if layer.value is not None:
            values[layer.name] = statistics.median(layer.value(v) for v in views)
    events = views[0].events()
    execute_s = statistics.median(sum(r["execute_s"] for r in p["runs"]) for p in untraced)
    values["engine.ns_per_event"] = execute_s / events * 1e9 if events else 0.0
    values["trace.overhead"] = (statistics.median(map(wall, traced))
                                / statistics.median(map(wall, untraced)))
    return values


def measure(inputs: Path, stem: str, seconds: float, trace: bool,
            start: float) -> tuple[list[dict], list[dict]]:
    """Run set-up probes and passes until ``seconds`` after ``start``.

    Untraced: a probe before each pass, and more probes in the time left
    after the last pass, so start-up and set-up are sampled across the
    whole run.  Traced: untraced and traced passes alternate.
    """
    reference = Reference()

    def spawn(tag: str, mode: str) -> dict:
        return run_pass(inputs, f"{stem}-{tag}", mode, reference,
                        timeout=start + RUN_LIMIT_S - time.perf_counter())

    spawn("warm", "setup")  # only warms the page cache and bytecode caches
    probes: list[dict] = []
    passes: list[dict] = []

    def longest(results: list[dict], mode: str) -> float:
        return max([r["duration"] for r in results if r["mode"] == mode] or [0.0])

    while True:
        if not trace:
            probes.append(spawn(f"probe{len(probes)}", "setup"))
        mode = "trace" if trace and len(passes) % 2 == 1 else "run"
        passes.append(spawn(f"pass{len(passes)}", mode))
        if not passes[-1]["ok"]:
            print(f"error: pass {len(passes) - 1} failed: {passes[-1]['error']}",
                  file=sys.stderr)
            return probes, passes
        next_mode = "trace" if trace and len(passes) % 2 == 1 else "run"
        estimate = longest(probes, "setup") + (longest(passes, next_mode)
                                               or passes[-1]["duration"])
        end = time.perf_counter() - start + estimate
        if (len(passes) >= MIN_PASSES and end > seconds) or end > LAST_PASS_END_S:
            break
    while not trace and time.perf_counter() - start + longest(probes, "setup") <= seconds:
        probes.append(spawn(f"probe{len(probes)}", "setup"))
    return probes, passes


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "relsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def context(seed: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": read_loadavg(),
        "seed": seed,
        "variant": variant_of(seed),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="relsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "relsim" / "__init__.py").is_file():
        print(f"error: no relsim sources under {SRC}; run from a relsim checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    ctx = context(args.seed)
    configs = generate(args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = OUT / f"{stem}-inputs.json"
    inputs.write_text(json.dumps(configs))
    stored = json.loads(DIGESTS.read_text())["sha256"].get(args.workload, {})
    expected = stored.get(str(ctx["variant"]))
    probes, passes = measure(inputs, stem, args.seconds, bool(args.trace), start)
    ctx["loadavg_end"] = read_loadavg()

    failed = 0
    problems = []
    for label, results in (("probe", probes), ("pass", passes)):
        for i, p in enumerate(results):
            result_failed, problem = check_pass(p, expected, len(configs))
            if label == "pass":
                failed += result_failed
            if problem:
                problems.append(f"{label} {i}: {problem}")
    attempted = len(configs) * len(passes)
    correct = failed == 0 and not problems
    untraced = [p for p in passes if p["mode"] == "run"]
    traced = [p for p in passes if p["mode"] == "trace"]

    print(f"relsim benchmark: workload {args.workload}, seed {args.seed} "
          f"(variant {ctx['variant']}), trace {args.trace}, {len(configs)} runs per pass, "
          f"{len(untraced)} untraced + {len(traced)} traced passes, "
          f"{len(probes)} set-up probes")
    print("context: " + ", ".join(f"{k} {v}" for k, v in ctx.items()))
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"output check: {'ok' if not problems else 'FAILED'} "
          f"(stored sha256 {expected})")
    if args.trace:
        same = len({p.get("digest") for p in passes}) == 1
        print(f"traced CSV digest equals untraced: {'yes' if same else 'NO'}")
    print(f"failed_runs_pct {100 * failed / attempted:.4f} % ({failed} of {attempted} runs)")

    metrics: dict[str, dict] = {}
    record: dict = {"args": vars(args), "context": ctx, "correct": correct,
                    "attempted": attempted, "failed": failed, "problems": problems}
    if correct and not args.trace:
        values, detail = end_to_end(untraced, probes)
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:<14} {values[name]:12.4f} {unit:<3} {detail[name]}")
        print(f"host speed vs reference host: {detail['host_speed']}")
        record["detail"] = detail
    elif correct:
        values = per_layer(untraced, traced)
        for layer in LAYERS:
            metrics[layer.name] = {"value": values[layer.name], "unit": layer.unit}
            print(f"{layer.name:<26} {values[layer.name]:16.6f} {layer.unit:<5} "
                  f"-> {layer.moves} on {layer.where}")
    record["metrics"] = metrics
    record["passes"] = passes
    record["probes"] = probes
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
