"""toricmds benchmark: one command, every metric, every answer checked.

    python3 perfbench/run.py --workload {atlas,mori,verify} --seed N \\
        --seconds S --trace {0,1}

Run from a source checkout (the package is imported from ./src). Every
sample is a fresh, single-threaded interpreter, because the package keeps
process-wide caches; requests inside it run one at a time (a closed loop
with one client).

Interpreters keep their bytecode under .bench_build/pycache in the
checkout (PYTHONPYCACHEPREFIX), and one untimed set-up interpreter fills it
before anything is timed, so no timing includes compiling the sources,
whatever state the checkout's own __pycache__ directories are in.

--trace 0 measures the end-to-end metrics. Workload interpreters run one
after another, all on the same inputs, as long as another one of the
longest length so far still fits in S seconds of workload time (at least
one runs); each request statistic is taken per interpreter and reported as
its median over them. Set-up is timed in interpreters of its own, a batch
of SETUP_BATCH before each workload interpreter and more after the last
until there are SETUP_MIN, so that its samples spread over the run; it is
reported as their median. --trace 1 runs one untraced and one traced
interpreter and reports the per-layer spans; the difference of their
answer times is the tracing overhead.

Human-readable lines come first. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
when a result was printed, whether or not it is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PYCACHE = ROOT / ".bench_build" / "pycache"
sys.path.insert(0, str(HERE))

from spans import nearest_rank, tail_percentile  # noqa: E402

WORKLOADS = ("atlas", "mori", "verify")
SETUP_BATCH = 3
SETUP_MIN = 12
# Every interpreter must end before the run's own limit of 180 s.
RUN_LIMIT_S = 170.0

SPANS = (
    "linalg.solve", "linalg.rank", "linalg.integer_kernel", "linalg.det",
    "linalg.hermite",
    "lp.nonneg_solve",
    "cones._vrep", "cones.PolyCone.all_faces", "cones.PolyCone.intersect",
    "cones.PolyCone.contains_cone", "cones.PolyCone.dual",
    "fan.build_fan.full", "fan.build_fan.fast", "fan.build_fan.none", "fan.data",
    "fan.FanData.walls", "fan.FanData.extremal_rays", "fan.FanData.nef_cone",
    "fan.FanData.mov_cone", "fan.FanData.eff_cone",
    "mmp.flip", "mmp.contract_divisorial", "mmp.run_mori_program",
    "mdscones.chamber_atlas", "mdscones.cone_inventory",
    "mdscones.rational_contractions", "mdscones.is_quasi_elementary",
    "mdscones.target_model",
    "fano.audit_bounds", "fano.c_invariant",
    "catalog.build",
    "cli.run",
)
LAYERS = ("linalg", "lp", "cones", "fan", "mmp", "mdscones", "fano", "catalog", "cli")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_revision(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_worker(worker_args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another interpreter")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *worker_args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {worker_args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(
            f"worker {worker_args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float, say) -> tuple[dict, list[dict]]:
    setups = []

    def sample_setup() -> None:
        setups.extend(run_worker(["setup"], deadline) for _ in range(SETUP_BATCH))

    runs, busy_s, longest_s = [], 0.0, 0.0
    while not runs or busy_s + longest_s <= args.seconds:
        sample_setup()
        t0 = time.monotonic()
        runs.append(run_worker([args.workload, "--seed", str(args.seed)], deadline))
        took = time.monotonic() - t0
        busy_s, longest_s = busy_s + took, max(longest_s, took)
    while len(setups) < SETUP_MIN:
        sample_setup()
    answers = [r["answer_s"] for r in runs]
    p50s = [nearest_rank(r["latencies_s"], 50) for r in runs]
    tails = [tail_percentile(r["latencies_s"]) for r in runs]
    requests = sum(len(r["latencies_s"]) for r in runs)
    say("setup_s samples: " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    say("answer_s per interpreter: " + " ".join(f"{a:.4f}" for a in answers))
    say(f"requests: {requests} over {len(runs)} interpreters, "
        f"{requests / sum(answers):.3f} requests/s")
    say(f"request tail: p{tails[0][0]:.2f} of {len(runs[0]['latencies_s'])} samples "
        "per interpreter")
    metrics = {
        "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": metric(max(r["rss_mb"] for r in runs), "MB"),
        "answer_s": metric(statistics.median(answers), "s"),
        "request_p50_ms": metric(statistics.median(p50s) * 1e3, "ms"),
        "request_tail_ms": metric(statistics.median(t for _, t in tails) * 1e3, "ms"),
    }
    return metrics, runs


def per_layer(args, deadline: float, say) -> tuple[dict, list[dict]]:
    argv = [args.workload, "--seed", str(args.seed)]
    plain = run_worker(argv, deadline)
    traced = run_worker(argv + ["--trace"], deadline)
    spans = traced["spans"]
    counters = traced["counters"]
    if set(spans) != set(SPANS):
        traced["problems"].append(f"traced spans {sorted(spans)} differ from SPANS")
    metrics = {}
    for name in SPANS:
        calls, incl_s, self_s = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.incl_s"] = metric(incl_s, "s")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    for layer in LAYERS:
        total = sum(s[2] for n, s in spans.items() if n.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = metric(total, "s")
    data_calls = spans.get("fan.data", (0,))[0]
    misses = counters.get("fan.data.misses", 0)
    programs = spans.get("mmp.run_mori_program", (0,))[0]
    flips = counters.get("atlas.flips", 0)
    new = counters.get("atlas.new_chambers", 0)
    metrics.update({
        "fan.data.misses": metric(misses, "count"),
        "fan.data.hit_ratio": metric((data_calls - misses) / data_calls if data_calls else 0.0,
                                     "ratio"),
        "fan.data.entries": metric(traced["registry_entries"], "count"),
        "mmp.steps_per_program": metric(
            counters.get("mmp.steps", 0) / programs if programs else 0.0, "steps"),
        "atlas.flips": metric(flips, "count"),
        "atlas.new_chambers": metric(new, "count"),
        "atlas.new_chamber_ratio": metric(new / flips if flips else 0.0, "ratio"),
        "trace.answer_s": metric(traced["answer_s"], "s"),
        "trace.untraced_answer_s": metric(plain["answer_s"], "s"),
        "trace.overhead_frac": metric(traced["answer_s"] / plain["answer_s"] - 1.0, "ratio"),
    })
    say("deterministic counts: " + " ".join(
        f"{k}={v}" for k, v in (
            ("dd_conversions", spans.get("cones._vrep", (0,))[0]),
            ("build_fan", sum(spans.get(f"fan.build_fan.{lv}", (0,))[0]
                              for lv in ("full", "fast", "none"))),
            ("flips", spans.get("mmp.flip", (0,))[0]),
            ("fan_data_misses", misses),
            ("digest", traced["info"].get("digest", "-")),
        )))
    return metrics, [plain, traced]


def main(argv=None) -> int:
    # On SIGTERM, unwind so that subprocess.run kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "toricmds" / "__init__.py").is_file():
        print(f"no toricmds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    def say(line: str) -> None:
        print(line, flush=True)

    say("environment: " + json.dumps(environment(args)))
    try:
        run_worker(["setup"], deadline)  # untimed: fills the bytecode cache
        if not any(PYCACHE.rglob("*.pyc")):
            say(f"bytecode cache {PYCACHE} is not writable: timings include compiling")
        measure = per_layer if args.trace else end_to_end
        metrics, runs = measure(args, deadline, say)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    digests = {r["info"]["digest"] for r in runs if "digest" in r["info"]}
    if len(digests) > 1:
        problems.append("interpreters given the same inputs returned different traces")
    for p in problems:
        say(f"problem: {p}")
    for d in sorted(digests):
        say(f"trace digest: {d}")
    say(f"fail_frac: {failed / attempted:.6f} ({failed} of {attempted} requests)")
    for name, m in metrics.items():
        say(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
