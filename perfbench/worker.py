"""One fresh interpreter of the toricmds benchmark.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py WORKLOAD --seed N [--trace] [--divisors N]

`setup` times importing toricmds and building every catalog fan. A workload
run asserts that the package's process-wide caches (the fan-data registry
and the built-catalog cache) are empty, runs the workload's requests one at
a time, then checks every answer with tracing switched off. The result is
one JSON object on the last line of stdout. Run with `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402

ATLAS_FANS = ("blpt-p1x4", "fano-flip-model")
ATLAS_CHAMBERS = 95
ATLAS_ADJACENCIES = 234
MORI_STRATEGIES = ("first", "random", "scaling")
MORI_DIVISORS = 40
VERIFY_ARGV = ("verify", "--all-catalog")
VERIFY_AUDITED = 7
# Frozen hypothesis coverage of `verify --all-catalog` (acceptance criterion 7).
VERIFY_COVERAGE = {
    "elementary-fiber-type": 7,
    "nonregular-quasi-elementary": 1,
    "nonregular-curve-target": 0,
    "nonregular-surface-target": 1,
    "regular-surface-target": 2,
    "movable-effective-extremal": 6,
    "elementary-threefold-target": 4,
    "low-divisor-codimension": 5,
    "high-divisor-codimension": 0,
    "small-ray-codimension": 1,
}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- workloads ------------------------------------------------------------
#
# A workload is a list of zero-argument requests plus a check over their
# answers. Requests look every package function up at call time, so the
# wrappers a Tracer installs are the ones that run.


class Workload:
    def __init__(self, requests, check):
        self.requests = requests
        self.check = check


def atlas_workload(seed: int, divisors: int) -> Workload:
    from toricmds import catalog, mdscones

    def request(name):
        return mdscones.chamber_atlas(catalog.get(name))

    return Workload([functools.partial(request, n) for n in ATLAS_FANS], check_atlas)


def check_atlas(answers, tracer=None):
    """(failed requests, problems, info) for the cold and warm atlases."""
    from toricmds import fan as fanmod

    failed, problems = 0, []
    cone_sets = []
    for name, (atlas, err) in zip(ATLAS_FANS, answers):
        if err is not None:
            failed += 1
            problems.append(f"atlas {name}: {err}")
            continue
        got = (len(atlas.chambers), len(atlas.adjacency))
        if got != (ATLAS_CHAMBERS, ATLAS_ADJACENCIES):
            failed += 1
            problems.append(
                f"atlas {name}: {got[0]} chambers and {got[1]} adjacencies, "
                f"expected {ATLAS_CHAMBERS} and {ATLAS_ADJACENCIES}"
            )
        cone_sets.append({ch.cone for ch in atlas.chambers})
    if len(cone_sets) == 2 and cone_sets[0] != cone_sets[1]:
        failed += 1
        problems.append("cold and warm atlases have different chamber cones")
    info = {}
    if tracer is not None and failed == 0:
        small = sum(
            1
            for atlas, _ in answers
            for ch in atlas.chambers
            for ray in fanmod.data(ch.model).extremal_rays
            if ray.kind == "small"
        )
        info["small_rays"] = small
        flips = tracer.counters.get("atlas.flips", 0)
        surgeries = tracer.counters.get("mmp.surgeries", 0)
        if not flips == surgeries == small:
            problems.append(
                f"traced {flips} atlas flips and {surgeries} surgeries, "
                f"chamber search attempts {small}"
            )
    return failed, problems, info


def mori_inputs(seed: int, divisors: int):
    """(catalog name, divisor, strategy, random seed) for every program.

    Divisor lengths come from the catalog metadata, so no fan is built
    before the first request.
    """
    from toricmds import catalog

    out = []
    for name in catalog.names():
        entry = catalog.CATALOG[name]
        rng = random.Random(f"toricmds-mori:{seed}:{name}")
        for k in range(divisors):
            div = tuple(rng.randint(-3, 3) for _ in range(entry.dim + entry.rho))
            for strategy in MORI_STRATEGIES:
                out.append((name, div, strategy, k))
    return out


def mori_workload(seed: int, divisors: int) -> Workload:
    from toricmds import catalog, mmp

    inputs = mori_inputs(seed, divisors)

    def request(name, div, strategy, k):
        return mmp.run_mori_program(catalog.get(name), div, strategy=strategy, seed=k)

    return Workload([functools.partial(request, *inp) for inp in inputs],
                    functools.partial(check_mori, inputs))


def check_mori(inputs, answers, tracer=None):
    """Each outcome is semiample exactly when the divisor is effective."""
    from toricmds import catalog, mmp

    failed, problems = 0, []
    digest = hashlib.sha256()
    steps = 0
    for (name, div, strategy, k), (res, err) in zip(inputs, answers):
        if err is not None:
            failed += 1
            problems.append(f"mori {name} {div} {strategy}: {err}")
            continue
        digest.update(mmp.trace_text(res).encode())
        steps += res.n_flips + res.n_contractions
        expected = mmp.divisor_in_effective_cone(catalog.get(name), div)
        if (res.outcome == "semiample") != expected:
            failed += 1
            if len(problems) < 5:
                problems.append(
                    f"mori {name} {div} {strategy}: outcome {res.outcome}, "
                    f"effective {expected}"
                )
    info = {"digest": digest.hexdigest(), "surgery_steps": steps}
    if tracer is not None:
        seen = tracer.counters.get("mmp.surgeries", 0)
        if seen != steps:
            problems.append(f"traced {seen} surgeries, traces record {steps}")
    return failed, problems, info


def verify_workload(seed: int, divisors: int) -> Workload:
    from toricmds import cli

    def request():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(list(VERIFY_ARGV))
        return code, out.getvalue()

    return Workload([request], check_verify)


def parse_coverage(text: str) -> dict[str, int]:
    coverage: dict[str, int] = {}
    in_section = False
    for line in text.splitlines():
        if line.startswith("hypothesis coverage"):
            in_section = True
        elif in_section and line.startswith("  "):
            key, _, val = line.strip().rpartition(": ")
            coverage[key] = int(val)
        else:
            in_section = False
    return coverage


def check_verify(answers, tracer=None):
    failed, problems = 0, []
    for answer, err in answers:
        if err is not None:
            failed += 1
            problems.append(f"verify: {err}")
            continue
        code, text = answer
        headers = sum(1 for line in text.splitlines() if line.startswith("== "))
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        if "alarms: none" not in text.splitlines():
            bad.append("alarms raised")
        if headers != VERIFY_AUDITED:
            bad.append(f"{headers} audited instances, expected {VERIFY_AUDITED}")
        coverage = parse_coverage(text)
        if coverage != VERIFY_COVERAGE:
            bad.append(f"coverage {coverage}")
        if bad:
            failed += 1
            problems.append("verify: " + "; ".join(bad))
    return failed, problems, {}


WORKLOADS = {
    "atlas": atlas_workload,
    "mori": mori_workload,
    "verify": verify_workload,
}


# -- spans ----------------------------------------------------------------

def install_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer, from outside."""
    from toricmds import catalog, cli, cones, fan, fano, linalg, lp, mdscones, mmp

    for attr in ("solve", "rank", "integer_kernel", "det", "hermite"):
        tracer.trace_function(linalg, attr)
    tracer.trace_function(lp, "nonneg_solve")
    tracer.trace_function(cones, "_vrep")
    for attr in ("all_faces", "intersect", "contains_cone", "dual"):
        tracer.trace_method(cones.PolyCone, attr, f"cones.PolyCone.{attr}")

    build_fan = fan.build_fan
    by_level = {
        level: tracer.span(f"fan.build_fan.{level}", build_fan)
        for level in ("full", "fast", "none")
    }

    def traced_build_fan(dim, rays, max_cones, check="full"):
        return by_level.get(check, build_fan)(dim, rays, max_cones, check=check)

    tracer.patch_function(fan, "build_fan", traced_build_fan)

    registry = fan._FAN_DATA
    data_span = tracer.span("fan.data", fan.data)

    def traced_data(f):
        before = len(registry)
        out = data_span(f)
        if len(registry) > before:
            tracer.count("fan.data.misses")
        return out

    tracer.patch_function(fan, "data", traced_data)
    for prop in ("walls", "extremal_rays", "nef_cone", "mov_cone", "eff_cone"):
        tracer.trace_cached_property(fan.FanData, prop, f"fan.FanData.{prop}")

    # Catalog construction runs a Mori program of its own; surgeries outside
    # it are the ones the answers returned to the benchmark record.
    flip_span = tracer.span("mmp.flip", mmp.flip)
    contract_span = tracer.span("mmp.contract_divisorial", mmp.contract_divisorial)

    def traced_flip(f, ray):
        if tracer.active("mdscones.chamber_atlas"):
            tracer.count("atlas.flips")
        if not tracer.active("catalog.build"):
            tracer.count("mmp.surgeries")
        return flip_span(f, ray)

    def traced_contract(f, ray):
        if not tracer.active("catalog.build"):
            tracer.count("mmp.surgeries")
        return contract_span(f, ray)

    tracer.patch_function(mmp, "flip", traced_flip)
    tracer.patch_function(mmp, "contract_divisorial", traced_contract)
    program_span = tracer.span("mmp.run_mori_program", mmp.run_mori_program)

    def traced_program(*args, **kwargs):
        res = program_span(*args, **kwargs)
        tracer.count("mmp.steps", len(res.steps))
        return res

    tracer.patch_function(mmp, "run_mori_program", traced_program)

    atlas_span = tracer.span("mdscones.chamber_atlas", mdscones.chamber_atlas)

    def traced_atlas(*args, **kwargs):
        atlas = atlas_span(*args, **kwargs)
        tracer.count("atlas.new_chambers", len(atlas.chambers) - 1)
        return atlas

    tracer.patch_function(mdscones, "chamber_atlas", traced_atlas)
    for attr in ("cone_inventory", "rational_contractions", "is_quasi_elementary",
                 "target_model"):
        tracer.trace_function(mdscones, attr)
    tracer.trace_function(fano, "audit_bounds")
    tracer.trace_function(fano, "c_invariant")
    # Only cache misses reach the function inside the lru_cache, so the
    # span counts fan constructions.
    tracer.patch_function(
        catalog, "_built",
        functools.lru_cache(maxsize=None)(
            tracer.span("catalog.build", catalog._built.__wrapped__)
        ),
    )
    tracer.trace_function(cli, "run")


# -- entry points ---------------------------------------------------------

def run_setup() -> dict:
    t0 = time.perf_counter()
    from toricmds import catalog

    for name in catalog.names():
        catalog.get(name)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "rss_mb": rss_mb()}


def run_workload(name: str, seed: int, trace: bool, divisors: int) -> dict:
    from toricmds import catalog, fan

    problems = []
    if fan._FAN_DATA or catalog._built.cache_info().currsize:
        problems.append("package caches are not empty at workload start")
    workload = WORKLOADS[name](seed, divisors)
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_spans(tracer)
    answers, latencies = [], []
    clock = time.perf_counter
    try:
        start = clock()
        for request in workload.requests:
            t0 = clock()
            try:
                answer, err = request(), None
            except Exception:  # a failed request is counted, and the loop goes on
                answer, err = None, traceback.format_exc(limit=-3).strip()
            latencies.append(clock() - t0)
            answers.append((answer, err))
        answer_s = clock() - start
        peak = rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
    entries = len(fan._FAN_DATA)
    failed, more, info = workload.check(answers, tracer)
    problems += more
    out = {
        "answer_s": answer_s,
        "latencies_s": latencies,
        "rss_mb": peak,
        "attempted": len(answers),
        "failed": failed,
        "problems": problems,
        "info": info,
    }
    if tracer is not None:
        misses = tracer.counters.get("fan.data.misses", 0)
        if misses != entries:
            problems.append(
                f"traced {misses} fan.data misses, registry holds {entries} entries"
            )
        out["registry_entries"] = entries
        out["counters"] = tracer.counters
        out["spans"] = {
            k: [s.calls, s.incl_ns / 1e9, s.self_ns / 1e9]
            for k, s in tracer.stats.items()
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=["setup", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--divisors", type=int, default=MORI_DIVISORS,
                        help="random divisors per catalog fan in the mori workload")
    args = parser.parse_args(argv)
    if args.role == "setup":
        result = run_setup()
    else:
        result = run_workload(args.role, args.seed, args.trace, args.divisors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
