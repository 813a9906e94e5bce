"""Tests for the benchmark's own helpers: spans, percentiles and oracles."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from spans import Tracer, nearest_rank, tail_percentile  # noqa: E402


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=fake_clock([0, 10, 40, 100]))
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: inner())
    outer()
    o, i = tracer.stats["outer"], tracer.stats["inner"]
    assert (o.calls, o.incl_ns, o.self_ns) == (1, 100, 70)
    assert (i.calls, i.incl_ns, i.self_ns) == (1, 30, 30)


def test_recursive_span_counts_inclusive_time_once():
    # outer call 0..100 reaches itself 20..50, which calls a leaf 30..45
    tracer = Tracer(clock=fake_clock([0, 20, 30, 45, 50, 100]))
    leaf = tracer.span("leaf", lambda: None)

    def body(depth):
        return leaf() if depth else rec(1)

    rec = tracer.span("rec", body)
    rec(0)
    r, lf = tracer.stats["rec"], tracer.stats["leaf"]
    assert (r.calls, r.incl_ns, r.self_ns) == (2, 100, 85)
    assert (lf.calls, lf.incl_ns, lf.self_ns) == (1, 15, 15)


def test_span_survives_exceptions():
    tracer = Tracer(clock=fake_clock([0, 5]))

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.span("boom", boom)()
    assert tracer.stats["boom"].calls == 1 and not tracer._stack


@pytest.mark.parametrize("n, rank", [
    (1380, 1367),  # p99 leaves 13 samples beyond
    (1000, 990),   # p99 leaves exactly 10
    (690, 680),    # p99 would leave 6: the highest rank that leaves 10
    (11, 1),
    (10, 10),      # too few samples: the maximum
    (1, 1),
])
def test_tail_keeps_ten_samples_beyond(n, rank):
    got_pct, got = tail_percentile(list(range(n, 0, -1)))
    assert (got, got_pct) == (rank, pytest.approx(100.0 * rank / n))


def test_nearest_rank_median_of_two_is_the_smaller():
    assert nearest_rank([3.0, 1.0], 50) == 1.0
    assert nearest_rank([5, 1, 4, 2, 3], 50) == 3


def test_mori_oracle_marks_a_wrong_outcome_failed():
    from toricmds import catalog, mmp

    inputs = [("p2", (1, 0, 0), "first", 0), ("p2", (-1, 0, 0), "first", 0)]
    answers = [
        (mmp.run_mori_program(catalog.get(n), d, strategy=s, seed=k), None)
        for n, d, s, k in inputs
    ]
    assert worker.check_mori(inputs, answers)[0] == 0
    answers[0][0].outcome = "fiber-type"
    failed, problems, _ = worker.check_mori(inputs, answers)
    assert failed == 1 and problems


def test_atlas_and_verify_oracles_mark_wrong_answers_failed():
    short = types.SimpleNamespace(chambers=[], adjacency=[])
    assert worker.check_atlas([(short, None), (None, "boom")])[0] == 2
    text = "hypothesis coverage across audited instances:\n  small-ray-codimension: 1\nalarms: none\n"
    failed, problems, _ = worker.check_verify([((0, text), None)])
    assert failed == 1 and "coverage" in problems[0]


def test_uninstall_restores_every_entry_point():
    import toricmds
    from toricmds import fan, linalg, mdscones, mmp

    before = (linalg.solve, fan.build_fan, toricmds.build_fan, fan.data,
              mmp.flip, mdscones.chamber_atlas, toricmds.chamber_atlas,
              fan.FanData.__dict__["walls"].func)
    tracer = Tracer()
    try:
        worker.install_spans(tracer)
        assert linalg.solve is not before[0] and toricmds.build_fan is fan.build_fan
    finally:
        tracer.uninstall()
    after = (linalg.solve, fan.build_fan, toricmds.build_fan, fan.data,
             mmp.flip, mdscones.chamber_atlas, toricmds.chamber_atlas,
             fan.FanData.__dict__["walls"].func)
    assert all(a is b for a, b in zip(before, after))


def traced_small_mori(seed):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "mori", "--seed", str(seed),
         "--divisors", "1", "--trace"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_traced_counts_repeat_in_fresh_interpreters():
    runs = [traced_small_mori(5) for _ in range(2)]
    for r in runs:
        assert r["failed"] == 0 and not r["problems"]

    def counts(r):
        s = r["spans"]
        return (s["cones._vrep"][0], s["fan.build_fan.fast"][0], s["mmp.flip"][0],
                r["counters"]["fan.data.misses"], r["info"]["digest"])

    assert counts(runs[0]) == counts(runs[1])
