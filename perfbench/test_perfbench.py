"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mhgfilter import builtin_domain, format_trace, generate_trace  # noqa: E402


@pytest.fixture(scope="module")
def bookshelf():
    return builtin_domain("bookshelf")


@pytest.fixture(scope="module")
def mini():
    return builtin_domain("mini")


def test_same_seed_gives_byte_identical_traces(bookshelf):
    def texts(seed):
        sym = inputs.symmetric_slots_domain()
        return ([format_trace(t) for t in inputs.install_traces(bookshelf, seed, 2)]
                + [format_trace(inputs.connect_trace(bookshelf, seed)),
                   format_trace(inputs.symmetric_trace(sym, seed)),
                   json.dumps(inputs.symmetric_slots_document(), sort_keys=True)]
                + [format_trace(op.trace) for op in workloads.mini_ops(
                    builtin_domain("mini"), seed)])

    for seed in (0, 7):
        assert texts(seed) == texts(seed)


def test_install_traces_hold_every_install_and_no_connect(bookshelf):
    for t in inputs.install_traces(bookshelf, 2, 4):
        assert len(t) == 30
        assert sum(a.action == "installEccentric" for a in t) == 14
        assert t[-1].action == "installEccentric"
        assert all(a.action != "connectBoards" for a in t)


def _sites_now():
    return [owner.__dict__.get(attr) for owner, attr, *_ in tracer.SITES]


def test_wrappers_are_removed_after_a_traced_run(mini):
    before = _sites_now()
    trace, _ = generate_trace(mini, seed=1, length=8)
    with tracer.Tracer() as t, speed.WallClock() as clock:
        assert all(a is not b for a, b in zip(_sites_now(), before))
        workloads.run_compare(mini, workloads.Op("short", trace), clock)
    assert all(a is b for a, b in zip(_sites_now(), before))
    assert t.spans


def test_wrappers_are_removed_when_the_run_raises(mini):
    before = _sites_now()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_sites_now(), before))


def _run_ops(domain, ops, runner=workloads.run_filter):
    r = run.Run(workloads.Workload("test", None, None, runner), speed.WallClock)
    with speed.WallClock() as clock:
        r.run_ops(domain, ops, clock)
    return r


def test_planted_wrong_references_count_as_failures(bookshelf):
    trace = inputs.connect_trace(bookshelf, 0, rounds=1)
    counts = workloads.counted(trace, "connectBoards", 13)
    ll = inputs.replay_log_likelihood(bookshelf, trace)
    good = workloads.Op("good", trace, counts, ll)
    wrong_ll = workloads.Op("wrong ll", trace, counts, ll + 1e-6)
    wrong_count = workloads.Op("wrong count", trace, counts[:-1] + [counts[-1] + 1], ll)
    r = _run_ops(bookshelf, [good, wrong_ll, wrong_count])
    assert (r.attempted, r.failed) == (3, 2)


def test_an_operation_that_raises_counts_as_a_failure(mini):
    trace, _ = generate_trace(mini, seed=3, length=10, corrupt_at=4)
    with tracer.Tracer() as t:
        r = _run_ops(mini, [workloads.Op("corrupt", trace)], workloads.run_compare)
    assert (r.attempted, r.failed) == (1, 1)
    assert tracer.layer_metrics(t.spans)["rewrite.lifted_apply_calls"] > 0


def _traced_counts(domain, ops, runner):
    with tracer.Tracer() as t, speed.WallClock() as clock:
        for op in ops:
            runner(domain, op, clock)
    m = tracer.layer_metrics(t.spans)
    return {k: v for k, v in m.items() if run.PER_LAYER[k][0] != "s"}


def test_per_layer_counts_repeat_exactly(mini):
    ops = [workloads.Op(str(s), generate_trace(mini, seed=s, length=12)[0])
           for s in range(4)]
    first = _traced_counts(mini, ops, workloads.run_compare)
    assert first == _traced_counts(mini, ops, workloads.run_compare)
    assert first["rewrite.lifted_apply_calls"] > 0
    assert first["canon.ground_calls"] > 0


def _traced_run(mini, tmp_path, monkeypatch):
    """A whole ``--trace 1`` run of a short mini workload: one untraced pass,
    then two traced ones."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    trace, _ = generate_trace(mini, seed=2, length=8)
    w = workloads.Workload("test", lambda: mini,
                           lambda domain, seed: [workloads.Op("short", trace)],
                           workloads.run_compare)
    r = run.Run(w, speed.WallClock)
    run.per_layer(r, 0, 0.0)
    return r


def test_a_clean_traced_run_passes_its_checks(mini, tmp_path, monkeypatch):
    r = _traced_run(mini, tmp_path, monkeypatch)
    assert r.failed == 0
    assert (tmp_path / "spans_test_seed0.tsv").is_file()


def test_a_site_the_tracer_cannot_find_fails_the_run(mini, tmp_path, monkeypatch):
    class Gone:
        pass

    monkeypatch.setattr(tracer, "SITES", tracer.SITES + (
        (Gone, "renamed", "canon.lifted", "call", None, None),))
    assert _traced_run(mini, tmp_path, monkeypatch).failed == 1


def test_counts_that_differ_between_traced_passes_fail_the_run(
        mini, tmp_path, monkeypatch):
    real, calls = tracer.layer_metrics, iter(range(100))

    def drifting(spans):
        m = real(spans)
        m["rewrite.fallbacks"] += next(calls)
        return m

    monkeypatch.setattr(tracer, "layer_metrics", drifting)
    assert _traced_run(mini, tmp_path, monkeypatch).failed == 1


def test_mini_sweep_reproduces_the_fallback_baseline(mini):
    counts = _traced_counts(mini, workloads.mini_ops(mini, 0), workloads.run_compare)
    assert counts["rewrite.lifted_apply_calls"] == 5020
    assert counts["rewrite.fallbacks"] == 159
    assert counts["rewrite.fallback_groundings"] == 724


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "mini_compare", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_clock_excludes_its_kernel_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    t0 = perf_counter()
    with speed.SpeedClock() as clock:
        end = perf_counter() + 0.5
        while perf_counter() < end:
            pass
        wall, ref = clock.now()
    elapsed = perf_counter() - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert 0.3 < wall < elapsed
    assert ref > 0
