"""Tests of the benchmark's own machinery: oracles, seeding, tracing, refusal.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shlex
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_wrong_digest_is_one_failed_op_not_a_crash():
    golden = workloads.load_golden()
    key = shlex.join(["gen", "--spec", "specs/apery.spec"])
    golden[key] = dict(golden[key], sha256="0" * 64)
    records = workloads.run_ops(workloads.cli_corpus_ops(7, golden), {})
    failed = [r["op"] for r in records if not r["ok"]]
    assert failed == [key]
    assert len(records) == len(workloads.fixed_corpus()) + len(workloads.SEEDED_SHAPES)


def test_raising_or_unrecorded_op_fails_and_the_batch_goes_on():
    ops = [
        workloads.Op("raises", lambda notes: 1 / 0),
        workloads.golden_op(["gen", "--spec", "specs/apery.spec", "--n", "3"], None),
        workloads.identities_ops(0)[0],
    ]
    records = workloads.run_ops(ops, {})
    assert [r["ok"] for r in records] == [False, False, True]
    assert records[0]["error"].startswith("ZeroDivisionError")


def test_expected_usage_exit_is_not_a_failure():
    golden = workloads.load_golden()
    assert golden[shlex.join(["expand", "--spec", "specs/wseq.spec"])]["exit"] == 2
    argv = ["expand", "--spec", "specs/wseq.spec"]
    [record] = workloads.run_ops([workloads.golden_op(argv, golden[shlex.join(argv)])], {})
    assert record["ok"]


def test_seed_changes_values_not_sizes():
    a, b = workloads.seeded_tuples(1), workloads.seeded_tuples(2)
    assert a != b and workloads.seeded_tuples(1) == a
    for tuples in (a, b):
        for text, shape in zip(tuples, workloads.SEEDED_SHAPES):
            polys = text.split(", ")
            assert [int(p.split("t^")[1].split()[0]) if "t^" in p else 1 for p in polys] == list(shape)
    names = [[op.name for op in workloads.cli_corpus_ops(s)] for s in (1, 2)]
    assert len(names[0]) == len(names[1]) and names[0] != names[1]


def test_speed_clock_samples_inside_a_long_operation():
    import worker

    with worker.SpeedClock() as clock:
        end = time.perf_counter() + 0.45
        while time.perf_counter() < end:
            pass
    # one sample on entry, one per SAMPLE_S inside, one on exit
    assert len(clock.chunks) >= 5
    assert 0.4 < clock.plain < 0.5
    low, high = min(clock.chunks), max(clock.chunks)
    assert clock.plain * worker.REFERENCE_S / high <= clock.scaled <= clock.plain * worker.REFERENCE_S / low


TRACED_CALL = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import recint, recint.cli, tracing
tracer = tracing.install(recint)
import workloads
workloads.call_cli(["brackets", "t, t^3", "--n", "5"], {{}})
workloads.call_cli(["certify", "--spec", "specs/odd-mixed.spec", "--n", "12"], {{}})
print(json.dumps([tracer.counters, {{k: v[0] for k, v in tracer.stats.items()}}]))
"""


def test_traced_counts_repeat_exactly():
    code = TRACED_CALL.format(src=os.path.join(ROOT, "src"), bench=BENCH)
    runs = [
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
        for _ in range(2)
    ]
    counters, calls = json.loads(runs[0].stdout)
    assert json.loads(runs[1].stdout) == [counters, calls]
    assert counters["brackets.entries"] > 0 and counters["multipoly.mul.term_pairs"] > 0
    assert calls["cli.main"] == 2 and calls["certify.certify"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crosscheck", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
