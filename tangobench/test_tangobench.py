"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest -q tangobench/test_tangobench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from repro.net.transport import LoopbackTransport  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": ""},
    )
    # The checkout layout the benchmark expects: src/ beside tangobench/.
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        n: v["unit"] for n, v in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "tangobench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _run_ops(workload, dep, doctor=None):
    """Run every op of *workload* on thread 0; *doctor(i)* may tamper first."""
    for i in range(workload.ops_per_thread):
        if doctor is not None:
            doctor(i)
        workload.step(dep, 0, i)


def test_answer_check_rejects_one_stale_get():
    w = workloads.ReadFollow(seed=5, seconds=1, fixed_ops=3000)
    dep = w.setup(LoopbackTransport(), "")
    preload = dict(dep.model)
    doctored = []

    def stale_once(i):
        key = w.keys[w.key_of[i]]
        reader = dep.maps[w.who[i]]
        if "get" in vars(reader):
            del reader.get  # back to the real accessor
        if not doctored and w.who[i] != 0 and dep.model[key] != preload[key]:
            reader.get = lambda k, default=None: preload[k]
            doctored.append(i)

    try:
        _run_ops(w, dep, stale_once)
        w.check(dep)
    finally:
        w.close(dep)
    assert doctored, "the inputs never re-read an overwritten key"
    assert len(dep.errors) == 1
    assert f"op {doctored[0]}:" in dep.errors[0]


def test_answer_check_passes_undoctored_read_follow():
    w = workloads.ReadFollow(seed=5, seconds=1, fixed_ops=1000)
    dep = w.setup(LoopbackTransport(), "")
    try:
        _run_ops(w, dep)
        w.check(dep)
    finally:
        w.close(dep)
    assert dep.errors == []


def test_answer_check_rejects_one_dropped_put(tmp_path):
    w = workloads.Ingest(seed=5, seconds=1, fixed_ops=500)
    dep = w.setup(LoopbackTransport(), str(tmp_path / "store"))
    target = w.map_of[300]

    def drop_one(i):
        tmap = dep.maps[target]
        if "put" in vars(tmap):
            del tmap.put
        if i == 300:
            tmap.put = lambda key, value: None

    try:
        _run_ops(w, dep, drop_one)
        w.check(dep)
    finally:
        w.close(dep)
    key = w.keys[w.key_of[300]]
    assert len(dep.errors) == 1, dep.errors
    assert f"map {target} key {key}" in dep.errors[0]


def test_answer_check_rejects_a_committed_read_of_a_lost_write():
    w = workloads.TxZipf(seed=5, seconds=1, fixed_ops=300)
    dep = w.setup(LoopbackTransport(), "")
    width = w.reads + w.writes
    doctored = None
    try:
        for i in range(w.ops_per_thread):
            if i < 100:
                w.step(dep, 0, i)
                continue
            # The model claims a write the log never got: what a lost
            # committed write looks like to the next reader of that key.
            key = w.keys[w.tx_keys[i * width]]
            real, commits = dep.model[key], dep.commits
            dep.model[key] = w.values(10**9)
            w.step(dep, 0, i)
            if dep.commits > commits:
                doctored = i
                break
            dep.model[key] = real
    finally:
        w.close(dep)
    assert doctored is not None
    assert len(dep.errors) == 1
    assert f"op {doctored}: committed tx" in dep.errors[0]


def test_wire_get_must_return_a_value_some_put_wrote():
    w = workloads.WireMix(seed=5, seconds=1, fixed_ops=200)
    put = next(i for i in range(w.ops_per_thread) if w.is_put[1][i])
    k = w.key_of[1][put]
    assert w.written_by_put(k, w.values(put * w.threads + 1))
    assert not w.written_by_put((k + 1) % w.key_space, w.values(put * w.threads + 1))
    assert not w.written_by_put(k, w.values(put * w.threads + 1)[:-1] + "?")


def test_wire_nodes_are_reaped_when_the_workload_raises(monkeypatch):
    started = []
    make = workloads.WireMix.make_supervisor

    def recording(self):
        sup = make(self)
        started.append(sup)
        return sup

    class Injected(BaseException):
        """Not an Exception, so the load loop does not count it as a failure."""

    def explode(self, dep, thread, i):
        raise Injected()

    monkeypatch.setattr(workloads.WireMix, "make_supervisor", recording)
    monkeypatch.setattr(workloads.WireMix, "step", explode)
    with pytest.raises(Injected):
        run.timed_run(workloads.WireMix, seed=1, seconds=0.5)
    assert len(started) == 1
    sup = started[0]
    assert sorted(sup.down_nodes()) == ["flash-0-0", "flash-0-1", "seq-0"]
