"""Request streams, tail percentiles, output checks and one end-to-end pass."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.measure import TAIL_BEYOND, request_tail, tail_percentile
from perfbench.tracer import Tracer
from perfbench.workloads import REPEAT, WORKLOADS, Request, check_payload, request_blocks

ROOT = Path(__file__).resolve().parents[2]


def test_tail_has_enough_samples_beyond_it():
    for count in range(TAIL_BEYOND + 1, 5001):
        percentile, rank = tail_percentile(count)
        assert count - rank >= TAIL_BEYOND
        if percentile < 99:  # the next whole percentile would leave too few
            assert count - -(-(percentile + 1) * count // 100) < TAIL_BEYOND


def test_tail_needs_eleven_samples_and_reads_the_nearest_rank():
    with pytest.raises(ValueError):
        tail_percentile(TAIL_BEYOND)
    latencies = [float(value) for value in range(100, 0, -1)]
    assert request_tail(latencies) == (90.0, 90)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_blocks_are_seeded_and_hold_every_kind_once(name):
    workload = WORKLOADS[name]
    first = list(itertools.islice(request_blocks(workload, 5), 6))
    again = list(itertools.islice(request_blocks(workload, 5), 6))
    other = list(itertools.islice(request_blocks(workload, 6), 6))
    assert first == again
    assert first != other
    kinds = sorted(kind.name for kind in workload.kinds)
    previous = None
    for block in first:
        assert sorted(request.kind for request in block) == kinds
        for request in block:
            if request.kind == REPEAT:
                assert previous is not None
                assert (request.experiment, request.params) == (
                    previous.experiment,
                    previous.params,
                )
            previous = request
    for block in first:  # the repeat is the block's only store hit
        keys = [(r.experiment, json.dumps(r.params)) for r in block if r.kind != REPEAT]
        assert len(set(keys)) == len(keys)


def test_workloads_are_the_ones_benchmark_json_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)


def test_check_payload_rejects_wrong_answers():
    request = Request("thm4", "THM4", (("degrees", [4]),))
    good = {
        "experiment_id": "THM4",
        "params": {"degrees": [4]},
        "headers": ["n", "expansion", "dilation"],
        "rows": [[4, 1.0, 3]],
        "summary": {"claim_holds": True},
    }
    assert check_payload(request, good) is None
    assert check_payload(request, {**good, "rows": [[4, 1.0, 2]]})
    assert check_payload(request, {**good, "summary": {"claim_holds": False}})
    assert check_payload(request, {**good, "params": {"degrees": [5]}})
    assert check_payload(request, {**good, "rows": []})


def test_traced_pass_matches_untraced_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    workload = WORKLOADS["wholegraph-bfs"]
    untraced = bench.run_requests(workload, 3, blocks=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.run_requests(workload, 3, blocks=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert untraced.failures == [] and traced.failures == []
    assert untraced.attempted == traced.attempted == len(workload.kinds)
    assert untraced.digest == traced.digest
    assert untraced.digest == bench.run_requests(workload, 3, blocks=1).digest
    assert list(tmp_path.iterdir()) == []  # each pass removes its store


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "paper-embed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_local_speed_factors_use_the_median_of_nearby_samples():
    from perfbench.speed import REFERENCE_SECONDS, local_speed_factors

    base = REFERENCE_SECONDS / 2
    factors = local_speed_factors([base, base, 4 * base, base, base, 3 * base, 3 * base, 3 * base])
    assert factors[:4] == [2.0, 2.0, 2.0, 2.0]  # one slow sample is ignored
    assert factors[-1] == pytest.approx(2 / 3)  # a slow spell is not
