"""Closed-loop benchmark of the ``repro`` experiment runner.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sampled-s13 --seed 1 --seconds 20 --trace 0

One client sends one request at a time and sends the next only when the
previous one has returned.  A request is one registry experiment run through
the public runner: ``plan_shards`` then ``run_shards(jobs=1)`` into an
``ArtifactStore``.  Requests come in whole blocks generated from ``--seed``
(see :mod:`perfbench.workloads`) until ``--seconds`` have passed; each block
gets a fresh store, so every block has the same store hits.

Every timing is scaled to a reference host speed (:mod:`perfbench.speed`):
a fixed kernel is timed after each request, outside the request's timing.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` wraps the public
functions of every layer (:mod:`perfbench.tracer`), runs the same stream for
half of ``--seconds``, reports the per-layer metrics and replays the traced
requests without tracing in a child process to measure the tracing overhead.  Both print a
summary, then one JSON object as the last line of standard output; a failed
request makes ``correct`` false.  Without ``src/repro`` the process exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of the benchmark inside the checkout (stores, span files).
OUT = ROOT / ".perfbench"
#: Fresh-interpreter set-ups timed per run, beside the run's own set-up.
SETUP_PROBES = 4
#: Wall-clock limit of one child process.
CHILD_TIMEOUT_S = 150

#: ``RunReport.metrics`` counts summed over a run's requests.
RUNNER_TOTALS = ("shards", "cached", "failed", "retries")


@dataclass
class RunLog:
    """What one pass over a request stream observed."""

    blocks: int = 0
    attempted: int = 0
    spent: List[float] = field(default_factory=list)  # every attempted request
    latencies: List[float] = field(default_factory=list)  # completed requests
    completed_at: List[int] = field(default_factory=list)  # their request index
    failures: List[str] = field(default_factory=list)
    elapsed: float = 0.0  # request stream wall time, reference kernels excluded
    reference: List[float] = field(default_factory=list)  # one sample per request
    digest: str = ""
    digest_requests: int = 0
    runner: Dict[str, float] = field(default_factory=dict)


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def run_requests(workload, seed: int, *, seconds=None, blocks=None, tracer=None) -> RunLog:
    """Issue whole request blocks until *seconds* pass (or exactly *blocks*).

    Every request is checked (:func:`perfbench.workloads.check_payload`); the
    digest covers the canonical payloads of the first ``MIN_BLOCKS``
    blocks, which every run completes.  Each block writes to a fresh
    artifact store, removed when the block ends.
    """
    from repro.experiments.artifacts import ArtifactStore
    from repro.experiments.runner import plan_shards, run_shards

    from perfbench.speed import ReferenceKernel
    from perfbench.workloads import MIN_BLOCKS, check_payload, request_blocks

    kernel = ReferenceKernel()
    log = RunLog(runner={key: 0 for key in (*RUNNER_TOTALS, "store_bytes")})
    digest = hashlib.sha256()
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    for block in request_blocks(workload, seed):
        store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT)
        try:
            store = ArtifactStore(store_dir)
            for request in block:

                def issue():
                    shards = plan_shards([request.experiment], overrides=request.overrides())
                    return run_shards(shards, jobs=1, store=store)

                report = None
                error: Optional[str] = None
                sent = time.perf_counter()
                try:
                    report = issue() if tracer is None else tracer.request(issue)
                except Exception as exc:  # noqa: BLE001 - a failed request is data
                    error = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - sent
                log.attempted += 1
                log.spent.append(latency)
                payload = None
                if report is not None:
                    for key in RUNNER_TOTALS:
                        log.runner[key] += report.metrics[key]
                    if report.failed:
                        error = report.failed[0].error
                    else:
                        payload = report.records[0]["payload"]
                        error = check_payload(request, payload)
                if error is None:
                    log.latencies.append(latency)
                    log.completed_at.append(log.attempted - 1)
                else:
                    log.failures.append(
                        f"{request.experiment} {request.overrides()}: {error}"
                    )
                if log.blocks < MIN_BLOCKS:
                    digest.update(_canonical(payload) if error is None else b"failed")
                    log.digest_requests += 1
                log.reference.append(kernel.sample())
            log.runner["store_bytes"] += sum(
                path.stat().st_size for path in Path(store_dir).iterdir()
            )
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        log.blocks += 1
        if blocks is not None:
            if log.blocks >= blocks:
                break
        elif (
            log.blocks >= MIN_BLOCKS
            and time.perf_counter() - started - sum(log.reference) >= seconds
        ):
            break
    log.elapsed = time.perf_counter() - started - sum(log.reference)
    log.digest = digest.hexdigest()
    return log


def _child(args: List[str]) -> str:
    """Run ``python3 <args>`` from the root; its standard output's last line."""
    completed = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"child {args} exited {completed.returncode}: {completed.stderr[-2000:]}"
        )
    return completed.stdout.strip().splitlines()[-1]


def _setup_samples(workload_name: str, own: float) -> List[float]:
    """The run's own set-up and ``SETUP_PROBES`` fresh ones, in reference seconds."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        samples.append(float(_child(["perfbench/probe.py", workload_name])))
    return samples


def _result(log: RunLog, metrics: Dict[str, float], units: Dict[str, str], consistent=True):
    result = {
        "correct": consistent and not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    return result


def timed_setup(workload) -> float:
    """Wall seconds to import ``repro`` and warm *workload*: the set-up region
    of the run and of every fresh-interpreter probe (``perfbench/probe.py``)."""
    from perfbench.workloads import warm

    started = time.perf_counter()
    warm(workload)
    return time.perf_counter() - started


def untraced(args, workload, setup_own: float) -> dict:
    from perfbench.measure import TAIL_BEYOND, median, metric_units, request_tail
    from perfbench.speed import local_speed_factors, speed_factor

    log = run_requests(workload, args.seed, seconds=args.seconds)
    scale = speed_factor(log.reference)
    local = local_speed_factors(log.reference)
    scaled = [
        latency * local[index] for latency, index in zip(log.latencies, log.completed_at)
    ]
    samples = _setup_samples(workload.name, setup_own * scale)
    completed = len(log.latencies)
    if completed > TAIL_BEYOND:
        tail, percentile = request_tail(scaled)
        raw_tail, _ = request_tail(log.latencies)
    else:  # too many failures for a tail; the run is not correct anyway
        tail, percentile = max(scaled, default=0.0), 100
        raw_tail = max(log.latencies, default=0.0)
    metrics = {
        "setup_s": median(samples),
        "requests_per_s": completed / sum(map(operator.mul, log.spent, local)),
        "request_p50_s": median(scaled or [0.0]),
        "request_tail_s": tail,
        "completed_frac": completed / log.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _summary(args, log)
    notes = {
        "setup_s": f"median of {len(samples)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in samples),
        "requests_per_s": f"{completed / sum(log.spent):.4f} at this host's speed",
        "request_p50_s": f"{median(log.latencies or [0.0]):.4f} at this host's speed",
        "request_tail_s": f"p{percentile} of {completed} completed requests; "
        f"{raw_tail:.4f} at this host's speed",
        "completed_frac": f"failed_frac {len(log.failures) / log.attempted:.4f}",
    }
    units = metric_units("end_to_end")
    for name, unit in units.items():
        print(f"  {name:<16} {metrics[name]:>12.4f} {unit:<6} {notes.get(name, '')}")
    return _result(log, metrics, units)


def traced(args, workload) -> dict:
    from perfbench.measure import layer_metrics, metric_units
    from perfbench.speed import speed_factor
    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        log = run_requests(workload, args.seed, seconds=args.seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    replay = json.loads(
        _child(
            [
                "perfbench/run.py",
                "--workload", workload.name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
                "--blocks", str(log.blocks),
            ]
        )
    )
    metrics = layer_metrics(
        tracer.spans,
        tracer.labels,
        tracer.counts,
        requests=log.attempted,
        runner=log.runner,
        untraced_wall=replay["metrics"]["request_wall_s"]["value"],
        scale=speed_factor(log.reference),
    )
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-{args.seed}.jsonl.gz"
    tracer.write(trace_path)
    _summary(args, log)
    same_digest = replay["digest"] == log.digest
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    print(
        f"  untraced replay digest {'matches' if same_digest else 'DIFFERS'}; "
        f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}; "
        f"sum of self {self_sum:.6f} + unattributed {metrics['unattributed_s']:.6f} "
        f"= traced wall {metrics['traced_wall_s']:.6f} s/req"
    )
    units = metric_units("per_layer")
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>14.6f} {unit}")
    return _result(log, metrics, units, consistent=same_digest and replay["correct"])


def replayed(args, workload) -> dict:
    """Untraced pass over exactly ``--blocks`` blocks (the overhead reference)."""
    from perfbench.speed import speed_factor

    log = run_requests(workload, args.seed, blocks=args.blocks)
    wall = sum(log.latencies) * speed_factor(log.reference)
    result = _result(log, {"request_wall_s": wall}, {"request_wall_s": "s"})
    result["digest"] = log.digest
    return result


def _summary(args, log: RunLog) -> None:
    from repro.backend import backend_name, neighbor_mode, use_numba

    from perfbench.speed import speed_factor

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{log.attempted} requests in {log.blocks} blocks over {log.elapsed:.2f} s, "
        f"host at {1 / speed_factor(log.reference):.3f}x the reference time, "
        f"{len(log.failures)} failed; payload digest {log.digest[:16]} "
        f"(first {log.digest_requests} requests); kernels: backend {backend_name()} "
        f"(numba {'on' if use_numba() else 'off'}), neighbours {neighbor_mode()}"
    )
    for failure in log.failures[:10]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blocks", type=int, default=None, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Every run uses the default kernels, whatever the caller's shell sets:
    # REPRO_BACKEND, REPRO_NEIGHBORS and REPRO_CHUNK_NODES switch kernel paths
    # without changing a payload, REPRO_CHAOS_* injects failures, and
    # in-program telemetry (REPRO_TRACE) stays off because the benchmark
    # measures from outside.  Child processes inherit the cleaned environment.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    # Any move-table cache lookup stays inside the checkout.
    os.environ["REPRO_TABLE_CACHE"] = str(OUT / "tables")
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    setup_own = timed_setup(workload)
    if args.blocks is not None:
        result = replayed(args, workload)
    elif args.trace:
        result = traced(args, workload)
    else:
        result = untraced(args, workload, setup_own)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    sys.exit(main())
