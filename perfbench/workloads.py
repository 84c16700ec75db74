"""The benchmark's workloads: request streams, warm-up and output checks.

A request is one registry experiment at explicit parameters.  A workload is a
list of request *kinds*; each kind draws its parameters from a pool that the
workload seed generates.  Requests are issued in blocks: every block holds
each kind once, in a seed-shuffled order, and the *k*-th request of a kind
takes entry ``k mod len(pool)`` of its pool.  Runs therefore always contain
the same mix of kinds in whole blocks, whatever the seed, while parameters,
trial seeds and ordering change with it.  The benchmark gives every block a
fresh artifact store, so the one :data:`REPEAT` request of a block is its
only store hit however many blocks a run reaches.

Nothing here imports ``repro`` at module level: the set-up timing covers the
import (see :func:`warm`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "Request",
    "Kind",
    "Workload",
    "WORKLOADS",
    "request_blocks",
    "check_payload",
    "warm",
    "MIN_BLOCKS",
]

#: Pseudo experiment id of the kind that re-issues the previous request.
REPEAT = "repeat"

#: Blocks every run completes, however short ``--seconds``; the payload digest
#: covers exactly these, and they give every run more than ten requests.
MIN_BLOCKS = 3


@dataclass(frozen=True)
class Request:
    """One request: an experiment id and its parameters (JSON-safe values)."""

    kind: str
    experiment: str
    params: Tuple[Tuple[str, object], ...]

    def overrides(self) -> Dict[str, object]:
        return dict(self.params)


@dataclass(frozen=True)
class Kind:
    """One request kind: *pool(rng)* returns distinct parameter dicts."""

    name: str
    experiment: str
    pool: Callable[[random.Random], List[Dict[str, object]]]


@dataclass(frozen=True)
class Workload:
    """A named request mix with its warm-up (its reason is in ``BENCHMARK.json``)."""

    name: str
    kinds: Tuple[Kind, ...]
    warm: Callable[[], None]


def _seeds(rng: random.Random, count: int = 64) -> List[int]:
    return rng.sample(range(1, 2**31), count)


def _subsets(values, required) -> List[List[int]]:
    """Every subset of *values* joined with *required*, sorted."""
    out = []
    for size in range(len(values) + 1):
        for chosen in itertools.combinations(values, size):
            out.append(sorted(set(chosen) | set(required)))
    return out


def _shuffled(rng: random.Random, items: List) -> List:
    rng.shuffle(items)
    return items


# ------------------------------------------------------------ sampled-s13
def _sampled_kind(experiment: str, fault_count: int) -> Kind:
    def pool(rng):
        return [
            {
                "sizes": [13],
                "fault_counts": [fault_count],
                "trials": 1,
                "pairs_per_trial": 4,
                "depth": 4,
                "seed": seed,
            }
            for seed in _seeds(rng)
        ]

    short = "fault" if experiment == "SAMPLED-FAULT" else "stretch"
    return Kind(f"{short}-f{fault_count}", experiment, pool)


def _warm_sampled() -> None:
    from repro.simulation.sampled_campaign import sampled_campaign_instances

    for _name, topology in sampled_campaign_instances(13).values():
        topology.neighbor_source()


# ------------------------------------------------------------ paper-embed
def _warm_paper() -> None:
    from repro.permutations.ranking import move_tables
    from repro.topology.star import StarGraph

    for n in range(3, 9):
        move_tables(n)
        StarGraph(n)


def _lem2(rng: random.Random) -> List[Dict[str, object]]:
    return [{"degrees": [6], "seed": seed, "path_sample_nodes": 500} for seed in _seeds(rng)]


def _cmp(max_degree: int):
    def pool(rng: random.Random) -> List[Dict[str, object]]:
        return _shuffled(
            rng,
            [
                {"max_degree": max_degree, "embedding_degrees": d}
                for d in _subsets((3, 4), (5,))
            ],
        )

    return pool


#: Twelve slots: five cheaper than LEM2, the two LEM2 slots, five dearer.  The
#: median therefore falls between the two LEM2 slots (the middle of LEM2's
#: latencies, not one edge of them) and the tail inside the two CMP slots.
PAPER_KINDS: Tuple[Kind, ...] = (
    Kind(
        "thm4-n8",
        "THM4",
        lambda rng: _shuffled(rng, [{"degrees": d} for d in _subsets((3, 4), (8,))]),
    ),
    Kind(
        "thm4-n7",
        "THM4",
        lambda rng: _shuffled(rng, [{"degrees": d} for d in _subsets((3, 4), (7,))]),
    ),
    Kind("lem1", "LEM1", lambda rng: _shuffled(rng, [{"max_n": m} for m in (6, 7, 8)])),
    Kind("tab1", "TAB1", lambda rng: _shuffled(rng, [{"n": n} for n in (5, 6, 7, 8)])),
    Kind("lem2", "LEM2", _lem2),
    Kind("lem2-b", "LEM2", _lem2),
    Kind(
        "thm6",
        "THM6",
        lambda rng: _shuffled(rng, [{"degrees": d} for d in _subsets((3, 4), (6,))]),
    ),
    Kind(
        "prop-b",
        "PROP-B",
        lambda rng: _shuffled(rng, [{"degrees": d} for d in _subsets((3, 4), (7,))]),
    ),
    Kind(
        "conc",
        "CONC",
        lambda rng: [{"degrees": [6], "seed": seed} for seed in _seeds(rng)],
    ),
    Kind("cmp-7", "CMP", _cmp(7)),
    Kind("cmp-8", "CMP", _cmp(8)),
    Kind(REPEAT, REPEAT, lambda rng: [{}]),
)


# --------------------------------------------------------- wholegraph-bfs
def _warm_wholegraph() -> None:
    from repro.analysis.comparison import measured_instances
    from repro.permutations.ranking import move_tables
    from repro.simulation.campaign import campaign_instances

    for degree in (5, 6):
        for _name, topology in campaign_instances(degree).values():
            topology.neighbor_source()
    for degree in (4, 5):
        for _name, graph, _formula in measured_instances(degree).values():
            graph.neighbor_source()
    move_tables(7)


def _rates(rng: random.Random) -> List[float]:
    return sorted(rng.sample((0.05, 0.1, 0.2, 0.3), 2))


WHOLEGRAPH_KINDS: Tuple[Kind, ...] = (
    Kind(
        "family-d5",
        "NETWORK-FAMILY",
        lambda rng: [
            {"degrees": [5], "fault_trials": 4, "seed": seed}
            for seed in _seeds(rng)
        ],
    ),
    Kind(
        "family-d4",
        "NETWORK-FAMILY",
        lambda rng: [
            {"degrees": [4], "fault_trials": 4, "seed": seed}
            for seed in _seeds(rng)
        ],
    ),
    Kind(
        "connectivity-d6",
        "FAULT-CONNECTIVITY",
        lambda rng: [
            {"degrees": [6], "fault_rates": _rates(rng), "trials": 8, "seed": seed}
            for seed in _seeds(rng)
        ],
    ),
    Kind(
        "connectivity-d5",
        "FAULT-CONNECTIVITY",
        lambda rng: [
            {"degrees": [5], "fault_rates": _rates(rng), "trials": 20, "seed": seed}
            for seed in _seeds(rng)
        ],
    ),
    Kind(
        "stretch-d6",
        "FAULT-STRETCH",
        lambda rng: [
            {
                "degrees": [6],
                "fault_rates": [0.0] + _rates(rng),
                "trials": 3,
                "pairs_per_trial": 4,
                "seed": seed,
            }
            for seed in _seeds(rng)
        ],
    ),
    Kind(
        "stretch-d5",
        "FAULT-STRETCH",
        lambda rng: [
            {
                "degrees": [5],
                "fault_rates": [0.0] + _rates(rng),
                "trials": 10,
                "pairs_per_trial": 8,
                "seed": seed,
            }
            for seed in _seeds(rng)
        ],
    ),
    Kind(
        "prop-d-n7",
        "PROP-D",
        lambda rng: [
            {"degrees": [7], "fault_trials": 50, "seed": seed}
            for seed in _seeds(rng)
        ],
    ),
)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sampled-s13",
            kinds=tuple(
                _sampled_kind(experiment, faults)
                for experiment in ("SAMPLED-FAULT", "SAMPLED-STRETCH")
                for faults in (0, 6, 16)
            ),
            warm=_warm_sampled,
        ),
        Workload(
            name="paper-embed",
            kinds=PAPER_KINDS,
            warm=_warm_paper,
        ),
        Workload(
            name="wholegraph-bfs",
            kinds=WHOLEGRAPH_KINDS,
            warm=_warm_wholegraph,
        ),
    )
}


def warm(workload: Workload) -> None:
    """Import the runner and warm what the workload's requests share.

    Dense move tables and topology instances are built here; the SIMD
    program and plan caches stay cold, because every ``repro-star`` process
    pays for them.
    """
    import repro.experiments.runner  # noqa: F401 - the request path

    workload.warm()


def request_blocks(workload: Workload, seed: int) -> Iterator[List[Request]]:
    """Endless stream of request blocks generated from *seed*.

    Each block holds every kind once, in a seed-shuffled order.  A
    :data:`REPEAT` request re-issues the request before it in the same block,
    so the block's artifact store serves it; it never opens a block.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    pools = {kind.name: kind.pool(rng) for kind in workload.kinds}
    used = {kind.name: 0 for kind in workload.kinds}
    previous: Optional[Request] = None
    while True:
        order = list(workload.kinds)
        rng.shuffle(order)
        if order[0].experiment == REPEAT:
            order[0], order[1] = order[1], order[0]
        block = []
        for kind in order:
            if kind.experiment == REPEAT:
                request = Request(REPEAT, previous.experiment, previous.params)
            else:
                pool = pools[kind.name]
                params = pool[used[kind.name] % len(pool)]
                used[kind.name] += 1
                request = Request(kind.name, kind.experiment, tuple(sorted(params.items())))
            block.append(request)
            previous = request
        yield block


# ----------------------------------------------------------------- checks
def _column(payload: Mapping, name: str) -> List:
    index = payload["headers"].index(name)
    return [row[index] for row in payload["rows"]]


def _check_sampled_fault(payload) -> Optional[str]:
    columns = ("faults", "pairs", "reached", "disconnected", "truncated")
    for faults, pairs, reached, disconnected, truncated in zip(
        *(_column(payload, name) for name in columns)
    ):
        if reached + disconnected + truncated != pairs:
            return "reached + disconnected + truncated != pairs"
        if faults == 0 and reached != pairs:
            return "a fault-free ball left a pair unreached"
    return None


def _check_sampled_stretch(payload) -> Optional[str]:
    columns = ("faults", "pairs", "reached", "truncated", "max stretch")
    for faults, pairs, reached, truncated, worst in zip(
        *(_column(payload, name) for name in columns)
    ):
        if reached + truncated > pairs:
            return "reached + truncated > pairs"
        if faults == 0 and (reached != pairs or worst != "1.000"):
            return "a fault-free ball stretched a route"
    return None


def _check_dilation(payload) -> Optional[str]:
    if set(_column(payload, "dilation")) != {3}:
        return "embedding dilation is not 3"
    if set(_column(payload, "expansion")) != {1.0}:
        return "embedding expansion is not 1"
    return None


def _check_unit_routes(payload) -> Optional[str]:
    if max(_column(payload, "star unit routes used")) > 3:
        return "a mesh unit route needed more than 3 star unit routes"
    if set(_column(payload, "conflict-free")) != {"yes"}:
        return "a unit route had a conflict"
    return None


def _check_fault_stretch(payload) -> Optional[str]:
    for faults, unreachable, worst in zip(
        *(_column(payload, name) for name in ("faults", "unreachable", "max stretch"))
    ):
        if faults == 0 and (unreachable != 0 or worst != "1.000"):
            return "a fault-free machine stretched or lost a route"
    return None


#: Output checks beyond the experiment's own ``claim_holds``.
PAYLOAD_CHECKS: Mapping[str, Callable[[Mapping], Optional[str]]] = {
    "SAMPLED-FAULT": _check_sampled_fault,
    "SAMPLED-STRETCH": _check_sampled_stretch,
    "THM4": _check_dilation,
    "THM6": _check_unit_routes,
    "FAULT-STRETCH": _check_fault_stretch,
}


def check_payload(request: Request, payload: Mapping) -> Optional[str]:
    """Why *payload* is not a correct answer to *request*, or None when it is."""
    if payload.get("experiment_id") != request.experiment:
        return f"payload is for {payload.get('experiment_id')!r}"
    if payload.get("params") != request.overrides():
        return "payload parameters differ from the request"
    if not payload.get("rows"):
        return "payload has no rows"
    if any(len(row) != len(payload["headers"]) for row in payload["rows"]):
        return "a row does not match the headers"
    if payload.get("summary", {}).get("claim_holds") is not True:
        return "claim_holds is not true"
    check = PAYLOAD_CHECKS.get(request.experiment)
    return check(payload) if check is not None else None
