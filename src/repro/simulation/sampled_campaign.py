"""Sampled fault & rerouting campaigns at S_13+ over bounded BFS balls.

The PR 6 campaigns (:mod:`repro.simulation.campaign`) flood the *whole*
machine per trial, which ends where move tables end: a degree-13 star graph
has 6.2 billion nodes and no whole-graph array fits anywhere.  This module
re-derives the same degradation statistics from **bounded-depth BFS balls**
-- every trial touches only the few thousand nodes within ``depth`` hops of
a sampled origin, so S_13 and S_14 are routine campaign sizes instead of
demos.

The balls come from one cached identity ball per ``(generators, n, depth)``
(:class:`CayleyBall`).  Star, pancake and bubble-sort are Cayley graphs, so
left multiplication by the origin permutation is a graph automorphism: the
ball of any origin is the identity's ball translated by the origin, with the
same distances.  The identity ball is swept once with
:func:`repro.topology.routing.bounded_bfs_ball` over the table-free implicit
source, together with a ball-local adjacency table; every trial then
translates it instead of sweeping, and floods the local table instead of the
graph.

Trial design
------------
Random far-apart pairs are useless under a depth cap (typical S_13 distances
exceed any feasible depth), so each trial localises the question:

1. sample an origin uniformly from all ``n!`` node ranks; its *healthy*
   ball to ``depth`` is the identity ball translated by the origin
   (:meth:`CayleyBall.translate`), sorted by node rank exactly as a sweep
   from the origin would report it;
2. draw the trial's faults uniformly from the ball (minus the origin) --
   faults outside the ball cannot affect what the trial measures;
3. sample targets among ball nodes at healthy distance in
   ``[1, depth - detour_slack]``, so a detour has ``detour_slack`` spare
   hops before hitting the cap;
4. map the faults into the identity frame and flood the ball-local table
   with them excluded (:meth:`CayleyBall.flood`) -- the *faulted* ball of
   the origin, seen through the automorphism -- and classify every pair:

   * **reached** -- the faulted ball still reaches the target; its stretch
     is ``faulted distance / healthy distance`` (always >= 1);
   * **disconnected** -- the target is absent from a faulted ball that is
     *not* truncated: the flood exhausted the origin's surviving component,
     so absence is a proof of disconnection;
   * **truncated** -- the target is absent but the faulted ball hit the
     depth cap: unknown, and reported as such rather than folded into
     either bucket.

``reached + disconnected + truncated == pairs`` is an invariant of every
curve point; the disconnection probability is a Wilson interval over the
*decided* pairs only.  Built-in oracles: the zero-fault point reuses the
healthy ball, so every pair is reached with stretch exactly 1.0; and below
the connectivity ``n - 1`` (all three permutation families are maximally
fault tolerant) no trial can produce a disconnection proof.  The translated
and flooded balls equal :func:`~repro.topology.routing.bounded_bfs_ball`
sweeps from the origin bit for bit, which the parity tests check.

Determinism matches the PR 6 contract: each trial derives its own stream
via ``derive_trial_seed(seed, label, fault_count, point_index, trial)``, so
campaigns are pure functions of their parameters -- bit-identical across
serial, sharded and restarted runs, at any ``chunk_nodes``.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as _np

from repro import telemetry
from repro.exceptions import InvalidParameterError
from repro.simulation.stats import derive_trial_seed, mean_interval, wilson_interval
from repro.topology.base import Topology
from repro.topology.cayley import CayleyGraph
from repro.topology.routing import BoundedBall
from repro.utils.validation import check_positive_int

__all__ = [
    "SAMPLED_CAMPAIGN_FAMILIES",
    "sampled_campaign_instances",
    "SampledFaultPoint",
    "CayleyBall",
    "cayley_ball",
    "sampled_fault_campaign",
]

#: Families the sampled campaigns cover: the three permutation networks on
#: ``n!`` nodes, i.e. exactly the families the implicit rank/unrank backend
#: can expand without any adjacency table.  The hypercube is absent -- its
#: matched-size instance (``Q_33`` against S_13) has no implicit
#: ``NeighborSource`` and needs none of this machinery.
SAMPLED_CAMPAIGN_FAMILIES: Tuple[str, ...] = ("star", "pancake", "bubble-sort")


def sampled_campaign_instances(size: int) -> Dict[str, Tuple[str, Topology]]:
    """``family -> (display name, topology)`` at permutation degree *size*.

    All three instances share the ``size!`` node set and the maximal
    connectivity ``size - 1``; their adjacency comes from
    ``topology.neighbor_source()``, which honours ``REPRO_NEIGHBORS`` and
    goes implicit (table-free) past the table ceiling automatically.
    """
    check_positive_int(size, "size", minimum=3)
    from repro.topology.cayley import BubbleSortGraph, PancakeGraph
    from repro.topology.star import StarGraph

    return {
        "star": (f"S_{size}", StarGraph(size)),
        "pancake": (f"P_{size}", PancakeGraph(size)),
        "bubble-sort": (f"B_{size}", BubbleSortGraph(size)),
    }


@dataclass(frozen=True)
class SampledFaultPoint:
    """One curve point of a sampled (ball-local) fault campaign.

    Attributes
    ----------
    fault_count : int
        Faults injected into each trial's healthy ball.
    trials : int
        Trials at this point.
    pairs : int
        Origin/target pairs measured in total.
    reached, disconnected, truncated : int
        The three-way classification; ``reached + disconnected + truncated
        == pairs`` always (the explicit accounting channel).
    p_disconnect, ci_low, ci_high : float
        Wilson point estimate and 95% bounds of the disconnection
        probability **over the decided pairs** (``reached +
        disconnected``); all 0.0 when no pair was decided.
    mean_stretch, stretch_low, stretch_high : float
        Mean detour stretch over the reached pairs with its 95% normal
        interval; all 0.0 when no pair was reached.
    max_stretch : float
        Worst stretch observed at this point (0.0 when none).
    """

    fault_count: int
    trials: int
    pairs: int
    reached: int
    disconnected: int
    truncated: int
    p_disconnect: float
    ci_low: float
    ci_high: float
    mean_stretch: float
    stretch_low: float
    stretch_high: float
    max_stretch: float

    @property
    def decided(self) -> int:
        """Pairs with a definite verdict (not truncated)."""
        return self.reached + self.disconnected


@dataclass(frozen=True)
class CayleyBall:
    """The depth-capped ball of the identity, reusable from every origin.

    Built once per ``(generators, n, depth)`` by :func:`cayley_ball`.  In a
    Cayley graph left multiplication by a permutation ``o`` is an
    automorphism, so ``o`` composed with each identity-ball node is the ball
    of ``o``, with the same distances and the same generator labels on every
    edge; the ball-local adjacency therefore serves every origin.

    Attributes
    ----------
    n : int
        Permutation degree.
    depth : int
        The depth cap the ball was swept to.
    ball : BoundedBall
        The identity's ball: node ranks sorted ascending (the identity,
        rank 0, at position 0), exact distances, the ``truncated`` verdict.
    rows : int8 array
        ``(size, n)``: row ``i`` is the permutation of ``ball.nodes[i]``.
    neighbors : int32 array
        ``(size, degree)`` ball-local adjacency: entry ``(i, g)`` is the
        position in ``ball.nodes`` of node ``i``'s neighbour along generator
        ``g``, or ``-1`` when that neighbour lies beyond the cap.
    """

    n: int
    depth: int
    ball: BoundedBall
    rows: object
    neighbors: object

    def translate(self, origin: int, *, chunk_nodes=None):
        """The healthy ball of *origin* and where each node sits in the identity ball.

        Returns ``(ball, order)``.  ``ball`` is what
        :func:`~repro.topology.routing.bounded_bfs_ball` reports from
        *origin* to the same depth -- nodes sorted ascending, aligned
        distances, the same ``truncated`` and ``levels`` -- and
        ``ball.nodes[k]`` is the translate of identity-ball position
        ``order[k]``.  *chunk_nodes* (default ``REPRO_CHUNK_NODES``) bounds
        the rows ranked at once; it never changes the result.
        """
        from repro.backend import resolve_chunk_nodes
        from repro.permutations.ranking import permutation_unrank, rank_batch

        origin_row = _np.asarray(permutation_unrank(origin, self.n), dtype=_np.int8)
        ranks = _np.empty(self.ball.size, dtype=_np.int64)
        chunk = resolve_chunk_nodes(chunk_nodes)
        for start in range(0, self.ball.size, chunk):
            ranks[start : start + chunk] = rank_batch(
                _np.take(origin_row, self.rows[start : start + chunk])
            )
        order = _np.argsort(ranks)
        translated = BoundedBall(
            nodes=ranks[order],
            distances=self.ball.distances[order],
            truncated=self.ball.truncated,
            levels=self.ball.levels,
        )
        return translated, order

    def flood(self, excluded):
        """The faulted ball from the identity, over the ball-local table.

        *excluded* is a boolean mask over identity-ball positions (a trial's
        faults, mapped through :meth:`translate`'s ``order``); the identity
        itself must not be excluded.  Returns ``(distances, truncated)``:
        ``distances[i]`` is the faulted distance of position ``i``, ``-1``
        where the flood does not reach it, and ``truncated`` is the verdict
        :func:`~repro.topology.routing.bounded_bfs_ball` gives for the same
        exclusions.
        """
        distances = _np.full(self.ball.size, -1, dtype=_np.int64)
        distances[0] = 0
        frontier = _np.zeros(1, dtype=_np.int64)
        level = 0
        while frontier.size and level < self.depth:
            level += 1
            # Below the cap no neighbour is -1: a node's faulted distance is
            # never shorter than its healthy one, so its neighbours lie
            # within the healthy ball.
            reached = self.neighbors[frontier].reshape(-1)
            reached = reached[(distances[reached] < 0) & ~excluded[reached]]
            distances[reached] = level
            frontier = _np.flatnonzero(distances == level)
        truncated = False
        if frontier.size:
            # The cap stopped the flood: it is truncated iff a last-level
            # node has a neighbour beyond the healthy ball, or an unvisited
            # one inside it that is not excluded.
            beyond = self.neighbors[frontier].reshape(-1)
            inside = beyond[beyond >= 0]
            truncated = inside.size < beyond.size or bool(
                ((distances[inside] < 0) & ~excluded[inside]).any()
            )
        return distances, truncated


@functools.lru_cache(maxsize=8)
def _identity_ball(generators, n: int, depth: int) -> CayleyBall:
    """Sweep the identity ball and build its local table; see :func:`cayley_ball`."""
    from repro.permutations.ranking import implicit_neighbor_block, unrank_batch
    from repro.topology.routing import ImplicitNeighborSource, bounded_bfs_ball

    with telemetry.span(
        "kernel.cayley_ball", n=n, degree=len(generators), depth=depth
    ) as sp:
        ball = bounded_bfs_ball(
            ImplicitNeighborSource(generators, n), 0, max_depth=depth
        )
        neighbor_ranks = implicit_neighbor_block(ball.nodes, generators, n)
        positions = _np.minimum(
            _np.searchsorted(ball.nodes, neighbor_ranks), ball.size - 1
        )
        inside = ball.nodes[positions] == neighbor_ranks
        neighbors = _np.where(inside, positions, -1).astype(_np.int32)
        rows = unrank_batch(ball.nodes, n)
        for array in (ball.nodes, ball.distances, rows, neighbors):
            array.setflags(write=False)
        if telemetry.trace_enabled():
            sp.add(
                reached=ball.size,
                levels=ball.levels,
                table_bytes=int(neighbors.nbytes),
            )
    return CayleyBall(n=n, depth=depth, ball=ball, rows=rows, neighbors=neighbors)


def cayley_ball(topology: CayleyGraph, depth: int) -> CayleyBall:
    """The identity ball of *topology* to *depth*, built once and cached.

    The cache is keyed by ``(generators, n, depth)`` and holds a few entries
    (one per family, size and depth of a campaign).  The one sweep runs over
    the table-free implicit source whatever ``REPRO_NEIGHBORS`` says, so no
    adjacency table is built.  Each lookup counts a
    ``cayley_ball.cache_hit`` or ``cayley_ball.cache_miss`` when tracing.
    """
    misses = _identity_ball.cache_info().misses
    ball = _identity_ball(topology.generators, topology.n, depth)
    missed = _identity_ball.cache_info().misses > misses
    telemetry.add_counter(
        "cayley_ball.cache_miss" if missed else "cayley_ball.cache_hit",
        n=topology.n,
        depth=depth,
    )
    return ball


def sampled_fault_campaign(
    topology: CayleyGraph,
    *,
    fault_counts: Sequence[int],
    trials: int,
    pairs_per_trial: int,
    depth: int,
    seed: int,
    label: str,
    detour_slack: int = 1,
    chunk_nodes=None,
) -> List[SampledFaultPoint]:
    """Ball-local fault/stretch degradation curve of one (huge) topology.

    Parameters
    ----------
    topology : CayleyGraph
        The healthy machine.  Its balls are translates of one cached
        identity ball (:func:`cayley_ball`), so it must be a Cayley graph.
    fault_counts : sequence of int
        Faults per trial, one curve point per entry; each trial draws its
        faults from the sampled origin's healthy ball.
    trials : int
        Trials per point (each contributes up to *pairs_per_trial* pairs).
    pairs_per_trial : int
        Targets sampled per trial; one faulted sweep serves all of them.
    depth : int
        BFS ball radius.  Must exceed *detour_slack*.
    seed : int
        Campaign seed; every trial derives an independent order-free stream
        with coordinates ``(label, fault_count, point_index, trial)``.
    label : str
        Trial-seed namespace (e.g. ``"star/13"``).
    detour_slack : int, optional
        Targets sit at healthy distance ``<= depth - detour_slack``, giving
        detours that many spare hops before the cap truncates them.
    chunk_nodes : int, optional
        Rows ranked at once when a ball is translated (default
        ``REPRO_CHUNK_NODES``); never changes the result.

    Raises
    ------
    InvalidParameterError
        If *topology* is not a :class:`~repro.topology.cayley.CayleyGraph`,
        a parameter is out of range, or a fault count exceeds the non-origin
        nodes of a ball.
    """
    if not isinstance(topology, CayleyGraph):
        raise InvalidParameterError(
            f"sampled campaigns translate the identity ball of a Cayley graph; "
            f"got {topology!r}"
        )
    check_positive_int(trials, "trials", minimum=1)
    check_positive_int(pairs_per_trial, "pairs_per_trial", minimum=1)
    check_positive_int(depth, "depth", minimum=1)
    if detour_slack < 0 or detour_slack >= depth:
        raise InvalidParameterError(
            f"detour_slack must be in [0, depth), got {detour_slack!r} "
            f"at depth {depth}"
        )
    engine = cayley_ball(topology, depth)
    num_nodes = topology.num_nodes
    max_target_depth = depth - detour_slack
    points = []
    for point_index, fault_count in enumerate(fault_counts):
        if fault_count < 0:
            raise InvalidParameterError(
                f"fault counts must be non-negative, got {fault_count!r}"
            )
        pairs = reached = disconnected = truncated = 0
        stretches: List[float] = []
        with telemetry.span(
            "campaign.sampled_fault_point",
            family=label,
            num_nodes=int(num_nodes),
            fault_count=int(fault_count),
            depth=int(depth),
            trials=int(trials),
        ) as sp:
            for trial in range(trials):
                rng = random.Random(
                    derive_trial_seed(seed, label, fault_count, point_index, trial)
                )
                origin = rng.randrange(num_nodes)
                healthy, order = engine.translate(origin, chunk_nodes=chunk_nodes)
                distances = healthy.distances
                if fault_count > healthy.size - 1:
                    raise InvalidParameterError(
                        f"fault count {fault_count} exceeds the {healthy.size - 1} "
                        f"non-origin nodes of a depth-{depth} ball; lower the "
                        f"fault count or raise the depth"
                    )
                origin_position = int(_np.searchsorted(healthy.nodes, origin))
                fault_positions = [
                    position + (position >= origin_position)
                    for position in rng.sample(range(healthy.size - 1), fault_count)
                ]

                candidate_mask = (distances >= 1) & (distances <= max_target_depth)
                if fault_count:
                    candidate_mask[fault_positions] = False
                candidates = _np.flatnonzero(candidate_mask)
                wanted = min(pairs_per_trial, int(candidates.size))
                if wanted == 0:
                    continue
                target_positions = candidates[
                    rng.sample(range(int(candidates.size)), wanted)
                ]
                healthy_distances = distances[target_positions]

                if fault_count == 0:
                    # The faulted ball *is* the healthy ball: no flood, and
                    # the stretch-exactly-1.0 oracle is exact by construction.
                    faulted_distances = healthy_distances
                    cut_off = healthy.truncated
                else:
                    excluded = _np.zeros(healthy.size, dtype=bool)
                    excluded[order[fault_positions]] = True
                    flooded, cut_off = engine.flood(excluded)
                    faulted_distances = flooded[order[target_positions]]
                for faulted_distance, healthy_distance in zip(
                    faulted_distances, healthy_distances
                ):
                    pairs += 1
                    if faulted_distance >= 0:
                        reached += 1
                        stretches.append(
                            float(faulted_distance) / float(healthy_distance)
                        )
                    elif cut_off:
                        truncated += 1
                    else:
                        disconnected += 1
            if telemetry.trace_enabled():
                sp.add(
                    pairs=pairs,
                    reached=reached,
                    disconnected=disconnected,
                    truncated=truncated,
                )
                elapsed = time.perf_counter() - sp.started
                if elapsed > 0:
                    telemetry.set_gauge(
                        "campaign.sampled_trials_per_second",
                        round(trials / elapsed, 3),
                        family=label,
                        fault_count=fault_count,
                    )
        decided = reached + disconnected
        if decided:
            p_hat, ci_low, ci_high = wilson_interval(disconnected, decided)
        else:
            p_hat = ci_low = ci_high = 0.0
        if stretches:
            mean_stretch, stretch_low, stretch_high = mean_interval(stretches)
            max_stretch = max(stretches)
        else:
            mean_stretch = stretch_low = stretch_high = max_stretch = 0.0
        points.append(
            SampledFaultPoint(
                fault_count=fault_count,
                trials=trials,
                pairs=pairs,
                reached=reached,
                disconnected=disconnected,
                truncated=truncated,
                p_disconnect=p_hat,
                ci_low=ci_low,
                ci_high=ci_high,
                mean_stretch=mean_stretch,
                stretch_low=stretch_low,
                stretch_high=stretch_high,
                max_stretch=max_stretch,
            )
        )
    return points
