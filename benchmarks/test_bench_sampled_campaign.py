"""Benchmarks for the bounded-ball kernel and the S_13+ sampled campaigns.

Ablation pairs quantify the PR-10 design decisions:

* **table vs implicit** — the same depth-bounded BFS ball grown from the
  materialised S_7 move tables against the table-free
  ``unrank -> apply generator -> rank`` expansion (identical balls; the
  pair measures what table-freedom costs per truncated sweep);
* **ball-local vs whole-graph** — the depth-bounded ball against the full
  ``index_bfs_distances`` sweep it replaces wherever only a neighbourhood
  is needed;
* a standing **S_13 depth-3 ball** row — the campaign building block at
  acceptance scale (1 531 of 6.2 G nodes, no table anywhere), plus one
  sampled fault-campaign trial point at S_7.
* **translated vs swept** — an S_13 depth-4 healthy ball from a sampled
  origin, as the translate of the cached identity ball
  (:meth:`CayleyBall.translate`) against a fresh ``bounded_bfs_ball``
  sweep (identical balls; the pair measures what the automorphism saves
  per trial);
* **local flood vs faulted sweep** — the same ball with 16 faults, flooded
  over the ball-local adjacency table (:meth:`CayleyBall.flood`) against a
  faulted ``bounded_bfs_ball`` sweep with the faults excluded.

The ``heavy_bench`` row runs the full SAMPLED-FAULT default profile at
S_13 on the implicit backend — the acceptance-scale campaign.
"""

import numpy as np
import pytest

from repro.experiments.registry import run_experiment
from repro.simulation.sampled_campaign import cayley_ball, sampled_fault_campaign
from repro.simulation.sampling import sampled_pancake_estimate
from repro.topology.routing import (
    ImplicitNeighborSource,
    bounded_bfs_ball,
    index_bfs_distances,
)
from repro.permutations.ranking import star_position_generators
from repro.topology.star import StarGraph

BALL_DEPTH = 4


@pytest.fixture(scope="module")
def star7():
    star = StarGraph(7)
    star.neighbor_index_table()  # warm the dense tables for the table legs
    return star


# --------------------------------------------------- table-vs-implicit pair
def test_bounded_ball_s7_table(benchmark, star7):
    """Ablation (a): a depth-4 S_7 ball grown from the materialised table."""
    source = star7.neighbor_source()
    assert source.table is not None
    ball = benchmark(bounded_bfs_ball, source, 0, max_depth=BALL_DEPTH)
    assert ball.truncated and ball.levels == BALL_DEPTH


def test_bounded_ball_s7_implicit(benchmark, star7):
    """Ablation (b): the same ball with every frontier computed on the fly."""
    source = ImplicitNeighborSource(star_position_generators(7), 7)
    assert source.table is None
    ball = benchmark(bounded_bfs_ball, source, 0, max_depth=BALL_DEPTH)
    assert ball.truncated and ball.levels == BALL_DEPTH


# ------------------------------------------------ ball-local vs whole-graph
def test_whole_graph_sweep_s7(benchmark, star7):
    """Ablation (a): the full S_7 sweep the bounded ball replaces."""
    distances = benchmark(
        index_bfs_distances, star7.neighbor_index_table(), star7.num_nodes, 0
    )
    assert int(np.asarray(distances).max()) == 9


def test_bounded_ball_s7_full_depth(benchmark, star7):
    """Ablation (b): the ball run to the eccentricity (same visited set)."""
    source = star7.neighbor_source()
    ball = benchmark(bounded_bfs_ball, source, 0, max_depth=9)
    assert not ball.truncated and ball.size == star7.num_nodes


# ------------------------------------------------------ acceptance building blocks
def test_bounded_ball_s13_implicit_depth3(benchmark):
    """The campaign building block at scale: 1 531 of 6.2 G nodes, no table."""
    source = ImplicitNeighborSource(star_position_generators(13), 13)
    ball = benchmark(bounded_bfs_ball, source, 12345, max_depth=3)
    assert ball.size == 1531 and ball.truncated


# ---------------------------------------- translated vs swept (S_13, depth 4)
S13_ORIGIN = 2_613_000_000


@pytest.fixture(scope="module")
def s13_trial():
    """The S_13 depth-4 engine, one origin's ball and 16 seeded faults in it."""
    engine = cayley_ball(StarGraph(13), BALL_DEPTH)
    healthy, order = engine.translate(S13_ORIGIN)
    rng = np.random.default_rng(2613)
    others = healthy.nodes[healthy.nodes != S13_ORIGIN]
    faults = np.sort(rng.choice(others, size=16, replace=False))
    excluded = np.zeros(healthy.size, dtype=bool)
    excluded[order[np.searchsorted(healthy.nodes, faults)]] = True
    source = ImplicitNeighborSource(star_position_generators(13), 13)
    return engine, source, healthy, faults, excluded


def test_healthy_ball_s13_swept(benchmark, s13_trial):
    """Ablation (a): a fresh depth-4 sweep from the origin, table-free."""
    _engine, source, healthy, _faults, _excluded = s13_trial
    ball = benchmark(bounded_bfs_ball, source, S13_ORIGIN, max_depth=BALL_DEPTH)
    assert np.array_equal(ball.nodes, healthy.nodes)


def test_healthy_ball_s13_translated(benchmark, s13_trial):
    """Ablation (b): the cached identity ball translated by the origin."""
    engine, _source, healthy, _faults, _excluded = s13_trial
    ball, _order = benchmark(engine.translate, S13_ORIGIN)
    assert np.array_equal(ball.nodes, healthy.nodes) and ball.size == 14_511


# ------------------------------------------ local flood vs faulted sweep
def test_faulted_ball_s13_swept(benchmark, s13_trial):
    """Ablation (a): the faulted depth-4 sweep with 16 faults excluded."""
    _engine, source, _healthy, faults, _excluded = s13_trial
    ball = benchmark(
        bounded_bfs_ball, source, S13_ORIGIN, max_depth=BALL_DEPTH, excluded=faults
    )
    assert ball.truncated


def test_faulted_ball_s13_local_flood(benchmark, s13_trial):
    """Ablation (b): the same faults flooded over the ball-local table."""
    engine, _source, _healthy, _faults, excluded = s13_trial
    _distances, truncated = benchmark(engine.flood, excluded)
    assert truncated


def test_sampled_fault_point_s7(benchmark, star7):
    """One seeded fault-campaign point (4 trials x 4 pairs) on S_7."""

    def point():
        return sampled_fault_campaign(
            star7,
            fault_counts=(4,),
            trials=4,
            pairs_per_trial=4,
            depth=4,
            seed=2613,
            label="bench/s7",
        )

    (result,) = benchmark(point)
    assert result.reached + result.disconnected + result.truncated == result.pairs


def test_sampled_pancake_estimate_exact_p7(benchmark):
    """The exact-tier pancake estimator: 500 pairs against one P_7 sweep."""
    estimate = benchmark(sampled_pancake_estimate, 7, 500, seed=2613)
    assert estimate.exact and estimate.truncated == 0


# --------------------------------------------------------- S_13 heavy row
@pytest.mark.heavy_bench
def test_s13_sampled_fault_default_profile(benchmark, monkeypatch):
    """Acceptance scale: the full SAMPLED-FAULT default profile, table-free."""
    monkeypatch.setenv("REPRO_NEIGHBORS", "implicit")

    def campaign():
        return run_experiment("SAMPLED-FAULT")

    result = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert result.summary["claim_holds"] is True
