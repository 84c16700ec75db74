"""Outside-in layer tracer: spans recorded around the public functions of ``repro``.

The benchmark's traced run measures each layer of the stack from outside the
program.  :meth:`Tracer.install` replaces every public function and public
method of the layer modules with a timing wrapper.  Call sites bind many of
those functions with ``from ... import ...``, so the original function object
sits in several module namespaces; the tracer rebinds *every* module and class
attribute of a ``repro`` module that holds it, and :meth:`Tracer.uninstall`
puts each original object back.

Layers are ``repro`` packages (:data:`PACKAGE_LAYERS`), with a few functions
pulled into sub-layers of their own (:data:`FUNCTION_LAYERS`): the bounded
ball, the whole-graph BFS kernel and the all-sources sweeps of ``topology``,
and the compile / plan / run stages of ``simd``.

A span is recorded when a wrapped function is entered from a *different*
layer (or from the benchmark's request span); calls inside one layer fold
into the layer's open span, so ``calls`` counts layer entries.  Spans carry
their parent's id, are kept in memory and are written out when the run ends.
A span's self time is its duration minus the durations of its child spans;
self time of the request span itself is time no layer accounts for.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
from array import array
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "LAYERS",
    "REQUEST",
    "SpanLog",
    "Tracer",
    "layer_for",
    "self_times",
]

#: Pseudo-layer of the benchmark's own root span around one request.
REQUEST = "request"

#: ``repro`` module prefix -> layer, first match wins.
PACKAGE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.permutations", "permutations"),
    ("repro.tables", "permutations"),
    ("repro.topology", "topology"),
    ("repro.embedding", "embedding"),
    ("repro.simd.plans", "simd.plan"),
    ("repro.simd", "simd"),
    ("repro.algorithms", "algorithms"),
    ("repro.analysis", "analysis"),
    ("repro.simulation.stats", "simulation.stats"),
    ("repro.simulation", "simulation"),
    ("repro.experiments", "experiments"),
)

#: Functions that form a sub-layer of their own, by qualified name.
FUNCTION_LAYERS: Mapping[str, str] = {
    "repro.topology.routing.bounded_bfs_ball": "topology.ball",
    "repro.topology.routing.index_bfs_distances": "topology.bfs",
    "repro.topology.routing.distance_summary": "topology.sweep",
    "repro.topology.routing.distance_matrix": "topology.sweep",
    "repro.simd.programs.compile_program": "simd.compile",
    "repro.simd.programs.RouteProgram.run": "simd.run",
}

#: Every layer the tracer can attribute time to, in report order.
LAYERS: Tuple[str, ...] = (
    "permutations",
    "topology",
    "topology.ball",
    "topology.bfs",
    "topology.sweep",
    "embedding",
    "simd",
    "simd.compile",
    "simd.plan",
    "simd.run",
    "algorithms",
    "analysis",
    "simulation",
    "simulation.stats",
    "experiments",
)

#: Modules never wrapped: the command-line front end is not on a request path.
SKIPPED_MODULES = frozenset({"repro.experiments.cli"})


def layer_for(module: str, qualname: str) -> Optional[str]:
    """The layer a function or method belongs to, or None when it is not traced.

    Parameters
    ----------
    module : str
        Defining module (``obj.__module__``).
    qualname : str
        Qualified name inside the module (``"bounded_bfs_ball"``,
        ``"SIMDMachine.route_moves"``).
    """
    special = FUNCTION_LAYERS.get(f"{module}.{qualname}")
    if special is not None:
        return special
    if module in SKIPPED_MODULES:
        return None
    for prefix, layer in PACKAGE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if layer == "simd":
                method = qualname.rpartition(".")[2]
                if "." in qualname and (
                    method.startswith("route") or method == "execute_plan"
                ):
                    return "simd.run"
            return layer
    return None


# ---------------------------------------------------------------- counters
# A counter sees (counts, args, kwargs, result) of one layer entry and adds to
# counts[name]; it runs after the span has closed.


def _rows_of_result(counts, args, kwargs, result) -> None:
    counts["permutations.rows"] += len(result)


def _one_row(counts, args, kwargs, result) -> None:
    counts["permutations.rows"] += 1


def _neighbor_rows(counts, args, kwargs, result) -> None:
    counts["permutations.rows"] += int(getattr(result, "size", 0))


def _ball(counts, args, kwargs, result) -> None:
    counts["topology.ball.nodes"] += result.size
    counts["topology.ball.truncated"] += bool(result.truncated)


def _bfs(counts, args, kwargs, result) -> None:
    counts["topology.bfs.nodes"] += int((result >= 0).sum())


def _embedding_edges(counts, args, kwargs, result) -> None:
    counts["embedding.edges"] += result.guest_edges


def _campaign_points(counts, args, kwargs, result) -> None:
    for point in result:
        counts["simulation.trials"] += point.trials
        pairs = getattr(point, "pairs", 0)
        counts["simulation.pairs"] += pairs
        # Whole-graph floods decide every pair; balls may leave some truncated.
        counts["simulation.decided"] += getattr(point, "decided", pairs)


def _one_unit_route(counts, args, kwargs, result) -> None:
    counts["simd.unit_routes"] += 1


def _unit_routes(counts, args, kwargs, result) -> None:
    count = args[1] if len(args) > 1 else kwargs["count"]
    counts["simd.unit_routes"] += count


#: Work counters attached to layer entries, by qualified name.
ENTRY_COUNTERS: Mapping[str, Callable] = {
    "repro.permutations.ranking.rank_batch": _rows_of_result,
    "repro.permutations.ranking.ranks_of": _rows_of_result,
    "repro.permutations.ranking.unrank_batch": _rows_of_result,
    "repro.permutations.ranking.permutations_slice": _rows_of_result,
    "repro.permutations.ranking.all_permutations_array": _rows_of_result,
    "repro.permutations.ranking.permutation_rank": _one_row,
    "repro.permutations.ranking.permutation_unrank": _one_row,
    "repro.permutations.ranking.implicit_neighbor_block": _neighbor_rows,
    "repro.topology.routing.bounded_bfs_ball": _ball,
    "repro.topology.routing.index_bfs_distances": _bfs,
    "repro.embedding.metrics.measure_embedding": _embedding_edges,
    "repro.simulation.sampled_campaign.sampled_fault_campaign": _campaign_points,
    "repro.simulation.campaign.connectivity_campaign": _campaign_points,
    "repro.simulation.campaign.stretch_campaign": _campaign_points,
}

#: Methods that are only counted, never timed: they run once per unit route,
#: inside spans of the routing code that calls them.
COUNT_ONLY: Mapping[str, Callable] = {
    "repro.simd.trace.RouteStatistics.record_route": _one_unit_route,
    "repro.simd.trace.RouteStatistics.record_routes": _unit_routes,
}

_PER_ELEMENT = "per-node scalar helper; a span per call would cost more than the call"
_INNER_GATHER = "inner gather of the BFS kernels; its time belongs to the kernel"

#: Public functions left unwrapped, with the reason.  Their time is part of
#: the self time of whichever layer calls them.
UNWRAPPED: Mapping[str, str] = {
    "repro.topology.base.Topology.validate_node": _PER_ELEMENT,
    "repro.topology.base.Topology.is_node": _PER_ELEMENT,
    "repro.topology.star.StarGraph.is_node": _PER_ELEMENT,
    "repro.topology.cayley.CayleyGraph.is_node": _PER_ELEMENT,
    "repro.topology.mesh.Mesh.is_node": _PER_ELEMENT,
    "repro.topology.hypercube.Hypercube.is_node": _PER_ELEMENT,
    "repro.topology.star.StarGraph.neighbors": _PER_ELEMENT,
    "repro.permutations.permutation.is_permutation": _PER_ELEMENT,
    "repro.permutations.generators.star_neighbors": _PER_ELEMENT,
    "repro.permutations.generators.transposition_to_star_routes": _PER_ELEMENT,
    "repro.simd.trace.RouteStatistics.record_local": _PER_ELEMENT,
    "repro.simd.trace.RouteStatistics.record_broadcast": _PER_ELEMENT,
    "repro.simd.masks.spec_and": _PER_ELEMENT,
    "repro.simd.masks.spec_or": _PER_ELEMENT,
    "repro.simd.masks.spec_not": _PER_ELEMENT,
    "repro.topology.routing.as_neighbor_source": _INNER_GATHER,
    "repro.topology.routing.TableNeighborSource.neighbor_block": _INNER_GATHER,
    "repro.topology.routing.TableNeighborSource.neighbor_along": _INNER_GATHER,
    "repro.topology.routing.ImplicitNeighborSource.neighbor_block": _INNER_GATHER,
    "repro.topology.routing.ImplicitNeighborSource.neighbor_along": _INNER_GATHER,
}


def _wrappable(obj) -> bool:
    """Plain functions and ``functools.lru_cache`` wrappers, not generators."""
    if isinstance(obj, functools._lru_cache_wrapper):
        return True
    return (
        inspect.isfunction(obj)
        and not inspect.isgeneratorfunction(obj)
        and not getattr(obj, "__isabstractmethod__", False)
    )


def _layer_modules() -> List[str]:
    """Import and list every module of the traced packages."""
    names = []
    for prefix, _layer in PACKAGE_LAYERS:
        module = importlib.import_module(prefix)
        names.append(prefix)
        path = getattr(module, "__path__", None)
        if path is None:
            continue
        for info in pkgutil.walk_packages(path, prefix + "."):
            if info.name in SKIPPED_MODULES:
                continue
            importlib.import_module(info.name)
            names.append(info.name)
    return sorted(set(names))


def _public_targets(module) -> Iterable[Tuple[str, object]]:
    """``(qualname, function)`` of the functions and methods defined in *module*.

    Module-level functions and methods of module-level classes whose names do
    not start with an underscore; only objects whose home is *module* (names
    imported from elsewhere are handled in their own module).
    """
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(value):
            if value.__module__ != module.__name__:
                continue
            for attribute, member in vars(value).items():
                if attribute.startswith("_") or not _wrappable(member):
                    continue
                yield f"{value.__qualname__}.{attribute}", member
        elif _wrappable(value) and getattr(value, "__module__", None) == module.__name__:
            yield getattr(value, "__qualname__", name), value


class SpanLog:
    """Closed spans as five parallel arrays (about 40 bytes per span).

    Iterating yields ``(span_id, parent_id, label_index, start, end)`` tuples
    in completion order; ``parent_id`` 0 means no parent.
    """

    def __init__(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.labels = array("l")
        self.starts = array("d")
        self.ends = array("d")

    def append(self, span_id: int, parent_id: int, label: int, start: float, end: float) -> None:
        self.ids.append(span_id)
        self.parents.append(parent_id)
        self.labels.append(label)
        self.starts.append(start)
        self.ends.append(end)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return zip(self.ids, self.parents, self.labels, self.starts, self.ends)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Attributes
    ----------
    spans : SpanLog
        Every closed span.
    labels : list of tuple
        ``(layer, qualified function name)`` indexed by ``label_index``.
    counts : dict
        Work counters accumulated by :data:`ENTRY_COUNTERS` and
        :data:`COUNT_ONLY`.
    """

    def __init__(self) -> None:
        self.spans = SpanLog()
        self.labels: List[Tuple[str, str]] = [(REQUEST, REQUEST)]
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Tuple[int, Optional[str]]] = [(0, None)]
        self._next_id = 1
        self._rebound: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _open(self, layer: str, label_index: int, call, args, kwargs):
        """Run ``call(*args, **kwargs)`` inside a new span."""
        parent_id = self._stack[-1][0]
        span_id = self._next_id
        self._next_id = span_id + 1
        self._stack.append((span_id, layer))
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span_id, parent_id, label_index, start, end)

    def request(self, call):
        """Run ``call()`` as one benchmark request: a root span whose self
        time is the time no layer accounts for."""
        return self._open(REQUEST, 0, call, (), {})

    def _wrapper(self, original, layer: str, label_index: int, counter):
        stack = self._stack
        counts = self.counts
        open_span = self._open

        def traced(*args, **kwargs):
            if stack[-1][1] == layer:
                return original(*args, **kwargs)
            result = open_span(layer, label_index, original, args, kwargs)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        functools.update_wrapper(traced, original)
        traced.__perfbench_original__ = original
        return traced

    def _counting_wrapper(self, original, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counter(counts, args, kwargs, result)
            return result

        functools.update_wrapper(counted, original)
        counted.__perfbench_original__ = original
        return counted

    # ------------------------------------------------------- install / undo
    @property
    def installed(self) -> bool:
        return bool(self._rebound)

    def install(self) -> int:
        """Wrap every public function of the layer modules; returns rebindings made.

        Raises
        ------
        RuntimeError
            If this tracer is already installed.
        """
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        replacements: Dict[int, object] = {}
        for module_name in _layer_modules():
            module = sys.modules[module_name]
            for qualname, function in _public_targets(module):
                if id(function) in replacements:
                    continue
                full = f"{module_name}.{qualname}"
                if full in UNWRAPPED:
                    continue
                if full in COUNT_ONLY:
                    replacements[id(function)] = (
                        function,
                        self._counting_wrapper(function, COUNT_ONLY[full]),
                    )
                    continue
                layer = layer_for(module_name, qualname)
                if layer is None:
                    continue
                self.labels.append((layer, full))
                replacements[id(function)] = (
                    function,
                    self._wrapper(
                        function, layer, len(self.labels) - 1, ENTRY_COUNTERS.get(full)
                    ),
                )
        try:
            for owner in _namespaces():
                for attribute, value in list(vars(owner).items()):
                    entry = replacements.get(id(value))
                    if entry is None or entry[0] is not value:
                        continue
                    setattr(owner, attribute, entry[1])
                    self._rebound.append((owner, attribute, value))
        except BaseException:
            self.uninstall()
            raise
        return len(self._rebound)

    def uninstall(self) -> None:
        """Put every original object back where :meth:`install` found it."""
        while self._rebound:
            owner, attribute, original = self._rebound.pop()
            setattr(owner, attribute, original)

    def rebound(self) -> List[Tuple[object, str, object]]:
        """``(namespace, attribute, original)`` of every live rebinding."""
        return list(self._rebound)

    # -------------------------------------------------------------- output
    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines.

        The first line maps label indices to ``[layer, function]``; every
        further line is one span, ``[id, parent, label, start, end]``.
        """
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(self.labels) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _namespaces() -> List[object]:
    """Every ``repro`` module and every class defined in one (snapshot)."""
    owners: List[object] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        owners.append(module)
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == name:
                owners.append(value)
    return owners


def self_times(
    spans: Iterable[Tuple[int, int, int, float, float]],
    labels: List[Tuple[str, str]],
) -> Dict[str, Dict[str, float]]:
    """Per-layer self time and span count of a span list.

    Parameters
    ----------
    spans : iterable of tuple
        ``(span_id, parent_id, label_index, start, end)`` as recorded by
        :class:`Tracer`.
    labels : list of tuple
        ``(layer, name)`` per label index.

    Returns
    -------
    dict
        ``layer -> {"self_s", "calls"}``; the :data:`REQUEST` entry holds the
        time inside requests that no layer span covers.
    """
    spans = list(spans)
    child_seconds: Dict[int, float] = defaultdict(float)
    for _span_id, parent_id, _label, start, end in spans:
        child_seconds[parent_id] += end - start
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0}
    )
    for span_id, _parent_id, label_index, start, end in spans:
        entry = totals[labels[label_index][0]]
        entry["self_s"] += (end - start) - child_seconds[span_id]
        entry["calls"] += 1
    return dict(totals)
