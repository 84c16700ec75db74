"""SIMD machine over a permutation Cayley network.

:class:`CayleyMachine` has one PE per permutation of ``0..n-1`` (dense
register index = Lehmer rank) connected by the generator set of any
:class:`~repro.topology.cayley.CayleyGraph` -- the paper's star graph,
pancake, bubble-sort, any transposition tree.  The star machine
(:class:`~repro.simd.star_machine.StarMachine`) is this machine over
:class:`~repro.topology.star.StarGraph` with the paper's 1-based generator
numbering.

:meth:`CayleyMachine.route_generator` is the SIMD-A route "every active PE
transmits along generator ``g``".  A generator is an involution, so its move
table is a fixed-point-free involution of the ranks -- a perfect matching of
the PEs -- and any subset of it is a conflict-free unit route.  The table is
validated as a perfect matching once per machine and generator
(:meth:`CayleyMachine._generator_table`), and every route, masked or not,
replays as integer gathers
(:meth:`~repro.simd.machine.SIMDMachine.route_matching_table`) with no
per-move conflict bookkeeping.

Because the machine interface is the same for every family, the
generator-scheduled broadcast/reduction programs in
:mod:`repro.algorithms.cayley` run unchanged on all of them.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import InvalidParameterError
from repro.simd.machine import SIMDMachine
from repro.simd.masks import MaskSource
from repro.topology.cayley import CayleyGraph
from repro.utils.validation import check_in_range

__all__ = ["CayleyMachine"]


class CayleyMachine(SIMDMachine):
    """An SIMD multicomputer whose interconnection network is a Cayley graph."""

    def __init__(self, graph: CayleyGraph, *, check_conflicts: bool = True):
        if not isinstance(graph, CayleyGraph):
            raise InvalidParameterError(
                f"CayleyMachine needs a CayleyGraph, got {type(graph).__name__}"
            )
        super().__init__(graph, check_conflicts=check_conflicts)
        # Node order is rank order (lexicographic), so the dense register
        # index of a node IS its Lehmer rank and the move tables apply as-is.
        self._generator_moves: dict = {}

    @property
    def graph(self) -> CayleyGraph:
        """The underlying Cayley graph."""
        return self.topology  # type: ignore[return-value]

    @property
    def n(self) -> int:
        """Degree parameter (number of symbols) of the Cayley graph."""
        return self.graph.n

    def _generator_table(self, generator: int) -> list:
        """Move table for one generator as a plain int list, validated once.

        The table must be a fixed-point-free involution (``table[table[i]] ==
        i`` and ``table[i] != i``), i.e. a perfect matching; that check
        replaces the per-route conflict check of the generic path, since a
        subset of a perfect matching can never conflict.
        """
        table = self._generator_moves.get(generator)
        if table is None:
            table = self.graph.move_tables()[generator].tolist()
            if any(table[table[index]] != index or table[index] == index
                   for index in range(len(table))):  # pragma: no cover - structural
                raise AssertionError(
                    f"move table for generator {self.graph.generator_names[generator]}"
                    " is not a perfect matching"
                )
            self._generator_moves[generator] = table
        return table

    def route_generator(
        self,
        source_register: str,
        destination_register: str,
        generator: int,
        *,
        where: MaskSource = None,
        label: Optional[str] = None,
    ) -> None:
        """One SIMD-A unit route: every active PE sends along one generator.

        *generator* is the 0-based index into ``graph.generators`` (the same
        order as ``neighbors()`` and the move-table columns); PE ``pi``
        transmits the value of *source_register* to PE ``pi o g`` where it is
        stored in *destination_register*.
        """
        check_in_range(generator, "generator", 0, self.graph.num_generators - 1)
        self.route_matching_table(
            self._generator_table(generator),
            source_register,
            destination_register,
            where=where,
            label=label or f"generator-{self.graph.generator_names[generator]}",
        )
