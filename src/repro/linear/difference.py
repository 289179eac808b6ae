"""Difference-logic solver: Bellman–Ford negative-cycle detection.

The FISCHER benchmarks are QF_RDL — every atom has the shape
``x - y <= c`` (or a single-variable bound).  A general simplex is overkill
for this fragment: the constraint graph (one edge per atom) is feasible iff
it has no negative cycle, Bellman–Ford decides that in O(V·E), the shortest
path distances *are* a satisfying point, and a negative cycle *is* an
irreducible infeasible subset — conflict refinement for free.

This is precisely the kind of "most appropriate solver for a given task"
that ABsolver's registry exists to host (paper, abstract and Sec. 4): it is
registered as the ``difference`` linear solver and transparently falls back
to the exact simplex on rows outside the fragment.

Strict inequalities are handled with lexicographic weights ``(c, s)`` where
``s`` counts strict edges: a cycle is infeasible iff its total weight is
negative, or zero with at least one strict edge.  Bellman–Ford runs on one
exact integer per edge that encodes this order (see
:class:`DifferenceLogicSolver`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple, Union

from ..core.expr import Relation
from .lp import LinearConstraint, LinearSystem
from .simplex import LPResult, LPStatus

__all__ = ["DifferenceLogicSolver", "is_difference_row", "is_difference_system"]

#: Virtual source vertex used for single-variable bounds ``x <= c``.
_SOURCE = "__zero__"

#: One graph edge: ``(tail, head, weight numerator, weight denominator,
#: strict)``.
_Edge = Tuple[str, str, int, int, bool]

#: The graph Bellman–Ford relaxes: ``(tail id, head id, integer weight)``.
_Graph = List[Tuple[int, int, int]]

#: Coefficient lists of the non-trivial rows inside the fragment.
_FRAGMENT_COEFFS = ([1], [-1], [1, -1], [-1, 1])


def _encode(row: LinearConstraint) -> Union[bool, Tuple[_Edge, ...]]:
    """The row's graph edges, or False when it lies outside the fragment.

    ``x - y <= c`` is the edge ``y -> x`` with weight c (then
    d(x) <= d(y) + c).  GE rows flip; EQ rows emit both directions.  A
    trivial row has no edges.
    """
    if not row.coeffs:
        return ()
    coeffs = [c.numerator if c.denominator == 1 else 0 for c in row.coeffs.values()]
    if coeffs not in _FRAGMENT_COEFFS:
        return False
    items = sorted(row.coeffs.items())
    if len(items) == 1:
        var, coeff = items[0]
        positive, negative = (var, _SOURCE) if coeff == 1 else (_SOURCE, var)
    else:
        (var_a, coeff_a), (var_b, _) = items
        positive, negative = (var_a, var_b) if coeff_a == 1 else (var_b, var_a)

    relation = row.relation
    numerator, denominator = row.bound.numerator, row.bound.denominator
    edges: List[_Edge] = []
    if relation in (Relation.LE, Relation.LT, Relation.EQ):
        edges.append((negative, positive, numerator, denominator, relation is Relation.LT))
    if relation in (Relation.GE, Relation.GT, Relation.EQ):
        edges.append((positive, negative, -numerator, denominator, relation is Relation.GT))
    return tuple(edges)


def _row_edges(row: LinearConstraint) -> Union[bool, Tuple[_Edge, ...]]:
    """The row's encoding, computed on first use and kept on the row."""
    edges = row.difference_edges
    if edges is None:
        edges = row.difference_edges = _encode(row)
    return edges


def is_difference_row(row: LinearConstraint) -> bool:
    """True for rows expressible as ``x - y REL c`` or ``±x REL c``.

    >>> from fractions import Fraction
    >>> from repro.core.expr import Relation
    >>> is_difference_row(
    ...     LinearConstraint(
    ...         {"x": Fraction(1), "y": Fraction(-1)}, Relation.LE, Fraction(3)
    ...     )
    ... )
    True
    >>> is_difference_row(
    ...     LinearConstraint({"x": Fraction(2)}, Relation.LE, Fraction(3))
    ... )
    False
    """
    return _row_edges(row) is not False


def is_difference_system(system: LinearSystem) -> bool:
    """True when every row fits the fragment and no variable is integer."""
    if system.integer_variables():
        return False
    return all(_row_edges(row) is not False for row in system.rows)


class DifferenceLogicSolver:
    """Feasibility + negative-cycle cores for difference constraint systems.

    Each check is one Bellman–Ford pass in exact integer arithmetic.  Edge
    weights are scaled by the LCM ``L`` of the bound denominators, and the
    strictness of an edge is folded into the same integer: weight ``w``
    becomes ``w·L·M − s`` (``s`` is 1 for a strict edge, else 0) with
    ``M = |V|·|E| + 1``.  Each distance Bellman–Ford builds is a walk that
    gained at most one strict edge per relaxation, and a run makes at most
    ``|V|·|E|`` relaxations, so strict counts stay below ``M`` and integer
    order on distances is exactly the lexicographic ``(weight, −strict)``
    order.  The integers are decoded back to ``(weight, strict)`` only to
    build a feasible point.

    Each row's edges are encoded once and kept on the row
    (:attr:`LinearConstraint.difference_edges`), so a check over cached
    rows only assigns vertex ids, scales the weights and relaxes.  The
    system may have several variable-sharing components: the virtual
    source reaches every vertex, so one pass decides them all, and a
    negative cycle it finds is simple, so it lies within one component.
    """

    def check(self, system: LinearSystem) -> LPResult:
        """Decide feasibility; INFEASIBLE results carry the cycle as core.

        Raises ``ValueError`` when the system is outside the fragment.
        """
        if system.integer_variables():
            raise ValueError("system is outside the difference-logic fragment")
        edges: List[_Edge] = []
        origins: List[int] = []  # the row index of each edge
        false_row: Optional[int] = None
        for index, row in enumerate(system.rows):
            row_edges = _row_edges(row)
            if row_edges is False:
                raise ValueError("system is outside the difference-logic fragment")
            if row_edges:
                edges.extend(row_edges)
                origins.extend([index] * len(row_edges))
            elif false_row is None and not row.trivially_true():
                false_row = index
        if false_row is not None:
            return LPResult(LPStatus.INFEASIBLE, core_indices=[false_row])

        vertex_ids: Dict[str, int] = {_SOURCE: 0}
        for tail, head, *_ in edges:
            vertex_ids.setdefault(tail, len(vertex_ids))
            vertex_ids.setdefault(head, len(vertex_ids))
        num_vertices = len(vertex_ids)
        scale = lcm(*(edge[3] for edge in edges))
        multiplier = num_vertices * len(edges) + 1
        graph = [
            (
                vertex_ids[tail],
                vertex_ids[head],
                numerator * (scale // denominator) * multiplier - strict,
            )
            for tail, head, numerator, denominator, strict in edges
        ]

        distance, predecessor, updated_vertex = self._bellman_ford(graph, num_vertices)

        if updated_vertex is not None:
            cycle = self._extract_cycle(updated_vertex, predecessor, graph)
            return LPResult(
                LPStatus.INFEASIBLE, core_indices=sorted({origins[k] for k in cycle})
            )

        # Feasible: distances are a model.  Decode D = A·M − s (A = w·L);
        # strict edges hold with margin once each distance is shifted by
        # -s * eps for a small enough eps.
        scaled = [-(-d // multiplier) for d in distance]
        strict_counts = [a * multiplier - d for a, d in zip(scaled, distance)]
        eps = self._strictness_epsilon(graph, scaled, strict_counts, scale, multiplier)
        # Solution orientation: constraints are v - u <= w along edges
        # u->v is d(v) <= d(u) + w; x's value is d(x) - d(source).
        point = {
            vertex: Fraction(scaled[i] - scaled[0], scale)
            - eps * (strict_counts[i] - strict_counts[0])
            for vertex, i in vertex_ids.items()
            if vertex != _SOURCE
        }
        return LPResult(LPStatus.FEASIBLE, point)

    # ------------------------------------------------------------------
    @staticmethod
    def _bellman_ford(
        graph: _Graph, num_vertices: int
    ) -> Tuple[List[int], List[int], Optional[int]]:
        """Bellman–Ford from the virtual source (implicit 0-edges to every
        vertex, i.e. all distances start at 0) over integer-weighted edges
        ``(tail, head, weight)``.

        Returns ``(distance, predecessor, updated_vertex)``; ``predecessor``
        holds edge indices (-1 for none), and ``updated_vertex`` is non-None
        iff a relaxation still fired in the final round, which witnesses a
        negative cycle reachable through it.
        """
        distance = [0] * num_vertices
        predecessor = [-1] * num_vertices
        updated_vertex: Optional[int] = None
        for _ in range(num_vertices):
            updated_vertex = None
            for k, (tail, head, weight) in enumerate(graph):
                candidate = distance[tail] + weight
                if candidate < distance[head]:
                    distance[head] = candidate
                    predecessor[head] = k
                    updated_vertex = head
            if updated_vertex is None:
                break
        return distance, predecessor, updated_vertex

    @staticmethod
    def _extract_cycle(start: int, predecessor: List[int], graph: _Graph) -> List[int]:
        """Edge indices of the negative cycle behind ``start``."""
        # Walk back far enough to be inside the cycle, then collect it.
        vertex = start
        for _ in range(len(predecessor)):
            vertex = graph[predecessor[vertex]][0]
        cycle: List[int] = []
        cursor = vertex
        while True:
            edge = predecessor[cursor]
            cycle.append(edge)
            cursor = graph[edge][0]
            if cursor == vertex:
                break
        return cycle

    @staticmethod
    def _strictness_epsilon(
        graph: _Graph,
        scaled: List[int],
        strict_counts: List[int],
        scale: int,
        multiplier: int,
    ) -> Fraction:
        """An eps > 0 small enough that strict constraints get real slack.

        ``scaled`` holds each distance's weight times ``scale``.  For every
        edge with residual slack ``d(u) + w - d(v) > 0`` the shift by
        ``-eps * strict_count`` must not overshoot; eps = min residual /
        (2 * (max strict count + 1)) is safe, with a fallback of 1.
        """
        min_residual: Optional[int] = None
        max_strict = 1
        for tail, head, weight in graph:
            # -(-x // M) recovers w·L from the edge's w·L·M − strict.
            residual = scaled[tail] - (-weight // multiplier) - scaled[head]
            if residual > 0 and (min_residual is None or residual < min_residual):
                min_residual = residual
            max_strict = max(max_strict, strict_counts[tail] + 1, strict_counts[head] + 1)
        if min_residual is None:
            return Fraction(1)
        return Fraction(min_residual, scale * 2 * max_strict)
