"""Exhaustive enumeration of decorated strata classes.

Strata of the moduli space of stable genus-g curves with marked
points 1..n are generated by iterated one-edge degenerations of the
smooth one-vertex graph: either a vertex splits into two vertices
joined by a new edge, or a vertex drops one genus and gains a loop.
Every stratum with E edges arises after E such moves, so a
breadth-first sweep with canonical deduplication is exhaustive.
The splits of each vertex come from one table,
``graphs._vertex_splits``, built once per host vertex with each
unordered split canonicalised once; the four-point relations on the
same hosts read the same table.

Decorations (psi powers on half-edges, kappa monomials on vertices)
are then distributed over the slots so that the total decorated
codimension is k.  Decorated classes whose vertex factor would exceed
the dimension of its moduli factor are identically zero and are not
produced.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import (
    DecoratedGraph,
    End,
    Leg,
    Vertex,
    _relabelling_orbit,
    _rewire,
    _slots,
    _valences_and_dimensions,
    _vertex_splits,
    canonicalize,
    sort_key,
)


def _one_edge_degenerations(g: DecoratedGraph):
    """The canonical one-edge degenerations of the stable graph g: at
    each vertex, the loop when its genus is positive, then the vertex's
    split table."""
    out = []
    for v, vert in enumerate(g.vertices):
        # non-separating: genus drops, loop appears
        if vert.genus >= 1:
            verts = g.vertices[:v] + (Vertex(vert.genus - 1, vert.kappa),) + g.vertices[v + 1 :]
            out.append(canonicalize(DecoratedGraph(verts, g.legs, g.edges + ((End(v, 0), End(v, 0)),))))
        # separating: split the vertex, join the halves by an edge
        out += [split for _, split in _vertex_splits(g, v)[1]]
    return out


@lru_cache(maxsize=None)
def stable_graphs(g: int, n: int, num_edges: int) -> tuple[DecoratedGraph, ...]:
    """All connected stable graphs of genus g with legs 1..n and the
    given number of edges, canonical and sorted."""
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError("no stable curves for (g, n) = (%d, %d)" % (g, n))
    if num_edges == 0:
        return (canonicalize(DecoratedGraph((Vertex(g),), tuple(Leg(0, a) for a in range(1, n + 1)))),)
    level = set()
    for prev in stable_graphs(g, n, num_edges - 1):
        level.update(_one_edge_degenerations(prev))
    return tuple(sorted(level, key=sort_key))


def _vertex_decorations(graph: DecoratedGraph, budget: int, with_kappa: bool):
    """Distributions of psi powers over the slots of a psi-free graph
    and kappa over its vertices, total degree == budget, keeping every
    vertex factor nonnegative: a vertex takes at most its dimension,
    less its kappa degree, in psi."""
    slots = [[s for s, _ in at] for at in _slots(graph)]
    dims = _valences_and_dimensions(graph)[1]
    monomials = [tuple(p) for d in range(budget + 1) for p in _partitions(d)] if with_kappa else [()]
    out = []
    for kappas in itertools.product(monomials, repeat=graph.n_vertices):
        rest = budget - sum(map(sum, kappas))
        caps = [d - sum(kappa) for d, kappa in zip(dims, kappas)]
        verts = [Vertex(vert.genus, kappa) for vert, kappa in zip(graph.vertices, kappas)]
        for degrees in _compositions(rest, len(caps), caps):
            for powers in itertools.product(*map(_compositions, degrees, map(len, slots))):
                psi = dict(zip(itertools.chain(*slots), itertools.chain(*powers)))
                out.append(_rewire(graph, verts, psi=psi))
    return out


def _compositions(total: int, parts: int, caps=None):
    """The tuples of ``parts`` nonnegative integers summing to
    ``total``, each at most its entry of ``caps`` when given."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    top = total if caps is None else min(total, caps[0])
    for first in range(top + 1):
        for rest in _compositions(total - first, parts - 1, caps and caps[1:]):
            yield (first,) + rest


def _partitions(n: int, max_part: int | None = None):
    if n == 0:
        yield []
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def enumerate_classes(
    g: int,
    n: int,
    k: int,
    decorations: str = "none",
    symmetrize_points=None,
) -> list[DecoratedGraph]:
    """All decorated classes of codimension k on the connected ambient.

    ``decorations``: 'none' (boundary strata only), 'psi', or
    'psi_kappa'.  The classes come in ``sort_key`` order; with
    ``symmetrize_points`` only the first member of each of their
    :func:`orbits` under permutations of those labels is kept.
    """
    if decorations not in ("none", "psi", "psi_kappa"):
        raise ValueError("unknown decoration mode %r" % decorations)
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError("no stable curves for (g, n) = (%d, %d)" % (g, n))
    unknown = sorted(set(symmetrize_points or ()) - set(range(1, n + 1)))
    if unknown:
        raise ValueError("unknown external labels %s" % unknown)
    if k < 0 or k > 3 * g - 3 + n:
        return []
    found = set()
    lo_edges = k if decorations == "none" else 0
    for num_edges in range(lo_edges, k + 1):
        for graph in stable_graphs(g, n, num_edges):
            if decorations == "none":
                found.add(graph)
            else:
                for dec in _vertex_decorations(
                    graph, k - num_edges, decorations == "psi_kappa"
                ):
                    found.add(canonicalize(dec))
    found = sorted(found, key=sort_key)
    if symmetrize_points:
        found = [orbit[0] for orbit in orbits(found, symmetrize_points)]
    return found


def orbits(classes, points) -> list[list[DecoratedGraph]]:
    """The orbits of ``classes`` under permuting the labels ``points``,
    in input order, keyed by the graphs' relabelling orbit."""
    pts = tuple(sorted(points))
    out: dict = {}
    for graph in classes:
        missing = sorted(set(pts) - set(graph.external_labels()))
        if missing:
            raise ValueError("unknown external labels %s" % missing)
        out.setdefault(_relabelling_orbit(graph, pts)[0], []).append(graph)
    return list(out.values())
