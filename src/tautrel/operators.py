"""The dimension-lowering operators on decorated graphs.

For each index l >= 1 there is one operator, the formal sum of three
graph surgeries applied in all possible positions:

* cutting an edge, the two freed half-edges relabelled i/j in both
  ways and one of them decorated by an extra psi^l;
* reducing the genus of a vertex by one while attaching two new
  half-edges i, j decorated psi^(l-1-m), psi^m for 0 <= m <= l-1;
* splitting a vertex into two, distributing genus, half-edges and
  kappa factors in all ways, the two new vertices receiving i and j
  with the same psi^(l-1-m), psi^m decorations.

Sign convention: in the cutting terms the graph with the extra psi^l
on the second new half-edge carries (-1)**(l-1); the genus-reduction
and splitting terms carry (1/2)*(-1)**(m+1).  With these signs all
three surgeries transform with the same factor (-1)**(l-1) under the
transposition of the two new labels, so the total operator is
symmetric in i, j for odd l and antisymmetric for even l.

Every output term keeps the stability filter: components that become
unstable or of negative dimension are dropped.  Each surviving term
has dimension exactly dim(input) - l, so the operator vanishes
identically as soon as codim + l exceeds 3g-3+n.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .graphs import DecoratedGraph, End, Leg, Vertex, is_valid
from .sums import FormalSum, SymbolicSum

HALF = Fraction(1, 2)


class LabelCollisionError(ValueError):
    pass


class AmbientMismatchError(ValueError):
    pass


def _check_labels(g: DecoratedGraph, i: int, j: int):
    used = set(g.external_labels())
    if i == j or i in used or j in used:
        raise LabelCollisionError(
            "new labels %d, %d collide with existing %s" % (i, j, sorted(used))
        )


def _mutable(g: DecoratedGraph):
    return list(g.vertices), list(g.legs), [tuple(e) for e in g.edges]


def _retained(g: DecoratedGraph) -> bool:
    # stability plus nonnegative dimension of every vertex factor: a
    # decoration exceeding the dimension of its vertex moduli makes
    # the whole class zero even when the component stays nonnegative
    return is_valid(g) and all(
        g.vertex_dimension(v) >= 0 for v in range(g.n_vertices)
    )


def _filtered(terms):
    return FormalSum([(g, c) for g, c in terms if _retained(g)])


def cut_edges(g: DecoratedGraph, l: int, i: int, j: int) -> FormalSum:
    """Cut every edge in turn, label the freed half-edges i/j both
    ways, decorate one of them with an extra psi^l.

    Per edge the four labelled graphs carry coefficients 1/2, with the
    extra (-1)**(l-1) when psi^l sits on the second freed half-edge.
    """
    _check_labels(g, i, j)
    sign = Fraction((-1) ** (l - 1))
    terms = []
    for k, (a, b) in enumerate(g.edges):
        verts, legs, edges = _mutable(g)
        del edges[k]
        base = DecoratedGraph(tuple(verts), tuple(legs), tuple(edges))
        for (la, pa), (lb, pb), coeff in (
            ((i, a.psi + l), (j, b.psi), HALF),
            ((i, a.psi), (j, b.psi + l), HALF * sign),
            ((j, a.psi), (i, b.psi + l), HALF),
            ((j, a.psi + l), (i, b.psi), HALF * sign),
        ):
            cut = DecoratedGraph(
                base.vertices,
                base.legs + (Leg(a.vertex, la, pa), Leg(b.vertex, lb, pb)),
                base.edges,
            )
            terms.append((cut, coeff))
    return _filtered(terms)


def reduce_genus(g: DecoratedGraph, l: int, i: int, j: int) -> FormalSum:
    """Lower the genus of each positive-genus vertex by one, attaching
    the new half-edges i, j with psi^(l-1-m), psi^m; coefficient
    (1/2)(-1)**(m+1)."""
    _check_labels(g, i, j)
    terms = []
    for v in range(g.n_vertices):
        if g.vertices[v].genus < 1:
            continue
        for m in range(l):
            verts, legs, edges = _mutable(g)
            verts[v] = Vertex(verts[v].genus - 1, verts[v].kappa)
            legs.extend([Leg(v, i, l - 1 - m), Leg(v, j, m)])
            coeff = HALF * (-1) ** (m + 1)
            terms.append((DecoratedGraph(tuple(verts), tuple(legs), tuple(edges)), coeff))
    return _filtered(terms)


def _kappa_splits(kappa: tuple[int, ...]):
    """All distributions of the kappa factors over two vertices,
    counted with multiplicity (each factor is a distinguishable slot)."""
    for sides in itertools.product((0, 1), repeat=len(kappa)):
        left = tuple(a for a, s in zip(kappa, sides) if s == 0)
        right = tuple(a for a, s in zip(kappa, sides) if s == 1)
        yield left, right


def split_vertices(g: DecoratedGraph, l: int, i: int, j: int) -> FormalSum:
    """Split each vertex into an ordered pair of vertices carrying the
    new half-edges i and j.

    Genus, incident half-edges and kappa factors distribute in all
    possible ways; the two new vertices are not joined by an edge, so
    the result may be disconnected.  Coefficient (1/2)(-1)**(m+1) with
    psi^(l-1-m) on the i side and psi^m on the j side.
    """
    _check_labels(g, i, j)
    terms = []
    for v in range(g.n_vertices):
        vert = g.vertices[v]
        assignments = _side_assignments(g, v)
        kappas = list(_kappa_splits(vert.kappa))
        for m in range(l):
            coeff = HALF * (-1) ** (m + 1)
            for g1 in range(vert.genus + 1):
                g2 = vert.genus - g1
                for side_of, count, psi in assignments:
                    for k1, k2 in kappas:
                        # skip unbuilt what _retained rejects for either side
                        if not (
                            _side_ok(g1, count[0] + 1, psi[0] + l - 1 - m + sum(k1))
                            and _side_ok(g2, count[1] + 1, psi[1] + m + sum(k2))
                        ):
                            continue
                        split = _apply_split(
                            g, v, g1, g2, k1, k2, side_of,
                            (Leg(0, i, l - 1 - m), Leg(0, j, m)),
                        )
                        terms.append((split, coeff))
    return _filtered(terms)


def _side_assignments(g: DecoratedGraph, v: int):
    """Every assignment of the half-edge slots at vertex v to sides 0
    and 1, as (side_of, slots per side, psi sum per side)."""
    slots = [("leg", k) for k, leg in enumerate(g.legs) if leg.vertex == v]
    slots += [("end", e) for e in g.ends_at(v)]
    psis = [g.legs[r].psi if kind == "leg" else g.edges[r[0]][r[1]].psi for kind, r in slots]
    out = []
    for sides in itertools.product((0, 1), repeat=len(slots)):
        n1, psi1 = sum(sides), sum(p for p, s in zip(psis, sides) if s)
        out.append((dict(zip(slots, sides)), (len(slots) - n1, n1), (sum(psis) - psi1, psi1)))
    return out


def _side_ok(genus: int, valence: int, degree: int) -> bool:
    """Stable and nonnegative-dimensional with this genus, valence and degree."""
    return 2 * genus - 2 + valence > 0 and 3 * genus - 3 + valence >= degree


def _apply_split(g, v, g1, g2, k1, k2, side_of, new_legs):
    """Replace vertex v by two vertices (appended at positions v and
    n_vertices); ``side_of`` sends each incident slot to side 0/1; the
    two entries of ``new_legs`` attach to sides 0 and 1."""
    va = Vertex(g1, k1)
    vb = Vertex(g2, k2)
    nb = g.n_vertices  # index of the side-1 vertex
    verts = list(g.vertices)
    verts[v] = va
    verts.append(vb)
    legs = []
    for k, leg in enumerate(g.legs):
        if leg.vertex == v:
            tgt = v if side_of[("leg", k)] == 0 else nb
            legs.append(Leg(tgt, leg.label, leg.psi))
        else:
            legs.append(leg)
    legs.append(Leg(v, new_legs[0].label, new_legs[0].psi))
    legs.append(Leg(nb, new_legs[1].label, new_legs[1].psi))
    edges = []
    for idx, e in enumerate(g.edges):
        ends = []
        for side in (0, 1):
            end = e[side]
            if end.vertex == v:
                tgt = v if side_of[("end", (idx, side))] == 0 else nb
                ends.append(End(tgt, end.psi))
            else:
                ends.append(end)
        edges.append(tuple(ends))
    return DecoratedGraph(tuple(verts), tuple(legs), tuple(edges))


def _fresh_labels(labels) -> tuple[int, int]:
    used = set(labels)
    out = []
    k = 1
    while len(out) < 2:
        if k not in used:
            out.append(k)
        k += 1
    return out[0], out[1]


def r_graph(g: DecoratedGraph, l: int, i: int, j: int) -> FormalSum:
    """The full operator on a single graph with explicit new labels."""
    return cut_edges(g, l, i, j) + reduce_genus(g, l, i, j) + split_vertices(g, l, i, j)


def apply_r(e, l: int):
    """Linear extension of the operator to a FormalSum or SymbolicSum.

    All keys must share the ambient (same total genus and the same set
    of external labels); the two new half-edges receive the two
    smallest unused positive labels.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if e.is_zero():
        return type(e)()
    ambients = {(g.total_genus(), g.external_labels()) for g, _ in e.terms()}
    if len(ambients) > 1:
        raise AmbientMismatchError("mixed ambients %s" % sorted(ambients))
    (_, labels), = ambients
    i, j = _fresh_labels(labels)
    out: list = []
    for graph, coeff in e.terms():
        for piece, frac in r_graph(graph, l, i, j).terms():
            out.append((piece, coeff * frac))
    return type(e)(out)
