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

from fractions import Fraction

from .graphs import (
    DecoratedGraph,
    Leg,
    Vertex,
    _kappa_splits,
    _rewire,
    _side_assignments,
    _side_ok,
    _valences_and_dimensions,
    is_valid,
)
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


def _retained(g: DecoratedGraph) -> bool:
    # stability plus nonnegative dimension of every vertex factor: a
    # decoration exceeding the dimension of its vertex moduli makes
    # the whole class zero even when the component stays nonnegative
    return is_valid(g) and min(_valences_and_dimensions(g)[1], default=0) >= 0


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
    dims = _valences_and_dimensions(g)[1]
    terms = []
    for k, (a, b) in enumerate(g.edges):
        edges = g.edges[:k] + g.edges[k + 1 :]
        for (la, pa), (lb, pb), coeff in (
            ((i, a.psi + l), (j, b.psi), HALF),
            ((i, a.psi), (j, b.psi + l), HALF * sign),
            ((j, a.psi), (i, b.psi + l), HALF),
            ((j, a.psi + l), (i, b.psi), HALF * sign),
        ):
            # cutting keeps every vertex dimension, so a psi^l end on a
            # vertex of dimension < l is one _retained would drop
            if dims[a.vertex if pa > a.psi else b.vertex] < l:
                continue
            legs = g.legs + (Leg(a.vertex, la, pa), Leg(b.vertex, lb, pb))
            terms.append((DecoratedGraph(g.vertices, legs, edges), coeff))
    return _filtered(terms)


def reduce_genus(g: DecoratedGraph, l: int, i: int, j: int) -> FormalSum:
    """Lower the genus of each positive-genus vertex by one, attaching
    the new half-edges i, j with psi^(l-1-m), psi^m; coefficient
    (1/2)(-1)**(m+1)."""
    _check_labels(g, i, j)
    terms = []
    for v, vert in enumerate(g.vertices):
        if vert.genus < 1:
            continue
        verts = g.vertices[:v] + (Vertex(vert.genus - 1, vert.kappa),) + g.vertices[v + 1 :]
        for m in range(l):
            legs = g.legs + (Leg(v, i, l - 1 - m), Leg(v, j, m))
            terms.append((DecoratedGraph(verts, legs, g.edges), HALF * (-1) ** (m + 1)))
    return _filtered(terms)


def split_vertices(g: DecoratedGraph, l: int, i: int, j: int) -> FormalSum:
    """Split each vertex into an ordered pair of vertices carrying the
    new half-edges i and j.

    Genus, incident half-edges and kappa factors distribute in all
    possible ways; the two new vertices are not joined by an edge, so
    the result may be disconnected.  Coefficient (1/2)(-1)**(m+1) with
    psi^(l-1-m) on the i side and psi^m on the j side.
    """
    _check_labels(g, i, j)
    nb = g.n_vertices  # index of the side-1 vertex
    terms = []
    for v, vert in enumerate(g.vertices):
        assignments = _side_assignments(g, v)
        kappas = list(_kappa_splits(vert.kappa))
        for m in range(l):
            coeff = HALF * (-1) ** (m + 1)
            new_legs = (Leg(v, i, l - 1 - m), Leg(nb, j, m))
            for g1 in range(vert.genus + 1):
                g2 = vert.genus - g1
                for move, count, psi in assignments:
                    for k1, k2 in kappas:
                        # skip unbuilt what _retained rejects for either side
                        if not (
                            _side_ok(g1, count[0] + 1, psi[0] + l - 1 - m + sum(k1))
                            and _side_ok(g2, count[1] + 1, psi[1] + m + sum(k2))
                        ):
                            continue
                        verts = (
                            g.vertices[:v] + (Vertex(g1, k1),) + g.vertices[v + 1 :]
                            + (Vertex(g2, k2),)
                        )
                        terms.append((_rewire(g, verts, move, legs=new_legs), coeff))
    return _filtered(terms)


def _fresh_labels(labels) -> tuple[int, int]:
    used = set(labels)
    out = []
    k = 1
    while len(out) < 2:
        if k not in used:
            out.append(k)
        k += 1
    return out[0], out[1]


def _image_labels(e, l: int):
    """The labels i, j that the new half-edges of r_l(e) receive, or
    None when e is zero; refuses l < 1 and mixed ambients."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if e.is_zero():
        return None
    ambients = {(g.total_genus(), g.external_labels()) for g, _ in e.items()}
    if len(ambients) > 1:
        raise AmbientMismatchError("mixed ambients %s" % sorted(ambients))
    (_, labels), = ambients
    return _fresh_labels(labels)


def apply_r(e, l: int):
    """Linear extension of the operator to a FormalSum or SymbolicSum.

    All keys must share the ambient (same total genus and the same set
    of external labels); the two new half-edges receive the two
    smallest unused positive labels.
    """
    labels = _image_labels(e, l)
    if labels is None:
        return type(e)()
    i, j = labels
    out: list = []
    for graph, coeff in e.items():
        for surgery in (cut_edges, reduce_genus, split_vertices):
            for piece, frac in surgery(graph, l, i, j).items():
                out.append((piece, coeff * frac))
    return type(e)(out)
