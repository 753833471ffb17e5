"""Decorated dual graphs of stable curves.

A decorated graph records the topological type of a possibly
disconnected nodal curve together with cohomological decorations:
each vertex carries the geometric genus of a component and a monomial
in kappa classes, each half-edge carries a power of the cotangent psi
class.  Half-edges are either external (labelled marked points, fixed
by every isomorphism) or paired into internal edges (the nodes).

Internally a graph stores vertices by index, external half-edges as
``Leg(vertex, label, psi)`` records and internal edges as unordered
pairs of ``End(vertex, psi)`` records, so the "internal labels occur
exactly twice" invariant is structural.  Loops (both ends on one
vertex) are allowed; a loop contributes 2 to the valence and 1 to the
arithmetic genus.

The arithmetic genus of the whole (possibly disconnected) graph is

    sum of vertex genera + #edges - #vertices + #components
        + (#components - 1) corrections collapsed into the closed form
    g(C) = sum_v g_v + E - V + 1,

which agrees with ``sum g(C_i) - d + 1`` over the d components.

The dimension of a decorated graph is

    sum_v (3 g_v - 3 + valence(v)) - (total psi power) - (total kappa degree),

the kappa degree of kappa_a being a.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence


class Leg(NamedTuple):
    vertex: int
    label: int
    psi: int = 0


class End(NamedTuple):
    vertex: int
    psi: int = 0


# An edge is an unordered pair of ends, stored sorted.
Edge = tuple[End, End]


@dataclass(frozen=True)
class Vertex:
    """A curve component: geometric genus plus a kappa monomial.

    ``kappa`` is a multiset of positive subscripts; an entry a stands
    for one factor kappa_a.
    """

    genus: int
    kappa: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kappa", tuple(sorted(self.kappa)))
        object.__setattr__(self, "_hash", hash((self.genus, self.kappa)))

    def __hash__(self):
        return self._hash

    @property
    def kappa_degree(self) -> int:
        return sum(self.kappa)


@dataclass(frozen=True)
class DecoratedGraph:
    """Immutable decorated dual graph.

    The constructor normalises the representation (sorted kappa
    multisets, legs sorted by label, edge ends and edges sorted) but
    does not canonicalise the vertex order; see :func:`canonicalize`.
    Its hash is computed once, at construction.
    """

    vertices: tuple[Vertex, ...]
    legs: tuple[Leg, ...] = ()
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        verts = tuple(
            v if isinstance(v, Vertex) else Vertex(*v) for v in self.vertices
        )
        legs = tuple(sorted(l if isinstance(l, Leg) else Leg(*l) for l in self.legs))
        edges = []
        for a, b in self.edges:
            a = a if isinstance(a, End) else End(*a)
            b = b if isinstance(b, End) else End(*b)
            edges.append((a, b) if a <= b else (b, a))
        edges = tuple(sorted(edges))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_hash", hash((verts, legs, edges)))
        for l in self.legs:
            if not (0 <= l.vertex < len(verts)):
                raise ValueError("leg attached to missing vertex %r" % (l,))
        for e in self.edges:
            for end in e:
                if not (0 <= end.vertex < len(verts)):
                    raise ValueError("edge end on missing vertex %r" % (e,))

    def __hash__(self):
        return self._hash

    # -- basic structure ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def ends_at(self, v: int) -> list[tuple[int, int]]:
        """Indices ``(edge, side)`` of all edge ends at vertex v."""
        return [i for (kind, i), _ in _slots(self)[v] if kind == "end"]

    def valence(self, v: int) -> int:
        return _valences_and_dimensions(self)[0][v]

    def external_labels(self) -> tuple[int, ...]:
        return tuple(sorted(l.label for l in self.legs))

    def psi_total(self) -> int:
        return sum(l.psi for l in self.legs) + sum(
            e[0].psi + e[1].psi for e in self.edges
        )

    # -- genus / dimension ----------------------------------------------

    def total_genus(self) -> int:
        return (
            sum(v.genus for v in self.vertices)
            + len(self.edges)
            - len(self.vertices)
            + 1
        )

    def vertex_dimension(self, v: int) -> int:
        """Dimension of the decorated vertex moduli factor."""
        return _valences_and_dimensions(self)[1][v]

    def dimension(self) -> int:
        return sum(_valences_and_dimensions(self)[1])

    def ambient(self) -> tuple[int, int]:
        """Total (genus, number of external half-edges)."""
        return self.total_genus(), len(self.legs)

    def codimension(self) -> int:
        g, n = self.ambient()
        return (3 * g - 3 + n) - self.dimension()

    # -- components ------------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Vertex index sets of the connected components, sorted."""
        parent = list(range(self.n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            a, b = find(e[0].vertex), find(e[1].vertex)
            if a != b:
                parent[a] = b
        groups = defaultdict(list)
        for v in range(self.n_vertices):
            groups[find(v)].append(v)
        return sorted(tuple(sorted(g)) for g in groups.values())

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def subgraph(
        self, vertex_set: Sequence[int], mapping: Mapping[int, int] | None = None
    ) -> "DecoratedGraph":
        """Restriction to a union of connected components, with the
        external labels in ``mapping`` renamed as in :meth:`relabel`."""
        vs = set(vertex_set)
        for a, b in self.edges:
            if (a.vertex in vs) != (b.vertex in vs):
                raise ValueError("vertex set cuts an edge; not a component union")
        return _renumber(self, sorted(vs), mapping)

    def normalised_components(self) -> list[tuple[tuple[int, ...], "DecoratedGraph"]]:
        """(external labels, canonical component) per connected
        component in ``components()`` order, the component's labels
        renamed order-preservingly to 1..m in the one graph it builds."""
        comps = self.components()
        out = []
        for vs in comps:
            labels = tuple(sorted(l.label for l in self.legs if l.vertex in vs))
            if len(comps) == 1 and labels == tuple(range(1, len(labels) + 1)):
                out.append((labels, canonicalize(self)))  # already normalised
                continue
            rank = {a: i + 1 for i, a in enumerate(labels)}
            out.append((labels, canonicalize(self.subgraph(vs, rank))))
        return out

    # -- relabelling ------------------------------------------------------

    def relabel(self, mapping: Mapping[int, int]) -> "DecoratedGraph":
        """Rename external labels; labels not in the mapping stay put."""
        return _renumber(self, range(self.n_vertices), mapping)

    def __repr__(self) -> str:
        from .gwi import format_graph

        return "DecoratedGraph(%s)" % format_graph(self)

    def is_stable_vertex(self, v: int) -> bool:
        return 2 * self.vertices[v].genus - 2 + self.valence(v) > 0


def _renumber(g: DecoratedGraph, order: Sequence[int], rename: Mapping[int, int] | None = None):
    """The graph on the vertices ``order`` of ``g``, vertex ``order[i]``
    becoming vertex i, with the external labels in ``rename`` renamed;
    legs and edges off those vertices are dropped."""
    rename = (rename or {}).get
    pos = {v: i for i, v in enumerate(order)}
    return DecoratedGraph(
        tuple(g.vertices[v] for v in order),
        tuple(Leg(pos[l.vertex], rename(l.label, l.label), l.psi) for l in g.legs if l.vertex in pos),
        tuple((End(pos[a.vertex], a.psi), End(pos[b.vertex], b.psi)) for a, b in g.edges if a.vertex in pos),
    )


def disjoint_union(graphs: Iterable[DecoratedGraph]) -> DecoratedGraph:
    verts: list[Vertex] = []
    legs: list[Leg] = []
    edges: list[Edge] = []
    for g in graphs:
        off = len(verts)
        verts.extend(g.vertices)
        legs.extend(Leg(l.vertex + off, l.label, l.psi) for l in g.legs)
        edges.extend(
            (End(e[0].vertex + off, e[0].psi), End(e[1].vertex + off, e[1].psi))
            for e in g.edges
        )
    return DecoratedGraph(tuple(verts), tuple(legs), tuple(edges))


def _valences_and_dimensions(g: DecoratedGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Valence and decorated dimension of every vertex, from one pass
    over the half-edges, made once per graph object and kept on it."""
    shape = g.__dict__.get("_shape")
    if shape is None:
        valence = [0] * g.n_vertices
        dims = [3 * v.genus - 3 - v.kappa_degree for v in g.vertices]
        for v, psi in [(l.vertex, l.psi) for l in g.legs] + [end for e in g.edges for end in e]:
            valence[v] += 1
            dims[v] += 1 - psi
        shape = (tuple(valence), tuple(dims))
        object.__setattr__(g, "_shape", shape)
    return shape


# ---------------------------------------------------------------------------
# half-edge surgery
#
# A slot names one half-edge of a graph: ("leg", k) is ``g.legs[k]`` and
# ("end", (i, side)) is end ``side`` of ``g.edges[i]``.  Sorted, ends
# come before legs; the psi rewrites in ``relations`` choose slots and
# reference pairs in that order.


def _slots(g: DecoratedGraph) -> list[list[tuple[tuple, int]]]:
    """Every vertex's slots with their psi powers, from one pass over
    the half-edges: legs first, then ends in (edge, side) order."""
    out = [[] for _ in g.vertices]
    for k, l in enumerate(g.legs):
        out[l.vertex].append((("leg", k), l.psi))
    for i, e in enumerate(g.edges):
        for side, end in enumerate(e):
            out[end.vertex].append((("end", (i, side)), end.psi))
    return out


def _rewire(g: DecoratedGraph, vertices, move=None, psi=None, legs=(), edges=()):
    """``g`` with the vertex tuple ``vertices``, every slot in ``move``
    sent to the vertex it maps to, the psi power of every slot in
    ``psi`` shifted by the amount it maps to, and ``legs`` and
    ``edges`` added.  The slots name half-edges of ``g`` itself."""
    move = move or {}
    psi = psi or {}
    new_legs = [
        Leg(move.get(("leg", k), l.vertex), l.label, l.psi + psi.get(("leg", k), 0))
        for k, l in enumerate(g.legs)
    ]
    new_edges = []
    for i, (a, b) in enumerate(g.edges):
        sa, sb = ("end", (i, 0)), ("end", (i, 1))
        new_edges.append((
            End(move.get(sa, a.vertex), a.psi + psi.get(sa, 0)),
            End(move.get(sb, b.vertex), b.psi + psi.get(sb, 0)),
        ))
    return DecoratedGraph(
        tuple(vertices), tuple(new_legs) + tuple(legs), tuple(new_edges) + tuple(edges)
    )


def _side_assignments(slots, nb: int, side0=(), side1=()):
    """The one enumerator of vertex splits: every assignment of one
    vertex's ``slots`` (its entry of :func:`_slots`) to sides 0 and 1
    keeping ``side0`` and ``side1`` on their side, the free slots in
    ``itertools.product`` order, as (move, slots per side, psi sum per
    side); ``move`` sends the side-1 slots to the new vertex ``nb``."""
    total = sum(p for _, p in slots)
    choices = [(0,) if s in side0 else (1,) if s in side1 else (0, 1) for s, _ in slots]
    out = []
    for sides in itertools.product(*choices):
        moved = list(itertools.compress(slots, sides))
        n1, psi1 = len(moved), sum([p for _, p in moved])
        out.append(({s: nb for s, _ in moved}, (len(slots) - n1, n1), (total - psi1, psi1)))
    return out


def _side_ok(genus: int, valence: int, degree: int = 0) -> bool:
    """Stable and nonnegative-dimensional with this genus, valence and degree."""
    return 2 * genus - 2 + valence > 0 and 3 * genus - 3 + valence >= degree


def _kappa_splits(kappa: tuple[int, ...]):
    """All distributions of the kappa factors over two vertices,
    counted with multiplicity (each factor is a distinguishable slot)."""
    for sides in itertools.product((0, 1), repeat=len(kappa)):
        left = tuple(a for a, s in zip(kappa, sides) if s == 0)
        right = tuple(a for a, s in zip(kappa, sides) if s == 1)
        yield left, right


@lru_cache(maxsize=None)
def _vertex_splits(g: DecoratedGraph, v: int):
    """Vertex v's ``_slots`` entry and its split table: every valid
    separating one-edge degeneration of v, once per unordered split, as
    (frozenset of the slots kept at v, canonical graph).

    v's first slot stays at v; a vertex with no slots keeps the smaller
    genus.  The genus and the kappa factors distribute in all ways, as
    in ``relations._linked_splits``, and unstable halves are skipped
    unbuilt.  The stable-graph levels and the four-point relations
    share each table."""
    slots = _slots(g)[v]
    vert = g.vertices[v]
    nb = g.n_vertices
    before, after = g.vertices[:v], g.vertices[v + 1 :]
    link = ((End(v, 0), End(nb, 0)),)
    genera = range(vert.genus + 1 if slots else vert.genus // 2 + 1)
    out = []
    for move, count, _ in _side_assignments(slots, nb, [s for s, _ in slots[:1]]):
        for g1 in genera:
            g2 = vert.genus - g1
            # each half keeps its slots plus one end of the new edge
            if _side_ok(g1, count[0] + 1) and _side_ok(g2, count[1] + 1):
                kept = frozenset(s for s, _ in slots if s not in move)
                for k1, k2 in _kappa_splits(vert.kappa):
                    cand = _rewire(g, before + (Vertex(g1, k1),) + after + (Vertex(g2, k2),), move, edges=link)
                    if is_valid(cand):
                        out.append((kept, canonicalize(cand)))
    return slots, tuple(out)


# ---------------------------------------------------------------------------
# validation


def validate(g: DecoratedGraph) -> list[str]:
    """Return the list of violated invariants (empty means valid).

    Checked: nonnegative genera, kappa subscripts >= 1, nonnegative
    psi powers, pairwise distinct external labels, stability of every
    vertex, and nonnegative decorated dimension of every connected
    component.  Never raises.
    """
    return [fmt % args for fmt, args in _problems(g)]


def is_valid(g: DecoratedGraph) -> bool:
    return not _problems(g)


def _problems(g: DecoratedGraph) -> list[tuple[str, tuple]]:
    """The invariants :func:`validate` checks, as unformatted messages.

    One pass over the half-edges gives every valence and vertex
    dimension; component dimensions are summed only when nothing else
    fails and some vertex dimension is negative.
    """
    valence, dims = _valences_and_dimensions(g)
    problems = []
    for i, v in enumerate(g.vertices):
        if v.genus < 0:
            problems.append(("vertex %d has negative genus %d", (i, v.genus)))
        for a in v.kappa:
            if a < 1:
                problems.append(("vertex %d has kappa subscript %d < 1", (i, a)))
    labels = [l.label for l in g.legs]
    if len(set(labels)) != len(labels):
        dup = sorted({x for x in labels if labels.count(x) > 1})
        problems.append(("duplicate external labels %s", (dup,)))
    for l in g.legs:
        if l.psi < 0:
            problems.append(("negative psi power on external %d", (l.label,)))
    for e in g.edges:
        if e[0].psi < 0 or e[1].psi < 0:
            problems.append(("negative psi power on an edge end", ()))
    for i, (v, val) in enumerate(zip(g.vertices, valence)):
        if v.genus >= 0 and not 2 * v.genus - 2 + val > 0:
            problems.append((
                "unstable vertex %d: 2*%d-2+%d = %d is not > 0",
                (i, v.genus, val, 2 * v.genus - 2 + val),
            ))
    if problems or min(dims, default=0) >= 0:
        return problems
    comp_dims = [(list(comp), sum(dims[v] for v in comp)) for comp in g.components()]
    return [("component %s has dimension %d < 0", cd) for cd in comp_dims if cd[1] < 0]


def total_genus(g: DecoratedGraph) -> int:
    return g.total_genus()


def dimension(g: DecoratedGraph) -> int:
    return g.dimension()


# ---------------------------------------------------------------------------
# canonical form
#
# Isomorphisms fix external labels and may permute vertices, internal
# edges, and the two ends of an edge.  The canonical form is the
# vertex ordering minimising a total encoding, found by iterated
# colour refinement plus backtracking over tied colour classes.  In
# the sizes this engine targets (< 20 half-edges) the backtracking is
# negligible.  The initial colour (genus, kappa, legs, loops, valence)
# fixes the leaf order, and with it every canonical form and sort key.


def _records(g: DecoratedGraph, rename: Mapping[int, int] | None = None):
    """Each vertex's (genus, kappa, sorted (label, psi) legs), labels renamed."""
    rename = (rename or {}).get
    legs = [[] for _ in g.vertices]
    for l in g.legs:
        legs[l.vertex].append((rename(l.label, l.label), l.psi))
    return [(v.genus, v.kappa, tuple(sorted(ls))) for v, ls in zip(g.vertices, legs)]


def _intern(cols) -> list[int]:
    ranking = {c: i for i, c in enumerate(sorted(set(cols)))}
    return [ranking[c] for c in cols]


def _refine(cols: list[int], adj) -> list[int]:
    while True:
        new = _intern([
            (cols[v], tuple(sorted((cols[u], pv, pu) for u, pv, pu in nbrs)))
            for v, nbrs in enumerate(adj)
        ])
        if len(set(new)) == len(set(cols)):
            return new
        cols = new


def _encode(records, edges: Iterable[Edge], order: Sequence[int]):
    pos = {v: i for i, v in enumerate(order)}
    placed = []
    for e in edges:
        a = (pos[e[0].vertex], e[0].psi)
        b = (pos[e[1].vertex], e[1].psi)
        placed.append((a, b) if a <= b else (b, a))
    return (tuple(records[v] for v in order), tuple(sorted(placed)))


def _canonical_order(g: DecoratedGraph, rename: Mapping[int, int] | None = None):
    """(encoding, vertex order, leaf count) of the minimal encoding of
    ``g`` with its labels renamed by ``rename``.

    The search visits every leaf of the refinement tree.  The count is
    the number of leaves reaching the minimal encoding.  The vertex
    automorphisms permute these leaves, and exactly one of them takes
    a given such leaf to another, so the count is the order of the
    vertex part of the automorphism group.
    """
    records = _records(g, rename)
    loops = [[] for _ in records]
    adj = [[] for _ in records]
    for a, b in g.edges:
        if a.vertex == b.vertex:
            loops[a.vertex].append((a.psi, b.psi))  # ends are stored sorted
        else:
            adj[a.vertex].append((b.vertex, a.psi, b.psi))
            adj[b.vertex].append((a.vertex, b.psi, a.psi))
    valence = _valences_and_dimensions(g)[0]
    best: list = [None, None, 0]

    def rec(cols):
        classes = defaultdict(list)
        for v, c in enumerate(cols):
            classes[c].append(v)
        multi = [c for c in sorted(classes) if len(classes[c]) > 1]
        if not multi:
            order = [classes[c][0] for c in sorted(classes)]
            enc = _encode(records, g.edges, order)
            if best[0] is None or enc < best[0]:
                best[:] = enc, order, 1
            elif enc == best[0]:
                best[2] += 1
            return
        target = multi[0]
        for v in classes[target]:
            marked = [(c, 0 if u == v else 1) for u, c in enumerate(cols)]
            rec(_refine(_intern(marked), adj))

    initial = _intern([r + (tuple(sorted(lp)), val) for r, lp, val in zip(records, loops, valence)])
    if len(set(initial)) == len(initial):
        # a discrete colouring is already refined: its order is the one leaf
        order = sorted(range(len(initial)), key=initial.__getitem__)
        return _encode(records, g.edges, order), order, 1
    rec(_refine(initial, adj))
    return tuple(best)


# every canonical form made so far, keyed by itself: a graph equal to
# one is canonical, so it needs no search and gets that same object
_CANONICAL: dict[DecoratedGraph, DecoratedGraph] = {}


@lru_cache(maxsize=None)
def canonicalize(g: DecoratedGraph) -> DecoratedGraph:
    """Canonical representative of the isomorphism class of ``g``.

    Idempotent; two graphs are isomorphic iff their canonical forms
    are equal (as Python objects).  Equal canonical forms are one
    object, so dictionary hits on them compare by identity.
    """
    c = _CANONICAL.get(g)
    if c is None:
        c = _renumber(g, _canonical_order(g)[1])
        c = _CANONICAL.setdefault(c, c)
    return c


@lru_cache(maxsize=None)
def _relabelling_orbit(g: DecoratedGraph, points: tuple[int, ...]):
    """(orbit key, slot labels) of ``g`` under permuting the sorted labels
    ``points``: the canonical encoding with them merged into the
    smallest, and the leg labels by (canonical vertex position, psi,
    label).  With all labels merged, graphs with equal keys differ by
    the renaming pairing their slot labels position by position.  Memoised:
    the orbit partition and the coordinate engine share each search."""
    enc, order, _ = _canonical_order(g, {p: points[0] for p in points})
    pos = {v: i for i, v in enumerate(order)}
    return enc, tuple(l.label for l in sorted(g.legs, key=lambda l: (pos[l.vertex], l.psi, l.label)))


def _orbit_size(g: DecoratedGraph, points: tuple[int, ...]) -> int:
    """The number of isomorphism classes that permuting the labels
    ``points`` of ``g`` makes: |points|! over the stabiliser.

    The vertex automorphisms of ``g`` with ``points`` merged (the merged
    search's leaf count), each with every permutation of the merged legs
    of one vertex and psi power, map onto the stabiliser; the kernel is
    the vertex automorphisms of ``g`` itself, which are only the
    identity when the merged graph has no other."""
    merged = _canonical_order(g, {p: points[0] for p in points})[2]
    own = _canonical_order(g)[2] if merged > 1 else 1
    ways = Counter((l.vertex, l.psi) for l in g.legs if l.label in points)
    return math.factorial(len(points)) * own // (merged * math.prod(map(math.factorial, ways.values())))


@lru_cache(maxsize=None)
def sort_key(g: DecoratedGraph) -> str:
    """Deterministic total order on graphs up to isomorphism
    (lexicographic on the canonical encoding)."""
    c = canonicalize(g)
    return repr(_encode(_records(c), c.edges, range(c.n_vertices)))


def is_isomorphic(a: DecoratedGraph, b: DecoratedGraph) -> bool:
    return canonicalize(a) == canonicalize(b)


# ---------------------------------------------------------------------------
# automorphisms


def automorphism_count(g: DecoratedGraph) -> int:
    """Order of the automorphism group fixing external labels.

    Counts pairs (vertex bijection, half-edge bijection) preserving
    genera, kappa, decorations and the edge pairing.  The vertex
    bijections are counted by the canonical search; each extends to
    half-edges in as many ways as the product of factorials of the
    parallel-edge multiplicities times 2 for every loop whose two ends
    carry equal psi powers, independently of the vertex bijection.
    """
    count = _canonical_order(g)[2]
    for m in Counter(g.edges).values():
        count *= math.factorial(m)
    return count * 2 ** sum(a == b for a, b in g.edges)


# ---------------------------------------------------------------------------
# symmetrisation


def symmetrize(g: DecoratedGraph, points: Iterable[int]):
    """Sum of ``g`` over all permutations of the given external labels.

    Returns a FormalSum with |points|! total weight; isomorphic
    relabellings merge with multiplicity.
    """
    from .sums import FormalSum

    pts = sorted(points)
    have = set(g.external_labels())
    missing = [p for p in pts if p not in have]
    if missing:
        raise ValueError("unknown external labels %s" % missing)
    terms = []
    for perm in itertools.permutations(pts):
        mapping = dict(zip(pts, perm))
        terms.append((g.relabel(mapping), Fraction(1)))
    return FormalSum(terms)
