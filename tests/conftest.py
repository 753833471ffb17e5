import itertools
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from tautrel.graphs import (
    DecoratedGraph,
    End,
    Leg,
    Vertex,
    _valences_and_dimensions,
    canonicalize,
    disjoint_union,
    is_valid,
    sort_key,
)
from tautrel.gwi import parse_graph
from tautrel.relations import (
    InductiveDataMissing,
    RelationRegistry,
    _refuse_psi_above_genus_one,
    psi_free_expansion,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def registry():
    return RelationRegistry()


def conventional_strata():
    """The nine symmetrized (1,4,2) orbits in the conventional order."""
    lines = [
        l.strip()
        for l in (DATA / "strata_order_g1n4k2.gwi").read_text().splitlines()
        if l.strip() and not l.startswith("#")
    ]
    return [canonicalize(parse_graph(l)) for l in lines]


def orbit_index_map(reps):
    """Map 1-based enumeration index -> 1-based conventional index."""
    targets = conventional_strata()
    out = {}
    for i, rep in enumerate(reps, start=1):
        for j, tgt in enumerate(targets, start=1):
            for perm in itertools.permutations([1, 2, 3, 4]):
                if canonicalize(rep.relabel(dict(zip([1, 2, 3, 4], perm)))) == tgt:
                    out[i] = j
                    break
            if i in out:
                break
    return out


def random_stable_graph(rng: random.Random, max_half_edges=8, max_genus=2,
                        decorated=True):
    """A random connected valid decorated graph with external labels
    1..n, at most ``max_half_edges`` half-edges and total genus at
    most ``max_genus``."""
    for _ in range(500):
        nv = rng.choice([1, 1, 1, 2, 2, 3])
        genera = [rng.choice([0, 0, 0, 1, 1, 2]) for _ in range(nv)]
        n_legs = rng.randint(1, 5)
        leg_vertices = [rng.randrange(nv) for _ in range(n_legs)]
        n_edges = rng.randint(0, 3)
        ends = []
        for _ in range(n_edges):
            ends.append((rng.randrange(nv), rng.randrange(nv)))
        if n_legs + 2 * n_edges > max_half_edges:
            continue
        psi_budget = rng.choice([0, 0, 1, 1, 2]) if decorated else 0
        legs = []
        for i, v in enumerate(leg_vertices):
            p = rng.randint(0, psi_budget)
            psi_budget -= p
            legs.append(Leg(v, i + 1, p))
        edges = []
        for a, b in ends:
            pa = rng.randint(0, psi_budget)
            psi_budget -= pa
            edges.append((End(a, pa), End(b, 0)))
        kappas = [() for _ in range(nv)]
        if decorated and rng.random() < 0.3:
            kappas[rng.randrange(nv)] = (rng.choice([1, 1, 2]),)
        verts = tuple(Vertex(g, kp) for g, kp in zip(genera, kappas))
        cand = DecoratedGraph(verts, tuple(legs), tuple(edges))
        if not cand.is_connected():
            continue
        if cand.total_genus() > max_genus:
            continue
        if not is_valid(cand):
            continue
        return cand
    raise RuntimeError("random generator failed to produce a valid graph")


def random_disconnected_graph(rng: random.Random, **kwargs):
    """Two ``random_stable_graph``s side by side, with the external
    labels 1..n shuffled across both components."""
    a = random_stable_graph(rng, **kwargs)
    b = random_stable_graph(rng, **kwargs)
    na, nb = len(a.legs), len(b.legs)
    labels = list(range(1, na + nb + 1))
    rng.shuffle(labels)
    return disjoint_union([
        a.relabel(dict(zip(range(1, na + 1), labels[:na]))),
        b.relabel(dict(zip(range(1, nb + 1), labels[na:]))),
    ])


def small_strata():
    """Every connected stable graph with 2g + n <= 6, all edge counts."""
    from tautrel.strata import stable_graphs

    return [
        graph
        for g in range(4)
        for n in range(7 - 2 * g)
        if 2 * g - 2 + n > 0
        for e in range(3 * g - 3 + n + 1)
        for graph in stable_graphs(g, n, e)
    ]


@pytest.fixture(scope="session")
def random_corpus():
    rng = random.Random(20240517)
    return [random_stable_graph(rng) for _ in range(500)]


# Reference vertex split, written independently of graphs._rewire; the
# build-then-filter references in test_operators and test_strata use it.
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


# Reference normal coordinates, the per-term engine that lifting over
# relabelling classes replaced; the solver and relations tests check
# RelationRegistry.normal_coords against it.
def reference_normal_coords(registry, terms, allow_incomplete=False):
    """Generic engine: terms are (graph, coefficient), iterable in
    any order and more than once, with any coefficient supporting
    addition and Fraction scaling.  Each connected component
    reduces on its own, relabelled order-preservingly to 1..m, and
    the coordinates multiply.  A refusal names the first term in
    sort_key order, and its first component, that lacks data."""
    out: dict = {}
    try:
        for graph, coeff in terms:
            graph = canonicalize(graph)
            _refuse_psi_above_genus_one(graph)
            for key, x in _reference_term_coords(registry, graph.normalised_components(), allow_incomplete):
                piece = coeff * x
                out[key] = out[key] + piece if key in out else piece
    except InductiveDataMissing:  # equal sums refuse alike, whatever the order
        for term in sorted(terms, key=lambda t: sort_key(t[0])):
            if sort_key(term[0]) >= sort_key(graph):
                raise
            reference_normal_coords(registry, [term], allow_incomplete)
    return {k: c for k, c in out.items() if c}


def _reference_term_coords(registry, comps, allow_incomplete: bool):
    """The (key, coefficient) pairs of one term, given as its
    (labels, normalised component) pairs: the product of the
    component coordinates.  An empty expansion makes the term zero
    before any table can refuse; a memoised component has a
    nonempty one."""
    if not all((c, allow_incomplete) in registry._factors or psi_free_expansion(c)
               for _, c in comps):
        return []
    factors = []
    for labels, comp in comps:
        (g, k), coords = registry._component_coords(comp, allow_incomplete)
        factors.append([((g, labels, k, b), x) for b, x in coords])
    return [
        (tuple(sorted(part for part, _ in combo)), math.prod(x for _, x in combo))
        for combo in itertools.product(*factors)
    ]


# Reference exact RREF, the from-scratch elimination the Echelon type
# replaced; test_echelon checks Echelon against it.
def _rref(rows: list[dict[int, Fraction]], ncols: int):
    """Exact reduced row echelon form of sparse rows; returns
    (pivot_rows, pivot_cols) with pivot coefficient 1 and pivots
    eliminated from every other row."""
    rows = [dict(r) for r in rows if r]
    pivots: list[tuple[int, dict[int, Fraction]]] = []
    for col in range(ncols):
        hit = None
        for i, r in enumerate(rows):
            if r.get(col):
                hit = i
                break
        if hit is None:
            continue
        row = rows.pop(hit)
        inv = Fraction(1) / row[col]
        row = {c: x * inv for c, x in row.items() if x}
        for r in rows:
            f = r.get(col)
            if f:
                for c, x in row.items():
                    r[c] = r.get(c, Fraction(0)) - f * x
                    if not r[c]:
                        del r[c]
        for _, prow in pivots:
            f = prow.get(col)
            if f:
                for c, x in row.items():
                    prow[c] = prow.get(c, Fraction(0)) - f * x
                    if not prow[c]:
                        del prow[c]
        pivots.append((col, row))
        rows = [r for r in rows if r]
    pivots.sort(key=lambda t: t[0])
    return pivots


# Reference canonical search: the full refinement-tree search, every
# leaf visited, without the discrete-colouring exit; test_graphs checks
# graphs._canonical_order and automorphism_count against it.
def _reference_records(g, rename=None):
    rename = (rename or {}).get
    legs = [[] for _ in g.vertices]
    for l in g.legs:
        legs[l.vertex].append((rename(l.label, l.label), l.psi))
    return [(v.genus, v.kappa, tuple(sorted(ls))) for v, ls in zip(g.vertices, legs)]


def _reference_intern(cols):
    ranking = {c: i for i, c in enumerate(sorted(set(cols)))}
    return [ranking[c] for c in cols]


def _reference_refine(cols, adj):
    while True:
        new = _reference_intern([
            (cols[v], tuple(sorted((cols[u], pv, pu) for u, pv, pu in nbrs)))
            for v, nbrs in enumerate(adj)
        ])
        if len(set(new)) == len(set(cols)):
            return new
        cols = new


def _reference_encode(records, edges, order):
    pos = {v: i for i, v in enumerate(order)}
    placed = []
    for e in edges:
        a = (pos[e[0].vertex], e[0].psi)
        b = (pos[e[1].vertex], e[1].psi)
        placed.append((a, b) if a <= b else (b, a))
    return (tuple(records[v] for v in order), tuple(sorted(placed)))


def reference_canonical_order(g, rename=None):
    """(encoding, vertex order, leaf count) of the minimal encoding of
    ``g`` with its labels renamed by ``rename``, by the full search."""
    records = _reference_records(g, rename)
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
            enc = _reference_encode(records, g.edges, order)
            if best[0] is None or enc < best[0]:
                best[:] = enc, order, 1
            elif enc == best[0]:
                best[2] += 1
            return
        target = multi[0]
        for v in classes[target]:
            marked = [(c, 0 if u == v else 1) for u, c in enumerate(cols)]
            rec(_reference_refine(_reference_intern(marked), adj))

    initial = [r + (tuple(sorted(lp)), val) for r, lp, val in zip(records, loops, valence)]
    rec(_reference_refine(_reference_intern(initial), adj))
    return tuple(best)


def reference_automorphism_count(g):
    count = reference_canonical_order(g)[2]
    for m in Counter(g.edges).values():
        count *= math.factorial(m)
    return count * 2 ** sum(a == b for a, b in g.edges)
