import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

import tautrel.graphs as graphs_module
from tautrel.graphs import (
    DecoratedGraph,
    End,
    Leg,
    Vertex,
    _canonical_order,
    _orbit_size,
    _relabelling_orbit,
    _valences_and_dimensions,
    automorphism_count,
    canonicalize,
    dimension,
    is_isomorphic,
    is_valid,
    sort_key,
    symmetrize,
    total_genus,
    validate,
)
from tautrel.gwi import parse_graph

from conftest import (
    random_disconnected_graph,
    random_stable_graph,
    reference_automorphism_count,
    reference_canonical_order,
    small_strata,
)

EX = "<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1"


def test_total_genus_disconnected():
    g = DecoratedGraph((Vertex(0), Vertex(1)), (Leg(0, 1), Leg(0, 2), Leg(0, 3), Leg(1, 4)))
    assert total_genus(g) == 0


def test_total_genus_cycle():
    assert total_genus(parse_graph("<1 e0 e1>_0 <2 e0 e1>_0")) == 1


def test_total_genus_three_components():
    g = DecoratedGraph(
        (Vertex(0), Vertex(0), Vertex(0)),
        tuple(Leg(v, 3 * v + i) for v in range(3) for i in (1, 2, 3)),
    )
    assert total_genus(g) == -2


def test_dimension_examples():
    assert dimension(parse_graph(EX)) == 2
    assert parse_graph(EX).codimension() == 2
    assert dimension(parse_graph("<1 2 3^1>_0")) == -1
    smooth = DecoratedGraph((Vertex(2),), (Leg(0, 1), Leg(0, 2)))
    assert dimension(smooth) == 3 * 2 - 3 + 2


def test_validate_stability_boundary():
    g = DecoratedGraph((Vertex(0),), (Leg(0, 1), Leg(0, 2)))
    problems = validate(g)
    assert any("unstable" in p for p in problems)


def test_validate_negative_dimension():
    problems = validate(parse_graph("<1 2 3^1>_0"))
    assert any("dimension" in p for p in problems)


def test_validate_example_graph_ok():
    assert validate(parse_graph(EX)) == []


def test_validate_duplicate_labels():
    g = DecoratedGraph((Vertex(1),), (Leg(0, 1), Leg(0, 1)))
    assert any("duplicate" in p for p in validate(g))


# graphs breaking one invariant each, and whether they are valid
INVARIANT_CASES = {
    "negative genus": (DecoratedGraph((Vertex(-1),), tuple(Leg(0, i) for i in range(1, 6))), False),
    "negative leg psi": (DecoratedGraph((Vertex(0),), (Leg(0, 1, -1), Leg(0, 2), Leg(0, 3), Leg(0, 4))), False),
    "negative edge psi": (DecoratedGraph(
        (Vertex(0), Vertex(0)), (Leg(0, 1), Leg(0, 2), Leg(1, 3), Leg(1, 4)), ((End(0, -1), End(1)),)
    ), False),
    "kappa_0": (DecoratedGraph((Vertex(1, (0,)),), (Leg(0, 1),)), False),
    "duplicate labels": (DecoratedGraph((Vertex(1),), (Leg(0, 1), Leg(0, 1))), False),
    "unstable vertex": (parse_graph("<1 2 e0>_0 <e0>_0"), False),
    "negative component": (parse_graph("<1^2 2 3>_0 <4 5 e0>_0 <e0>_1"), False),
    # valid, though the first vertex exceeds its own dimension: the
    # operators' stricter filter drops it, validate does not
    "negative vertex in a nonnegative component": (parse_graph("<1^1 2 e0>_0 <3 4 5 e0>_0"), True),
    "empty": (DecoratedGraph(()), True),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_CASES))
def test_is_valid_agrees_with_validate(name):
    g, valid = INVARIANT_CASES[name]
    assert is_valid(g) == (not validate(g)) == valid


def _mutations(g):
    """Single-field perturbations of g that may break an invariant."""
    for v, vert in enumerate(g.vertices):
        for dg in (-1, 1):
            verts = list(g.vertices)
            verts[v] = Vertex(vert.genus + dg, vert.kappa)
            yield DecoratedGraph(tuple(verts), g.legs, g.edges)
        verts = list(g.vertices)
        verts[v] = Vertex(vert.genus, vert.kappa + (0,))
        yield DecoratedGraph(tuple(verts), g.legs, g.edges)
    for k, leg in enumerate(g.legs):
        for dp in (-1, 2):
            legs = list(g.legs)
            legs[k] = Leg(leg.vertex, leg.label, leg.psi + dp)
            yield DecoratedGraph(g.vertices, tuple(legs), g.edges)
        yield DecoratedGraph(g.vertices, g.legs[:k] + g.legs[k + 1:], g.edges)
        yield DecoratedGraph(g.vertices, g.legs + (Leg(leg.vertex, leg.label),), g.edges)
    for k, (a, b) in enumerate(g.edges):
        edges = list(g.edges)
        edges[k] = (End(a.vertex, a.psi - 1), b)
        yield DecoratedGraph(g.vertices, g.legs, tuple(edges))


def test_is_valid_agrees_with_validate_on_random_graphs():
    rng = random.Random(4242)
    seen = {True: 0, False: 0}
    for _ in range(200):
        g = random_stable_graph(rng)
        for h in (g, *_mutations(g)):
            assert is_valid(h) == (not validate(h)), h
            seen[is_valid(h)] += 1
    assert min(seen.values()) > 100


def test_canonicalize_internal_relabel():
    a = parse_graph(EX)
    b = parse_graph("<1 2 e7>_0 <3 4 e3>_0 <e7 e3>_1")
    assert canonicalize(a) == canonicalize(b)


def test_canonicalize_external_labels_fixed():
    a = parse_graph(EX)
    b = parse_graph("<3 2 e0>_0 <1 4 e1>_0 <e0 e1>_1")
    assert canonicalize(a) != canonicalize(b)


def test_canonicalize_vertex_reorder():
    a = parse_graph(EX)
    b = parse_graph("<e0 e1>_1 <3 4 e1>_0 <1 2 e0>_0")
    assert canonicalize(a) == canonicalize(b)
    assert is_isomorphic(a, b)


def _shuffled(g: DecoratedGraph, rng: random.Random) -> DecoratedGraph:
    """``g`` with its vertices in a random order."""
    order = list(range(g.n_vertices))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    return DecoratedGraph(
        tuple(g.vertices[v] for v in order),
        tuple(Leg(pos[l.vertex], l.label, l.psi) for l in g.legs),
        tuple((End(pos[e[0].vertex], e[0].psi), End(pos[e[1].vertex], e[1].psi)) for e in g.edges),
    )


def test_canonicalize_idempotent_on_random_graphs():
    rng = random.Random(7)
    for _ in range(60):
        g = random_stable_graph(rng)
        c = canonicalize(g)
        assert canonicalize(c) == c
        # shuffle vertices and check the orbit collapses
        shuffled = _shuffled(g, rng)
        assert canonicalize(shuffled) == c
        assert dimension(shuffled) == dimension(g)
        assert automorphism_count(shuffled) == automorphism_count(g)


def test_canonical_search_golden():
    # the raw search, the orbit keys (all labels merged, and all but the
    # smallest) and the sort keys of 750 graphs and their vertex
    # shuffles: every canonical form and output order rests on these
    rng = random.Random(16)
    corpus = small_strata() + [random_stable_graph(rng) for _ in range(100)]
    corpus += [random_disconnected_graph(rng) for _ in range(50)]
    digest = hashlib.sha256()
    for g in corpus + [_shuffled(g, rng) for g in corpus]:
        labels = g.external_labels()
        orbits = _relabelling_orbit(g, labels), _relabelling_orbit(g, labels[1:])
        digest.update(repr((_canonical_order(g), orbits, sort_key(g))).encode())
    assert len(corpus) == 750
    assert digest.hexdigest() == "f926b4e96e033b18110e9b677fa0701658293bc7f78d92abe3171439e793826c"


def test_canonical_search_matches_full_search():
    # a discrete initial colouring ends the search at its one leaf; the
    # result is the full search's, with and without a label merge
    rng = random.Random(23)
    corpus = small_strata() + [random_stable_graph(rng) for _ in range(300)]
    for g in corpus:
        labels = g.external_labels()
        merge = {p: labels[0] for p in labels}
        for rename in (None, merge):
            assert _canonical_order(g, rename) == reference_canonical_order(g, rename), (g, rename)
        assert automorphism_count(g) == reference_automorphism_count(g), g


def _brute_force_automorphisms(g: DecoratedGraph) -> int:
    """Oracle: enumerate all (vertex, half-edge) bijections directly.

    Half-edges are (edge index, side) pairs; a bijection must map the
    half-edge set to itself preserving vertex assignment (through the
    vertex bijection), psi powers, and the edge pairing.
    """
    halves = [(i, s) for i, _ in enumerate(g.edges) for s in (0, 1)]
    count = 0
    for perm in itertools.permutations(range(g.n_vertices)):
        if any(g.vertices[v] != g.vertices[perm[v]] for v in range(g.n_vertices)):
            continue
        legs_by_vertex = {}
        ok = True
        for l in g.legs:
            legs_by_vertex.setdefault(l.vertex, set()).add((l.label, l.psi))
        for v, ls in legs_by_vertex.items():
            target = {(l.label, l.psi) for l in g.legs if l.vertex == perm[v]}
            if ls != target:
                ok = False
        if not ok:
            continue
        for assignment in itertools.permutations(halves):
            mapping = dict(zip(halves, assignment))
            good = True
            for (i, s), (j, t) in mapping.items():
                src = g.edges[i][s]
                dst = g.edges[j][t]
                if dst.vertex != perm[src.vertex] or dst.psi != src.psi:
                    good = False
                    break
            if good:
                # pairing must be preserved
                for i, _ in enumerate(g.edges):
                    a = mapping[(i, 0)]
                    b = mapping[(i, 1)]
                    if a[0] != b[0]:
                        good = False
                        break
            if good:
                count += 1
    return count


def test_automorphism_loop_graph():
    assert automorphism_count(parse_graph("<1 e0 e0>_0")) == 2


def test_automorphism_example_graph():
    assert automorphism_count(parse_graph(EX)) == 1


def test_automorphism_labeled_components():
    g = DecoratedGraph((Vertex(1), Vertex(1)), (Leg(0, 1), Leg(1, 2)))
    assert automorphism_count(g) == 1


def test_automorphism_double_edged_square():
    # Vertices A, B, C, D as written: a cycle A-B-D-C-A of genus-0
    # vertices with A-B (e0, e1) and C-D (e4, e5) doubled.
    # The vertex bijections that keep the edges are the identity,
    # (A B)(C D), (A C)(B D) and (A D)(B C): a Klein four group.  No
    # other works, since swapping A and B alone would send the edge
    # A-C to B-C.  Each of the two double edges can swap its parallel
    # edges, 2! * 2!, and no edge is a loop: 4 * 2 * 2 = 16.
    g = parse_graph("<e0 e1 e2>_0 <e0 e1 e3>_0 <e2 e4 e5>_0 <e3 e4 e5>_0")
    assert automorphism_count(g) == 16


def test_automorphism_fast_path_matches_brute_force():
    rng = random.Random(11)
    cases = [
        parse_graph("<1 e0 e0>_0"),
        parse_graph("<1 e0 e1>_0 <2 e0 e1>_0"),
        parse_graph("<1 e0 e0 e1 e1>_0"),
        parse_graph(EX),
        parse_graph("<1 e0 e1 e2>_0 <2 e0 e1 e2>_0"),
        # vertex automorphisms other than the identity
        parse_graph("<e0 e1 e2>_0 <e0 e1 e2>_0"),
        parse_graph("<e0 e0 e1>_0 <e1 e2 e2>_0"),
        parse_graph("<1 e0 e1>_0 <e0>_1 <e1>_1"),
        parse_graph("<1 e0 e1>_0 <e0 e2>_1 <e1 e2>_1"),
    ]
    while len(cases) < 200:
        g = random_stable_graph(rng, max_half_edges=6)
        if 2 * len(g.edges) <= 6:
            cases.append(g)
    for g in cases:
        assert automorphism_count(g) == _brute_force_automorphisms(g), g


def test_symmetrize_orbit():
    fs = symmetrize(parse_graph(EX), {1, 2, 3, 4})
    assert len(fs) == 3
    assert all(c == 8 for _, c in fs.terms())


def test_symmetrize_empty_set():
    fs = symmetrize(parse_graph(EX), set())
    assert len(fs) == 1 and fs.terms()[0][1] == 1


def test_symmetrize_fully_symmetric():
    g = DecoratedGraph((Vertex(1),), (Leg(0, 1), Leg(0, 2), Leg(0, 3)))
    fs = symmetrize(g, {1, 2, 3})
    assert len(fs) == 1 and fs.terms()[0][1] == 6


def test_symmetrize_unknown_label():
    with pytest.raises(ValueError):
        symmetrize(parse_graph(EX), {1, 9})


@given(st.integers(0, 10**6), st.booleans(), st.data())
def test_relabelling_orbit_pairs_slots(seed, connected, data):
    # the renaming read from two slot orders carries one graph to the other
    rng = random.Random(seed)
    g = random_stable_graph(rng) if connected else random_disconnected_graph(rng)
    labels = g.external_labels()
    perm = data.draw(st.permutations(labels))
    rep, member = canonicalize(g), canonicalize(g.relabel(dict(zip(labels, perm))))
    (key, rep_slots), (member_key, member_slots) = (_relabelling_orbit(x, labels) for x in (rep, member))
    assert key == member_key
    sigma = dict(zip(rep_slots, member_slots))
    assert canonicalize(rep.relabel(sigma)) == member


@pytest.mark.parametrize("ambient", [(0, 6, 2), (1, 4, 2), (2, 2, 2)])
def test_orbit_size_is_the_orbit_group_size(ambient):
    # the enumeration holds every class, so each orbits group is a whole orbit
    from tautrel.strata import enumerate_classes, orbits

    classes = enumerate_classes(*ambient, decorations="psi")
    n = ambient[1]
    for points in (tuple(range(1, n + 1)), tuple(range(1, n))):
        for group in orbits(classes, points):
            assert all(_orbit_size(g, points) == len(group) for g in group), (ambient, points)


def test_orbit_size_matches_brute_force_relabelling():
    # graphs whose merged search has several leaves take the second,
    # unmerged search; each is checked against all |points|! relabellings
    rng = random.Random(31)
    corpus = small_strata() + [random_stable_graph(rng, max_half_edges=7) for _ in range(200)]
    corpus += [random_disconnected_graph(rng, max_half_edges=4) for _ in range(50)]
    checked = own = 0
    for g in corpus:
        labels = g.external_labels()
        if not labels or len(labels) > 5:
            continue
        for points in (labels, labels[1:]):
            if not points:
                continue
            merged = _canonical_order(g, {p: points[0] for p in points})[2]
            images = {canonicalize(g.relabel(dict(zip(points, perm)))) for perm in itertools.permutations(points)}
            assert _orbit_size(g, points) == len(images), (g, points)
            checked += merged > 1
            own += _canonical_order(g)[2] > 1
    assert checked >= 90 and own >= 10


def test_normalised_components_match_subgraphs():
    rng = random.Random(5)
    for _ in range(100):
        g = random_disconnected_graph(rng)
        expected = []
        for vs in g.components():
            sub = g.subgraph(vs)
            labels = sub.external_labels()
            expected.append((labels, canonicalize(sub.relabel({a: i + 1 for i, a in enumerate(labels)}))))
        assert g.normalised_components() == expected


def test_subgraph_refuses_a_cut_edge_and_legs_need_their_vertex():
    g = parse_graph("<1 2 e0>_0 <3 4 e0>_0")
    with pytest.raises(ValueError, match="cuts an edge"):
        g.subgraph([0])
    with pytest.raises(ValueError, match="missing vertex"):
        DecoratedGraph((Vertex(0),), (Leg(1, 1), Leg(0, 2), Leg(0, 3)))


# -- values a graph computes once ---------------------------------------------


def test_equal_graphs_hash_equal_however_built():
    g = DecoratedGraph(
        (Vertex(0), Vertex(1, (2, 1))),
        (Leg(0, 1), Leg(0, 2, 1), Leg(1, 3)),
        ((End(0, 1), End(1, 0)), (End(1, 0), End(1, 2))),
    )
    from_lists = DecoratedGraph(
        [[0, []], [1, [1, 2]]], [[1, 3, 0], [0, 2, 1], [0, 1, 0]], [[[1, 0], [0, 1]], [[1, 2], [1, 0]]]
    )
    # legs unsorted and every edge's ends swapped
    unsorted = DecoratedGraph(g.vertices, g.legs[::-1], tuple((b, a) for a, b in g.edges))
    # the fields a registry table file stores, through JSON
    fields = json.loads(json.dumps([[(v.genus, v.kappa) for v in g.vertices], g.legs, g.edges]))
    for other in (from_lists, unsorted, DecoratedGraph(*fields)):
        assert other == g and hash(other) == hash(g)
    # the hash is the one of the fields, so sets and dicts of graphs keep their order
    assert hash(g) == hash((g.vertices, g.legs, g.edges))
    assert Vertex(1, (3, 1, 2)) == Vertex(1, (1, 2, 3))
    assert hash(Vertex(1, (3, 1, 2))) == hash(Vertex(1, (1, 2, 3))) == hash((1, (1, 2, 3)))


def test_canonical_form_needs_no_second_search(monkeypatch):
    g = parse_graph("<101 e0 e1>_1 <102 103 e0>_0 <e1 104 e2 e2>_0")
    c = canonicalize(g)
    assert c != g
    calls = []
    monkeypatch.setattr(graphs_module, "_canonical_order", lambda *a: calls.append(a) or _canonical_order(*a))
    assert canonicalize(c) is c
    assert canonicalize(DecoratedGraph(c.vertices, c.legs[::-1], c.edges)) is c
    assert calls == []


def test_valences_and_dimensions_are_tuples_made_once():
    g = parse_graph(EX)
    shape = _valences_and_dimensions(g)
    assert shape == ((3, 3, 2), (0, 0, 2))
    assert type(shape[0]) is tuple and type(shape[1]) is tuple
    assert _valences_and_dimensions(g) is shape
