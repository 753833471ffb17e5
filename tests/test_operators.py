import itertools
import random
from fractions import Fraction

import pytest

from tautrel.graphs import DecoratedGraph, Leg, Vertex, _kappa_splits, dimension
from tautrel.gwi import parse_graph, parse_sum
from tautrel.operators import (
    HALF,
    AmbientMismatchError,
    LabelCollisionError,
    _filtered,
    apply_r,
    cut_edges,
    reduce_genus,
    split_vertices,
)
from tautrel.sums import FormalSum, LinForm, SymbolicSum

from conftest import _apply_split, random_stable_graph, small_strata

EX = parse_graph("<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1")


def test_cut_edges_worked_example():
    out = cut_edges(EX, 1, 5, 6)
    expect = parse_sum(
        "1/2*<1 2 5>_0 <3 4 e0>_0 <6^1 e0>_1"
        " + 1/2*<1 2 6>_0 <3 4 e0>_0 <5^1 e0>_1"
        " + 1/2*<1 2 e0>_0 <3 4 5>_0 <6^1 e0>_1"
        " + 1/2*<1 2 e0>_0 <3 4 6>_0 <5^1 e0>_1"
    )
    assert out == expect


def test_cut_edges_merged_presentation():
    # the two-term presentation with mirror pairs merged: each term of
    # weight 1 equals our half-weighted pair summed over the i/j swap
    out = cut_edges(EX, 1, 5, 6)
    two_terms = parse_sum(
        "<1 2 5>_0 <3 4 e0>_0 <6^1 e0>_1 + <1 2 e0>_0 <3 4 5>_0 <6^1 e0>_1"
    )
    assert out + out.relabel({5: 6, 6: 5}) == two_terms + two_terms.relabel({5: 6, 6: 5})


def test_cut_edges_drops_negative_dimension():
    out = cut_edges(EX, 1, 5, 6)
    for g, _ in out.terms():
        assert min(g.vertex_dimension(v) for v in range(g.n_vertices)) >= -1
        assert all(
            sum(g.vertex_dimension(u) for u in comp) >= 0 for comp in g.components()
        )
    # no term carries the psi on a three-valent tail
    bad = parse_graph("<1 2 5^1>_0 <3 4 e0>_0 <6 e0>_1")
    assert out.coefficient(bad) is None


def test_cut_edges_no_edges():
    g = DecoratedGraph((Vertex(1),), (Leg(0, 1),))
    assert cut_edges(g, 1, 2, 3).is_zero()


def test_cut_edges_label_collision():
    with pytest.raises(LabelCollisionError):
        cut_edges(EX, 1, 4, 5)
    with pytest.raises(LabelCollisionError):
        cut_edges(EX, 1, 5, 5)


def test_reduce_genus_one_point():
    g = DecoratedGraph((Vertex(1),), (Leg(0, 1),))
    assert reduce_genus(g, 1, 2, 3) == parse_sum("-1/2*<1 2 3>_0")


def test_reduce_genus_all_genus_zero():
    assert reduce_genus(parse_graph("<1 2 3>_0"), 1, 4, 5).is_zero()


def test_reduce_genus_inside_example():
    out = reduce_genus(EX, 1, 5, 6)
    assert out == parse_sum("-1/2*<1 2 e0>_0 <3 4 e1>_0 <5 6 e0 e1>_0")


def test_split_vertices_genus_two():
    g = DecoratedGraph((Vertex(2),), (Leg(0, 1),))
    out = split_vertices(g, 1, 2, 3)
    assert out == parse_sum("-1/2*<1 2>_1 <3>_1 - 1/2*<2>_1 <1 3>_1")


def test_split_vertices_unstable_three_point():
    assert split_vertices(parse_graph("<1 2 3>_0"), 1, 4, 5).is_zero()


def test_split_vertices_kappa_distribution():
    # a genus-2 vertex with kappa_1 kappa_2: the (1,1) splits carry the
    # monomial to the halves in four ways
    g = DecoratedGraph((Vertex(2, (1, 2)),), tuple(Leg(0, i) for i in (1, 2, 3, 4)))
    out = split_vertices(g, 1, 5, 6)
    patterns = [
        "<1 2 5>_1[k1,k2] <3 4 6>_1",
        "<1 2 5>_1[k1] <3 4 6>_1[k2]",
        "<1 2 5>_1[k2] <3 4 6>_1[k1]",
        "<1 2 5>_1 <3 4 6>_1[k1,k2]",
    ]
    for p in patterns:
        assert out.coefficient(parse_graph(p)) == Fraction(-1, 2), p


def test_apply_r_vanishing_bound():
    # k + l > 3g - 3 + n makes every term negative-dimensional
    E = FormalSum.single(EX)
    assert apply_r(E, 3).is_zero()
    assert not apply_r(E, 1).is_zero()
    assert not apply_r(E, 2).is_zero()


def test_apply_r_fresh_labels():
    E = FormalSum.single(EX)
    out = apply_r(E, 1)
    for g, _ in out.terms():
        assert g.external_labels() == (1, 2, 3, 4, 5, 6)


def test_apply_r_linearity():
    other = parse_graph("<1 2 e0 e1>_0 <3 4 e0 e1>_0")
    a = FormalSum.single(EX, Fraction(3, 7))
    b = FormalSum.single(other, Fraction(-2))
    assert apply_r(a + b, 1) == apply_r(a, 1) + apply_r(b, 1)
    assert apply_r(a.scale(5), 2) == apply_r(a, 2).scale(5)


def test_apply_r_symbolic():
    other = parse_graph("<1 2 e0 e1>_0 <3 4 e0 e1>_0")
    E = SymbolicSum([(EX, LinForm({1: Fraction(1)})), (other, LinForm({2: Fraction(1)}))])
    out = apply_r(E, 1)
    spec = out.specialize({1: Fraction(2), 2: Fraction(-1)})
    direct = apply_r(FormalSum([(EX, 2), (other, -1)]), 1)
    assert spec == direct


def test_apply_r_mixed_ambient_rejected():
    g5 = parse_graph("<1 2 3 4 5>_1")
    with pytest.raises(AmbientMismatchError):
        apply_r(FormalSum([(EX, 1), (g5, 1)]), 1)


def test_apply_r_invalid_l():
    with pytest.raises(ValueError):
        apply_r(FormalSum.single(EX), 0)


def test_dimension_drop_on_corpus(random_corpus):
    # every surviving term drops dimension by exactly l, and the
    # operator dies past the dimension bound
    for g in random_corpus[:120]:
        d = dimension(g)
        gg, n = g.ambient()
        k = g.codimension()
        for l in (1, 2):
            out = apply_r(FormalSum.single(g), l)
            for term, _ in out.terms():
                assert dimension(term) == d - l
            if k + l > 3 * gg - 3 + n:
                assert out.is_zero()


def test_parity_on_corpus(random_corpus):
    for g in random_corpus[:60]:
        _, n = g.ambient()
        i, j = n + 1, n + 2
        swap = {i: j, j: i}
        for l in (1, 2):
            out = apply_r(FormalSum.single(g), l)
            assert out.relabel(swap) == out.scale(Fraction((-1) ** (l - 1)))


def _split_vertices_unpruned(g, l, i, j):
    """Reference: every split of every vertex built, then filtered."""
    terms = []
    for v in range(g.n_vertices):
        vert = g.vertices[v]
        slots = [("leg", k) for k, leg in enumerate(g.legs) if leg.vertex == v]
        slots += [("end", e) for e in g.ends_at(v)]
        for m in range(l):
            coeff = HALF * (-1) ** (m + 1)
            for g1 in range(vert.genus + 1):
                for sides in itertools.product((0, 1), repeat=len(slots)):
                    side_of = dict(zip(slots, sides))
                    for k1, k2 in _kappa_splits(vert.kappa):
                        split = _apply_split(
                            g, v, g1, vert.genus - g1, k1, k2, side_of,
                            (Leg(0, i, l - 1 - m), Leg(0, j, m)),
                        )
                        terms.append((split, coeff))
    return _filtered(terms)


def test_pruned_split_matches_reference_on_random_graphs():
    rng = random.Random(3)
    for _ in range(60):
        g = random_stable_graph(rng)
        n = len(g.legs)
        for l in (1, 2, 3):
            assert split_vertices(g, l, n + 1, n + 2) == _split_vertices_unpruned(g, l, n + 1, n + 2), g


def test_pruned_split_matches_reference_on_small_strata():
    # l = 1 only: l = 2, 3 take four times as long here and are
    # covered on the random graphs
    graphs = small_strata()
    assert len(graphs) == 600
    for g in graphs:
        n = len(g.legs)
        assert split_vertices(g, 1, n + 1, n + 2) == _split_vertices_unpruned(g, 1, n + 1, n + 2), g


def _cut_edges_unpruned(g, l, i, j):
    """Reference: all four cut terms of every edge built, then filtered."""
    sign = Fraction((-1) ** (l - 1))
    terms = []
    for k, (a, b) in enumerate(g.edges):
        verts, legs, edges = list(g.vertices), list(g.legs), [tuple(e) for e in g.edges]
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


def test_pruned_cut_matches_reference():
    rng = random.Random(3)
    graphs = small_strata() + [random_stable_graph(rng) for _ in range(60)]
    for g in graphs:
        n = len(g.legs)
        for l in (1, 2, 3):
            assert cut_edges(g, l, n + 1, n + 2) == _cut_edges_unpruned(g, l, n + 1, n + 2), g
