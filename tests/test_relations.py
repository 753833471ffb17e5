import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import tautrel.relations as relations_module
from tautrel.echelon import Echelon
from tautrel.graphs import (
    DecoratedGraph,
    End,
    Leg,
    _kappa_splits,
    _slots_at,
    canonicalize,
    is_valid,
    symmetrize,
    validate,
)
from tautrel.gwi import GwiParseError, format_sum, parse_graph, parse_sum, read_file
from tautrel.relations import (
    InductiveDataMissing,
    RelationRegistry,
    _generate_wdvv,
    _genus0_step,
    _linked_splits,
    from_automorphism_convention,
    genus0_trr_rewrite,
    genus1_trr_rewrite,
    induce_by_forgetful,
    induce_by_gluing,
    psi_free_expansion,
    to_automorphism_convention,
    wdvv_relations,
)
from tautrel.solver import find_equations
from tautrel.sums import FormalSum

from conftest import _apply_split, random_disconnected_graph, random_stable_graph, small_strata


def _fs(text):
    return parse_sum(text)


def _single(text):
    return FormalSum.single(parse_graph(text))


# -- genus-0 recursion -------------------------------------------------------


def test_psi_on_three_valent_vertex_vanishes():
    assert genus0_trr_rewrite(_single("<1 2 3^1>_0")).is_zero()


def test_four_point_psi_is_one_boundary_divisor():
    out = genus0_trr_rewrite(_single("<1^1 2 3 4>_0"))
    assert out == _fs("<1 4 e0>_0 <2 3 e0>_0")


def test_rewrite_leaves_psi_free_input_alone():
    e = _fs("<1 2 e0>_0 <3 4 e0>_1")
    assert genus0_trr_rewrite(e) == e
    assert genus1_trr_rewrite(_single("<1 2 e0>_0 <e0>_1")) == _single("<1 2 e0>_0 <e0>_1")


def test_reference_choice_immaterial_modulo_relations(registry):
    # rewrite psi_1 on a 5-point vertex against two reference pairs
    g = parse_graph("<1^1 2 3 4 5>_0")
    refs = [r for r, _ in _slots_at(g, 0)]
    slot = [r for r in refs if g.legs[r[1]].label == 1][0]
    others = sorted(r for r in refs if r != slot)
    out_a = FormalSum(_genus0_step(g, 0, slot, opposite=(others[0], others[1])))
    out_b = FormalSum(_genus0_step(g, 0, slot, opposite=(others[2], others[3])))
    assert out_a != out_b
    assert registry.normal_form(out_a - out_b).is_zero()


def test_rewrite_preserves_normal_form(registry):
    rng = random.Random(41)
    done = 0
    while done < 12:
        g = random_stable_graph(rng, max_half_edges=6)
        if g.total_genus() != 0 or g.vertices[0].kappa or any(v.kappa for v in g.vertices):
            continue
        e = FormalSum.single(g, Fraction(3, 2))
        assert registry.normal_form(e) == registry.normal_form(genus0_trr_rewrite(e))
        done += 1


def _linked_split_reference(g, v, genera, k1, k2, side_of, dec):
    """One linked split built with _apply_split: the two placeholder
    legs become the link edge, and the psi power at the image of slot
    ``dec`` of ``g`` drops by one."""
    nb = g.n_vertices
    split = _apply_split(g, v, genera[0], genera[1], k1, k2, side_of, (Leg(0, -1, 0), Leg(0, -2, 0)))
    legs = [l for l in split.legs if l.label > 0]
    edges = list(split.edges) + [(End(v, 0), End(nb, 0))]
    if dec is not None and dec[0] == "leg":
        label = g.legs[dec[1]].label
        legs = [Leg(l.vertex, l.label, l.psi - (l.label == label)) for l in legs]
    elif dec is not None:
        i, side = dec[1]
        ends = [End(v if side_of[("end", (i, s))] == 0 else nb, g.edges[i][s].psi)
                if g.edges[i][s].vertex == v else g.edges[i][s] for s in (0, 1)]
        at = edges.index(tuple(sorted(ends)))
        ends[side] = End(ends[side].vertex, ends[side].psi - 1)
        edges[at] = tuple(ends)
    return DecoratedGraph(split.vertices, tuple(legs), tuple(edges))


def _linked_splits_unpruned(g, v, genera, side0, side1, dec=None):
    """Reference: every linked split honouring the pinned slots built,
    then filtered with is_valid."""
    slots = [s for s, _ in _slots_at(g, v)]
    out = []
    for sides in itertools.product((0, 1), repeat=len(slots)):
        side_of = dict(zip(slots, sides))
        if any(side_of[s] for s in side0) or not all(side_of[s] for s in side1):
            continue
        for k1, k2 in _kappa_splits(g.vertices[v].kappa):
            cand = _linked_split_reference(g, v, genera, k1, k2, side_of, dec)
            if is_valid(cand):
                out.append((cand, Fraction(1)))
    return FormalSum(out)


def test_linked_splits_match_reference():
    # free, pinned-pair (as in WDVV) and psi-dropping (as in the
    # recursions) splits of every vertex, over every genus division
    rng = random.Random(17)
    seen = set()
    for _ in range(120):
        g = random_stable_graph(rng)
        for v, vert in enumerate(g.vertices):
            slots = sorted(s for s, _ in _slots_at(g, v))
            cases = [((), (), None), (slots[:2], slots[2:4], None)]
            for ref in sorted(s for s, p in _slots_at(g, v) if p > 0)[:2]:
                others = [s for s in slots if s != ref]
                cases += [((ref,), others[:2], ref), ((ref,), (), ref)]
            for side0, side1, dec in cases:
                for g1 in range(vert.genus + 1):
                    genera = (g1, vert.genus - g1)
                    got = FormalSum([(c, Fraction(1)) for c in _linked_splits(g, v, genera, side0, side1, dec)])
                    assert got == _linked_splits_unpruned(g, v, genera, side0, side1, dec), (g, v, genera, side0, side1, dec)
                    if not got.is_zero():
                        seen.add((vert.genus, dec is None, dec is not None and dec[0]))
    assert {(0, False, "leg"), (0, False, "end"), (1, False, "leg"), (1, True, False)} <= seen


# -- genus-1 recursion -------------------------------------------------------


def test_genus0_rewrite_expands_the_whole_term():
    # psi on a genus-0 vertex sends the whole term through the psi-free
    # expansion, so the genus-1 psi of the same term goes as well
    g = parse_graph("<1^1 2 3 e0>_0 <4^1 e0>_1")
    out = genus0_trr_rewrite(FormalSum.single(g))
    assert out == FormalSum(psi_free_expansion(canonicalize(g)))
    assert not out.is_zero() and all(graph.psi_total() == 0 for graph, _ in out.terms())


def test_one_point_recursion_constant():
    out = genus1_trr_rewrite(_single("<1^1>_1"))
    assert out == _fs("1/24*<1 e0 e0>_0")


def test_two_point_recursion():
    out = genus1_trr_rewrite(_single("<1^1 2>_1"))
    assert out == _fs("1/24*<1 2 e0 e0>_0 + <1 2 e0>_0 <e0>_1")
    assert genus1_trr_rewrite(out) == out  # fixed point


def test_recursion_no_psi_on_genus_one_left():
    out = genus1_trr_rewrite(_single("<1 2^2 e0>_1 <3 e0>_0"))
    for g, _ in out.terms():
        for v in range(g.n_vertices):
            if g.vertices[v].genus >= 1:
                for _, psi in _slots_at(g, v):
                    assert psi == 0


# -- four-point relations ----------------------------------------------------


def test_wdvv_m04_three_boundary_points(registry):
    host = parse_graph("<1 2 3 4>_0")
    rels = wdvv_relations(host, 0)
    d12 = _single("<1 2 e0>_0 <3 4 e0>_0")
    d13 = _single("<1 3 e0>_0 <2 4 e0>_0")
    d14 = _single("<1 4 e0>_0 <2 3 e0>_0")
    assert rels[0] == d12 - d13
    assert rels[1] == d13 - d14
    for r in rels:
        assert registry.normal_form(r).is_zero()


def test_wdvv_relation_coefficient_sums_vanish(registry):
    # adding four-point relations never changes the coefficient sum
    for (g, n, k) in [(0, 5, 1), (0, 5, 2), (0, 6, 2), (1, 3, 2)]:
        for rel in registry.relations(g, n, k):
            assert sum(c for _, c in rel.terms()) == 0


def test_five_vector_relations(registry):
    v = {
        1: "<3 4 e0>_0 <5 e1 e1 e0>_0",
        2: "<3 5 e0>_0 <4 e1 e1 e0>_0",
        3: "<3 e0 e1>_0 <4 5 e0 e1>_0",
        4: "<5 e0 e1>_0 <3 4 e0 e1>_0",
        5: "<e0 e0 e1>_0 <3 4 5 e1>_0",
    }
    V = {i: symmetrize(parse_graph(s), {3, 4}) for i, s in v.items()}
    assert registry.normal_form(V[1] + V[5] - V[3].scale(2)).is_zero()
    assert registry.normal_form(V[2] + V[5] - V[3] - V[4]).is_zero()
    assert registry.normal_form(V[1] + V[4] - V[2] - V[3]).is_zero()
    # of the three relations exactly two are independent
    rows = [
        {0: 1, 4: 1, 2: -2},
        {1: 1, 4: 1, 2: -1, 3: -1},
        {0: 1, 3: 1, 1: -1, 2: -1},
    ]
    assert Echelon([{k: Fraction(v) for k, v in r.items()} for r in rows]).rank == 2
    # the span of the five vectors modulo relations has a 3-element basis
    chosen = registry.span_basis([V[i] for i in range(1, 6)])
    assert len(chosen) == 3
    assert chosen == [V[3], V[4], V[5]]


# -- induced equations -------------------------------------------------------


def test_glue_four_point_relation(registry):
    rel = _fs("<1 2 e0>_0 <3 4 e0>_0 - <1 3 e0>_0 <2 4 e0>_0")
    glued = induce_by_gluing(rel, 1, 2)
    for g, _ in glued.terms():
        assert validate(g) == []
        assert g.total_genus() == 1
        assert g.external_labels() == (3, 4)
    assert registry.normal_form(glued).is_zero()


def test_glue_missing_label():
    rel = _fs("<1 2 e0>_0 <3 4 e0>_0")
    with pytest.raises(ValueError):
        induce_by_gluing(rel, 1, 9)


def test_glue_genus_one_equation_terms_validate(registry):
    from tautrel.data_files import genus1_four_point_equation

    eq = genus1_four_point_equation()
    glued = induce_by_gluing(eq, 1, 2)
    for g, _ in glued.terms():
        assert validate(g) == []
        assert g.total_genus() == 2
        assert g.codimension() == 3
        assert g.external_labels() == (3, 4)


def test_forgetful_pullback_of_one_point_recursion(registry):
    rel = _fs("<1^1>_1 - 1/24*<1 e0 e0>_0")
    pulled = induce_by_forgetful(rel)
    assert registry.normal_form(pulled).is_zero()
    again = induce_by_forgetful(pulled)
    assert registry.normal_form(again).is_zero()


def test_forgetful_pullback_empty():
    assert induce_by_forgetful(FormalSum()).is_zero()


def test_forgetful_pullback_stays_invariant(registry):
    # an operator-invariant relation stays invariant after pullback
    from tautrel.solver import check_invariance

    rel = _fs("<1^1>_1 - 1/24*<1 e0 e0>_0")
    pulled = induce_by_forgetful(rel)  # lives on (1, 2), codimension 1
    reports = check_invariance(pulled, range(1, 2), registry)
    assert reports[1].is_zero()


def test_known_relations_are_invariant():
    # invariance oracle: every r_l maps a generated relation, and the
    # pullback of one, to zero modulo the relations of a fresh registry
    from tautrel.solver import check_invariance, operator_index_bound

    source, fresh = RelationRegistry(), RelationRegistry()
    cases = [
        ((g, n, k), rel)
        for g, n, k in [(0, 5, 1), (0, 6, 1), (0, 6, 2), (1, 3, 2)]
        for rel in source.relations(g, n, k)
    ]
    cases += [((0, 6, 1), induce_by_forgetful(rel)) for rel in source.relations(0, 5, 1)]
    assert len(cases) == 10 + 30 + 190 + 7 + 10
    for ambient, rel in cases:
        reports = check_invariance(rel, range(1, operator_index_bound(*ambient) + 1), fresh)
        assert reports and all(nf.is_zero() for nf in reports.values()), (ambient, rel)


def test_forgetful_pullback_kappa_correction(registry):
    # kappa_1 on the one-point genus-1 vertex: kappa_a -> kappa_a - psi^a
    rel = FormalSum.single(parse_graph("<1>_1[k1]"))
    pulled = induce_by_forgetful(rel)
    assert pulled.coefficient(parse_graph("<1 2>_1[k1]")) == 1
    assert pulled.coefficient(parse_graph("<1 2^1>_1")) == -1


# -- intersection-number oracle ----------------------------------------------
#
# In the glued-half-edges convention every psi-free point stratum is
# the pushforward of a product of three-pointed rational curves, so
# its degree is exactly 1.  The top-codimension basis of an ambient
# has one element, hence the normal-form coordinate of a psi monomial
# equals its integral.  The expected values below are classical
# (multinomial formula in genus 0; string/dilaton values in genus 1)
# and are computed independently of everything this package does.


def _psi_monomial(genus, powers):
    from tautrel.graphs import DecoratedGraph, Leg, Vertex

    legs = tuple(Leg(0, i + 1, p) for i, p in enumerate(powers))
    return DecoratedGraph((Vertex(genus),), legs)


def _top_coordinate(registry, graph):
    nf = registry.normal_form(FormalSum.single(graph))
    items = nf.items()
    if not items:
        return Fraction(0)
    ((_, coeff),) = items
    return coeff


def test_genus0_psi_integrals(registry):
    from math import factorial

    for n, powers in [
        (4, (1, 0, 0, 0)),
        (5, (2, 0, 0, 0, 0)),
        (5, (1, 1, 0, 0, 0)),
        (6, (3, 0, 0, 0, 0, 0)),
        (6, (2, 1, 0, 0, 0, 0)),
        (6, (1, 1, 1, 0, 0, 0)),
    ]:
        expected = Fraction(factorial(n - 3))
        for p in powers:
            expected /= factorial(p)
        got = _top_coordinate(registry, _psi_monomial(0, powers))
        assert got == expected, (n, powers, got, expected)


def test_genus1_psi_integrals(registry):
    cases = [
        ((1,), Fraction(1, 24)),
        ((2, 0), Fraction(1, 24)),
        ((1, 1), Fraction(1, 24)),
        ((3, 0, 0), Fraction(1, 24)),
        ((2, 1, 0), Fraction(1, 12)),
        ((1, 1, 1), Fraction(1, 12)),
    ]
    for powers, expected in cases:
        got = _top_coordinate(registry, _psi_monomial(1, powers))
        assert got == expected, (powers, got, expected)


# -- registry ----------------------------------------------------------------


def test_relation_basis_m04(registry):
    rb = registry.relation_basis(0, 4, 1)
    assert len(rb.classes) == 3
    assert len(rb.basis) == 1


def test_relation_basis_m03(registry):
    rb = registry.relation_basis(0, 3, 0)
    assert len(rb.classes) == 1
    assert len(rb.basis) == 1


def test_top_codimension_collapses_to_rank_one(registry):
    for (g, n, k) in [(0, 5, 2), (0, 6, 3), (1, 1, 1), (1, 2, 2), (1, 3, 3)]:
        rb = registry.relation_basis(g, n, k)
        assert len(rb.basis) == 1, (g, n, k)


def test_genus1_divisor_ranks(registry):
    # the boundary divisors of the 2- and 3-pointed genus-1 ambients
    # are independent; their counts match the known Picard ranks
    assert len(registry.relation_basis(1, 2, 1).basis) == 2
    assert len(registry.relation_basis(1, 3, 1).basis) == 5


def _keel_poincare(n):
    """Poincare polynomial of M_{0,n}, the coefficient of t^k being
    the rank of H^{2k}, by Keel's recursion (Trans. AMS 330, 1992): P_3 = 1 and
    P_{m+1} = (1+t) P_m + (t/2) sum_{j=2}^{m-2} C(m,j) P_{j+1} P_{m-j+1}."""
    P = {3: [Fraction(1)]}

    def add(a, b, shift=0, scale=1):
        out = list(a) + [Fraction(0)] * max(0, len(b) + shift - len(a))
        for i, x in enumerate(b):
            out[i + shift] += scale * x
        return out

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for m in range(3, n):
        nxt = add(P[m], P[m], shift=1)
        for j in range(2, m - 1):
            nxt = add(nxt, mul(P[j + 1], P[m - j + 1]), shift=1, scale=Fraction(comb(m, j), 2))
        P[m + 1] = nxt
    assert all(x.denominator == 1 for x in P[n])
    return [int(x) for x in P[n]]


def test_keel_recursion_known_values():
    assert _keel_poincare(5) == [1, 5, 1]
    assert _keel_poincare(6) == [1, 16, 16, 1]
    assert _keel_poincare(7) == [1, 42, 127, 42, 1]


@pytest.mark.parametrize("n", [4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_genus0_basis_sizes_are_betti_numbers(registry, n):
    # n = 7 (Keel: 1, 42, 127, 42, 1) takes about 27 s over all k, so
    # it is marked slow and runs with -m slow
    betti = _keel_poincare(n)
    assert len(betti) == n - 2
    for k, b in enumerate(betti):
        assert len(registry.relation_basis(0, n, k).basis) == b, (n, k)


@pytest.mark.parametrize("n,betti", [(1, [1, 1]), (2, [1, 2, 1]), (3, [1, 5, 5, 1])])
def test_genus1_basis_sizes_are_betti_numbers(registry, n, betti):
    # Getzler's Poincare polynomials of M_{1,n} for n <= 3
    for k, b in enumerate(betti):
        assert len(registry.relation_basis(1, n, k).basis) == b, (n, k)


def test_relation_basis_deterministic(registry):
    fresh = RelationRegistry()
    a = registry.relation_basis(0, 5, 2)
    b = fresh.relation_basis(0, 5, 2)
    assert a == b


def test_unsupported_genus_two(registry):
    smooth = FormalSum.single(parse_graph("<1 2>_2"))
    with pytest.raises(InductiveDataMissing):
        registry.normal_form(smooth)


def test_incomplete_genus_one_ambient_guarded(registry):
    cls = FormalSum.single(parse_graph("<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1"))
    with pytest.raises(InductiveDataMissing) as err:
        registry.normal_form(cls)
    assert err.value.ambient == (1, 4, 2)
    # the induced quotient is still available on request
    nf = registry.normal_form(cls, allow_incomplete=True)
    assert not nf.is_zero()


def test_memoised_factors_keep_refusing():
    # the reduced factors are memoised per (graph, allow_incomplete) and
    # only on success: the complete-data request refuses every time
    reg = RelationRegistry()
    cls = FormalSum.single(parse_graph("<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1"))
    nf = reg.normal_form(cls, allow_incomplete=True)
    for _ in range(2):
        with pytest.raises(InductiveDataMissing):
            reg.normal_form(cls)
    assert reg.normal_form(cls, allow_incomplete=True) == nf


def test_component_memo_reaches_relabelled_components():
    # each component of the second graph is an order-preserving
    # relabelling of one of the first: no new memo entry, and the same
    # coordinates with the labels mapped
    reg = RelationRegistry()
    first = parse_graph("<1^1 3 5 7 9>_0 <2 4 6>_0")
    mapping = {1: 2, 3: 3, 5: 5, 7: 6, 9: 8, 2: 1, 4: 4, 6: 7}
    nf = reg.normal_form(FormalSum.single(first))
    entries = len(reg._factors)
    moved = reg.normal_form(FormalSum.single(first.relabel(mapping)))
    assert len(reg._factors) == entries and not nf.is_zero()

    def mapped(part):
        g, labels, k, idx = part
        return (g, tuple(sorted(mapping[a] for a in labels)), k, idx)

    assert moved.coords == {tuple(sorted(map(mapped, key))): c for key, c in nf.coords.items()}
    assert moved.as_formal_sum() == nf.as_formal_sum().relabel(mapping)


def test_kappa_class_not_reducible(registry):
    with pytest.raises(InductiveDataMissing):
        registry.normal_form(FormalSum.single(parse_graph("<1 2 3 4>_0[k1]")))


def test_registry_persistence(tmp_path):
    reg = RelationRegistry(tmp_path)
    rels = reg.relations(0, 4, 1)
    path = tmp_path / "g0n4k1.gwi"
    assert path.exists()
    text = path.read_text()
    assert text.startswith("# convention: glued-half-edges")
    reloaded = RelationRegistry(tmp_path)
    assert reloaded.relations(0, 4, 1)[: len(rels)] == rels


def test_registry_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    real_write_text = Path.write_text

    def write_half_then_fail(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError):
            RelationRegistry(tmp_path).relations(0, 5, 1)
    assert list(tmp_path.iterdir()) == []
    rels = RelationRegistry(tmp_path).relations(0, 5, 1)
    assert RelationRegistry(tmp_path).relations(0, 5, 1) == rels
    assert [p.name for p in tmp_path.iterdir()] == ["g0n5k1.gwi"]


def test_registry_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TAUT_REGISTRY_DIR", str(tmp_path))
    reg = RelationRegistry()
    reg.relations(0, 4, 1)
    assert (tmp_path / "g0n4k1.gwi").exists()


def test_generated_file_does_not_unlock_ambient(tmp_path):
    # the registry writing its own generated relations to disk must not
    # count them as imported inductive data on reload
    reg = RelationRegistry(tmp_path)
    reg.relations(1, 4, 2)
    assert (tmp_path / "g1n4k2.gwi").exists()
    reg2 = RelationRegistry(tmp_path)
    with pytest.raises(InductiveDataMissing):
        reg2.relation_basis(1, 4, 2)


def test_imported_relations_unlock_ambient(tmp_path):
    # with the genus-1 four-point equation imported, the (1,4,2)
    # ambient becomes available as inductive data
    from tautrel.data_files import genus1_four_point_equation

    reg = RelationRegistry(tmp_path)
    reg.relations(1, 4, 2)  # writes the generated four-point derivatives
    with (tmp_path / "g1n4k2.gwi").open("a") as fh:
        fh.write(format_sum(genus1_four_point_equation()) + "\n")
    reg2 = RelationRegistry(tmp_path)
    assert len(reg2.imported_relations(1, 4, 2)) == 1
    rb = reg2.relation_basis(1, 4, 2)
    assert len(rb.basis) < len(rb.classes)


def test_convention_conversion_round_trip():
    e = _fs("<1 e0 e0>_0")
    w = to_automorphism_convention(e)
    assert w == e.scale(2)  # the loop has a half-edge swap
    assert from_automorphism_convention(w) == e


def test_imported_file_convention(tmp_path):
    # a relation recorded with automorphism weights loads rescaled
    (tmp_path / "g1n1k1.gwi").write_text(
        "# convention: automorphism-weighted\n2*<1 e0 e0>_0\n"
    )
    reg = RelationRegistry(tmp_path)
    rels = [r for r in reg.relations(1, 1, 1)]
    assert _fs("<1 e0 e0>_0") in rels


def test_imported_relation_with_psi_is_expanded(tmp_path):
    # psi_1 on M_1,1 is 1/24 of the loop class, so this imported
    # relation expands to the zero row and leaves the basis alone
    (tmp_path / "g1n1k1.gwi").write_text("<1^1>_1 - 1/24*<1 e0 e0>_0\n")
    rb = RelationRegistry(tmp_path).relation_basis(1, 1, 1)
    assert len(rb.basis) == 1 and rb.rref_rows == ()


def test_registry_bad_line_names_file_and_line(tmp_path):
    (tmp_path / "g0n4k1.gwi").write_text(
        "# convention: glued-half-edges\n\n  # an indented comment\n1 2 3 4>_0\n"
    )
    with pytest.raises(GwiParseError, match=r"g0n4k1\.gwi:4: expected '<'"):
        RelationRegistry(tmp_path).relations(0, 4, 1)


def test_rewrite_outputs_golden():
    # the byte-exact output of the psi elimination, the four-point
    # relations and the forgetful pullback over a fixed corpus
    rng = random.Random(2026)
    graphs = small_strata() + [random_stable_graph(rng, max_half_edges=6) for _ in range(100)]
    digest = hashlib.sha256()
    for g in graphs:
        try:
            digest.update(format_sum(FormalSum(psi_free_expansion(g))).encode())
        except InductiveDataMissing:
            digest.update(b"missing")
        for v in range(g.n_vertices):
            if g.vertices[v].genus == 0 and g.valence(v) >= 4:
                for rel in wdvv_relations(g, v):
                    digest.update(format_sum(rel).encode())
        digest.update(format_sum(induce_by_forgetful(FormalSum.single(g))).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == "d9dd7d2027218d8b78b5f9b46c994032e951a17e03d1ae8f9466dc051283943f"


def test_normal_form_outputs_golden():
    # the byte-exact normal forms, as basis sums and as the coefficient
    # sequence of their sorted coordinates, over a fixed corpus
    registry = RelationRegistry()
    rng = random.Random(2027)
    graphs = small_strata() + [random_stable_graph(rng, max_half_edges=6) for _ in range(100)]
    digest = hashlib.sha256()
    for g in graphs:
        try:
            nf = registry.normal_form(FormalSum.single(g), allow_incomplete=True)
        except InductiveDataMissing:
            digest.update(b"missing\n")
            continue
        digest.update(format_sum(nf.as_formal_sum()).encode())
        digest.update((" %s\n" % [c for _, c in nf.items()]).encode())
    assert digest.hexdigest() == "f18423c92e9512c143fb0a834fcc279649a6be454cc3da485c36052658fed6f5"


def test_disconnected_normal_form_outputs_golden():
    # the byte-exact normal forms of two-component graphs whose labels
    # interleave across the components, with and without complete data;
    # every other graph may carry a genus-2 component
    registry = RelationRegistry()
    rng = random.Random(2028)
    graphs = [
        random_disconnected_graph(rng, max_half_edges=6, max_genus=1 + i % 2)
        for i in range(300)
    ]
    digest = hashlib.sha256()
    for g in graphs:
        for allow_incomplete in (True, False):
            try:
                nf = registry.normal_form(FormalSum.single(g), allow_incomplete=allow_incomplete)
            except InductiveDataMissing:
                digest.update(b"missing\n")
                continue
            digest.update(format_sum(nf.as_formal_sum()).encode())
            digest.update((" %s\n" % [c for _, c in nf.items()]).encode())
    assert digest.hexdigest() == "245afa95a0915590fdbe7a73b12f1940dc2904bef6f14fa92478a883d229ebe0"


# -- table files in the registry -----------------------------------------------


def _table_file(root, g, n, k):
    return root / "tables" / ("g%dn%dk%d.json" % (g, n, k))


def _no_rebuild(monkeypatch):
    """Make any table build in this test fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("table rebuilt")

    monkeypatch.setattr(relations_module, "enumerate_classes", refuse)


def test_table_file_loads_without_rebuild(tmp_path, monkeypatch):
    built = RelationRegistry(tmp_path).relation_basis(0, 6, 2)
    assert built.rref_rows and _table_file(tmp_path, 0, 6, 2).is_file()
    _no_rebuild(monkeypatch)
    assert RelationRegistry(tmp_path).relation_basis(0, 6, 2) == built


def test_table_file_keeps_incomplete_flag(tmp_path, monkeypatch):
    with pytest.raises(InductiveDataMissing):
        RelationRegistry(tmp_path).relation_basis(1, 4, 2)
    assert json.loads(_table_file(tmp_path, 1, 4, 2).read_text())["incomplete"] is True
    _no_rebuild(monkeypatch)
    with pytest.raises(InductiveDataMissing):
        RelationRegistry(tmp_path).relation_basis(1, 4, 2)


def test_table_file_stale_after_import(tmp_path):
    # the stamp covers the gwi file: an appended import forces a rebuild
    from tautrel.data_files import genus1_four_point_equation

    RelationRegistry(tmp_path)._table(1, 4, 2, allow_incomplete=True)
    assert _table_file(tmp_path, 1, 4, 2).is_file()
    with (tmp_path / "g1n4k2.gwi").open("a") as fh:
        fh.write(format_sum(genus1_four_point_equation()) + "\n")
    rb = RelationRegistry(tmp_path).relation_basis(1, 4, 2)
    assert len(rb.basis) < len(rb.classes)


def _pivot_not_min(data):
    # name a row by its largest column, which is no other row's pivot
    i = next(i for i, (_, row) in enumerate(data["rows"]) if len(row) > 1)
    data["rows"][i][0] = data["rows"][i][1][-1][0]
    return json.dumps(data)


def _pivot_not_one(data):
    data["rows"][0][1][0][1] = "2"
    return json.dumps(data)


def _column_out_of_range(data):
    data["rows"][0][1].append([len(data["classes"]), "1"])
    return json.dumps(data)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda data: json.dumps(data)[:100],
        lambda data: json.dumps({**data, "rows": {"0": []}}),
        lambda data: json.dumps({**data, "incomplete": "no"}),
        lambda data: json.dumps({**data, "classes": data["classes"][:1] + data["classes"][:-1]}),
        _column_out_of_range,
        lambda data: json.dumps({**data, "rows": data["rows"] + data["rows"][:1]}),
        _pivot_not_min,
        _pivot_not_one,
    ],
    ids=[
        "truncated", "wrong-shape", "flag-not-bool", "duplicate-class",
        "column-out-of-range", "duplicate-pivot", "pivot-not-min", "pivot-not-one",
    ],
)
def test_corrupt_table_file_is_a_miss(tmp_path, monkeypatch, corrupt):
    built = RelationRegistry(tmp_path).relation_basis(0, 5, 2)
    path = _table_file(tmp_path, 0, 5, 2)
    valid = path.read_text()
    path.write_text(corrupt(json.loads(valid)))
    assert RelationRegistry(tmp_path).relation_basis(0, 5, 2) == built
    assert path.read_text() == valid
    _no_rebuild(monkeypatch)
    assert RelationRegistry(tmp_path).relation_basis(0, 5, 2) == built


def test_changed_sources_force_rebuild(tmp_path, monkeypatch):
    RelationRegistry(tmp_path).relation_basis(0, 5, 2)
    path = _table_file(tmp_path, 0, 5, 2)
    old = json.loads(path.read_text())
    calls = []
    real = relations_module.enumerate_classes
    monkeypatch.setattr(relations_module, "enumerate_classes", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    monkeypatch.setattr(relations_module, "_source_digest", lambda: 12345)
    RelationRegistry(tmp_path).relation_basis(0, 5, 2)
    assert calls == [(0, 5, 2)]
    new = json.loads(path.read_text())
    assert new["stamp"] != old["stamp"] and {**new, "stamp": 0} == {**old, "stamp": 0}


def test_relation_file_changed_during_build_gets_no_table(tmp_path, monkeypatch):
    RelationRegistry(tmp_path).relations(0, 5, 2)
    real = RelationRegistry.relations

    def relations_then_edit(self, g, n, k):
        rels = real(self, g, n, k)
        with self._path(g, n, k).open("a") as fh:
            fh.write("# edited while the table was built\n")
        return rels

    monkeypatch.setattr(RelationRegistry, "relations", relations_then_edit)
    RelationRegistry(tmp_path).relation_basis(0, 5, 2)
    assert not _table_file(tmp_path, 0, 5, 2).exists()


def test_no_sources_no_table_files(tmp_path, monkeypatch):
    monkeypatch.setattr(relations_module, "_source_digest", lambda: None)
    RelationRegistry(tmp_path).relation_basis(0, 5, 2)
    assert (tmp_path / "g0n5k2.gwi").is_file() and not (tmp_path / "tables").exists()


def test_unwritable_tables_keep_working(tmp_path, monkeypatch):
    real_write_text = Path.write_text

    def fail_in_tables(self, data, *args, **kwargs):
        if self.parent.name == "tables":
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("read-only")
        return real_write_text(self, data, *args, **kwargs)

    want = RelationRegistry().relation_basis(0, 6, 2)
    monkeypatch.setattr(Path, "write_text", fail_in_tables)
    for _ in range(2):
        assert RelationRegistry(tmp_path).relation_basis(0, 6, 2) == want
    assert list((tmp_path / "tables").iterdir()) == []


def test_table_files_independent_of_hash_seed(tmp_path):
    src = Path(__file__).parents[1] / "src"
    files = []
    for hashseed in (1, 2):
        reg = tmp_path / ("seed%d" % hashseed)
        reg.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "TAUT_REGISTRY_DIR"}
        env.update(PYTHONHASHSEED=str(hashseed), PYTHONPATH=str(src))
        argv = ["--registry", str(reg), "find", "-g", "1", "-n", "4", "-k", "2", "--boundary-only", "--out", str(reg)]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from tautrel.cli import main; sys.exit(main())", *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        files.append({p.name: p.read_bytes() for p in sorted((reg / "tables").iterdir())})
    assert len(files[0]) == 14 and files[0] == files[1]


def test_registry_files_round_trip(tmp_path):
    # every relation file a (1,4,2) psi find writes reads back as exactly
    # the generated relations, in order
    reg = RelationRegistry(tmp_path)
    find_equations(1, 4, 2, reg, decorations="psi")
    paths = sorted(tmp_path.glob("g*.gwi"))
    assert len(paths) == 14
    for path in paths:
        g, n, k = map(int, re.fullmatch(r"g(\d+)n(\d+)k(\d+)\.gwi", path.name).groups())
        comments, rels = read_file(path)
        assert comments == ["# convention: glued-half-edges", "# provenance: generated"]
        assert rels == _generate_wdvv(g, n, k) == reg.relations(g, n, k), path.name
