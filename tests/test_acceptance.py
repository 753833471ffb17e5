"""Acceptance suite: one test per shipped criterion, exact arithmetic
throughout (tolerance zero).  Run with ``pytest tests/test_acceptance.py
-v -s`` to see one PASS line per criterion."""

import time
from fractions import Fraction

import pytest

from tautrel.data_files import genus1_four_point_equation
from tautrel.echelon import Echelon
from tautrel.graphs import dimension, symmetrize
from tautrel.gwi import parse_graph, parse_sum
from tautrel.operators import apply_r, cut_edges
from tautrel.relations import (
    RelationRegistry,
    genus0_trr_rewrite,
    genus1_trr_rewrite,
)
from tautrel.solver import (
    check_invariance,
    enumerate_classes,
    filter_trivial,
    general_element,
    invariance_system,
    solve_nullspace,
)
from tautrel.sums import FormalSum, LinForm

from conftest import orbit_index_map

F = Fraction


@pytest.fixture(scope="module")
def registry():
    return RelationRegistry()


@pytest.fixture(scope="module")
def derivation(registry):
    reps = enumerate_classes(1, 4, 2, decorations="none", symmetrize_points={1, 2, 3, 4})
    classes = [symmetrize(r, {1, 2, 3, 4}) for r in reps]
    E = general_element(classes)
    system = invariance_system(E, range(1, 2), registry)
    nullspace = solve_nullspace(system)
    candidates = filter_trivial(nullspace, E, registry)
    return reps, E, system, nullspace, candidates


@pytest.fixture(scope="module")
def corpus_images(random_corpus):
    out = []
    for g in random_corpus:
        images = {l: apply_r(FormalSum.single(g), l) for l in (1, 2)}
        out.append((g, images))
    return out


def test_criterion_1_strata_count():
    t0 = time.perf_counter()
    reps = enumerate_classes(1, 4, 2, decorations="none", symmetrize_points={1, 2, 3, 4})
    elapsed = time.perf_counter() - t0
    assert len(reps) == 9
    mapping = orbit_index_map(reps)
    assert sorted(mapping) == list(range(1, 10))
    assert sorted(mapping.values()) == list(range(1, 10))
    assert elapsed < 1.0
    print("criterion 1 PASS: 9 symmetrized strata, bijective with the "
          "conventional list (%.2fs)" % elapsed)


def test_criterion_2_linear_conditions(derivation):
    t0 = time.perf_counter()
    reps, _, system, _, _ = derivation
    conv = orbit_index_map(reps)
    back = {v: k for k, v in conv.items()}
    assert system.rank() == 7
    # the eight displayed conditions; the first Step-4(b) row is taken
    # with -3c9 (the +3c9 print is inconsistent with the solved
    # coefficients and with the displayed disconnected-term equation,
    # see notes) and indeed only the corrected sign lies in the span
    conditions = [
        {1: F(-1), 2: F(-1), 3: F(1)},
        {1: F(2), 4: F(-3)},
        {2: F(1), 3: F(-2), 4: F(1)},
        {5: F(1), 6: F(-4), 9: F(-1)},
        {1: F(1, 6), 5: F(-3), 9: F(-3)},
        {5: F(-3), 7: F(-2), 8: F(2)},
        {1: F(-1, 12), 5: F(3), 6: F(-6)},
        {1: F(-1, 2), 2: F(-11, 24), 3: F(-11, 24), 4: F(-11, 24), 6: F(3), 8: F(-3)},
    ]
    forms = [LinForm({back[i]: c for i, c in cond.items()}) for cond in conditions]
    for form in forms:
        assert system.contains_row(form)
    misprinted = LinForm({back[1]: F(1, 6), back[5]: F(-3), back[9]: F(3)})
    assert not system.contains_row(misprinted)
    # the eight conditions have rank 7, so they span the whole row space
    rows = [{i - 1: c for i, c in f.coeffs.items()} for f in forms]
    assert Echelon(rows).rank == 7
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("criterion 2 PASS: row space equals the span of the eight "
          "conditions, rank exactly 7 (%.1fs)" % elapsed)


def test_criterion_3_equation_recovery(derivation, registry):
    reps, E, _, nullspace, candidates = derivation
    conv = orbit_index_map(reps)
    back = {v: k for k, v in conv.items()}
    assert len(nullspace) == 2
    for vec in nullspace:
        c = {i: vec[back[i] - 1] for i in range(1, 10)}
        assert c[1] == -3 * c[3]
        assert c[2] == 4 * c[3]
        assert c[4] == -2 * c[3]
        assert c[5] == F(-1, 6) * c[3] - c[9]
        assert c[6] == F(-1, 24) * c[3] - F(1, 2) * c[9]
        assert c[7] == F(1, 4) * c[3] + c[9]
        assert c[8] == F(-1, 2) * c[9]
    new = [c for c in candidates if not c.trivial]
    old = [c for c in candidates if c.trivial]
    assert len(new) == 1 and len(old) == 1
    # the pure-c9 direction reduces to zero modulo the known relations
    b1, b2 = nullspace
    c3 = lambda v: v[back[3] - 1]
    c9 = lambda v: v[back[9] - 1]
    det = c3(b1) * c9(b2) - c3(b2) * c9(b1)
    assert det != 0
    a, b = -c3(b2) / det, c3(b1) / det  # c3 component zero, c9 = 1
    T_vec = tuple(a * x + b * y for x, y in zip(b1, b2))
    assert c3(T_vec) == 0 and c9(T_vec) == 1
    T = E.specialize({i + 1: T_vec[i] for i in range(9)})
    assert registry.is_zero_modulo(T, allow_incomplete=True)
    # the surviving candidate is the bundled equation up to one scale
    eq = genus1_four_point_equation()
    got = new[0].formal_sum
    lead, coeff = eq.terms()[0]
    ratio = got.coefficient(lead) / coeff
    assert ratio != 0 and got == eq.scale(ratio)
    print("criterion 3 PASS: unique nontrivial candidate matches the "
          "genus-1 four-point equation up to scale; the other direction "
          "is a known-relation combination")


def test_criterion_4_l2_vanishing(derivation, registry):
    _, _, _, _, candidates = derivation
    eq = [c for c in candidates if not c.trivial][0].formal_sum
    reports = check_invariance(eq, range(2, 3), registry)
    assert reports[2].is_zero()
    print("criterion 4 PASS: the recovered equation is annihilated at "
          "l=2 after genus-1 recursion and four-point reduction")


def test_criterion_5_dimension_drop(random_corpus, corpus_images):
    t0 = time.perf_counter()
    assert len(random_corpus) >= 500
    checked = 0
    for g, images in corpus_images:
        d = dimension(g)
        gg, n = g.ambient()
        k = g.codimension()
        amb_dim = 3 * gg - 3 + n
        for l, image in images.items():
            for term, _ in image.terms():
                assert dimension(term) == d - l
                checked += 1
            if k + l > amb_dim:
                assert image.is_zero()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("criterion 5 PASS: dimension drops by exactly l on %d terms "
          "over %d random graphs; vanishing bound holds (%.1fs)"
          % (checked, len(random_corpus), elapsed))


def test_criterion_6_new_label_parity(corpus_images):
    for g, images in corpus_images:
        _, n = g.ambient()
        swap = {n + 1: n + 2, n + 2: n + 1}
        for l, image in images.items():
            assert image.relabel(swap) == image.scale(F((-1) ** (l - 1)))
    print("criterion 6 PASS: transposing the two new labels scales the "
          "image by (-1)**(l-1) on the whole corpus")


def test_criterion_7_wdvv_span(registry):
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
    rows = [
        {0: F(1), 4: F(1), 2: F(-2)},
        {1: F(1), 4: F(1), 2: F(-1), 3: F(-1)},
        {0: F(1), 3: F(1), 1: F(-1), 2: F(-1)},
    ]
    assert Echelon(rows).rank == 2
    basis = registry.span_basis([V[i] for i in range(1, 6)])
    assert len(basis) == 3
    print("criterion 7 PASS: the three five-vector relations hold "
          "exactly, span rank 2, and the span has a 3-element basis")


def test_criterion_8_recursion_constants():
    out = genus1_trr_rewrite(FormalSum.single(parse_graph("<1^1>_1")))
    assert out == parse_sum("1/24*<1 e0 e0>_0")
    assert genus0_trr_rewrite(FormalSum.single(parse_graph("<1 2 3^1>_0"))).is_zero()
    print("criterion 8 PASS: nonseparating coefficient is exactly 1/24; "
          "a psi on a three-valent rational vertex dies")


def test_criterion_9_worked_cut_example():
    ex = parse_graph("<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1")
    out = cut_edges(ex, 1, 5, 6)
    two_terms = parse_sum(
        "<1 2 5>_0 <3 4 e0>_0 <6^1 e0>_1 + <1 2 e0>_0 <3 4 5>_0 <6^1 e0>_1"
    )
    swap = {5: 6, 6: 5}
    merged = two_terms + two_terms.relabel(swap)
    assert out + out.relabel(swap) == merged
    assert out == merged.scale(F(1, 2))  # l=1 output is already symmetric
    # and the unstable psi-decorated tails were dropped
    dropped = parse_graph("<1 2 5^1>_0 <3 4 e0>_0 <6 e0>_1")
    assert out.coefficient(dropped) is None
    print("criterion 9 PASS: cutting the worked example reproduces the "
          "two-term presentation; negative-dimension tails removed")
