import ast
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tautrel import solver
from tautrel.graphs import DecoratedGraph, _relabelling_orbit, canonicalize, symmetrize
from tautrel.gwi import format_sum, parse_graph, parse_sum
from tautrel.operators import apply_r
from tautrel.relations import InductiveDataMissing, RelationRegistry, _expansion_row, psi_free_expansion
from tautrel.solver import (
    LinearSystem,
    _image_coords,
    check_invariance,
    enumerate_classes,
    filter_trivial,
    find_equations,
    general_element,
    invariance_system,
    operator_index_bound,
    solve_nullspace,
)
from tautrel.strata import orbits
from tautrel.sums import FormalSum, LinForm, SymbolicSum

from conftest import orbit_index_map, random_disconnected_graph, reference_normal_coords


# -- enumeration -------------------------------------------------------------


def test_enumerate_142_orbits():
    reps = enumerate_classes(1, 4, 2, decorations="none", symmetrize_points={1, 2, 3, 4})
    assert len(reps) == 9


def test_enumerate_142_full():
    assert len(enumerate_classes(1, 4, 2, decorations="none")) == 43


def test_enumerate_041_divisors():
    assert len(enumerate_classes(0, 4, 1, decorations="none")) == 3


def test_enumerate_point_ambient():
    assert enumerate_classes(0, 3, 1, decorations="psi") == []
    assert enumerate_classes(0, 3, 0) == [parse_graph("<1 2 3>_0")]


def test_enumerate_invalid_ambient():
    with pytest.raises(ValueError):
        enumerate_classes(0, 2, 1)


def test_enumerate_psi_and_kappa_modes():
    psi = enumerate_classes(1, 1, 1, decorations="psi")
    assert psi == [parse_graph("<1 e0 e0>_0"), parse_graph("<1^1>_1")]
    pk = enumerate_classes(1, 1, 1, decorations="psi_kappa")
    assert parse_graph("<1>_1[k1]") in pk and len(pk) == 3


# -- general element ---------------------------------------------------------


def test_general_element_nine_unknowns():
    reps = enumerate_classes(1, 4, 2, decorations="none", symmetrize_points={1, 2, 3, 4})
    E = general_element([symmetrize(r, {1, 2, 3, 4}) for r in reps])
    assert E.unknowns() == list(range(1, 10))


def test_general_element_empty():
    assert general_element([]).is_zero()


def test_general_element_dedup():
    g = parse_graph("<1 2 3>_0")
    E = general_element([g, g])
    assert E.unknowns() == [1]


# -- nullspace ---------------------------------------------------------------


def _brute_rank(rows, n):
    # naive dense elimination over Fractions as an independent oracle
    mat = [[Fraction(r.get(c, 0)) for c in range(n)] for r in rows]
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_nullspace_single_equation():
    sys = LinearSystem(2)
    sys.add_row(LinForm({1: Fraction(1), 2: Fraction(-1)}))
    basis = solve_nullspace(sys)
    assert basis == [(Fraction(1), Fraction(1))]


def test_nullspace_full_rank():
    sys = LinearSystem(2)
    sys.add_row(LinForm({1: Fraction(1)}))
    sys.add_row(LinForm({2: Fraction(1)}))
    assert solve_nullspace(sys) == []


def test_nullspace_random_systems_against_oracle():
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randint(1, 6)
        sys = LinearSystem(n)
        rows = []
        for _ in range(rng.randint(0, 7)):
            row = {
                c: Fraction(rng.randint(-3, 3))
                for c in range(n)
                if rng.random() < 0.6
            }
            row = {c: x for c, x in row.items() if x}
            if row:
                rows.append(row)
                sys.add_row(LinForm({c + 1: x for c, x in row.items()}))
        basis = solve_nullspace(sys)
        assert len(basis) == n - _brute_rank(rows, n)
        for vec in basis:
            for row in rows:
                assert sum(row.get(c, 0) * vec[c] for c in range(n)) == 0


# -- the four-point genus-1 derivation ----------------------------------------


@pytest.fixture(scope="module")
def run_142():
    registry = RelationRegistry()
    reps = enumerate_classes(1, 4, 2, decorations="none", symmetrize_points={1, 2, 3, 4})
    classes = [symmetrize(r, {1, 2, 3, 4}) for r in reps]
    E = general_element(classes)
    system = invariance_system(E, range(1, 2), registry)
    nullspace = solve_nullspace(system)
    to_conventional = orbit_index_map(reps)
    return registry, reps, E, system, nullspace, to_conventional


def test_system_overdetermined_rank_seven(run_142):
    _, _, _, system, _, _ = run_142
    assert len(system.rows) > 7
    assert system.rank() == 7


def test_known_conditions_in_row_space(run_142):
    _, _, _, system, _, conv = run_142
    back = {v: k for k, v in conv.items()}
    F = Fraction
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
    for cond in conditions:
        form = LinForm({back[i]: c for i, c in cond.items()})
        assert system.contains_row(form)


def test_nullspace_two_dimensional_with_solved_ratios(run_142):
    _, _, _, _, nullspace, conv = run_142
    back = {v: k for k, v in conv.items()}
    assert len(nullspace) == 2
    F = Fraction
    for vec in nullspace:
        c = {i: vec[back[i] - 1] for i in range(1, 10)}
        assert c[1] == -3 * c[3]
        assert c[2] == 4 * c[3]
        assert c[4] == -2 * c[3]
        assert c[5] == F(-1, 6) * c[3] - c[9]
        assert c[6] == F(-1, 24) * c[3] - F(1, 2) * c[9]
        assert c[7] == F(1, 4) * c[3] + c[9]
        assert c[8] == F(-1, 2) * c[9]


def test_filter_trivial_splits_candidates(run_142):
    registry, _, E, _, nullspace, conv = run_142
    back = {v: k for k, v in conv.items()}
    cands = filter_trivial(nullspace, E, registry)
    new = [c for c in cands if not c.trivial]
    old = [c for c in cands if c.trivial]
    assert len(new) == 1 and len(old) == 1
    # the trivial direction is pure c9 (no c3 component)
    assert old[0].vector[back[3] - 1] == 0
    assert old[0].vector[back[9] - 1] != 0
    # the surviving candidate matches the known equation up to scale
    from tautrel.data_files import genus1_four_point_equation

    eq = genus1_four_point_equation()
    got = new[0].formal_sum
    lead = eq.terms()[0]
    ratio = got.coefficient(lead[0]) / lead[1]
    assert ratio != 0
    assert got == eq.scale(ratio)


def test_candidates_pass_invariance(run_142):
    registry, _, E, _, nullspace, _ = run_142
    cands = filter_trivial(nullspace, E, registry)
    new = [c for c in cands if not c.trivial][0]
    reports = check_invariance(new.formal_sum, range(1, operator_index_bound(1, 4, 2) + 1), registry)
    assert all(nf.is_zero() for nf in reports.values())


def test_pipeline_deterministic():
    a = find_equations(1, 4, 2, RelationRegistry(), lmax=1)
    b = find_equations(1, 4, 2, RelationRegistry(), lmax=1)
    assert "\n".join(a.lines()) == "\n".join(b.lines())


def test_find_degree_out_of_range():
    with pytest.raises(ValueError):
        find_equations(0, 4, 7, RelationRegistry())


def test_find_top_codimension_is_inductive():
    report = find_equations(1, 1, 1, RelationRegistry())
    assert report.system is None
    assert report.candidates == []
    assert any("top codimension" in n for n in report.notes)


def test_find_genus_zero_no_new_equations():
    report = find_equations(0, 5, 1, RelationRegistry(), decorations="psi")
    assert all(c.trivial for c in report.candidates)


def test_symmetrized_find_never_calls_symmetrize(monkeypatch):
    # the symmetrized classes come from the enumeration's orbit partition
    def boom(*args):
        raise AssertionError("symmetrize called")

    for name, module in list(sys.modules.items()):
        if name.startswith("tautrel") and hasattr(module, "symmetrize"):
            monkeypatch.setattr(module, "symmetrize", boom)
    report = find_equations(1, 4, 2, RelationRegistry(), decorations="psi")
    reps = enumerate_classes(1, 4, 2, decorations="psi", symmetrize_points={1, 2, 3, 4})
    assert len(report.classes) == len(reps)
    assert [c.terms()[0][0] for c in report.classes] == reps


def test_find_without_points_symmetrized_or_not():
    # n = 0: every orbit is one class of weight 1
    a = find_equations(2, 0, 3, RelationRegistry(), symmetrized=True)
    b = find_equations(2, 0, 3, RelationRegistry(), symmetrized=False)
    assert a.classes == b.classes != []
    assert all(len(c) == 1 and c.terms()[0][1] == 1 for c in a.classes)


# -- invariance checking ------------------------------------------------------


def test_check_invariance_of_one_point_recursion(registry):
    from tautrel.gwi import parse_sum

    rel = parse_sum("<1^1>_1 - 1/24*<1 e0 e0>_0")
    # top codimension: the operator images are empty for every l
    from tautrel.operators import apply_r

    for l in (1, 2, 3):
        assert apply_r(rel, l).is_zero()
    reports = check_invariance(rel, range(1, 4), registry)
    assert all(nf.is_zero() for nf in reports.values())


def test_check_invariance_flags_perturbation(registry):
    from tautrel.data_files import genus1_four_point_equation

    eq = genus1_four_point_equation()
    lead, coeff = eq.terms()[0]
    perturbed = eq + FormalSum.single(lead, Fraction(1, 2))
    reports = check_invariance(perturbed, range(1, 2), registry)
    assert not reports[1].is_zero()


def test_inductive_gate_propagates():
    # a genus-2 one-point class needs genus-1 five-point data downstream
    registry = RelationRegistry()
    g = parse_graph("<1 e0 e1>_1 <2 3 e0 e1>_1")
    with pytest.raises(InductiveDataMissing):
        check_invariance(FormalSum.single(g), range(1, 2), registry)


def test_solver_outputs_golden():
    # the byte-exact reports, candidates and relation tables of three
    # finds (a trivial direction, a new candidate, genus-1 tables)
    registry = RelationRegistry()
    digest = hashlib.sha256()
    for g, n, k, kw in [
        (1, 4, 2, {}),
        (1, 4, 2, {"decorations": "psi"}),
        (0, 6, 1, {"decorations": "psi", "symmetrized": False}),
    ]:
        report = find_equations(g, n, k, registry, **kw)
        digest.update("\n".join(report.lines()).encode())
        for cand in report.candidates:
            digest.update(("%s %s %s\n" % (cand.trivial, cand.vector, format_sum(cand.formal_sum))).encode())
    for g, n, k in [(0, 5, 2), (0, 6, 2), (1, 3, 2), (1, 4, 2)]:
        rb = registry.relation_basis(g, n, k, allow_incomplete=True)
        digest.update(("%s\n" % (rb.rref_rows,)).encode())
    assert digest.hexdigest() == "21aca064eabad67889262b2bf45ef1653080a21224be6e1201e1b9f02931d39c"


# -- operator images lifted over relabelling classes ---------------------------


def _outcome(call):
    """The result of ``call``, or the text of its refusal."""
    try:
        return call()
    except InductiveDataMissing as exc:
        return "refused: %s" % exc


def _image_cases():
    """(name, e, lmax): symmetrized, unsymmetrized, partly symmetrized,
    multi-unknown, rational and random sums."""
    out = []
    for g, n, k, dec in [(0, 6, 2, "psi"), (1, 4, 2, "none"), (1, 4, 2, "psi")]:
        points = set(range(1, n + 1))
        reps = enumerate_classes(g, n, k, decorations=dec, symmetrize_points=points)
        full = enumerate_classes(g, n, k, decorations=dec)
        bound = operator_index_bound(g, n, k)
        name = "(%d,%d,%d) %s" % (g, n, k, dec)
        out.append((name + " symmetrized", general_element([symmetrize(r, points) for r in reps]), bound))
        out.append((name + " unsymmetrized", general_element(full), bound))
        if (g, n, k, dec) == (1, 4, 2, "psi"):
            out.append((name + " over {3,4}", general_element([symmetrize(r, {3, 4}) for r in full]), bound))
    rng = random.Random(909)
    full = enumerate_classes(1, 4, 2, decorations="psi")
    two = SymbolicSum([
        (graph, LinForm({rng.randint(1, 3): Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                         rng.randint(4, 6): Fraction(rng.randint(1, 4))}))
        for graph in rng.sample(full, 30)
    ])
    out.append(("two-unknown forms", two, 2))
    from tautrel.data_files import genus1_four_point_equation

    out.append(("Getzler", genus1_four_point_equation(), 2))
    for seed in range(3):
        rng = random.Random(seed)
        out.append(("random %d" % seed, FormalSum([
            (graph, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for graph in rng.sample(full, rng.randint(1, len(full)))
        ]), 2))
    return out


def test_image_coords_match_whole_image():
    registry = RelationRegistry()
    for name, e, lmax in _image_cases():
        for l in range(1, lmax + 1):
            lifted = _outcome(lambda: _image_coords(e, l, registry))
            whole = _outcome(lambda: reference_normal_coords(registry, apply_r(e, l).items()))
            assert lifted == whole, (name, l)


def test_image_coords_refusals_match_whole_image():
    # genus 1 with four points past codimension 1 lacks data, and so
    # does genus 2, with or without psi on the genus-2 vertex
    registry = RelationRegistry()
    cases = [
        (general_element(enumerate_classes(1, 5, 2)), 1),
        (general_element(enumerate_classes(2, 2, 2)), 3),
        (parse_sum("<1 e0 e1>_1 <2 3 e0 e1>_1"), 1),
        (parse_sum("<1 2 3^1>_2 + <1 2 3 e0 e0>_1"), 2),
    ]
    for e, lmax in cases:
        for l in range(1, lmax + 1):
            lifted = _outcome(lambda: _image_coords(e, l, registry))
            whole = _outcome(lambda: reference_normal_coords(registry, apply_r(e, l).items()))
            assert lifted == whole and lifted.startswith("refused"), (e, l)


def test_normal_coords_match_reference():
    # the identity image, lifted over relabelling classes, against the
    # per-term reference, in both term orders; the random sums hold a
    # few relabellings of one disconnected graph, about half lacking data
    registry = RelationRegistry()
    sums = [e for _, e, _ in _image_cases()]
    rng = random.Random(1010)
    for _ in range(100):
        graph = random_disconnected_graph(rng, max_genus=rng.choice([0, 1, 2]))
        labels = sorted(graph.external_labels())
        sums.append(FormalSum([
            (graph.relabel(dict(zip(labels, rng.sample(labels, len(labels))))),
             Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        ]))
    for e in sums:
        items = list(e.items())
        for allow in (False, True):
            expected = _outcome(lambda: reference_normal_coords(registry, items, allow))
            for order in (items, items[::-1]):
                assert _outcome(lambda: registry.normal_coords(order, allow)) == expected, (e, allow)
    # a lacking term that cancels in the merge refuses nothing
    lacking, kept = parse_graph("<1 2 3^1>_2"), parse_graph("<1 2 3 e0 e0>_0")
    assert _outcome(lambda: registry.normal_coords([(lacking, 1)])).startswith("refused")
    terms = [(lacking, Fraction(1)), (kept, Fraction(2)), (lacking, Fraction(-1))]
    assert registry.normal_coords(terms) == registry.normal_coords([(kept, Fraction(2))]) != {}


def test_normal_coords_lift_rational_images():
    # an image with coefficients 1/2 and 1/3 is lifted in integers scaled
    # by 6 and divided once per coordinate: the same values as reducing
    # the whole image term by term, still Fraction or LinForm
    registry = RelationRegistry()

    def image(graph):
        return [(t, c / 2) for t, c in apply_r(FormalSum.single(graph), 1).items()] + [(graph, Fraction(1, 3))]

    for name, e, _ in _image_cases():
        items = list(e.items())
        whole = [(t, coeff * c) for graph, coeff in items for t, c in image(graph)]
        kind = LinForm if isinstance(e, SymbolicSum) else Fraction
        for allow in (False, True):
            lifted = _outcome(lambda: registry.normal_coords(items, allow, image))
            assert lifted == _outcome(lambda: reference_normal_coords(registry, whole, allow)), (name, allow)
            assert isinstance(lifted, str) or lifted and all(type(x) is kind for x in lifted.values())


@pytest.mark.parametrize("ambient, sample", [((0, 5, 2), None), ((1, 3, 2), None), ((0, 6, 2), 4)])
def test_psi_expansion_commutes_with_relabelling(ambient, sample):
    # the orbit route sums a component's coordinates over its labels from
    # its one expansion: on a complete table the expansion of a relabelled
    # class reduces like the relabelled expansion, though the two differ
    g, n, k = ambient
    registry = RelationRegistry()
    table = registry._table(g, n, k)
    perms = list(itertools.permutations(range(1, n + 1)))
    rng = random.Random(24)
    differ = 0
    for c in enumerate_classes(g, n, k, decorations="psi"):
        for perm in perms if sample is None else rng.sample(perms, sample):
            sigma = dict(zip(range(1, n + 1), perm))
            moved = canonicalize(c.relabel(sigma))
            renamed = [(canonicalize(f.relabel(sigma)), a) for f, a in psi_free_expansion(c)]
            row = _expansion_row(renamed, table.index, ambient)
            assert dict(registry._component_coords(moved, False)[1]) == table.echelon.reduce(row), (c, perm)
            differ += row != _expansion_row(((moved, 1),), table.index, ambient)
    assert differ


def _symmetrized(g, n, k, decorations):
    """The symmetrized general element of a find: each orbit's members
    with one unknown times n!/|orbit|."""
    groups = orbits(enumerate_classes(g, n, k, decorations=decorations), range(1, n + 1))
    return general_element([FormalSum([(m, Fraction(math.factorial(n), len(o))) for m in o]) for o in groups])


def _count_route(monkeypatch, registry):
    """The results of the orbit route's calls on ``registry``."""
    calls = []
    route = RelationRegistry._orbit_coords

    def counting(self, *args):
        out = route(self, *args)
        if self is registry:
            calls.append(out)
        return out

    monkeypatch.setattr(RelationRegistry, "_orbit_coords", counting)
    return calls


@pytest.mark.parametrize("g, n, k, decorations", [
    (0, 6, 2, "psi"), (0, 7, 2, "none"), (1, 3, 2, "psi"), (1, 4, 2, "psi"),
])
def test_orbit_route_matches_reference(monkeypatch, tmp_path, g, n, k, decorations):
    # whole orbits with one coefficient each, on complete tables: the
    # identity, r_1 and r_2 read the reference's coordinates from one
    # reduction per orbit; (1,4,2) imports the genus-1 four-point equation
    from tautrel.data_files import genus1_four_point_equation

    registry = RelationRegistry(tmp_path)
    if (g, n) == (1, 4):
        registry.relations(1, 4, 2)
        with (tmp_path / "g1n4k2.gwi").open("a") as fh:
            fh.write(format_sum(genus1_four_point_equation()) + "\n")
        registry = RelationRegistry(tmp_path)
    E = _symmetrized(g, n, k, decorations)
    calls = _count_route(monkeypatch, registry)
    lifted = registry.normal_coords(E.items())
    assert lifted and lifted == reference_normal_coords(registry, E.items())
    assert calls and all(calls)
    for l in (1, 2):
        del calls[:]
        lifted = _image_coords(E, l, registry)
        assert lifted == reference_normal_coords(registry, apply_r(E, l).items()), l
        assert all(calls) and (bool(calls) or not lifted), l


def test_orbit_route_lifts_on_incomplete_tables(monkeypatch):
    # (1,4,2) without the imported equation is incomplete: every whole
    # orbit of its symmetrized element is lifted member by member
    registry = RelationRegistry()
    E = _symmetrized(1, 4, 2, "psi")
    calls = _count_route(monkeypatch, registry)
    lifted = registry.normal_coords(E.items(), allow_incomplete=True)
    assert lifted == reference_normal_coords(registry, E.items(), True)
    unknowns = {i for _, form in E.items() for i in form.coeffs}
    multi = [i for i in unknowns if sum(i in form.coeffs for _, form in E.items()) > 1]
    assert len(calls) == len(multi) == 18 and not any(calls)
    assert not [key for key in registry._orbit_sums if key[0].total_genus() == 1 and len(key[0].legs) == 4]


def test_partial_orbits_and_mixed_coefficients_are_lifted(monkeypatch):
    # the route needs every member of an orbit with one coefficient
    registry = RelationRegistry()
    groups = orbits(enumerate_classes(0, 6, 2, decorations="psi"), range(1, 7))
    big = [o for o in groups if len(o) >= 3]
    partial = FormalSum([(m, Fraction(1)) for o in big for m in o[:-1]])
    mixed = FormalSum([(m, Fraction(2 if i == 0 else 1)) for o in big for i, m in enumerate(o)])
    calls = _count_route(monkeypatch, registry)
    for e in (partial, mixed):
        assert registry.normal_coords(e.items()) == reference_normal_coords(registry, e.items())
        assert _image_coords(e, 1, registry) == reference_normal_coords(registry, apply_r(e, 1).items())
    assert big and calls == []


def test_orbit_route_needs_one_label_set(monkeypatch):
    # the class key merges the labels, so these three terms on {1,2,3,4}
    # and {1,2,3,5} share it and number the orbit size of D(12|34); they
    # are not one orbit, and each keeps its own label set
    registry = RelationRegistry()
    e = parse_sum("<1 2 e0>_0 <3 4 e0>_0 + <1 3 e0>_0 <2 5 e0>_0 + <1 5 e0>_0 <2 3 e0>_0")
    calls = _count_route(monkeypatch, registry)
    coords = registry.normal_coords(e.items())
    assert coords == reference_normal_coords(registry, e.items())
    assert sorted(key[0][1] for key in coords) == [(1, 2, 3, 4), (1, 2, 3, 5)]
    assert calls == []


def test_orbit_route_needs_the_added_labels_last(monkeypatch):
    # on labels 2..7 the identity takes the route, while r_1 adds the
    # labels 1 and 8 and so lifts, as normalising would reorder label 1
    registry = RelationRegistry()
    shift = {a: a + 1 for a in range(1, 7)}
    e = SymbolicSum((g.relabel(shift), form) for g, form in _symmetrized(0, 6, 2, "psi").items())
    calls = _count_route(monkeypatch, registry)
    assert registry.normal_coords(e.items()) == reference_normal_coords(registry, e.items())
    assert calls and all(calls)
    del calls[:]
    assert _image_coords(e, 1, registry) == reference_normal_coords(registry, apply_r(e, 1).items())
    assert calls and not any(calls)


def test_solver_uses_no_private_relations_or_graphs_name():
    # the coordinate-key format and the refusal rule stay behind relations
    tree = ast.parse(Path(solver.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] in ("relations", "graphs"):
            assert not [a.name for a in node.names if a.name.startswith("_")], node.module
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "registry":
            assert not node.attr.startswith("_"), node.attr


@pytest.mark.parametrize("g, n, k, message", [
    (1, 5, 2, "(1, 4, 2): genus-1 factor with 4 points needs imported relations"),
    (1, 5, 3, "(1, 4, 3): genus-1 factor with 4 points needs imported relations"),
    (2, 2, 2, "(1, 4, 2): genus-1 factor with 4 points needs imported relations"),
])
def test_find_refusal_text(g, n, k, message):
    with pytest.raises(InductiveDataMissing) as exc:
        find_equations(g, n, k, RelationRegistry())
    assert str(exc.value) == "inductive data missing for (g,n,k)=" + message


def test_check_invariance_refusal_text():
    g = parse_graph("<1 e0 e1>_1 <2 3 e0 e1>_1")
    with pytest.raises(InductiveDataMissing) as exc:
        check_invariance(FormalSum.single(g), range(1, 2), RelationRegistry())
    assert str(exc.value) == "inductive data missing for (g,n,k)=(2, 4, 2): genus >= 2 factor"


def test_find_refuses_negative_lmax():
    with pytest.raises(ValueError, match="lmax -1 is negative"):
        find_equations(0, 5, 1, RelationRegistry(), lmax=-1)


def _searched(report, registry):
    """The (graph, merged labels) pairs a find searches: each class of E
    with all its labels, and each class of every table the orbit route
    partitions, with the labels 1..free of each partition."""
    classes = {(g, g.external_labels()) for c in report.classes for g, _ in c.terms()}
    tables = {
        (f, tuple(range(1, free + 1)))
        for table in registry._tables.values() for free in table._orbits for f in table.classes
    }
    return classes, tables


def test_symmetrized_find_searches_each_class_once():
    # the orbit partition, the r_1 image and filter_trivial share one
    # memoised relabelling-orbit search per class of E; the orbit route
    # adds one per class of each table it partitions, per label count,
    # and the (0,6,2) table's classes under S_6 are E's psi-free classes
    _relabelling_orbit.cache_clear()
    registry = RelationRegistry()
    report = find_equations(0, 6, 2, registry, decorations="psi")
    info = _relabelling_orbit.cache_info()
    classes, tables = _searched(report, registry)
    assert (len(classes), len(tables), len(classes & tables)) == (281, 124, 105)
    assert info.misses == len(classes | tables) == 300
    assert info.hits == 2 * 281 + 105


@pytest.mark.parametrize("ambient, classes", [((0, 6, 2), 281), ((1, 4, 2), 106)])
def test_orbit_key_builds_no_graph_with_repeated_labels(monkeypatch, ambient, classes):
    # the orbit key merges labels inside the search; no merged graph is
    # built, for the classes of E nor for the table classes the orbit
    # route partitions (19 and 263 searches beyond E's)
    built = []
    post_init = DecoratedGraph.__post_init__

    def counting(self):
        post_init(self)
        labels = [l.label for l in self.legs]
        built.append(len(set(labels)) < len(labels))

    monkeypatch.setattr(DecoratedGraph, "__post_init__", counting)
    _relabelling_orbit.cache_clear()
    registry = RelationRegistry()
    report = find_equations(*ambient, registry, decorations="psi")
    own, tables = _searched(report, registry)
    assert len(own) == classes
    assert _relabelling_orbit.cache_info().misses == len(own | tables) == {281: 300, 106: 369}[classes]
    assert built and sum(built) == 0


def test_find_072_golden():
    # the symmetrized (0,7,2) report: 4 orbits, rank 4, nullspace 0
    report = find_equations(0, 7, 2, RelationRegistry())
    digest = hashlib.sha256("\n".join(report.lines()).encode()).hexdigest()
    assert digest == "f49ff0cb8cca8a5be4b74b1dfcf7dc4fcce3bcdc778a90189308c7f0572b606d"


@pytest.mark.slow
def test_find_082_cli_golden(tmp_path):
    # the stdout of a cold `taut find -g 0 -n 8 -k 2` (symmetrized, psi),
    # about 90 s and 180 MB peak RSS on a 2-core VM
    env = {k: v for k, v in os.environ.items() if k != "TAUT_REGISTRY_DIR"}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from tautrel.cli import main; sys.exit(main())",
         "find", "-g", "0", "-n", "8", "-k", "2"],
        cwd=tmp_path, env=env, capture_output=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == "17199aa9c8119c84db34e26ac4c7a2a108948d7411b925ed7dafecd9fa062c71"
