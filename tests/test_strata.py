import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from tautrel.graphs import DecoratedGraph, End, Leg, Vertex, canonicalize, is_valid, sort_key, symmetrize
from tautrel.gwi import format_graph
from tautrel.strata import _one_edge_degenerations, enumerate_classes, orbits, stable_graphs
from tautrel.sums import FormalSum

from conftest import _apply_split, random_stable_graph, small_strata

SRC = Path(__file__).parents[1] / "src"

# (g, n, k, decorations, symmetrized points).  The partial point sets
# separate "only the symmetrized legs are interchangeable" from "every
# leg is".
ORBIT_CASES = [
    (0, 5, 1, "none", (1, 2, 3, 4, 5)),
    (0, 5, 2, "psi", (1, 2, 3, 4, 5)),
    (0, 6, 2, "psi_kappa", (1, 2, 3, 4, 5, 6)),
    (1, 3, 2, "psi_kappa", (1, 2, 3)),
    (1, 4, 2, "none", (1, 2, 3, 4)),
    (1, 4, 2, "psi", (1, 2, 3, 4)),
    (1, 4, 3, "psi", (2, 3, 4)),
    (0, 6, 3, "psi", (1, 2, 4, 5)),
    (2, 2, 2, "psi_kappa", (1, 2)),
    (1, 2, 3, "psi_kappa", (1, 2)),
    (2, 1, 3, "psi", (1,)),
]


def _orbit_reps_by_scan(classes, pts):
    """Reference orbit representatives: key every class by the smallest
    sort_key over all |pts|! relabellings, keep the smallest member."""
    reps = {}
    for graph in classes:
        orbit = min(
            sort_key(canonicalize(graph.relabel(dict(zip(pts, perm)))))
            for perm in itertools.permutations(pts)
        )
        if orbit not in reps or sort_key(graph) < sort_key(reps[orbit]):
            reps[orbit] = graph
    return sorted(reps.values(), key=sort_key)


@pytest.mark.parametrize("g,n,k,decorations,pts", ORBIT_CASES)
def test_orbit_reps_match_permutation_scan(g, n, k, decorations, pts):
    reps = enumerate_classes(g, n, k, decorations=decorations, symmetrize_points=pts)
    full = enumerate_classes(g, n, k, decorations=decorations)
    expected = _orbit_reps_by_scan(full, pts)
    assert [format_graph(r) for r in reps] == [format_graph(r) for r in expected]


@pytest.mark.parametrize("g,n,k,decorations,pts", ORBIT_CASES)
def test_orbits_partition_the_classes(g, n, k, decorations, pts):
    reps = enumerate_classes(g, n, k, decorations=decorations, symmetrize_points=pts)
    full = set(enumerate_classes(g, n, k, decorations=decorations))
    covered = set()
    for rep in reps:
        support = {graph for graph, _ in symmetrize(rep, pts).terms()}
        assert not support & covered, format_graph(rep)
        covered |= support
    assert covered == full


@pytest.mark.parametrize("g,n,k,decorations,pts", ORBIT_CASES)
def test_weighted_orbits_equal_symmetrize(g, n, k, decorations, pts):
    # orbit-stabiliser: each member is |pts|!/|orbit| of the relabellings
    full = enumerate_classes(g, n, k, decorations=decorations)
    groups = orbits(full, pts)
    weight = math.factorial(len(pts))
    assert [o[0] for o in groups] == enumerate_classes(g, n, k, decorations=decorations, symmetrize_points=pts)
    for orbit in groups:
        assert [sort_key(m) for m in orbit] == sorted(sort_key(m) for m in orbit)
        weighted = FormalSum([(m, Fraction(weight, len(orbit))) for m in orbit])
        assert weighted == symmetrize(orbit[0], pts), format_graph(orbit[0])


def test_unknown_symmetrize_points_refused():
    with pytest.raises(ValueError, match=r"unknown external labels \[9\]"):
        enumerate_classes(0, 5, 1, symmetrize_points={1, 9})
    with pytest.raises(ValueError, match=r"unknown external labels \[6, 7\]"):
        orbits(enumerate_classes(0, 5, 2, decorations="psi"), (7, 2, 6))


def test_unknown_symmetrize_points_refused_outside_codimension_range():
    # a codimension with no classes still checks the points against 1..n
    with pytest.raises(ValueError, match=r"unknown external labels \[9\]"):
        enumerate_classes(0, 5, 9, symmetrize_points={9})
    assert enumerate_classes(0, 5, 9, symmetrize_points={1, 5}) == []


def _split_with_edge(g, v, g1, g2, k1, k2, side_of):
    split = _apply_split(
        g, v, g1, g2, k1, k2, side_of,
        (Leg(0, -1, 0), Leg(0, -2, 0)),
    )
    # replace the two placeholder legs by a connecting edge
    legs = tuple(l for l in split.legs if l.label > 0)
    (a,) = [l for l in split.legs if l.label == -1]
    (b,) = [l for l in split.legs if l.label == -2]
    edges = split.edges + ((End(a.vertex, 0), End(b.vertex, 0)),)
    return DecoratedGraph(split.vertices, legs, edges)


def _one_edge_degenerations_unpruned(g):
    """Reference: every one-edge degeneration built, then filtered; of
    each split and its mirror only the one keeping v's first slot at v
    (with no slots, the smaller genus) is kept, canonicalised."""
    out = []
    for v in range(g.n_vertices):
        vert = g.vertices[v]
        if vert.genus >= 1:
            verts = list(g.vertices)
            verts[v] = Vertex(vert.genus - 1, vert.kappa)
            edges = list(g.edges) + [(End(v, 0), End(v, 0))]
            out.append(canonicalize(DecoratedGraph(tuple(verts), g.legs, tuple(edges))))
        slots = [("leg", k) for k, leg in enumerate(g.legs) if leg.vertex == v]
        slots += [("end", e) for e in g.ends_at(v)]
        first = slots[0] if slots else None  # the first of the vertex's slots
        for g1 in range(vert.genus + 1):
            if first is None and g1 > vert.genus - g1:
                continue
            for sides in itertools.product((0, 1), repeat=len(slots)):
                side_of = dict(zip(slots, sides))
                if first is not None and side_of[first] != 0:
                    continue
                for kappa_sides in itertools.product((0, 1), repeat=len(vert.kappa)):
                    k1 = tuple(a for a, s in zip(vert.kappa, kappa_sides) if s == 0)
                    k2 = tuple(a for a, s in zip(vert.kappa, kappa_sides) if s == 1)
                    split = _split_with_edge(g, v, g1, vert.genus - g1, k1, k2, side_of)
                    if is_valid(split):
                        out.append(canonicalize(split))
    return out


def test_pruned_degenerations_match_reference():
    rng = random.Random(5)
    graphs = small_strata() + [random_stable_graph(rng) for _ in range(200)]
    for graph in graphs:
        assert Counter(_one_edge_degenerations(graph)) == Counter(_one_edge_degenerations_unpruned(graph)), graph


def test_stable_graphs_golden():
    # the byte-exact stable graphs of five genus-2 and genus-3 ambients
    # with at most two legs, at every edge count; (2,0) and (3,0) start
    # from a vertex with no slots, which keeps the smaller genus of a split
    digest = hashlib.sha256()
    for g, n in [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]:
        for e in range(3 * g - 3 + n + 1):
            digest.update(("%d %d %d\n" % (g, n, e)).encode())
            for c in stable_graphs(g, n, e):
                digest.update((format_graph(c) + "\n").encode())
    assert digest.hexdigest() == "a900b0b5950330ba60d07007dee3c4c0750e3799dc567e2e0e41975488378067"


def test_enumeration_golden():
    # the byte-exact class lists of the decoration enumerator, nine
    # ambients in each decoration mode
    digest = hashlib.sha256()
    for g, n, k in [(0, 5, 2), (0, 6, 2), (0, 6, 3), (1, 3, 2), (1, 4, 2), (1, 4, 3),
                    (2, 2, 2), (1, 2, 3), (2, 1, 3)]:
        for decorations in ("none", "psi", "psi_kappa"):
            digest.update(("%d %d %d %s\n" % (g, n, k, decorations)).encode())
            for c in enumerate_classes(g, n, k, decorations=decorations):
                digest.update((format_graph(c) + "\n").encode())
    assert digest.hexdigest() == "51f06f609ee46bc25a2049fce3b16f3d61512e2e9757d95231c48e92b33e61aa"


def _run_cli(argv, cwd, hashseed, code=0):
    env = {k: v for k, v in os.environ.items() if k != "TAUT_REGISTRY_DIR"}
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from tautrel.cli import main; sys.exit(main())", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    return proc.stdout


def test_output_independent_of_hash_seed(tmp_path):
    runs = []
    for hashseed in (1, 2):
        cwd = tmp_path / ("seed%d" % hashseed)
        cwd.mkdir()
        listing = _run_cli(["enumerate", "-g", "0", "-n", "6", "-k", "2", "--symmetrize"], cwd, hashseed)
        report = _run_cli(["find", "-g", "1", "-n", "4", "-k", "2", "--boundary-only", "--out", "cand"], cwd, hashseed)
        psi = _run_cli(["find", "-g", "1", "-n", "4", "-k", "2", "--out", "psi"], cwd, hashseed)
        check = _run_cli(["check", "psi/candidate_g1n4k2_1.gwi"], cwd, hashseed)
        # a sum that is not invariant: RESIDUAL and COORD lines
        (cwd / "noninvariant.gwi").write_text("<1^1 2 3 e0>_0 <4 e0>_1 + <1 2 3 e0>_0 <4^1 e0>_1\n")
        residual = _run_cli(["check", "noninvariant.gwi"], cwd, hashseed, code=1)
        reduced = _run_cli(["reduce", "noninvariant.gwi"], cwd, hashseed)
        files = {p.relative_to(cwd): p.read_bytes() for d in ("cand", "psi") for p in sorted((cwd / d).iterdir())}
        runs.append((listing, report, psi, check, residual, reduced, files))
    assert len(runs[0][-1]) == 2, "a find wrote no candidate file"
    assert "RESIDUAL" in runs[0][4] and "COORD" in runs[0][4]
    assert runs[0] == runs[1]

