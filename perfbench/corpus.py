"""Inputs and output checks of the operator-corpus workload."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from tautrel.graphs import DecoratedGraph, End, Leg, Vertex, is_valid
from tautrel.gwi import format_sum

L_VALUES = (1, 2)
SHAPE_SEED = 20060418
MAX_HALF_EDGES = 8
MAX_GENUS = 2


def random_graph(rng: random.Random):
    """A connected valid decorated graph with external labels 1..n,
    total genus <= MAX_GENUS, at most MAX_HALF_EDGES half-edges, psi
    powers and (sometimes) one kappa factor."""
    while True:
        nv = rng.choice((1, 1, 1, 2, 2, 3))
        genera = [rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(nv)]
        n_legs = rng.randint(1, 5)
        n_edges = rng.randint(0, 3)
        if n_legs + 2 * n_edges > MAX_HALF_EDGES:
            continue
        budget = rng.choice((0, 0, 1, 1, 2))
        legs = []
        for label in range(1, n_legs + 1):
            p = rng.randint(0, budget)
            budget -= p
            legs.append(Leg(rng.randrange(nv), label, p))
        edges = []
        for _ in range(n_edges):
            p = rng.randint(0, budget)
            budget -= p
            edges.append((End(rng.randrange(nv), p), End(rng.randrange(nv), 0)))
        kappas = [()] * nv
        if rng.random() < 0.3:
            kappas[rng.randrange(nv)] = (rng.choice((1, 1, 2)),)
        g = DecoratedGraph(
            tuple(Vertex(x, k) for x, k in zip(genera, kappas)), tuple(legs), tuple(edges)
        )
        if g.is_connected() and g.total_genus() <= MAX_GENUS and is_valid(g):
            return g


def make_corpus(seed: int, size: int) -> list[DecoratedGraph]:
    """``size`` graphs drawn by ``random_graph`` from a fixed generator
    seed, each with its external labels permuted at random by
    ``seed``.  The work per corpus is then the same for every seed,
    while the outputs differ."""
    shapes = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        g = random_graph(shapes)
        labels = list(g.external_labels())
        out.append(g.relabel(dict(zip(labels, rng.sample(labels, len(labels))))))
    return out


def _new_labels(g: DecoratedGraph) -> tuple[int, int]:
    used = set(g.external_labels())
    free = [x for x in range(1, len(used) + 3) if x not in used]
    return free[0], free[1]


def check_image(g: DecoratedGraph, l: int, image) -> list[str]:
    """Problems with one operator image: every term must have
    dimension dim(g) - l, the image must vanish when k + l > 3g-3+n,
    and swapping the two new labels must multiply it by (-1)**(l-1)."""
    problems = []
    d = g.dimension()
    genus, n = g.ambient()
    for term, _ in image.terms():
        if term.dimension() != d - l:
            problems.append("term of dimension %d, want %d" % (term.dimension(), d - l))
            break
    if g.codimension() + l > 3 * genus - 3 + n and not image.is_zero():
        problems.append("nonzero image past the dimension bound")
    i, j = _new_labels(g)
    if image.relabel({i: j, j: i}) != image.scale(Fraction((-1) ** (l - 1))):
        problems.append("wrong parity under the swap of %d and %d" % (i, j))
    return problems


def images_digest(images) -> str:
    """sha256 of the gwi text of a sequence of sums, one per line."""
    h = hashlib.sha256()
    for image in images:
        h.update(format_sum(image).encode())
        h.update(b"\n")
    return h.hexdigest()
