"""Known tautological relations and reduction to normal form.

Two mechanisms cooperate:

* deterministic rewrites that eliminate every psi decoration sitting
  on a genus-0 or genus-1 vertex, trading it for boundary terms: at
  genus 0, psi at slot ref is the boundary expression D(ref | b,c),
  the sum of all splittings keeping ref apart from two reference
  slots b, c (topological recursion); at genus 1 the separating
  splittings plus 1/24 of the nonseparating term;

* exact linear algebra over the psi-free boundary strata of each
  ambient, modulo the span of the four-point relations
  D(a,b | c,d) = D(a,c | b,d) of genus-0 vertices and all their
  derivatives (hosts ranging over the strata of the ambient); a
  registry directory keeps each ambient's echelon for later processes.

Both boundary expressions come from one splitting kernel.

A possibly disconnected class decomposes into connected components;
the basis of a product ambient is the product of the per-factor bases
and a normal form is a sparse vector indexed by (component ambient,
basis element) tuples.  Each component is relabelled
order-preservingly to 1..m, which keeps every choice the psi rewrites
make, and its expansion is reduced once per such class and memoised.

``RelationRegistry.normal_coords`` is the one coordinate engine.  It
reduces the image of a sum under a map that commutes with renaming
labels (the identity, or an operator r_l): the terms fall into
relabelling classes by the orbits' memoised key, the map runs on the
first term of each, and every member renames that image's components by
the permutation its renaming induces on their labels.  A refusal reduces
the merged image term by term in sort_key order: the first term lacking
data refuses, whatever the input order, and a lacking term that cancels
in the merge does not.

Supported inductive range: genus-0 factors of any size, genus-1
factors generated completely for at most three special points.  A
genus-1 factor with four or more points in codimension >= 2 needs
relation data beyond what this module can generate (the first new
genus-1 equation lives exactly there); such relations may be supplied
as imported registry files, otherwise the registry refuses with
``InductiveDataMissing`` rather than reduce against incomplete data.
"""

from __future__ import annotations

import itertools
import math
import os
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .echelon import Echelon
from .graphs import (
    DecoratedGraph,
    End,
    Leg,
    Vertex,
    _kappa_splits,
    _relabelling_orbit,
    _rewire,
    _side_assignments,
    _side_ok,
    _slots_at,
    automorphism_count,
    canonicalize,
    disjoint_union,
    is_valid,
    sort_key,
)
from .strata import enumerate_classes
from .sums import FormalSum, SymbolicSum, _GraphSum


class InductiveDataMissing(RuntimeError):
    """Raised when a reduction would need relations outside the
    supported (or imported) inductive range."""

    def __init__(self, ambient, why=""):
        self.ambient = ambient
        msg = "inductive data missing for (g,n,k)=%s" % (ambient,)
        if why:
            msg += ": " + why
        super().__init__(msg)


# ---------------------------------------------------------------------------
# vertex splitting shared by the rewrites and the four-point relations


def _linked_splits(g: DecoratedGraph, v: int, genera, side0, side1, dec=None):
    """The valid splittings of vertex v into two vertices of the given
    genera joined by a new edge.

    ``_side_assignments`` keeps the ``side0`` slots at v and moves the
    ``side1`` slots to the new vertex, the others going either way;
    kappa factors distribute in all ways, the psi power at slot ``dec``
    drops by one, and unstable halves are skipped unbuilt."""
    nb = g.n_vertices
    before, after = g.vertices[:v], g.vertices[v + 1 :]
    psi = {} if dec is None else {dec: -1}
    link = ((End(v, 0), End(nb, 0)),)
    out = []
    for move, count, _ in _side_assignments(g, v, side0, side1):
        # each half keeps its slots plus one end of the new edge
        if _side_ok(genera[0], count[0] + 1) and _side_ok(genera[1], count[1] + 1):
            for k1, k2 in _kappa_splits(g.vertices[v].kappa):
                verts = before + (Vertex(genera[0], k1),) + after + (Vertex(genera[1], k2),)
                cand = _rewire(g, verts, move, psi, edges=link)
                if is_valid(cand):
                    out.append(cand)
    return out


# ---------------------------------------------------------------------------
# topological recursion rewrites


def _genus0_step(g: DecoratedGraph, v: int, ref, opposite=None) -> list[tuple[DecoratedGraph, Fraction]]:
    """One psi elimination at slot ``ref`` of the genus-0 vertex v.

    With reference slots b, c (by default the two smallest other
    special points on the vertex) the psi class at the slot equals the
    sum of all boundary splittings separating the slot from b and c;
    the psi power drops by one and kappa factors distribute over the
    halves.  The result is independent of the reference choice modulo
    the four-point relations, which is tested rather than assumed.
    """
    if opposite is None:
        opposite = sorted(s for s, _ in _slots_at(g, v) if s != ref)[:2]
    return [(cand, Fraction(1)) for cand in _linked_splits(g, v, (0, 0), (ref,), opposite, ref)]


def _genus1_step(g: DecoratedGraph, v: int, ref) -> list[tuple[DecoratedGraph, Fraction]]:
    """One psi elimination at slot ``ref`` of the genus-1 vertex v.

    The class splits into 1/24 times the nonseparating degeneration
    (genus drops, a loop appears) plus all separating splittings that
    carry the slot and at least one more special point to a new
    genus-0 vertex.
    """
    vert = g.vertices[v]
    verts = g.vertices[:v] + (Vertex(vert.genus - 1, vert.kappa),) + g.vertices[v + 1 :]
    loop = _rewire(g, verts, psi={ref: -1}, edges=((End(v, 0), End(v, 0)),))
    out = [(loop, Fraction(1, 24))] if is_valid(loop) else []
    return out + [(cand, Fraction(1)) for cand in _linked_splits(g, v, (0, 1), (ref,), (), ref)]


def _first_psi_slot(g: DecoratedGraph, genus: int):
    """(vertex, slot) of the first psi-decorated slot on a vertex of
    the given genus, or None."""
    for v, vert in enumerate(g.vertices):
        if vert.genus == genus:
            for slot, p in sorted(_slots_at(g, v)):
                if p > 0:
                    return v, slot
    return None


def _refuse_psi_above_genus_one(g: DecoratedGraph):
    """Refuse psi on a genus >= 2 vertex, naming its component's ambient."""
    for v, vert in enumerate(g.vertices):
        if vert.genus >= 2 and any(p > 0 for _, p in _slots_at(g, v)):
            sub = g.subgraph(next(c for c in g.components() if v in c))
            amb = (sub.total_genus(), len(sub.legs), sub.codimension())
            raise InductiveDataMissing(amb, "psi on a genus-%d vertex" % vert.genus)


@lru_cache(maxsize=None)
def psi_free_expansion(g: DecoratedGraph) -> tuple[tuple[DecoratedGraph, Fraction], ...]:
    """Rewrite a valid graph into psi-free boundary classes.

    Genus-1 slots are eliminated before genus-0 slots (the genus-1
    step creates genus-0 descendants, never the other way round).
    Raises InductiveDataMissing on a psi power carried by a vertex of
    genus >= 2.
    """
    _refuse_psi_above_genus_one(g)
    hit = _first_psi_slot(g, 1)
    step = _genus1_step if hit is not None else _genus0_step
    if hit is None:
        hit = _first_psi_slot(g, 0)
    if hit is None:
        return ((canonicalize(g), Fraction(1)),)
    acc: dict[DecoratedGraph, Fraction] = {}
    for piece, frac in step(g, *hit):
        for final, sub in psi_free_expansion(canonicalize(piece)):
            acc[final] = acc.get(final, Fraction(0)) + frac * sub
    return tuple(sorted(((k, c) for k, c in acc.items() if c), key=lambda t: sort_key(t[0])))


def genus0_trr_rewrite(e):
    """Trade every psi power on a genus-0 vertex for boundary terms.

    A term with psi on a genus-0 vertex becomes its whole
    :func:`psi_free_expansion`, so psi on a genus-1 vertex of the same
    term goes too, and psi on a vertex of genus >= 2 raises
    InductiveDataMissing; every other term is left alone.
    """
    return _expand_psi_terms(e, 0)


def genus1_trr_rewrite(e):
    """Eliminate psi powers on genus-1 vertices (coefficient 1/24 on
    the nonseparating term), then clean the genus-0 descendants."""
    return _expand_psi_terms(e, 1)


def _expand_psi_terms(e, genus: int):
    """``e`` with each term that carries psi on a vertex of the given
    genus replaced by its psi-free expansion."""
    out = []
    for graph, coeff in e.terms():
        if _first_psi_slot(graph, genus) is None:
            out.append((graph, coeff))
            continue
        for piece, frac in psi_free_expansion(graph):
            out.append((piece, coeff * frac))
    return type(e)(out)


# ---------------------------------------------------------------------------
# four-point (WDVV) relations and derivatives


def wdvv_expand(g: DecoratedGraph, v: int, pair_a, pair_b) -> FormalSum:
    """Boundary expression separating pair_a from pair_b at a genus-0
    vertex: the sum of all splittings with pair_a on one half and
    pair_b on the other, remaining slots and kappa factors distributed
    in all ways."""
    return FormalSum([(cand, Fraction(1)) for cand in _linked_splits(g, v, (0, 0), pair_a, pair_b)])


def wdvv_relations(host: DecoratedGraph, vertex: int) -> list[FormalSum]:
    """Relations from one host stratum and one genus-0 vertex.

    Each 4-subset of the slots on the vertex contributes the two
    independent differences of the three 2|2 boundary expressions.
    """
    if host.vertices[vertex].genus != 0:
        raise ValueError("marked vertex must have genus 0")
    refs = sorted(s for s, _ in _slots_at(host, vertex))
    if len(refs) < 4:
        raise ValueError("marked vertex must have valence >= 4")
    out = []
    for (a, b, c, d) in itertools.combinations(refs, 4):
        e1 = wdvv_expand(host, vertex, (a, b), (c, d))
        e2 = wdvv_expand(host, vertex, (a, c), (b, d))
        e3 = wdvv_expand(host, vertex, (a, d), (b, c))
        out.append(e1 - e2)
        out.append(e2 - e3)
    return out


# ---------------------------------------------------------------------------
# induced equations


def induce_by_gluing(rel, a: int, b: int):
    """Glue external points a and b of every term into a node."""
    cls = type(rel)
    out = []
    for graph, coeff in rel.terms():
        la = [l for l in graph.legs if l.label == a]
        lb = [l for l in graph.legs if l.label == b]
        if not la or not lb:
            raise ValueError("labels %d, %d not on every term" % (a, b))
        (la,), (lb,) = la, lb
        legs = tuple(l for l in graph.legs if l.label not in (a, b))
        edges = graph.edges + ((End(la.vertex, la.psi), End(lb.vertex, lb.psi)),)
        out.append((DecoratedGraph(graph.vertices, legs, edges), coeff))
    return cls(out)


def induce_by_forgetful(rel, new_label: int | None = None):
    """Pull a relation back along the map forgetting one extra point.

    Comparison rules, exact on decorated strata: the new point is
    inserted at every vertex; at the insertion vertex each kappa
    monomial expands with alternating psi powers on the new point
    (kappa_a pulls back to kappa_a - psi_new^a); every slot carrying
    psi^p contributes one correction term where the slot and the new
    point sit on a three-valent genus-0 bubble and the attaching node
    keeps psi^(p-1), with coefficient -1.
    """
    cls = type(rel)
    if rel.is_zero():
        return cls()
    labels = set()
    for graph, _ in rel.terms():
        labels.update(graph.external_labels())
    if new_label is None:
        new_label = max(labels, default=0) + 1
    if new_label in labels:
        raise ValueError("label %d already in use" % new_label)
    out = []
    for graph, coeff in rel.terms():
        for u, vert in enumerate(graph.vertices):
            for kept, dropped in _kappa_splits(vert.kappa):
                verts = graph.vertices[:u] + (Vertex(vert.genus, kept),) + graph.vertices[u + 1 :]
                legs = graph.legs + (Leg(u, new_label, sum(dropped)),)
                out.append((DecoratedGraph(verts, legs, graph.edges), coeff * Fraction((-1) ** len(dropped))))
        # the bubble: a new genus-0 vertex carrying the slot and the new point
        nb = graph.n_vertices
        bubble = graph.vertices + (Vertex(0),)
        for v in range(graph.n_vertices):
            for slot, p in _slots_at(graph, v):
                if p < 1:
                    continue
                node = ((End(v, p - 1), End(nb, 0)),)
                pulled = _rewire(graph, bubble, {slot: nb}, {slot: -p}, (Leg(nb, new_label, 0),), node)
                out.append((pulled, coeff * -1))
    return cls([(g, c) for g, c in out if is_valid(g)])


# ---------------------------------------------------------------------------
# ambient tables and the registry


@dataclass(frozen=True)
class RelationBasis:
    """Deterministic basis data for one connected ambient."""

    ambient: tuple[int, int, int]
    classes: tuple[DecoratedGraph, ...]
    basis: tuple[DecoratedGraph, ...]
    rref_rows: tuple[tuple[tuple[int, Fraction], ...], ...]


class _Table:
    """The classes of one connected ambient and the echelon of its
    relation rows, whose columns are class indices.  The basis is the
    classes at the columns that are not pivots."""

    def __init__(self, ambient, classes):
        self.ambient = ambient
        self.classes = classes
        self.incomplete = False
        self.index = {g: i for i, g in enumerate(classes)}
        self.echelon = Echelon()


class NormalForm:
    """Sparse coordinates of a class in the product basis.

    Keys are sorted tuples, one entry per connected component:
    (genus, external labels, codimension, class index), where the
    class index names a basis class of the component's ambient.
    """

    def __init__(self, coords, registry=None):
        self.coords = {k: c for k, c in coords.items() if c}
        self._registry = registry

    def is_zero(self) -> bool:
        return not self.coords

    def items(self):
        return sorted(self.coords.items())

    @staticmethod
    def key_ambient(key) -> str:
        """The ambient of a key: "(g,n,k)" per component, joined by "x"."""
        return "x".join("(%d,%d,%d)" % (g, len(labels), k) for g, labels, k, _ in key)

    def basis_class(self, key) -> DecoratedGraph:
        """The product of the basis classes that ``key`` names."""
        if self._registry is None:
            raise ValueError("normal form not attached to a registry")
        return disjoint_union(self._registry._basis_graph(part) for part in key)

    def as_formal_sum(self) -> FormalSum:
        return FormalSum([(self.basis_class(key), coeff) for key, coeff in self.items()])

    def __eq__(self, other):
        return isinstance(other, NormalForm) and self.coords == other.coords

    def __repr__(self):
        return "NormalForm(%d coordinates)" % len(self.coords)


class RelationRegistry:
    """Per-ambient relation data with optional on-disk persistence.

    ``root`` (or the TAUT_REGISTRY_DIR environment variable) points at
    a directory of gwi files named g<g>n<n>k<k>.gwi.  Files found
    there are loaded and merged with the generated relations; an
    ambient without a file gets one holding its generated relations on
    first use, whether or not they are complete.  A header line
    "# convention: automorphism-weighted" makes the loader divide each
    coefficient by the automorphism count of its graph; the native
    convention is "glued-half-edges".

    Each connected ambient's table (classes, relation echelon and
    the incomplete flag) is also kept in tables/g<g>n<n>k<k>.json,
    stamped with a CRC of its gwi file chained onto one of this
    package's sources, and a later registry loads it instead of
    rebuilding.  A table file that does not parse, has the wrong shape
    or a stale stamp, or breaks an echelon invariant is a miss: the
    table is rebuilt and rewritten.  Writes are best-effort.

    Tables and relation lists are cached per ambient; generation is a
    pure function of the ambient, so concurrent reads are safe and a
    duplicated cache fill is idempotent.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            root = os.environ.get("TAUT_REGISTRY_DIR") or None
        self.root = Path(root) if root else None
        self._tables: dict[tuple[int, int, int], _Table] = {}
        self._relations: dict[tuple[int, int, int], list[FormalSum]] = {}
        self._extra: dict[tuple[int, int, int], list[FormalSum]] = {}
        # (normalised component, allow_incomplete) -> (genus, codim), coords
        self._factors: dict[tuple[DecoratedGraph, bool], tuple] = {}

    # -- relation generation -------------------------------------------

    def relations(self, g: int, n: int, k: int) -> list[FormalSum]:
        key = (g, n, k)
        if key not in self._relations:
            generated = _generate_wdvv(g, n, k)
            loaded = self._load_file(g, n, k)
            if loaded is None and self.root is not None:
                self._save_file(g, n, k, generated)
            # relations found on disk beyond the generated set count as
            # imported inductive data; the file we write back ourselves
            # must not pass for an import
            known = {_relation_fingerprint(r) for r in generated}
            extra = [
                r for r in (loaded or []) if _relation_fingerprint(r) not in known
            ]
            self._extra[key] = extra
            self._relations[key] = generated + extra
        return self._relations[key]

    def imported_relations(self, g: int, n: int, k: int) -> list[FormalSum]:
        self.relations(g, n, k)
        return self._extra[(g, n, k)]

    def _path(self, g, n, k, folder="", suffix="gwi") -> Path:
        return self.root / folder / ("g%dn%dk%d.%s" % (g, n, k, suffix))

    def _load_file(self, g, n, k):
        if self.root is None:
            return None
        path = self._path(g, n, k)
        if not path.exists():
            return None
        from .gwi import read_file

        comments, rels = read_file(path)
        convention = "glued-half-edges"
        for line in comments:
            if "convention:" in line:
                convention = line.split("convention:", 1)[1].strip()
        if convention == "automorphism-weighted":
            rels = [from_automorphism_convention(r) for r in rels]
        elif convention != "glued-half-edges":
            raise ValueError("unknown convention %r in %s" % (convention, path))
        return rels

    def _save_file(self, g, n, k, rels):
        from .gwi import format_sum

        self.root.mkdir(parents=True, exist_ok=True)
        lines = ["# convention: glued-half-edges", "# provenance: generated"]
        lines += [format_sum(r) for r in rels]
        _write_atomic(self._path(g, n, k), "\n".join(lines) + "\n")

    # -- table files -------------------------------------------------------

    def _stamp(self, key):
        """The CRC of the ambient's gwi file chained onto the sources'
        CRC; None without a root, the sources or a readable file."""
        if self.root is None:
            return None
        try:
            digest = _source_digest()
            return None if digest is None else zlib.crc32(self._path(*key).read_bytes(), digest)
        except OSError:
            return None

    def _load_table(self, key, stamp):
        """The table stored under ``stamp``, or None on any miss: the
        file is the registry's own cache, so nothing in it is an error."""
        import json

        try:
            data = json.loads(self._path(*key, "tables", "json").read_text())
            if data["stamp"] != stamp:
                return None
            # DecoratedGraph rebuilds its Vertex, Leg and End values from lists
            table = _Table(key, tuple(DecoratedGraph(*fields) for fields in data["classes"]))
            table.incomplete = data["incomplete"]
            rows = {p: {c: Fraction(x) for c, x in row} for p, row in data["rows"]}
            table.echelon = Echelon(rows.values())
            # re-adding reduced echelon rows reproduces them exactly: each
            # pivot is its row's smallest column, 1 there and in no other row
            n = len(table.classes)
            valid = isinstance(table.incomplete, bool) and len(table.index) == n
            valid = valid and len(rows) == len(data["rows"]) and dict(table.echelon.rows()) == rows
            return table if valid and all(0 <= c < n for r in rows.values() for c in r) else None
        except (OSError, ValueError, TypeError, LookupError, ArithmeticError):
            return None

    def _save_table(self, table, stamp) -> None:
        """Write the table under ``stamp``; a failed write costs a rebuild."""
        import json

        rows = [[p, [[c, str(x)] for c, x in sorted(row.items())]] for p, row in table.echelon.rows()]
        classes = [[[(v.genus, v.kappa) for v in c.vertices], c.legs, c.edges] for c in table.classes]
        data = {"stamp": stamp, "incomplete": table.incomplete, "classes": classes, "rows": rows}
        path = self._path(*table.ambient, "tables", "json")
        try:
            path.parent.mkdir(exist_ok=True)
            _write_atomic(path, json.dumps(data, separators=(",", ":")) + "\n")
        except OSError:
            pass

    # -- ambient support --------------------------------------------------

    def _table(self, g: int, m: int, k: int, allow_incomplete: bool = False) -> _Table:
        """Reduction table for one connected ambient.

        The generated relations are complete for genus-0 ambients and
        for genus-1 ambients with at most three points; a genus-1
        ambient with more points is complete only when imported
        relations supply the missing equations.  With
        ``allow_incomplete`` the table is built from whatever the
        registry has (the induced relations), which is the right
        quotient when testing whether a combination is already a
        consequence of inductive data.
        """
        key = (g, m, k)
        table = self._tables.get(key)
        if table is None:
            if g >= 2:
                raise InductiveDataMissing(key, "genus >= 2 factor")
            stamp = self._stamp(key)
            table = None if stamp is None else self._load_table(key, stamp)
            if table is None:
                table = _Table(key, tuple(enumerate_classes(g, m, k, decorations="none")))
                for rel in self.relations(g, m, k):
                    table.echelon.add(_expansion_row(rel.terms(), table.index, key))
                table.incomplete = (
                    g == 1 and m >= 4 and k >= 2 and not self.imported_relations(g, m, k)
                )
                # the gwi file may be new; one that changed meanwhile gets no table
                built = self._stamp(key)
                if built is not None and stamp in (None, built):
                    self._save_table(table, built)
            self._tables[key] = table
        if table.incomplete and not allow_incomplete:
            raise InductiveDataMissing(
                key, "genus-1 factor with %d points needs imported relations" % m
            )
        return table

    # -- normal forms ------------------------------------------------------

    def normal_coords(self, terms, allow_incomplete: bool = False, image=None):
        """The coordinates of the image of a sum, by default of the sum
        itself (the engine the module docstring describes).  ``terms``
        are (graph, coefficient) pairs in any order, with any
        coefficient supporting addition and Fraction scaling;
        ``image(graph)`` gives (graph, Fraction) pairs and must commute
        with renaming external labels, fixing every label it adds."""
        classes: dict = {}
        for graph, coeff in terms:
            key, slots = _relabelling_orbit(graph, graph.external_labels())
            classes.setdefault(key, []).append((graph, slots, coeff))
        renamed: dict = {}  # (normalised component, permutation) -> normalised component

        def lift(labels, comp, sigma):
            new = [sigma.get(a, a) for a in labels]
            ordered = tuple(sorted(new))
            if new != list(ordered):
                rank = {b: r for r, b in enumerate(ordered, 1)}
                tau = tuple(rank[b] for b in new)
                if (comp, tau) not in renamed:
                    renamed[comp, tau] = canonicalize(comp.relabel(dict(enumerate(tau, 1))))
                comp = renamed[comp, tau]
            return ordered, comp

        image_of = image or (lambda graph: ((graph, Fraction(1)),))
        vectors: dict = {}  # coefficient -> summed rational coordinates of its members
        try:
            for members in classes.values():
                rep, rep_slots, _ = members[0]
                split = []
                for term, c in image_of(rep):
                    term = canonicalize(term)
                    _refuse_psi_above_genus_one(term)
                    split.append((term.normalised_components(), c))
                for _, slots, coeff in members:
                    sigma = dict(zip(rep_slots, slots))
                    vec = vectors.setdefault(coeff, {})
                    for comps, c in split:
                        lifted = [lift(labels, comp, sigma) for labels, comp in comps]
                        memo = [self._factors.get((comp, allow_incomplete)) for _, comp in lifted]
                        # an empty expansion makes the term zero before any
                        # table can refuse; a memoised component has a nonempty one
                        if not all(m or psi_free_expansion(comp) for m, (_, comp) in zip(memo, lifted)):
                            continue
                        factors = []
                        for m, (labels, comp) in zip(memo, lifted):
                            (g, k), coords = m or self._component_coords(comp, allow_incomplete)
                            factors.append([((g, labels, k, b), x) for b, x in coords])
                        for combo in itertools.product(*factors):
                            key = tuple(sorted(part for part, _ in combo))
                            vec[key] = vec.get(key, 0) + c * math.prod(x for _, x in combo)
        except InductiveDataMissing:  # equal images refuse alike, whatever the order
            members = [(graph, coeff) for ms in classes.values() for graph, _, coeff in ms]
            if image is None and len(members) == 1:
                raise
            whole = _GraphSum((t, coeff * c) for graph, coeff in members for t, c in image_of(graph))
            vectors = {}
            for graph, coeff in whole.terms():
                vec = vectors.setdefault(coeff, {})
                for key, x in self.normal_coords([(graph, Fraction(1))], allow_incomplete).items():
                    vec[key] = vec.get(key, 0) + x
        out: dict = {}
        for coeff, vec in vectors.items():
            for key, x in vec.items():
                out[key] = out[key] + coeff * x if key in out else coeff * x
        return {k: c for k, c in out.items() if c}

    def _component_coords(self, comp: DecoratedGraph, allow_incomplete: bool):
        """(genus, codimension) and the sorted (class index, coefficient)
        pairs of the reduced label-normalised canonical connected graph;
        memoised on success, so a refusal is raised every time."""
        key = (comp, allow_incomplete)
        if key not in self._factors:
            amb = (comp.total_genus(), len(comp.legs), comp.codimension())
            table = self._table(*amb, allow_incomplete=allow_incomplete)
            row = _expansion_row(((comp, 1),), table.index, amb)
            self._factors[key] = ((amb[0], amb[2]), sorted(table.echelon.reduce(row).items()))
        return self._factors[key]

    def normal_form(self, e, allow_incomplete: bool = False) -> NormalForm:
        if isinstance(e, SymbolicSum):
            raise TypeError("use normal_coords for symbolic sums")
        return NormalForm(self.normal_coords(e.items(), allow_incomplete), self)

    def is_zero_modulo(self, e, allow_incomplete: bool = False) -> bool:
        return not self.normal_coords(e.items(), allow_incomplete)

    def _basis_graph(self, part) -> DecoratedGraph:
        g, labels, k, idx = part
        graph = self._table(g, len(labels), k, allow_incomplete=True).classes[idx]
        back = {i + 1: lab for i, lab in enumerate(labels)}
        return graph.relabel(back)

    def span_basis(self, classes, allow_incomplete: bool = False):
        """Basis of the span of the given classes modulo the registry
        relations.

        Classes are scanned from the last to the first and kept while
        they grow the rank, so the earlier classes end up expressed in
        terms of the later ones.
        """
        echelon = Echelon()
        chosen = []
        for cls in reversed(list(classes)):
            if isinstance(cls, DecoratedGraph):
                cls = FormalSum.single(cls)
            if echelon.add(self.normal_coords(cls.items(), allow_incomplete)):
                chosen.append(cls)
        return list(reversed(chosen))

    def relation_basis(
        self, g: int, n: int, k: int, allow_incomplete: bool = False
    ) -> RelationBasis:
        """Ordered basis of the connected ambient and the RREF of the
        relation span over the full class list."""
        table = self._table(g, n, k, allow_incomplete=allow_incomplete)
        rows = table.echelon.rows()
        pivots = {col for col, _ in rows}
        return RelationBasis(
            ambient=(g, n, k),
            classes=table.classes,
            basis=tuple(c for i, c in enumerate(table.classes) if i not in pivots),
            rref_rows=tuple(tuple(sorted(row.items())) for _, row in rows),
        )


def _expansion_row(terms, index, ambient) -> dict:
    """The psi-free expansions of the (graph, coefficient) ``terms`` as
    one row over the classes ``index`` numbers; refuses a class outside."""
    row: dict = {}
    for term, coeff in terms:
        for flat, frac in psi_free_expansion(term):
            if flat not in index:
                raise InductiveDataMissing(ambient, "class outside the ambient: %s" % (flat,))
            row[index[flat]] = row.get(index[flat], 0) + coeff * frac
    return row


def _generate_wdvv(g: int, n: int, k: int) -> list[FormalSum]:
    """All derivatives of the four-point relation inside the ambient:
    hosts range over the psi-free strata of codimension k-1, the
    marked vertex over genus-0 vertices of valence >= 4."""
    if k < 1:
        return []
    if 2 * g - 2 + n <= 0:
        return []
    from .strata import stable_graphs

    rels: list[FormalSum] = []
    seen = set()
    for host in stable_graphs(g, n, k - 1):
        for v in range(host.n_vertices):
            if host.vertices[v].genus != 0 or host.valence(v) < 4:
                continue
            for rel in wdvv_relations(host, v):
                if rel.is_zero():
                    continue
                key = _relation_fingerprint(rel)
                if key not in seen:
                    seen.add(key)
                    rels.append(rel)
    return rels


def _write_atomic(path: Path, text: str) -> None:
    """Write beside the target and rename over it, so a crash or a
    concurrent writer never leaves a truncated file to be loaded."""
    tmp = path.with_name(".%s.%d.tmp" % (path.name, os.getpid()))
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@lru_cache(maxsize=None)
def _source_digest():
    """The CRC of this package's own sources, chained into every table
    stamp so that a changed program never loads an old table; None
    when no source file is found, and then no table is read or written."""
    paths = sorted(Path(__file__).parent.glob("*.py"))
    crc = 0
    for path in paths:
        crc = zlib.crc32(path.read_bytes(), crc)
    return crc if paths else None


def _relation_fingerprint(rel: FormalSum):
    terms = rel.terms()
    lead = terms[0][1]
    return tuple((sort_key(g), c / lead) for g, c in terms)


def to_automorphism_convention(e):
    """Rescale each term by its automorphism count (for comparison
    with conventions that weight strata by 1/|Aut|)."""
    return type(e)([(g, c * automorphism_count(g)) for g, c in e.terms()])


def from_automorphism_convention(e):
    return type(e)(
        [(g, c / automorphism_count(g)) for g, c in e.terms()]
    )
