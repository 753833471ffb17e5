"""Discovery pipeline for tautological equations.

Given an ambient (g, n, k): enumerate the decorated classes, form the
general element with one unknown per class (per S_n-orbit of classes
when symmetrized), impose vanishing of the dimension-lowering operators
for every l up to 3g-3+n-k (each basis coordinate of each target
ambient contributes one linear condition), solve the exact system, and
split the nullspace into the part that reduces to zero against the
known relations (combinations of inductive data) and new candidates.

Each operator runs once per relabelling class of terms, because
relabelling commutes with the operators (see invariance_system).  The
registry's coordinate engine reduces a symmetrized element's whole
orbits once each, summed over label orbits inside each target table,
and lifts the image to the members of any other class, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .echelon import Echelon
from .graphs import DecoratedGraph
from .operators import _image_labels, apply_r
from .relations import NormalForm, RelationRegistry
from .strata import enumerate_classes, orbits
from .sums import FormalSum, LinForm, SymbolicSum

__all__ = [
    "enumerate_classes",
    "general_element",
    "invariance_system",
    "solve_nullspace",
    "filter_trivial",
    "check_invariance",
    "find_equations",
    "operator_index_bound",
    "LinearSystem",
    "EquationCandidate",
    "FindReport",
]


def general_element(classes) -> SymbolicSum:
    """Sum c_i * class_i with one fresh unknown per distinct class.

    ``classes`` may hold graphs or formal sums (e.g. symmetrised
    orbits); canonical duplicates share an unknown.  Unknown indices
    are 1-based in input order.
    """
    seen = set()
    terms = []
    i = 0
    for cls in classes:
        if isinstance(cls, DecoratedGraph):
            cls = FormalSum.single(cls)
        key = tuple(cls.terms())
        if key in seen:
            continue
        i += 1
        seen.add(key)
        for graph, coeff in cls.terms():
            terms.append((graph, LinForm({i: coeff})))
    return SymbolicSum(terms)


class LinearSystem:
    """Exact homogeneous system over the unknowns c_1..c_N.

    Rows are deduplicated up to scale; each row remembers which target
    ambient and basis coordinate produced it.  Unknown c_i is column
    i - 1 of the row echelon form.
    """

    def __init__(self, n_unknowns: int):
        self.n_unknowns = n_unknowns
        self.rows: list[tuple[LinForm, str]] = []
        self._seen: set = set()
        self.echelon = Echelon()

    def add_row(self, form: LinForm, provenance: str = ""):
        if not form:
            return
        key = form * (1 / form.coeffs[min(form.coeffs)])
        if key in self._seen:
            return
        self._seen.add(key)
        self.rows.append((form, provenance))
        self.echelon.add(_columns(form))

    def rank(self) -> int:
        return self.echelon.rank

    def contains_row(self, form: LinForm) -> bool:
        """True iff the row lies in the row space of the system."""
        return not self.echelon.reduce(_columns(form))


def _columns(form: LinForm) -> dict[int, Fraction]:
    return {i - 1: c for i, c in form.coeffs.items()}


def invariance_system(
    E: SymbolicSum, l_range, registry: RelationRegistry
) -> LinearSystem:
    """Impose that every operator in ``l_range`` annihilates E modulo
    the known relations of each target ambient.

    ``registry.normal_coords`` runs r_l once per relabelling class of
    terms of E.  The image of a member sigma G of the class of G is
    sigma r_l(G), as sigma fixes the two new labels (the smallest
    outside the labels of E), so the engine renames the components of
    r_l(G) by sigma; when the class is the whole orbit of G with one
    unknown, as in a symmetrized find, it instead sums each component's
    coordinates over the permutations of its labels and the choices of
    those labels.  Both give the same rational sums as reducing the
    whole image, from no graph of it.
    """
    unknowns = E.unknowns()
    system = LinearSystem(max(unknowns, default=0))
    for l in l_range:
        coords = _image_coords(E, l, registry)
        for key in sorted(coords):
            prov = "l=%d %s" % (l, NormalForm.key_ambient(key))
            system.add_row(coords[key], prov)
    return system


def _image_coords(e, l: int, registry: RelationRegistry) -> dict:
    """The normal coordinates of r_l(e), with r_l run once per
    relabelling class of terms of e (see invariance_system)."""
    if _image_labels(e, l) is None:  # refuses what apply_r refuses
        return {}
    return registry.normal_coords(e.items(), image=lambda g: apply_r(FormalSum.single(g), l).items())


def solve_nullspace(system: LinearSystem) -> list[tuple[Fraction, ...]]:
    """Basis of the exact solution space, one vector per free unknown.

    Pivots are chosen greedily from the lowest unknown index, so the
    free unknowns sit as high as the system allows; the basis vector
    for a free unknown sets it to 1 and the other free unknowns to 0.
    """
    return system.echelon.nullspace(system.n_unknowns)


@dataclass
class EquationCandidate:
    """One nullspace direction: ``vector`` holds the values of the
    unknowns of the general element ``E``."""

    vector: tuple[Fraction, ...]
    E: SymbolicSum
    trivial: bool

    @property
    def formal_sum(self) -> FormalSum:
        """The sum ``E`` at ``vector``, built on each read."""
        return self.E.specialize({i + 1: x for i, x in enumerate(self.vector)})


def filter_trivial(
    solutions, E: SymbolicSum, registry: RelationRegistry
) -> list[EquationCandidate]:
    """Split nullspace directions into combinations of known relations
    and new equation candidates.

    The directions reducing to zero modulo the registry form a
    subspace; candidates are representatives of the quotient, reduced
    against the trivial subspace and scaled to a primitive integer
    vector with positive leading entry.
    """
    solutions = [tuple(v) for v in solutions if any(v)]
    if not solutions:
        return []
    n = len(solutions[0])
    # coordinates of each unknown's class modulo the induced relations
    # of the source ambient (an incomplete quotient by design: a
    # direction is trivial iff it is a consequence of inductive data)
    class_coords: dict[int, list] = {}
    for key, form in registry.normal_coords(E.items(), allow_incomplete=True).items():
        for i, c in form.coeffs.items():
            class_coords.setdefault(i - 1, []).append((key, c))

    # trivial subspace: combinations x of the solutions whose class
    # reduces to zero; one linear condition per normal-form coordinate
    conditions: dict = {}
    for j, sol in enumerate(solutions):
        for i, x in enumerate(sol):
            if x:
                for key, c in class_coords.get(i, ()):
                    row = conditions.setdefault(key, {})
                    row[j] = row.get(j, 0) + x * c
    trivial_vecs = []
    for coeffs in Echelon(conditions.values()).nullspace(len(solutions)):
        vec = [Fraction(0)] * n
        for c, sol in zip(coeffs, solutions):
            if c:
                for i, x in enumerate(sol):
                    vec[i] += c * x
        trivial_vecs.append(vec)

    out = [EquationCandidate(_normalize_vector(v), E, trivial=True) for v in trivial_vecs]
    # candidates: solutions reduced against the trivial span, kept only
    # while they grow the joint rank.  A reduced row is zero on the
    # trivial pivots, so it lies in the joint span iff it lies in the
    # span of the candidates kept so far.
    trivial = Echelon(dict(enumerate(v)) for v in trivial_vecs)
    kept = Echelon()
    for vec in solutions:
        row = trivial.reduce(dict(enumerate(vec)))
        if not kept.add(row):
            continue
        full = [Fraction(0)] * n
        for i, x in row.items():
            full[i] = x
        out.append(EquationCandidate(_normalize_vector(full), E, trivial=False))
    return out


def _normalize_vector(vec) -> tuple[Fraction, ...]:
    """Primitive integer vector, first nonzero entry positive."""
    nz = [x for x in vec if x]
    if not nz:
        return tuple(vec)
    denom = 1
    for x in nz:
        denom = denom * x.denominator // math.gcd(denom, x.denominator)
    ints = [x * denom for x in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, int(x))
    sign = 1 if next(x for x in ints if x) > 0 else -1
    return tuple(Fraction(int(x) * sign, g) for x in ints)


def check_invariance(E: FormalSum, l_range, registry: RelationRegistry):
    """Per-l residual normal forms of the operator images of E."""
    return {l: NormalForm(_image_coords(E, l, registry), registry) for l in l_range}


def operator_index_bound(g: int, n: int, k: int) -> int:
    """Largest l the dimension bound allows: images vanish identically
    once k + l exceeds 3g - 3 + n."""
    return max(0, 3 * g - 3 + n - k)


@dataclass
class FindReport:
    ambient: tuple[int, int, int]
    classes: list[FormalSum]
    system: LinearSystem | None
    nullspace: list[tuple[Fraction, ...]]
    candidates: list[EquationCandidate]
    notes: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = ["AMBIENT (%d,%d,%d)" % self.ambient]
        out.append("CLASSES %d" % len(self.classes))
        if self.system is not None:
            out.append(
                "SYSTEM rows=%d rank=%d" % (len(self.system.rows), self.system.rank())
            )
            for form, prov in self.system.rows:
                out.append("ROW %s %s" % (prov, form))
        out.append("NULLSPACE dim=%d" % len(self.nullspace))
        trivial = sum(1 for c in self.candidates if c.trivial)
        out.append("TRIVIAL dim=%d" % trivial)
        for note in self.notes:
            out.append("NOTE %s" % note)
        return out


def find_equations(
    g: int,
    n: int,
    k: int,
    registry: RelationRegistry | None = None,
    lmax: int | None = None,
    symmetrized: bool = True,
    decorations: str = "none",
) -> FindReport:
    """Run the whole discovery pipeline for one ambient."""
    registry = registry or RelationRegistry()
    dim = 3 * g - 3 + n
    if k < 0 or k > dim:
        raise ValueError("codimension %d out of range for (%d,%d)" % (k, g, n))
    if lmax is not None and lmax < 0:
        raise ValueError("lmax %d is negative" % lmax)
    found = enumerate_classes(g, n, k, decorations=decorations)
    # symmetrize(r, 1..n) holds each member of the orbit of r n!/|orbit| times
    groups = orbits(found, range(1, n + 1)) if symmetrized else [[c] for c in found]
    weight = math.factorial(n) if symmetrized else 1
    classes = [FormalSum([(m, Fraction(weight, len(o))) for m in o]) for o in groups]
    E = general_element(classes)
    bound = operator_index_bound(g, n, k)
    L = bound if lmax is None else lmax
    notes = []
    if k >= dim:
        # top codimension is inductive data; no invariance conditions exist
        notes.append("top codimension: rank Q, no new equations")
        return FindReport((g, n, k), classes, None, [], [], notes)
    system = invariance_system(E, range(1, L + 1), registry)
    nullspace = solve_nullspace(system)
    candidates = filter_trivial(nullspace, E, registry)
    return FindReport((g, n, k), classes, system, nullspace, candidates, notes)
