"""Exact linear combinations of canonical decorated graphs.

``FormalSum`` is a finitely supported map from canonical graphs to
rationals; ``SymbolicSum`` replaces the rationals by homogeneous
linear forms in unknowns c_1, c_2, ...  Both normalise on
construction: keys are canonicalised, zero coefficients dropped.
All arithmetic is exact (fractions.Fraction); no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .graphs import DecoratedGraph, canonicalize, sort_key


class _SparseMap:
    """An immutable finitely supported map: built from pairs or a
    mapping through the class's ``_normalise``, equal keys merged by
    adding their coefficients, zero coefficients dropped."""

    __slots__ = ("_map",)

    def __init__(self, pairs=()):
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        acc = {}
        for key, coeff in pairs or ():
            key, coeff = self._normalise(key, coeff)
            acc[key] = acc[key] + coeff if key in acc else coeff
        object.__setattr__(self, "_map", {k: c for k, c in acc.items() if c})

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def items(self):
        """The (key, coefficient) pairs, unordered."""
        return self._map.items()

    def is_zero(self) -> bool:
        return not self._map

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(list(self._map.items()) + list(other._map.items()))

    def __neg__(self):
        return type(self)({k: -c for k, c in self._map.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, r):
        r = Fraction(r)
        return type(self)({k: c * r for k, c in self._map.items()})


class LinForm(_SparseMap):
    """Homogeneous linear form over the unknowns, sparse and immutable."""

    __slots__ = ()

    @staticmethod
    def _normalise(i, c):
        return int(i), c if isinstance(c, Fraction) else Fraction(c)

    @property
    def coeffs(self) -> Mapping[int, Fraction]:
        """Read-only view of the map from unknown index to coefficient."""
        return MappingProxyType(self._map)

    @classmethod
    def unknown(cls, i: int) -> "LinForm":
        return cls({i: 1})

    __mul__ = __rmul__ = _SparseMap.scale

    def unknowns(self) -> list[int]:
        return sorted(self._map)

    def evaluate(self, assignment: Mapping[int, Fraction]) -> Fraction:
        out = Fraction(0)
        for i, c in self._map.items():
            if i not in assignment:
                raise KeyError("no value for unknown c%d" % i)
            out += c * Fraction(assignment[i])
        return out

    def __str__(self) -> str:
        if not self._map:
            return "0"
        parts = []
        for i in sorted(self._map):
            c = self._map[i]
            mag = abs(c)
            body = "c%d" % i if mag == 1 else "%s*c%d" % (mag, i)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    __repr__ = __str__


class _GraphSum(_SparseMap):
    """Shared mechanics of FormalSum / SymbolicSum: the keys are
    canonical graphs, the coefficients rationals or linear forms."""

    __slots__ = ()

    @staticmethod
    def _normalise(graph, c):
        return canonicalize(graph), c if isinstance(c, (Fraction, LinForm)) else Fraction(c)

    def terms(self) -> list[tuple[DecoratedGraph, object]]:
        return sorted(self._map.items(), key=lambda t: sort_key(t[0]))

    def coefficient(self, graph: DecoratedGraph):
        return self._map.get(canonicalize(graph))

    def relabel(self, mapping: Mapping[int, int]):
        return type(self)([(g.relabel(mapping), c) for g, c in self._map.items()])

    def __str__(self) -> str:
        from .gwi import format_sum

        return format_sum(self)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, str(self))


class FormalSum(_GraphSum):
    """Q-linear combination of canonical decorated graphs."""

    def __init__(self, terms=()):
        super().__init__(terms)
        for c in self._map.values():
            if not isinstance(c, Fraction):
                raise TypeError("FormalSum coefficients must be rational")

    @classmethod
    def single(cls, graph: DecoratedGraph, coeff=1) -> "FormalSum":
        return cls([(graph, Fraction(coeff))])


class SymbolicSum(_GraphSum):
    """Combination of graphs with linear forms in unknowns as coefficients.

    Coefficients are homogeneous in the unknowns: a bare rational is
    rejected rather than silently promoted.
    """

    def __init__(self, terms=()):
        super().__init__(terms)
        for c in self._map.values():
            if not isinstance(c, LinForm):
                raise TypeError("SymbolicSum coefficients must be LinForm instances")

    def unknowns(self) -> list[int]:
        out: set[int] = set()
        for form in self._map.values():
            out.update(form.coeffs)
        return sorted(out)

    def specialize(self, assignment: Mapping[int, Fraction]) -> FormalSum:
        """Evaluate all coefficient forms; raises on a missing unknown."""
        return FormalSum(
            [(g, form.evaluate(assignment)) for g, form in self._map.items()]
        )
