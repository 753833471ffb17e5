"""Exact linear combinations of canonical decorated graphs.

``FormalSum`` is a finitely supported map from canonical graphs to
rationals; ``SymbolicSum`` replaces the rationals by homogeneous
linear forms in unknowns c_1, c_2, ...  Both normalise on
construction: keys are canonicalised, zero coefficients dropped.
All arithmetic is exact (fractions.Fraction); no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .graphs import DecoratedGraph, canonicalize, sort_key


class LinForm:
    """Homogeneous linear form over the unknowns, sparse and immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        clean = {}
        if coeffs:
            for i, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean[int(i)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("LinForm is immutable")

    @classmethod
    def unknown(cls, i: int) -> "LinForm":
        return cls({i: Fraction(1)})

    def __add__(self, other: "LinForm") -> "LinForm":
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + c
        return LinForm(out)

    def __neg__(self) -> "LinForm":
        return LinForm({i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + (-other)

    def __mul__(self, r) -> "LinForm":
        r = Fraction(r)
        return LinForm({i: c * r for i, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def unknowns(self) -> list[int]:
        return sorted(self.coeffs)

    def evaluate(self, assignment: Mapping[int, Fraction]) -> Fraction:
        out = Fraction(0)
        for i, c in self.coeffs.items():
            if i not in assignment:
                raise KeyError("no value for unknown c%d" % i)
            out += c * Fraction(assignment[i])
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            mag = abs(c)
            body = "c%d" % i if mag == 1 else "%s*c%d" % (mag, i)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    __repr__ = __str__


def _as_coeff(c):
    return c if isinstance(c, LinForm) else Fraction(c)


class _GraphSum:
    """Shared mechanics of FormalSum / SymbolicSum."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[DecoratedGraph, object]] = ()):
        if isinstance(terms, Mapping):
            terms = terms.items()
        acc: dict[DecoratedGraph, object] = {}
        for graph, coeff in terms:
            coeff = _as_coeff(coeff)
            key = canonicalize(graph)
            if key in acc:
                acc[key] = acc[key] + coeff
            else:
                acc[key] = coeff
        object.__setattr__(
            self, "_terms", {k: c for k, c in acc.items() if c}
        )

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def terms(self) -> list[tuple[DecoratedGraph, object]]:
        return sorted(self._terms.items(), key=lambda t: sort_key(t[0]))

    def items(self):
        """The (graph, coefficient) pairs, unordered."""
        return self._terms.items()

    def coefficient(self, graph: DecoratedGraph):
        return self._terms.get(canonicalize(graph))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(list(self._terms.items()) + list(other._terms.items()))

    def __neg__(self):
        return type(self)({g: -c for g, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, r):
        r = Fraction(r)
        if not r:
            return type(self)()
        return type(self)({g: c * r for g, c in self._terms.items()})

    def relabel(self, mapping: Mapping[int, int]):
        return type(self)(
            [(g.relabel(mapping), c) for g, c in self._terms.items()]
        )

    def __str__(self) -> str:
        from .gwi import format_sum

        return format_sum(self)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, str(self))


class FormalSum(_GraphSum):
    """Q-linear combination of canonical decorated graphs."""

    def __init__(self, terms=()):
        super().__init__(terms)
        for c in self._terms.values():
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
        for c in self._terms.values():
            if not isinstance(c, LinForm):
                raise TypeError("SymbolicSum coefficients must be LinForm instances")

    def unknowns(self) -> list[int]:
        out: set[int] = set()
        for form in self._terms.values():
            out.update(form.coeffs)
        return sorted(out)

    def specialize(self, assignment: Mapping[int, Fraction]) -> FormalSum:
        """Evaluate all coefficient forms; raises on a missing unknown."""
        return FormalSum(
            [(g, form.evaluate(assignment)) for g, form in self._terms.items()]
        )
