"""The gwi bracket notation for decorated graphs and their sums.

Grammar (whitespace between tokens is free except inside numbers):

    sum      := "0" | term (("+"|"-") term)*
    term     := [rational "*"] ["c" nat "*"] graph
    graph    := bracket+
    bracket  := "<" item (" " item)* ">" "_" nat ["[" kappas "]"]
    item     := name ["^" nat]          # nat = psi power, default 0
    name     := nat | "e" nat           # external label | internal (paired)
    kappas   := "k" nat ("," "k" nat)*
    rational := ["-"] nat ["/" nat]     # a nonzero denominator

``<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1`` is a three-vertex graph: two
rational tails carrying the marked points joined to an elliptic
bridge.  A ``c<i>`` factor marks a symbolic unknown coefficient, and
``0`` is the empty sum.  Internal names pair by their text, so ``e01``
and ``e1`` are two names.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .graphs import DecoratedGraph, End, Leg, Vertex, _slots, canonicalize
from .sums import FormalSum, LinForm, SymbolicSum


class GwiParseError(ValueError):
    pass


# The grammar has no nesting, so each production is one pattern,
# matched where the previous one ended.  A digit run never stops
# before a digit, so "12" is one label rather than "1" "2".
_HEAD = re.compile(r"\s*(?:(-?)\s*(\d+)(?:\s*/\s*(\d+))?\s*\*)?\s*(?:c(\d+)\s*\*)?")
_BRACKET = re.compile(
    r"\s*<((?:\s*e?\d+(?!\d)(?:\s*\^\s*\d+(?!\d))?)*)\s*>"
    r"\s*_\s*(\d+)(?:\s*\[\s*(k\d+(?:\s*,\s*k\d+)*)\s*\])?"
)
_ITEM = re.compile(r"\s*(e?\d+)(?:\s*\^\s*(\d+))?")
_SEP = re.compile(r"\s*([+-])")


def _graph(text: str, pos: int) -> tuple[DecoratedGraph, int]:
    """The graph whose brackets start at ``pos``, and where it ends."""
    verts, legs, internal = [], [], {}
    while m := _BRACKET.match(text, pos):
        items, genus, kappas = m.groups()
        v = len(verts)
        verts.append(Vertex(int(genus), tuple(int(a) for a in re.findall(r"\d+", kappas or ""))))
        for item in _ITEM.finditer(items):
            name, psi = item.group(1), int(item.group(2) or 0)
            if name[0] == "e":
                internal.setdefault(name, []).append(End(v, psi))
            else:
                legs.append(Leg(v, int(name), psi))
        pos = m.end()
    if not verts:
        raise GwiParseError("expected '<' opening a bracket <items>_genus at %r" % text[pos:].strip()[:20])
    labels = [l.label for l in legs]
    if len(set(labels)) != len(labels):
        raise GwiParseError("repeated external label in %s" % sorted(labels))
    for name, ends in internal.items():
        if len(ends) != 2:
            raise GwiParseError("internal name %s occurs %d times (want 2)" % (name, len(ends)))
    return DecoratedGraph(tuple(verts), tuple(legs), tuple(internal.values())), pos


def _end(text: str, pos: int) -> None:
    if text[pos:].strip():
        raise GwiParseError("cannot parse the text from %r" % text[pos:].strip()[:20])


def _terms(text: str) -> list[tuple[Fraction, int | None, DecoratedGraph]]:
    """The (coefficient, unknown or None, graph) terms of a sum."""
    if text.strip() == "0":
        return []
    terms, pos, sign = [], 0, 1
    while True:
        head = _HEAD.match(text, pos)
        neg, num, den, unknown = head.groups()
        coeff = Fraction(sign)
        if num is not None:
            if den is not None and not int(den):
                raise GwiParseError("zero denominator in %r" % head.group().strip())
            coeff *= Fraction(int(neg + num), int(den or 1))
        graph, pos = _graph(text, head.end())
        terms.append((coeff, None if unknown is None else int(unknown), graph))
        sep = _SEP.match(text, pos)
        if sep is None:
            _end(text, pos)
            return terms
        sign, pos = (-1 if sep.group(1) == "-" else 1), sep.end()


def parse_graph(text: str) -> DecoratedGraph:
    graph, pos = _graph(text, 0)
    _end(text, pos)
    return graph


def parse_sum(text: str) -> FormalSum:
    terms = _terms(text)
    if any(unknown is not None for _, unknown, _ in terms):
        raise GwiParseError("symbolic coefficient in a plain sum")
    return FormalSum([(graph, coeff) for coeff, _, graph in terms])


def parse_symbolic(text: str) -> SymbolicSum:
    terms = _terms(text)
    if any(unknown is None for _, unknown, _ in terms):
        raise GwiParseError("missing c<n> factor in symbolic sum")
    return SymbolicSum([(graph, LinForm({unknown: coeff})) for coeff, unknown, graph in terms])


def read_file(path, check=None) -> tuple[list[str], list[FormalSum]]:
    """The comment lines and the sums of a gwi file, one sum per line.

    Blank lines are skipped, and a line whose first non-blank
    character is "#" is a comment.  ``path`` is a ``pathlib.Path`` or
    an ``importlib.resources`` traversable.  ``check``, if given, is
    called on every sum and raises ValueError to refuse it.  A line
    that does not parse or is refused raises its error again, naming
    the file and the line number.
    """
    comments, sums = [], []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if line.startswith("#"):
            comments.append(line)
        elif line:
            try:
                sums.append(parse_sum(line))
                if check is not None:
                    check(sums[-1])
            except ValueError as exc:
                raise type(exc)("%s:%d: %s" % (path, number, exc)) from exc
    return comments, sums


# ---------------------------------------------------------------------------
# printing


def format_graph(g: DecoratedGraph) -> str:
    """Deterministic gwi string; canonicalises first."""
    g = canonicalize(g)
    parts = []
    for vert, slots in zip(g.vertices, _slots(g)):
        # legs are stored sorted, so each vertex lists them by label
        items = [_item(str(g.legs[k].label) if kind == "leg" else "e%d" % k[0], psi) for (kind, k), psi in slots]
        text = "<%s>_%d" % (" ".join(items), vert.genus)
        if vert.kappa:
            text += "[%s]" % ",".join("k%d" % a for a in vert.kappa)
        parts.append(text)
    return " ".join(parts)


def _item(name: str, psi: int) -> str:
    return "%s^%d" % (name, psi) if psi else name


def format_sum(s) -> str:
    """Render a FormalSum or SymbolicSum; empty sums render as '0'."""
    pieces: list[tuple[Fraction, str]] = []
    for graph, coeff in s.terms():
        text = format_graph(graph)
        if isinstance(coeff, LinForm):
            for i in sorted(coeff.coeffs):
                pieces.append((coeff.coeffs[i], "c%d*%s" % (i, text)))
        else:
            pieces.append((coeff, text))
    if not pieces:
        return "0"
    out = []
    for k, (coeff, text) in enumerate(pieces):
        mag = abs(coeff)
        body = text if mag == 1 else "%s*%s" % (mag, text)
        if k == 0:
            # a leading bare "-<...>" is not a term of the grammar
            out.append(body if coeff > 0 else "-%s" % (body if mag != 1 else "1*" + body))
        else:
            out.append("+ %s" % body if coeff > 0 else "- %s" % body)
    return " ".join(out)
