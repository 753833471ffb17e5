"""The gwi bracket notation for decorated graphs and their sums.

Grammar (whitespace between tokens is free except inside numbers):

    sum      := term (("+"|"-") term)*
    term     := [rational "*"] ["c" nat "*"] graph
    graph    := bracket+
    bracket  := "<" item (" " item)* ">" "_" nat ["[" kappas "]"]
    item     := name ["^" nat]          # nat = psi power, default 0
    name     := nat | "e" nat           # external label | internal (paired)
    kappas   := "k" nat ("," "k" nat)*
    rational := ["-"] nat ["/" nat]

``<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1`` is a three-vertex graph: two
rational tails carrying the marked points joined to an elliptic
bridge.  A ``c<i>`` factor marks a symbolic unknown coefficient.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .graphs import DecoratedGraph, End, Leg, Vertex, canonicalize
from .sums import FormalSum, LinForm, SymbolicSum


class GwiParseError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(e\d+|k\d+|c\d+|\d+|[<>_^\[\],*+/-])")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise GwiParseError("bad character at %r" % text[pos : pos + 10])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise GwiParseError("unexpected end of input")
        self.i += 1
        return t

    def expect(self, tok: str):
        t = self.next()
        if t != tok:
            raise GwiParseError("expected %r, got %r" % (tok, t))

    def nat(self) -> int:
        t = self.next()
        if not t.isdigit():
            raise GwiParseError("expected number, got %r" % t)
        return int(t)

    def rational(self) -> Fraction:
        neg = False
        if self.peek() == "-":
            self.next()
            neg = True
        num = self.nat()
        den = 1
        if self.peek() == "/":
            self.next()
            den = self.nat()
        r = Fraction(num, den)
        return -r if neg else r

    def graph(self) -> DecoratedGraph:
        verts: list[Vertex] = []
        legs: list[Leg] = []
        # internal name -> list of (vertex, psi)
        internal: dict[str, list[tuple[int, int]]] = {}
        while self.peek() == "<":
            self.next()
            v = len(verts)
            genus = None
            items = []
            while self.peek() != ">":
                name = self.next()
                psi = 0
                if self.peek() == "^":
                    self.next()
                    psi = self.nat()
                items.append((name, psi))
            self.expect(">")
            self.expect("_")
            genus = self.nat()
            kappa: list[int] = []
            if self.peek() == "[":
                self.next()
                while True:
                    t = self.next()
                    if not (t.startswith("k") and t[1:].isdigit()):
                        raise GwiParseError("expected k<nat>, got %r" % t)
                    kappa.append(int(t[1:]))
                    if self.peek() == ",":
                        self.next()
                        continue
                    break
                self.expect("]")
            verts.append(Vertex(genus, tuple(kappa)))
            for name, psi in items:
                if name.isdigit():
                    legs.append(Leg(v, int(name), psi))
                elif name.startswith("e") and name[1:].isdigit():
                    internal.setdefault(name, []).append((v, psi))
                else:
                    raise GwiParseError("bad half-edge name %r" % name)
        if not verts:
            raise GwiParseError("expected '<'")
        labels = [l.label for l in legs]
        if len(set(labels)) != len(labels):
            raise GwiParseError("repeated external label in %s" % sorted(labels))
        edges = []
        for name, ends in sorted(internal.items()):
            if len(ends) != 2:
                raise GwiParseError(
                    "internal name %s occurs %d times (want 2)" % (name, len(ends))
                )
            (v1, p1), (v2, p2) = ends
            edges.append((End(v1, p1), End(v2, p2)))
        return DecoratedGraph(tuple(verts), tuple(legs), tuple(edges))

    def term(self):
        coeff = Fraction(1)
        unknown = None
        t = self.peek()
        if t is not None and (t == "-" or t.isdigit()):
            save = self.i
            try:
                coeff = self.rational()
                self.expect("*")
            except GwiParseError:
                self.i = save
                coeff = Fraction(1)
        t = self.peek()
        if t is not None and t.startswith("c") and t[1:].isdigit():
            unknown = int(self.next()[1:])
            self.expect("*")
        return coeff, unknown, self.graph()

    def sum(self):
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            sign = self.next()
            coeff, unknown, graph = self.term()
            if sign == "-":
                coeff = -coeff
            terms.append((coeff, unknown, graph))
        if self.peek() is not None:
            raise GwiParseError("trailing tokens from %r" % self.peek())
        return terms


def parse_graph(text: str) -> DecoratedGraph:
    p = _Parser(_tokenize(text))
    g = p.graph()
    if p.peek() is not None:
        raise GwiParseError("trailing tokens from %r" % p.peek())
    return g


def parse_sum(text: str) -> FormalSum:
    terms = _Parser(_tokenize(text)).sum()
    out = []
    for coeff, unknown, graph in terms:
        if unknown is not None:
            raise GwiParseError("symbolic coefficient in a plain sum")
        out.append((graph, coeff))
    return FormalSum(out)


def parse_symbolic(text: str) -> SymbolicSum:
    terms = _Parser(_tokenize(text)).sum()
    out = []
    for coeff, unknown, graph in terms:
        if unknown is None:
            raise GwiParseError("missing c<n> factor in symbolic sum")
        out.append((graph, LinForm({unknown: coeff})))
    return SymbolicSum(out)


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
    for v in range(g.n_vertices):
        items = []
        for l in sorted(g.legs_at(v), key=lambda l: l.label):
            items.append(_item(str(l.label), l.psi))
        for i, side in g.ends_at(v):
            items.append(_item("e%d" % i, g.edges[i][side].psi))
        vert = g.vertices[v]
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
