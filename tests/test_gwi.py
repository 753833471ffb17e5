import hashlib
import random
import re
from fractions import Fraction

import pytest

from tautrel.graphs import canonicalize
from tautrel.gwi import (
    GwiParseError,
    format_graph,
    format_sum,
    parse_graph,
    parse_sum,
    parse_symbolic,
)
from tautrel.sums import FormalSum, LinForm, SymbolicSum

from conftest import random_stable_graph


def test_example_graph_string():
    g = parse_graph("<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1")
    assert g.n_vertices == 3
    assert g.total_genus() == 1
    assert g.external_labels() == (1, 2, 3, 4)


def test_psi_and_kappa_markup():
    g = parse_graph("<1^2 2 e0>_1[k1,k2] <3 e0^3>_0")
    assert g.psi_total() == 5
    assert sorted(v.kappa for v in g.vertices) == [(), (1, 2)]
    assert sum(v.kappa_degree for v in g.vertices) == 3


def test_graph_round_trip_random():
    rng = random.Random(3)
    for _ in range(80):
        g = random_stable_graph(rng)
        assert parse_graph(format_graph(g)) == canonicalize(g)


def test_sum_round_trip():
    rng = random.Random(5)
    pool = [random_stable_graph(rng) for _ in range(6)]
    coeffs = [Fraction(-1), Fraction(3, 4), Fraction(1), Fraction(-7, 2), Fraction(2), Fraction(-1, 24)]
    fs = FormalSum(list(zip(pool, coeffs)))
    assert parse_sum(format_sum(fs)) == fs


def test_empty_sum_round_trip():
    assert format_sum(FormalSum()) == "0"
    assert format_sum(SymbolicSum()) == "0"
    assert parse_sum("0") == FormalSum()
    assert parse_symbolic(" 0 ") == SymbolicSum()


def test_symbolic_round_trip():
    g1 = parse_graph("<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1")
    g2 = parse_graph("<1 2 3 4 e0>_0 <e0 e1 e1>_0")
    s = SymbolicSum([(g1, LinForm({1: Fraction(1, 2)})), (g2, LinForm({2: Fraction(-1)}))])
    text = format_sum(s)
    assert "c1" in text and "c2" in text
    assert parse_symbolic(text) == s


def test_unpaired_internal_label_rejected():
    with pytest.raises(GwiParseError):
        parse_graph("<1 2 e0>_0")
    with pytest.raises(GwiParseError):
        parse_graph("<1 e0 e0 e0>_0")


def test_repeated_external_label_rejected():
    with pytest.raises(GwiParseError):
        parse_graph("<1 1 e0>_0 <2 e0>_1")


def test_trailing_garbage_rejected():
    with pytest.raises(GwiParseError):
        parse_graph("<1 2 e0>_0 <3 e0>_1 junk")


def test_symbolic_coefficient_rejected_in_plain_sum():
    with pytest.raises(GwiParseError):
        parse_sum("c1*<1 2 3>_0")


@pytest.mark.parametrize("text", ["1/0*<1 2 3>_0", "<1 2 3>_0 - 3 / 0 * c1*<1 2 3>_0"])
def test_zero_denominator_rejected(text):
    with pytest.raises(GwiParseError, match="zero denominator"):
        parse_symbolic(text)
    with pytest.raises(GwiParseError, match="zero denominator"):
        parse_sum(text)


def test_negative_unit_leading_term():
    fs = FormalSum([(parse_graph("<1 2 3>_0"), Fraction(-1))])
    text = format_sum(fs)
    assert parse_sum(text) == fs


# -- parser equivalence golden ---------------------------------------------------

_FUZZ_TOKENS = [
    "<", ">", "_", "^", "[", "]", ",", "*", "+", "-", "/", " ",
    "0", "1", "2", "3", "12", "e0", "e1", "e01", "k1", "k2", "c0", "c1", "x",
]


def _parse_corpus():
    """Printed graphs and sums, their 1-3-token mutations, the tokens of
    printed text rejoined with random spacing, and random token strings."""
    rng = random.Random(17)
    pool = [random_stable_graph(rng) for _ in range(40)]
    printed = [format_graph(g) for g in pool]
    for _ in range(40):
        graphs = rng.sample(pool, rng.randint(1, 3))
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in graphs]
        printed.append(format_sum(FormalSum(zip(graphs, coeffs))))
        printed.append(format_sum(SymbolicSum(
            [(g, LinForm({rng.randrange(3): c})) for g, c in zip(graphs, coeffs)]
        )))
    texts = list(printed)
    for text in printed:
        tokens = re.findall(r"e\d+|k\d+|c\d+|\d+|\S", text)
        texts.append("".join(t + rng.choice(["", " ", "  ", "\t"]) for t in tokens))
        for _ in range(6):
            toks = list(tokens)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(toks) + 1)
                op = rng.randrange(3) if i < len(toks) else 1
                if op == 0:
                    del toks[i]
                elif op == 1:
                    toks.insert(i, rng.choice(_FUZZ_TOKENS))
                else:
                    toks[i] = rng.choice(_FUZZ_TOKENS)
            texts.append(rng.choice(["", " "]).join(toks))
    for _ in range(600):
        texts.append(rng.choice(["", " "]).join(rng.choices(_FUZZ_TOKENS, k=rng.randint(1, 12))))
    # "0" is left out: the digest was fixed under the earlier token
    # parser, which refused the zero sum
    return [t for t in texts if t.strip() != "0"]


def _fields(g):
    return (g.vertices, g.legs, g.edges)


def _parse_outcome(parse, text):
    """The exact fields or terms of the parsed value, or 'error'."""
    try:
        value = parse(text)
    except Exception:
        return "error"
    if not isinstance(value, (FormalSum, SymbolicSum)):
        return repr(_fields(value))
    return repr([
        (_fields(g), sorted(c.coeffs.items()) if isinstance(c, LinForm) else c)
        for g, c in value.terms()
    ])


def test_parse_outputs_golden():
    # the values (or refusals) of the three entry points over a fixed
    # corpus of valid, mutated and random text
    digest = hashlib.sha256()
    for text in _parse_corpus():
        outcomes = [_parse_outcome(p, text) for p in (parse_graph, parse_sum, parse_symbolic)]
        digest.update(("%r\t%s\n" % (text, "\t".join(outcomes))).encode())
    assert digest.hexdigest() == "89d99f52dd31bbd66ab240381f022459a0bdaa57ea2be58cfa2632bbd4a92dfa"
