import random
from fractions import Fraction

import pytest

from tautrel.gwi import parse_graph
from tautrel.sums import FormalSum, LinForm, SymbolicSum

from conftest import random_stable_graph


def _pool(seed, n=5):
    rng = random.Random(seed)
    return [random_stable_graph(rng) for _ in range(n)]


def _random_sum(rng, pool):
    terms = []
    for g in pool:
        if rng.random() < 0.7:
            terms.append((g, Fraction(rng.randint(-6, 6), rng.randint(1, 5))))
    return FormalSum(terms)


def test_vector_space_axioms():
    rng = random.Random(17)
    pool = _pool(23)
    for _ in range(40):
        a, b, c = (_random_sum(rng, pool) for _ in range(3))
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a + b).scale(r) == a.scale(r) + b.scale(r)
        assert a.scale(r + s) == a.scale(r) + a.scale(s)
        assert a.scale(r).scale(s) == a.scale(r * s)


def test_additive_inverse_and_zero_scale():
    pool = _pool(29)
    a = FormalSum([(g, Fraction(1, 3)) for g in pool])
    assert (a + a.scale(-1)).is_zero()
    assert a.scale(0).is_zero()
    assert a.scale(0) == FormalSum()


def test_isomorphic_keys_merge():
    a = parse_graph("<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1")
    b = parse_graph("<e5 e9>_1 <3 4 e9>_0 <1 2 e5>_0")
    fs = FormalSum([(a, Fraction(1, 2)), (b, Fraction(1, 2))])
    assert len(fs) == 1
    assert fs.terms()[0][1] == 1


def test_difference_of_relabelled_copies_is_zero():
    a = parse_graph("<1 2 e0>_0 <3 4 e1>_0 <e0 e1>_1")
    b = parse_graph("<1 2 e1>_0 <3 4 e0>_0 <e1 e0>_1")
    assert (FormalSum.single(a) - FormalSum.single(b)).is_zero()


def test_sums_differing_by_tiny_coefficient():
    g = parse_graph("<1 2 3>_0")
    a = FormalSum.single(g, Fraction(1))
    b = FormalSum.single(g, Fraction(1) + Fraction(1, 24))
    assert a != b


def test_specialize_examples():
    g1 = parse_graph("<1 2 3>_0")
    g2 = parse_graph("<1 2 e0>_0 <3 e0>_1")
    s = SymbolicSum([(g1, LinForm({1: Fraction(1)})), (g2, LinForm({2: Fraction(2)}))])
    assert s.specialize({1: 0, 2: 0}).is_zero()
    out = s.specialize({1: Fraction(5, 7), 2: Fraction(1, 2)})
    assert out == FormalSum([(g1, Fraction(5, 7)), (g2, Fraction(1))])


def test_specialize_missing_unknown():
    g = parse_graph("<1 2 3>_0")
    s = SymbolicSum([(g, LinForm({3: Fraction(1)}))])
    with pytest.raises(KeyError):
        s.specialize({1: 0})


def test_specialize_commutes_with_add_and_scale():
    rng = random.Random(31)
    pool = _pool(37)
    assign = {1: Fraction(2, 3), 2: Fraction(-1, 5), 3: Fraction(4)}

    def rand_sym():
        terms = []
        for g in pool:
            form = LinForm({i: Fraction(rng.randint(-3, 3)) for i in (1, 2, 3)})
            if form:
                terms.append((g, form))
        return SymbolicSum(terms)

    for _ in range(20):
        a, b = rand_sym(), rand_sym()
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert (a + b).specialize(assign) == a.specialize(assign) + b.specialize(assign)
        assert a.scale(r).specialize(assign) == a.specialize(assign).scale(r)


def test_symbolic_rejects_bare_rationals():
    g = parse_graph("<1 2 3>_0")
    with pytest.raises(TypeError):
        SymbolicSum([(g, Fraction(1))])


def test_linform_arithmetic():
    f = LinForm({1: Fraction(1, 2)}) + LinForm({2: Fraction(-1)})
    assert f.unknowns() == [1, 2]
    assert (f - f).coeffs == {}
    assert (f * Fraction(2)).coeffs == {1: Fraction(1), 2: Fraction(-2)}
    assert f.evaluate({1: Fraction(4), 2: Fraction(1)}) == Fraction(1)
    assert str(LinForm({1: Fraction(-1), 3: Fraction(2, 3)})) == "-c1 + 2/3*c3"


def test_sums_and_forms_are_immutable_and_hash_by_value():
    g1, g2 = parse_graph("<1 2 3>_0"), parse_graph("<1 2 e0>_0 <3 e0>_1")
    a = SymbolicSum([(g1, LinForm({1: 1})), (g2, LinForm({2: Fraction(1, 2)}))])
    b = SymbolicSum([(g2, LinForm({2: Fraction(1, 2)})), (g1, LinForm({1: Fraction(1)}))])
    assert a == b and hash(a) == hash(b)
    assert LinForm({1: 1}) == LinForm({1: Fraction(1)})
    assert hash(LinForm({1: 1})) == hash(LinForm({1: Fraction(1)}))
    for value in (LinForm({1: 1}), FormalSum.single(g1), a):
        for name in ("coeffs", "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, {})


def test_mixed_sums_and_coefficients_raise_type_error():
    g = parse_graph("<1 2 3>_0")
    fs, ss = FormalSum.single(g), SymbolicSum([(g, LinForm.unknown(1))])
    for x, y in ((fs, ss), (ss, fs)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y
    with pytest.raises(TypeError):
        FormalSum([(g, LinForm.unknown(1))])
    with pytest.raises(TypeError):
        SymbolicSum([(g, Fraction(1))])


def test_zero_linform_prints_zero():
    assert str(LinForm()) == str(LinForm(None)) == "0"
    assert LinForm() == LinForm(None) == LinForm({1: 0})
