import random
from fractions import Fraction

import pytest

from orbdim.qseries import (
    EmptySeriesError,
    EtaQuotient,
    FracPowerSeries,
    eta_expand,
    etaq_expand,
    parse_eta_quotient,
)

F = Fraction


def brute_eta_unit(order):
    """Oracle: multiply out prod_{n<=order}(1-q^n) coefficient lists directly."""
    coeffs = [F(1)] + [F(0)] * order
    for n in range(1, order + 1):
        new = coeffs[:]
        for i in range(order + 1 - n):
            new[i + n] -= coeffs[i]
        coeffs = new
    return coeffs


def test_eta_first_terms_match_brute_force():
    # prec 50/24 keeps exponents 1/24, 25/24, 49/24
    s = eta_expand(F(50, 24))
    assert s.denomN == 24
    assert s.terms == {1: F(1), 25: F(-1), 49: F(-1)}
    oracle = brute_eta_unit(2)
    assert [s.coefficient(F(1, 24) + k) for k in range(3)] == oracle[:3]


def test_eta_minimal_precision_single_term():
    s = eta_expand(F(2, 24))
    assert s.terms == {1: F(1)}
    with pytest.raises(EmptySeriesError):
        eta_expand(F(1, 24))


def test_eta_pentagonal_coefficient_at_q_5():
    # coefficient of q^(1/24+5): pentagonal number 5 appears with sign +1
    oracle = brute_eta_unit(10)
    s = eta_expand(F(1, 24) + 11)
    for k in range(11):
        assert s.coefficient(F(1, 24) + k) == oracle[k]
    assert s.coefficient(F(1, 24) + 5) == 1


def test_eta_integral_and_sparse_up_to_50():
    s = eta_expand(F(1, 24) + 51)
    oracle = brute_eta_unit(50)
    for k in range(51):
        c = s.coefficient(F(1, 24) + k)
        assert c.denominator == 1
        assert c == oracle[k]
        # pentagonal sparsity: nonzero exactly at generalized pentagonal numbers
        pent = any(k == m * (3 * m - 1) // 2 for m in range(-20, 21))
        assert (c != 0) == pent


def test_series_inverse_identity():
    a = eta_expand(F(1, 24) + 12)
    prod = a * a.inverse()
    assert prod.coefficient(F(1, 24) * 0) == 1
    lead = prod.leading_exponent()
    assert lead == 0
    for e in prod.exponents():
        if e != 0:
            assert prod.coefficient(e) == 0  # unreachable: terms store nonzero
    assert all(n == 0 for n in prod.terms)


def test_power_exponent_arithmetic():
    a = eta_expand(F(1, 24) + 3)
    assert (a * a).leading_exponent() == F(1, 12)
    assert (a / a).coefficient(0) == 1
    assert (a + a).coefficient(F(1, 24)) == 2
    p = a ** 24
    assert p.leading_exponent() == 1
    assert p.coefficient(1) == 1
    # eta^24 = q - 24 q^2 + 252 q^3 ...
    assert p.coefficient(2) == -24
    assert p.coefficient(3) == 252


def test_eta_quotient_t2_leading_terms():
    # eta(tau)^24/eta(2tau)^24 = q^-1 - 24 + 276 q - ...
    t2 = EtaQuotient(2, {1: 24, 2: -24})
    s = etaq_expand(t2, 2)
    assert s.leading_exponent() == -1
    assert s.coefficient(-1) == 1
    assert s.coefficient(0) == -24
    assert s.coefficient(1) == 276


@pytest.mark.parametrize(
    "level,exps,constant_term",
    [
        (6, {1: 5, 2: -1, 3: 1, 6: -5}, -5),
        (4, {1: 8, 4: -8}, -8),
        (8, {1: 4, 2: -2, 4: 2, 8: -4}, -4),
    ],
)
def test_hauptmodul_quotients_printed_constants(level, exps, constant_term):
    s = etaq_expand(EtaQuotient(level, exps), 2)
    assert s.coefficient(-1) == 1
    assert s.coefficient(0) == constant_term


def test_leading_exponent_formula():
    rng = random.Random(7)
    for _ in range(25):
        level = rng.choice([2, 3, 4, 6, 8, 12, 24])
        divisors = [d for d in range(1, level + 1) if level % d == 0]
        exps = {d: rng.randint(-4, 4) for d in rng.sample(divisors, k=min(3, len(divisors)))}
        f = EtaQuotient(level, exps)
        if not f.exps:
            continue
        s = etaq_expand(f, f.leading_exponent() + 3)
        assert s.leading_exponent() == f.leading_exponent()
        assert s.coefficient(f.leading_exponent()) == 1


def test_etaq_multiplicative_on_random_quotients():
    rng = random.Random(20240)
    checked = 0
    while checked < 20:
        level = rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24])
        divisors = [d for d in range(1, level + 1) if level % d == 0]
        f = EtaQuotient(level, {d: rng.randint(-3, 3) for d in divisors})
        g = EtaQuotient(level, {d: rng.randint(-3, 3) for d in divisors})
        merged = f.merged_with(g)
        prec = max(f.leading_exponent(), F(0)) + max(g.leading_exponent(), F(0)) + 4
        a = etaq_expand(f, prec - g.leading_exponent())
        b = etaq_expand(g, prec - f.leading_exponent())
        ab = a * b
        m = etaq_expand(merged, ab.prec)
        assert m.terms == ab.terms
        checked += 1


def test_ring_distributivity_exact():
    rng = random.Random(99)
    for _ in range(10):
        def rand_series():
            N = rng.choice([1, 2, 3, 24])
            terms = {rng.randint(-5, 30): F(rng.randint(-9, 9), rng.randint(1, 7))
                     for _ in range(rng.randint(1, 6))}
            return FracPowerSeries(N, terms, F(rng.randint(35, 45)))

        a, b, c = rand_series(), rand_series(), rand_series()
        left = (a + b) * c
        right = a * c + b * c
        assert left.prec == right.prec
        common = min(left.prec, right.prec)
        for e in set(left.exponents()) | set(right.exponents()):
            if e < common:
                assert left.coefficient(e) == right.coefficient(e)


def test_division_by_empty_series_errors():
    empty = FracPowerSeries(24, {}, F(1, 2))
    a = eta_expand(2)
    with pytest.raises(EmptySeriesError):
        a / empty


def test_quotient_divisor_must_divide_level():
    with pytest.raises(ValueError):
        EtaQuotient(6, {4: 1})


def test_weight_recomputed():
    f = EtaQuotient(6, {1: 5, 2: -1, 3: 1, 6: -5})
    assert f.weight() == 0
    g = EtaQuotient(4, {1: 8, 4: -8})
    assert g.weight() == 0
    h = EtaQuotient(2, {1: -8, 2: 16})
    assert h.weight() == 4


def test_parse_and_label_roundtrip():
    f = parse_eta_quotient("1:5,2:-1,3:1,6:-5")
    assert f.level == 6
    assert f.label() == "1:5,2:-1,3:1,6:-5"
    assert parse_eta_quotient(f.label()).exps == f.exps


def test_text_rendering_ascending_exact():
    s = FracPowerSeries(24, {-24: F(1), 0: F(-1, 2)}, F(3))
    assert s.to_text() == "1 * q^(-1) + -1/2 * q^(0) + O(q^3)"
