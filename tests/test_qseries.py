import random
from fractions import Fraction

import pytest

from orbdim.qseries import (
    EmptySeriesError,
    EtaQuotient,
    FracPowerSeries,
    etaq_expand,
    parse_eta_quotient,
)

F = Fraction
ETA = EtaQuotient(1, {1: 1})


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
    s = etaq_expand(ETA, F(50, 24))
    assert s.denomN == 24
    assert s.terms == {1: F(1), 25: F(-1), 49: F(-1)}
    oracle = brute_eta_unit(2)
    assert [s.coefficient(F(1, 24) + k) for k in range(3)] == oracle[:3]


def test_eta_minimal_precision_single_term():
    s = etaq_expand(ETA, F(2, 24))
    assert s.terms == {1: F(1)}
    with pytest.raises(EmptySeriesError):
        etaq_expand(ETA, F(1, 24))


def test_eta_pentagonal_coefficient_at_q_5():
    # coefficient of q^(1/24+5): pentagonal number 5 appears with sign +1
    oracle = brute_eta_unit(10)
    s = etaq_expand(ETA, F(1, 24) + 11)
    for k in range(11):
        assert s.coefficient(F(1, 24) + k) == oracle[k]
    assert s.coefficient(F(1, 24) + 5) == 1


def test_eta_integral_and_sparse_up_to_50():
    s = etaq_expand(ETA, F(1, 24) + 51)
    oracle = brute_eta_unit(50)
    for k in range(51):
        c = s.coefficient(F(1, 24) + k)
        assert c.denominator == 1
        assert c == oracle[k]
        # pentagonal sparsity: nonzero exactly at generalized pentagonal numbers
        pent = any(k == m * (3 * m - 1) // 2 for m in range(-20, 21))
        assert (c != 0) == pent


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
        merged = EtaQuotient(level, {d: f.exps.get(d, 0) + g.exps.get(d, 0) for d in divisors})
        prec = max(f.leading_exponent(), F(0)) + max(g.leading_exponent(), F(0)) + 4
        a = etaq_expand(f, prec - g.leading_exponent())
        b = etaq_expand(g, prec - f.leading_exponent())
        ab = {}
        for na, ca in a.terms.items():
            for nb, cb in b.terms.items():
                if na + nb < 24 * prec:
                    ab[na + nb] = ab.get(na + nb, 0) + ca * cb
        m = etaq_expand(merged, prec)
        assert m.terms == {n: c for n, c in ab.items() if c}
        checked += 1


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
    s = FracPowerSeries(24, {-24: 1, 0: -2, 1: 3}, F(3))
    assert s.to_text() == "1 * q^(-1) + -2 * q^(0) + 3 * q^(1/24) + O(q^3)"
