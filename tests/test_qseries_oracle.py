"""Differential test of the integer eta-quotient recurrence against the
Fraction series algebra it replaced.

The oracle below is the old `FracPowerSeries` with its ring operations,
`constant`, `_pentagonal_unit`, `eta_expand` and `etaq_expand` (here
`etaq_expand_oracle`), kept verbatim: it expands an eta quotient by
multiplying, inverting and powering pentagonal-number series over Fraction.
`qseries.etaq_expand` must agree with it on terms, precision, exponent
denominator and rendered text for seeded quotients over every genus-zero
level and 24, and for every shipped Hauptmodul and cusp function.  The ring
tests of the old algebra run against the oracle here.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import pytest

from orbdim import qseries
from orbdim.modcurve import (
    ETA_HAUPTMODUL_LEVELS,
    GENUS_ZERO_LEVELS,
    cusp_classes,
    cusp_function,
    divisors,
    hauptmodul,
)
from orbdim.qseries import EmptySeriesError, EtaQuotient

F = Fraction


# -- the oracle: the Fraction series algebra ---------------------------------

@dataclass(frozen=True)
class FracPowerSeries:
    """Sparse Laurent-style series sum c_e q^(e/denomN), truncated below prec.

    terms maps exponent numerators (exponent = numerator/denomN) to nonzero
    rational coefficients; every stored exponent is < prec.
    """

    denomN: int
    terms: dict[int, Fraction] = field(default_factory=dict)
    prec: Fraction = Fraction(10)

    def __post_init__(self):
        if self.denomN <= 0:
            raise ValueError("denomN must be a positive integer")
        object.__setattr__(self, "prec", Fraction(self.prec))
        cleaned = {}
        for num, coeff in self.terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if Fraction(num, self.denomN) >= self.prec:
                continue
            cleaned[int(num)] = coeff
        object.__setattr__(self, "terms", cleaned)

    # -- queries ---------------------------------------------------------

    def coefficient(self, exponent) -> Fraction:
        """Coefficient of q^exponent; exact zeroes are only claimed below prec."""
        e = Fraction(exponent)
        if e >= self.prec:
            raise ValueError(f"coefficient at q^{e} is beyond precision {self.prec}")
        num = e * self.denomN
        if num.denominator != 1:
            return Fraction(0)
        return self.terms.get(int(num), Fraction(0))

    def leading_exponent(self) -> Fraction:
        if not self.terms:
            raise EmptySeriesError("series has no terms below its precision")
        return Fraction(min(self.terms), self.denomN)

    def is_zero(self) -> bool:
        return not self.terms

    def exponents(self):
        return sorted(Fraction(n, self.denomN) for n in self.terms)

    # -- rebasing and arithmetic -----------------------------------------

    def rebase(self, new_denom: int) -> "FracPowerSeries":
        """Rewrite with exponent denominator new_denom (a multiple of denomN)."""
        if new_denom % self.denomN:
            raise ValueError("new denominator must be a multiple of the old one")
        f = new_denom // self.denomN
        return FracPowerSeries(new_denom, {n * f: c for n, c in self.terms.items()}, self.prec)

    def truncate(self, prec) -> "FracPowerSeries":
        prec = Fraction(prec)
        if prec > self.prec:
            raise ValueError("cannot extend precision by truncation")
        return FracPowerSeries(self.denomN, dict(self.terms), prec)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = constant(other, self.prec, self.denomN)
        N = lcm(self.denomN, other.denomN)
        a, b = self.rebase(N), other.rebase(N)
        prec = min(a.prec, b.prec)
        out = dict(a.terms)
        for n, c in b.terms.items():
            out[n] = out.get(n, Fraction(0)) + c
        return FracPowerSeries(N, out, prec)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return FracPowerSeries(self.denomN, {n: -c for n, c in self.terms.items()}, self.prec)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = constant(other, self.prec, self.denomN)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            if k == 0:
                return FracPowerSeries(self.denomN, {}, self.prec)
            return FracPowerSeries(self.denomN, {n: k * c for n, c in self.terms.items()}, self.prec)
        N = lcm(self.denomN, other.denomN)
        a, b = self.rebase(N), other.rebase(N)
        if a.is_zero() or b.is_zero():
            return FracPowerSeries(N, {}, min(a.prec, b.prec))
        la, lb = min(a.terms), min(b.terms)
        # unknown tail of one factor hits the other's leading term first
        prec = min(a.prec + Fraction(lb, N), b.prec + Fraction(la, N))
        bound = prec * N
        out: dict[int, Fraction] = {}
        for na, ca in a.terms.items():
            for nb, cb in b.terms.items():
                n = na + nb
                if n >= bound:
                    continue
                out[n] = out.get(n, Fraction(0)) + ca * cb
        return FracPowerSeries(N, out, prec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "FracPowerSeries":
        """Multiplicative inverse; requires a nonzero term below precision."""
        if self.is_zero():
            raise EmptySeriesError("cannot invert a series with no terms below precision")
        N = self.denomN
        l = min(self.terms)
        c0 = self.terms[l]
        # u := self / (c0 q^(l/N)) = 1 + positive-exponent tail, known below rel
        u = {n - l: c / c0 for n, c in self.terms.items() if n != l}
        rel = self.prec - Fraction(l, N)
        bound_num = rel * N
        # inv(u) coefficients by increasing exponent: inv[n] = -sum u[m] inv[n-m]
        inv: dict[int, Fraction] = {0: Fraction(1)}
        if u:
            step = min(u)
            n = step
            while Fraction(n, 1) < bound_num:
                acc = Fraction(0)
                for m, um in u.items():
                    if m <= n:
                        prev = inv.get(n - m)
                        if prev is not None:
                            acc += um * prev
                if acc:
                    inv[n] = -acc
                n += 1
        # 1/self = (1/c0) q^(-l/N) inv(u); relative precision survives, so the
        # absolute cutoff drops by the leading exponent twice
        prec = self.prec - 2 * Fraction(l, N)
        shifted = {n - l: c / c0 for n, c in inv.items()}
        return FracPowerSeries(N, shifted, prec)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("series powers must be integers")
        if k == 0:
            return constant(1, self.prec, self.denomN)
        base = self.inverse() if k < 0 else self
        k = abs(k)
        result = None
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, Fraction(other))
        return self * other.inverse()

    # -- rendering --------------------------------------------------------

    def to_text(self) -> str:
        """Render as exact `c * q^(e)` terms in ascending exponent order."""
        parts = [f"{self.terms[n]} * q^({Fraction(n, self.denomN)})" for n in sorted(self.terms)]
        parts.append(f"O(q^{self.prec})")
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()


def constant(value, prec, denomN: int = 1) -> FracPowerSeries:
    v = Fraction(value)
    return FracPowerSeries(denomN, {0: v} if v else {}, Fraction(prec))


def _pentagonal_unit(scale: int, prec_int: int) -> FracPowerSeries:
    """prod_{n>=1} (1 - q^(scale n)) as an integer-exponent series below prec_int."""
    terms: dict[int, Fraction] = {0: Fraction(1)}
    m = 1
    while True:
        placed = False
        for mm in (m, -m):
            p = scale * (mm * (3 * mm - 1) // 2)
            if p < prec_int:
                terms[p] = Fraction((-1) ** (m % 2))
                placed = True
        if not placed:
            break
        m += 1
    return FracPowerSeries(1, terms, Fraction(prec_int))


def eta_expand(prec) -> FracPowerSeries:
    """q^(1/24) prod_{n>=1}(1 - q^n), truncated below prec; denomN is 24."""
    prec = Fraction(prec)
    if prec <= Fraction(1, 24):
        raise EmptySeriesError("eta has no terms below q^(1/24)")
    rel = prec - Fraction(1, 24)
    unit = _pentagonal_unit(1, max(1, -(-rel.numerator // rel.denominator)))
    terms = {}
    for n, c in unit.terms.items():
        num = 24 * n + 1
        if Fraction(num, 24) < prec:
            terms[num] = c
    return FracPowerSeries(24, terms, prec)


def etaq_expand_oracle(f: EtaQuotient, prec) -> FracPowerSeries:
    """q-expansion of an eta quotient, exact below prec.

    Splits off the fractional leading power q^(lead) and multiplies unit
    series in integer exponents, so precision never erodes along the way.
    """
    prec = Fraction(prec)
    lead = f.leading_exponent()
    if prec <= lead:
        raise EmptySeriesError(f"precision {prec} does not reach the leading exponent {lead}")
    rel = prec - lead
    rel_int = max(1, -(-rel.numerator // rel.denominator))
    unit = constant(1, rel_int)
    for d in sorted(f.exps):
        unit = unit * (_pentagonal_unit(d, rel_int) ** f.exps[d])
    lead24 = lead * 24
    if lead24.denominator != 1:
        raise ArithmeticError(f"24 times the leading exponent {lead} is not an integer")
    terms = {24 * n + int(lead24): c for n, c in unit.terms.items()}
    return FracPowerSeries(24, terms, lead + unit.prec).truncate(prec)


# -- differential tests -------------------------------------------------------

def _assert_same(f, prec):
    try:
        want = etaq_expand_oracle(f, prec)
    except EmptySeriesError:
        with pytest.raises(EmptySeriesError):
            qseries.etaq_expand(f, prec)
        return
    got = qseries.etaq_expand(f, prec)
    assert got.terms == want.terms, (f.label(), prec)
    assert (got.prec, got.denomN) == (want.prec, want.denomN)
    assert got.to_text() == want.to_text()


def test_etaq_expand_matches_oracle_on_seeded_quotients():
    rng = random.Random(20251018)
    for level in sorted(GENUS_ZERO_LEVELS | {24}):
        for _ in range(23):
            f = EtaQuotient(level, {d: rng.randint(-6, 6) for d in divisors(level)})
            den = rng.choice([1, 2, 3, 7, 24])
            _assert_same(f, f.leading_exponent() + F(rng.randint(-den, 12 * den), den))


@pytest.mark.parametrize("prec", [2, 12, 24])
def test_etaq_expand_matches_oracle_on_shipped_functions(prec):
    for n in ETA_HAUPTMODUL_LEVELS:
        _assert_same(hauptmodul(n), prec)
        for cusp in cusp_classes(n):
            _assert_same(cusp_function(n, cusp).quotient, prec)


# Ramanujan's tau(1..31): eta(tau)^24 = sum_n tau(n) q^n
TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920,
       534612, -370944, -577738, 401856, 1217160, 987136, -6905934, 2727432,
       10661420, -7109760, -4219488, -12830688, 18643272, 21288960, -25499225,
       13865712, -73279080, 24647168, 128406630, -29211840, -52843168]


def test_eta_24_is_ramanujan_tau():
    delta = EtaQuotient(1, {1: 24})
    s = qseries.etaq_expand(delta, 32)
    assert [s.coefficient(n) for n in range(1, 32)] == TAU
    assert s.terms == {24 * n: t for n, t in enumerate(TAU, start=1)}
    _assert_same(delta, 32)


# -- the ring tests of the oracle algebra -------------------------------------

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
