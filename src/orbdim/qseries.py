"""q-expansions of eta quotients on integer coefficients.

Everything in the package that has a q-expansion is an eta quotient
prod_d eta(d tau)^(r_d).  Its expansion is q^lead times a series in integer
powers of q with constant term 1 and integer coefficients, computed by one
recurrence on the logarithmic derivative; there is no general series
algebra.  A result knows its own precision cutoff and claims no term
beyond it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm


class EmptySeriesError(ValueError):
    """Requested precision leaves no representable term."""


@dataclass(frozen=True)
class FracPowerSeries:
    """Truncated series sum c_e q^(e/denomN), exact below prec.

    terms maps exponent numerators (exponent = numerator/denomN) to nonzero
    integer coefficients; every stored exponent is < prec.
    """

    denomN: int
    terms: dict[int, int]
    prec: Fraction

    def coefficient(self, exponent) -> Fraction:
        """Coefficient of q^exponent; exact zeroes are only claimed below prec."""
        e = Fraction(exponent)
        if e >= self.prec:
            raise ValueError(f"coefficient at q^{e} is beyond precision {self.prec}")
        num = e * self.denomN
        if num.denominator != 1:
            return Fraction(0)
        return Fraction(self.terms.get(int(num), 0))

    def leading_exponent(self) -> Fraction:
        if not self.terms:
            raise EmptySeriesError("series has no terms below its precision")
        return Fraction(min(self.terms), self.denomN)

    def to_text(self) -> str:
        """Render as exact `c * q^(e)` terms in ascending exponent order."""
        parts = [f"{self.terms[n]} * q^({Fraction(n, self.denomN)})" for n in sorted(self.terms)]
        parts.append(f"O(q^{self.prec})")
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class EtaQuotient:
    """Product prod_d eta(d tau)^{r_d} with every d dividing the level."""

    level: int
    exps: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.level <= 0:
            raise ValueError("level must be positive")
        for d in self.exps:
            if d <= 0 or self.level % d:
                raise ValueError(f"divisor {d} does not divide level {self.level}")
        object.__setattr__(self, "exps", {int(d): int(r) for d, r in self.exps.items() if r})

    def weight(self) -> Fraction:
        """Modular weight (1/2) sum_d r_d, recomputed from the exponents."""
        return Fraction(sum(self.exps.values()), 2)

    def leading_exponent(self) -> Fraction:
        """Order at infinity: (1/24) sum_d d r_d."""
        return Fraction(sum(d * r for d, r in self.exps.items()), 24)

    def label(self) -> str:
        """Compact d:r notation, ascending divisors."""
        return ",".join(f"{d}:{self.exps[d]}" for d in sorted(self.exps))


def etaq_expand(f: EtaQuotient, prec) -> FracPowerSeries:
    """q-expansion of an eta quotient, exact below prec.

    f = q^lead g with g = prod_d prod_{n>=1} (1 - q^(dn))^(r_d), a series in
    integer powers of q with g_0 = 1.  Its logarithmic derivative is
    q g'/g = sum_m c_m q^m with c_m = -sum_{d | m} r_d d sigma(m/d), and
    n g_n = sum_{k=1..n} c_k g_{n-k} yields every g_n on integers.
    """
    prec = Fraction(prec)
    lead = f.leading_exponent()
    if prec <= lead:
        raise EmptySeriesError(f"precision {prec} does not reach the leading exponent {lead}")
    top = ceil(prec - lead)                     # g_0 .. g_{top-1} lie below prec
    if top > sys.maxsize:
        raise ValueError(f"precision {prec} needs more terms than a list can index")
    c = [0] * top
    for d, r in f.exps.items():
        for dk in range(d, top, d):             # d sigma(m/d) = sum of dk over dk | m
            for m in range(dk, top, dk):
                c[m] -= r * dk
    g = [1]
    for n in range(1, top):
        gn, rem = divmod(sum(c[k] * g[n - k] for k in range(1, n + 1)), n)
        if rem:
            raise ArithmeticError(f"coefficient {n} of {f.label()} is not an integer")
        g.append(gn)
    shift = sum(d * r for d, r in f.exps.items())
    return FracPowerSeries(24, {24 * n + shift: x for n, x in enumerate(g) if x}, prec)


def parse_eta_quotient(text: str) -> EtaQuotient:
    """Parse 'd:r,d:r,...', one factor at least, into an EtaQuotient of level
    the lcm of the d."""
    exps: dict[int, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        d_str, _, r_str = chunk.partition(":")
        try:
            d, r = int(d_str), int(r_str)
        except ValueError:
            raise ValueError(f"eta factor {chunk!r} is not d:r with integers d and r") from None
        exps[d] = exps.get(d, 0) + r
    if not exps:
        raise ValueError(f"{text!r} names no d:r factor")
    return EtaQuotient(lcm(*exps), exps)
