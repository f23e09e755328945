"""Truncated formal series in fractional powers of q with exact rational coefficients.

Exponents live in (1/N)Z for a per-series denominator N; a series knows its
own precision cutoff and operations never fabricate terms beyond it.  The
Dedekind eta function is the primitive generator: everything else in the
package that has a q-expansion is built from eta quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm


class EmptySeriesError(ValueError):
    """Requested precision leaves no representable term."""


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

    def merged_with(self, other: "EtaQuotient") -> "EtaQuotient":
        level = lcm(self.level, other.level)
        exps = dict(self.exps)
        for d, r in other.exps.items():
            exps[d] = exps.get(d, 0) + r
        return EtaQuotient(level, exps)

    def label(self) -> str:
        """Compact d:r notation, ascending divisors."""
        return ",".join(f"{d}:{self.exps[d]}" for d in sorted(self.exps))


def etaq_expand(f: EtaQuotient, prec) -> FracPowerSeries:
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


def parse_eta_quotient(text: str, level: int | None = None) -> EtaQuotient:
    """Parse 'd:r,d:r,...' into an EtaQuotient; level defaults to lcm of the d."""
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
    if level is None:
        level = 1
        for d in exps:
            level = lcm(level, d)
    return EtaQuotient(level, exps)
