"""Cusp combinatorics of Gamma0(n) and the named genus-zero eta quotients.

Cusps a/c are classified by the divisor c of n together with a modulo
gcd(c, n/c); the width of a/c is (n/c)/gcd(c, n/c).  For the eight levels
whose Hauptmoduln are explicit eta quotients the module also carries the
distinguished cusp functions, one per cusp class, with a pole only at the
owning cusp.  Orders of eta quotients at cusps follow the standard
gcd-squared formula, normalised so that the order at infinity agrees with
the q-expansion's leading exponent and so that widths weight the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .qseries import EtaQuotient

GENUS_ZERO_LEVELS = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25})


def genus_zero_levels() -> frozenset:
    """The fifteen n for which Gamma0(n) has genus zero."""
    return GENUS_ZERO_LEVELS


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def factorize(n: int) -> dict[int, int]:
    """The prime factorisation {p: e} of a positive integer, by trial division."""
    if n <= 0:
        raise ValueError("n must be positive")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def euler_phi(n: int) -> int:
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def dedekind_psi(n: int) -> int:
    """psi(n) = n prod_{p|n} (1 + 1/p); the index of Gamma0(n) in SL2(Z)."""
    result = n
    for p in factorize(n):
        result += result // p
    return result


@dataclass(frozen=True)
class CuspClass:
    """The cusp a/c of Gamma0(n), with c | n, gcd(a, c) = 1, a reduced mod gcd(c, n/c)."""

    a: int
    c: int
    width: int

    def label(self) -> str:
        return f"{self.a}/{self.c}"


def cusp_classes(n: int) -> list[CuspClass]:
    """One representative per cusp class of Gamma0(n), deterministic order.

    For each divisor c the classes are indexed by units modulo gcd(c, n/c);
    the representative a is the smallest positive integer in that unit class
    that is coprime to c.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    reps = []
    for c in divisors(n):
        d = gcd(c, n // c)
        width = (n // c) // d
        for u in range(1, d + 1):
            if gcd(u, d) != 1:
                continue
            a = u
            while gcd(a, c) != 1:
                a += d
            reps.append(CuspClass(a, c, width))
    return reps


def find_cusp(n: int, a: int, c: int) -> CuspClass:
    """The stored representative equivalent to a/c (c must divide n)."""
    if n % c:
        raise ValueError(f"{c} does not divide the level {n}")
    if gcd(a, c) != 1:
        raise ValueError(f"cusp {a}/{c} is not in lowest terms")
    d = gcd(c, n // c)
    for rep in cusp_classes(n):
        if rep.c == c and (rep.a - a) % d == 0:
            return rep
    raise ValueError(f"no cusp representative found for {a}/{c}")  # pragma: no cover


# -- the explicit genus-zero eta quotients -------------------------------

def _sym(n: int, e: int) -> dict[int, int]:
    return {1: e, n: -e}


# cusp functions f_s keyed by (n, c); the cusp 1/n is infinity, 1/1 is zero.
# f at infinity is the Hauptmodul t_n; for n in {2,3,5,7,13} it is
# (eta(tau)/eta(n tau))^(24/(n-1))
_CUSP_FUNCTIONS: dict[int, dict[int, dict[int, int]]] = {
    2: {2: _sym(2, 24), 1: _sym(2, -24)},
    3: {3: _sym(3, 12), 1: _sym(3, -12)},
    4: {4: {1: 8, 4: -8}, 2: {1: 8, 2: -24, 4: 16}, 1: {1: -8, 4: 8}},
    5: {5: _sym(5, 6), 1: _sym(5, -6)},
    6: {
        6: {1: 5, 2: -1, 3: 1, 6: -5},
        3: {1: 3, 2: -3, 3: -9, 6: 9},
        2: {1: 4, 2: -8, 3: -4, 6: 8},
        1: {1: -5, 2: 1, 3: -1, 6: 5},
    },
    7: {7: _sym(7, 4), 1: _sym(7, -4)},
    8: {
        8: {1: 4, 2: -2, 4: 2, 8: -4},
        4: {2: 4, 4: -12, 8: 8},
        2: {1: 4, 2: -10, 4: 2, 8: 4},
        1: {1: -4, 2: 2, 4: -2, 8: 4},
    },
    13: {13: _sym(13, 2), 1: _sym(13, -2)},
}

#: levels whose Hauptmodul (and cusp functions) ship as explicit eta quotients
ETA_HAUPTMODUL_LEVELS = tuple(sorted(_CUSP_FUNCTIONS))


def hauptmodul(n: int) -> EtaQuotient:
    """The eta-quotient Hauptmodul t_n for the eight explicitly known levels:
    the cusp function at infinity."""
    if n not in _CUSP_FUNCTIONS:
        raise NotImplementedError(
            f"no eta-quotient Hauptmodul shipped for level {n}; the remaining "
            "genus-zero levels need the Conway-Norton eta-product table"
        )
    return EtaQuotient(n, dict(_CUSP_FUNCTIONS[n][n]))


@dataclass(frozen=True)
class NamedCuspFunction:
    """The weight-0 function f_s with its only pole at the cusp s."""

    n: int
    cusp: CuspClass
    quotient: EtaQuotient

    def __post_init__(self):
        if self.quotient.weight() != 0:
            raise ValueError("cusp functions must have modular weight 0")


def cusp_function(n: int, cusp: CuspClass) -> NamedCuspFunction:
    """The distinguished f_s for a cusp class of a supported level."""
    table = _CUSP_FUNCTIONS.get(n)
    if table is None:
        raise NotImplementedError(f"no cusp functions shipped for level {n}")
    exps = table.get(cusp.c)
    if exps is None:
        raise NotImplementedError(f"no cusp function for cusp {cusp.label()} at level {n}")
    return NamedCuspFunction(n, cusp, EtaQuotient(n, dict(exps)))


def divisor_order(f: EtaQuotient, cusp: CuspClass) -> Fraction:
    """Order of the eta quotient at the cusp a/c.

    ord_{a/c}(f) = (1/24) sum_{d|N} gcd(c,d)^2 r_d / d.  Under this
    normalisation ord at 1/N equals the leading exponent of the q-expansion
    and sum over cusp classes of ord * width is 0 for weight-0 quotients.
    The width-local vanishing order is width * ord.
    """
    c = cusp.c
    total = Fraction(0)
    for d, r in f.exps.items():
        g = gcd(c, d)
        total += Fraction(g * g * r, d)
    return total / 24


def divisor(f: EtaQuotient, n: int | None = None) -> list[tuple[CuspClass, Fraction]]:
    """All (cusp, order) pairs of f on X0(n); n defaults to the quotient's level."""
    n = f.level if n is None else n
    return [(s, divisor_order(f, s)) for s in cusp_classes(n)]
