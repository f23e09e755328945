"""The genus-zero dimension relation and the twisted-module weight machinery.

Covers the closed-form orbifold dimension coefficients c_d, the low-order
coefficients d_{i,j,k} of the correction term R, type arithmetic for
finite-order automorphisms, cycle-shape bookkeeping for lattice
automorphisms, and the conformal-weight screening that isolates problematic
modules in the two hard uniqueness cases.  The screening reads the integer
tables of RootSystem and searches on integers over one common denominator;
its cap on rho(M) is derived from the data, not passed in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, gcd, lcm, prod

from .cartan import kind_name
from .liealg import (
    AffineStructure,
    RootSystem,
    _in_alcove_range,
    affine_conformal_weight,
    alcove_walk,
    build_root_system,
    dominant_walk,
    dominant_weights_of_level,
    dot,
    min_weight_pairing,
    scale_coweight,
    unwalk,
    weyl_tables,
)
from .modcurve import GENUS_ZERO_LEVELS, dedekind_psi, divisors, euler_phi, factorize
from .qseries import EtaQuotient


class NotTabulatedError(KeyError):
    """A d_{i,j,k} outside the stated formulas and printed tables."""


def _liouville_lambda(d: int) -> int:
    """prod over primes p | d of (-p)."""
    return prod(-p for p in factorize(d))


def c_coefficients(n: int) -> dict[int, Fraction]:
    """The closed-form coefficients of the genus-zero orbifold dimension formula.

    c_d = (lambda(d)/d) (phi((d,n/d))/(d,n/d)) psi(n/d); c_1 = psi(n) and the
    coefficients sum to n.  A fresh dict of the memo _c_table.
    """
    return dict(_c_table(n))


@lru_cache(maxsize=None)
def _c_table(n: int) -> tuple[tuple[int, Fraction], ...]:
    """((d, c_d), ...) over the divisors d of n, checked; a level that is not
    genus zero raises on every call and leaves no entry."""
    if n not in GENUS_ZERO_LEVELS:
        raise ValueError(f"{n} is not a genus-zero level")
    out = {}
    for d in divisors(n):
        g = gcd(d, n // d)
        out[d] = Fraction(_liouville_lambda(d), d) * Fraction(euler_phi(g), g) * dedekind_psi(n // d)
    if out[1] != dedekind_psi(n) or sum(out.values()) != n:
        raise ArithmeticError(f"c_d at level {n} violate c_1 = psi(n) or sum c_d = n")
    return tuple(out.items())


@dataclass(frozen=True)
class DimProfile:
    """dim(V_1^{sigma^d}) for every divisor d of n; dims[n] is dim V_1."""

    n: int
    dims: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        missing = [d for d in divisors(self.n) if d not in self.dims]
        if missing:
            raise ValueError(f"profile is missing divisors {missing} of {self.n}")

    def restricted_to_power(self, d: int) -> "DimProfile":
        """The profile seen by sigma^d, an automorphism of order n/d."""
        m = self.n // d
        return DimProfile(m, {e: self.dims[d * e] for e in divisors(m)})


def dim_orbifold(profile: DimProfile) -> Fraction:
    """24 + sum_d c_d dim(V_1^{sigma^d}); rational on purpose, callers assert.

    The identity orbifold (n = 1) returns V_1 itself; the closed form with
    the additive 24 is the n >= 2 shape of the recursion.
    """
    if profile.n == 1:
        return Fraction(profile.dims[1])
    return 24 + sum(c * profile.dims[d] for d, c in _c_table(profile.n))


def _is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


# Residual d_{i,j,k} values: {(n, gcd(i,j,n)): (modulus, {ij mod modulus: value})}
_D_TABLES: dict[tuple[int, int], tuple[int, dict[int, int]]] = {
    (6, 2): (6, {2: 5, 4: 1}),
    (6, 3): (6, {3: 2}),
    (8, 2): (16, {4: 2, 12: 6}),
    (10, 2): (10, {2: 13, 4: 4, 6: 5, 8: 1}),
    (10, 5): (10, {5: 4}),
    (12, 2): (24, {4: 4, 8: 2, 16: 12, 20: 6}),
    (12, 3): (12, {3: 14, 6: 4, 9: 2}),
    (12, 4): (12, {4: 8, 8: 2}),
    (16, 2): (32, {4: 8, 8: 4, 12: 2, 20: 24, 24: 12, 28: 6}),
    (18, 2): (18, {2: 29, 4: 8, 6: 15, 8: 6, 10: 13, 12: 3, 14: 5, 16: 1}),
    (18, 3): (54, {9: 6, 27: 6, 45: 15}),
    (18, 9): (18, {9: 6}),
}


def _d_rule(n: int):
    """d_{i,j,k} at level n as a function of a valid (i, j, k), with n
    checked once.  When gcd(i, j, n) = 1 the value is the sum of m/d over
    the divisors d of m = n - k prime to n; it depends on k alone, so the
    function computes it once per k it is asked for.  At prime n every pair
    is of this kind, and the sum is sigma(n - k).  For g = gcd(i, j, n) > 1
    the value is read from _D_TABLES."""
    if n not in GENUS_ZERO_LEVELS:
        raise ValueError(f"{n} is not a genus-zero level")
    coprime = {}

    def d(i: int, j: int, k: int) -> int:
        g = gcd(gcd(i, j), n)
        if g == 1:
            if k not in coprime:
                m = n - k
                coprime[k] = sum(m // e for e in divisors(m) if gcd(e, n) == 1)
            return coprime[k]
        entry = _D_TABLES.get((n, g))
        if entry is None:
            raise NotTabulatedError(f"d_(i={i},j={j},k={k}) at level {n} is not tabulated")
        modulus, table = entry
        key = (i * j) % modulus
        if key not in table:
            raise NotTabulatedError(f"d_(i={i},j={j},k={k}) at level {n}: ij = {key} mod {modulus} untabulated")
        return table[key]

    return d


def d_coefficient(n: int, i: int, j: int, k: int) -> int:
    """The coefficient of dim W^{(i,j)}_{k/n} in the correction term R: the
    level is checked first, then i, j, k in 1..n-1, then k = ij mod n, and
    the value is _d_rule(n)'s."""
    rule = _d_rule(n)
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1 and 1 <= k <= n - 1):
        raise ValueError("i, j, k must lie in 1..n-1")
    if (i * j - k) % n:
        raise ValueError(f"k = {k} is not congruent to ij = {i * j} mod {n}")
    return rule(i, j, k)


def all_tabulated_triples(n: int):
    """Every valid (i, j, k) at level n together with its coefficient, in
    the order i, then j.  One _d_rule(n) serves the whole level, so n is
    checked once; below n = 2 there is no triple and the dict is empty."""
    steps = range(1, n)
    if not steps:
        return {}
    rule = _d_rule(n)
    return {(i, j, k): rule(i, j, k) for i in steps for j in steps if (k := i * j % n)}


def general_dimension_relation(profile: DimProfile, orb_dims: dict[int, Fraction],
                               low_terms: dict[tuple[int, int, int], int]):
    """Both sides of the genus-zero dimension relation, assembled exactly.

    lhs = sum over d | n of phi((d,n/d))/(d,n/d) (24 + (n/d) dims[1] - orb_dims[d]);
    rhs = 24 + R with R = (24/phi(n)) sum d_{i,j,k} low_terms[(i,j,k)].
    """
    n = profile.n
    if n not in GENUS_ZERO_LEVELS:
        raise ValueError(f"{n} is not a genus-zero level")
    lhs = Fraction(0)
    for d in divisors(n):
        g = gcd(d, n // d)
        if d not in orb_dims:
            raise ValueError(f"orbifold dimension for sigma^{d} missing")
        lhs += Fraction(euler_phi(g), g) * (24 + Fraction(n, d) * profile.dims[1] - orb_dims[d])
    R = Fraction(0)
    for (i, j, k), value in low_terms.items():
        R += d_coefficient(n, i, j, k) * Fraction(value)
    R *= Fraction(24, euler_phi(n)) if n > 1 else Fraction(24)
    rhs = 24 + R
    return {"lhs": lhs, "rhs": rhs, "balanced": lhs == rhs}


@dataclass(frozen=True)
class TwistType:
    n: int
    t: int

    def label(self) -> str:
        return f"{self.n}{{{self.t}}}"


def twist_type(n: int, rho) -> TwistType:
    """Type n{t} of an order-n automorphism with twisted-sector weight rho."""
    rho = Fraction(rho)
    scaled = rho * n * n
    if scaled.denominator != 1:
        raise ValueError(f"n^2 rho = {scaled} is not an integer")
    return TwistType(n, int(scaled) % n)


@dataclass(frozen=True)
class CycleShape:
    """prod t^{b_t}: the factored characteristic polynomial of a lattice isometry."""

    factors: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for t, b in self.factors.items():
            if type(t) is not int or type(b) is not int:
                raise ValueError(f"cycle length {t!r} and exponent {b!r} must be integers")
        object.__setattr__(self, "factors", {t: b for t, b in self.factors.items() if b})
        if any(t <= 0 for t in self.factors):
            raise ValueError("cycle lengths must be positive")

    def degree(self) -> int:
        return sum(t * b for t, b in self.factors.items())

    def fixed_rank(self) -> int:
        return sum(self.factors.values())

    def order(self) -> int:
        return lcm(*self.factors)

    def label(self) -> str:
        return " ".join(f"{t}^{b}" for t, b in sorted(self.factors.items()))


def vacuum_anomaly(shape: CycleShape) -> Fraction:
    """Twisted-sector vacuum weight (1/24) sum_t b_t (t - 1/t) for rank 24,
    on integers over L = lcm of the cycle lengths: t - 1/t = (t^2 - 1)(L/t)/L."""
    if shape.degree() != 24:
        raise ValueError(f"cycle shape degree {shape.degree()} != 24")
    L = shape.order()
    return Fraction(sum(b * (t * t - 1) * (L // t) for t, b in shape.factors.items()), 24 * L)


def cycle_shape_stats(shape: CycleShape):
    """Degree, fixed rank and the associated eta product."""
    eta = EtaQuotient(shape.order(), dict(shape.factors))
    return {"degree": shape.degree(), "fixedRank": shape.fixed_rank(), "etaProduct": eta}


# -- alcove representatives and twisted conformal weights ----------------

def alcove_representative(rs: RootSystem, h):
    """A representative of h + Q^vee with |alpha(h')| <= 1 for all roots.

    Reduces h into the fundamental alcove, h~ = w(h) + q with q in Q^vee,
    and returns h' = w^{-1}(h~) = h + w^{-1}(q), again in h + Q^vee.  On the
    closed alcove 0 <= alpha(h~) <= theta(h~) <= 1 for every positive root,
    so |alpha(h~)| <= 1 for every root; alpha(h') = (w alpha)(h~) and w
    permutes the roots, so |alpha(h')| <= 1 too.  Hence no coroot step
    lowers the norm of h' on the coset: h' - s alpha^vee (s = +-1) is
    shorter only if s alpha(h') > 1.  The bound is rechecked in integers on Phi+.
    """
    c, d = scale_coweight(rs.kind, h)
    tilde, word = alcove_walk(rs.kind, c, d)
    cur = unwalk(rs.kind, word, tilde)
    if any(abs(dot(root, cur)) > d for root in rs.positive_roots):
        raise ArithmeticError(f"alcove reduction of {tuple(h)} left the alcove")
    return tuple(Fraction(x, d) for x in cur)


def _require_alcove_range(components, scaled) -> None:
    """The precondition of the twisted weight: alpha(h_i) >= -1 on every
    factor at h_i = c_i / d_i, else a ValueError naming the factor."""
    for (kind, _), (c, d) in zip(components, scaled):
        if not _in_alcove_range(kind, c, d):
            raise ValueError(
                f"{kind} component violates alpha(h) >= -1; reduce with alcove_representative")


def twisted_module_weight(structure: AffineStructure, lambdas, hs) -> Fraction:
    """Conformal weight of the h-twisted version of the module with the given
    highest weights: rho(M) + sum_i min mu(h_i) + <h,h>/2.

    Every h_i must have its factor's rank of coordinates and satisfy
    alpha(h_i) >= -1, else a ValueError naming the factor; callers with a
    general coset representative should pass it through
    alcove_representative first.
    """
    comps = structure.components
    if len(lambdas) != len(comps) or len(hs) != len(comps):
        raise ValueError("one weight and one Cartan element per simple factor")
    _require_alcove_range(comps, _scaled(structure, hs))
    total = Fraction(0)
    hh = Fraction(0)
    for (kind, level), lam, h in zip(comps, lambdas, hs):
        rs = build_root_system(kind)
        total += affine_conformal_weight(rs, level, lam)
        total += min_weight_pairing(rs, lam, h)
        hh += level * rs.coweight_form(h, h)
    return total + hh / 2


@lru_cache(maxsize=None)
def _level_table(kind, level: int):
    """(R, ((lambda, r), ...)) over the dominant weights of level <= k, with
    rho(lambda) = r / R their affine conformal weight
    (lambda + 2 delta, lambda) / (2(k + h^vee)).  On the integer weight Gram
    matrix G over its denominator, r = sum_i (lambda_i + 2) (G lambda)_i and
    R = 2(k + h^vee) times that denominator.  Depends on the factor only,
    never on h."""
    rs = build_root_system(kind)
    G = rs.gram_weights_scaled
    return (2 * (level + rs.dual_coxeter) * rs.gram_weights_den,
            tuple((lam, sum((x + 2) * dot(row, lam) for x, row in zip(lam, G)))
                  for lam in dominant_weights_of_level(rs, level)))


@lru_cache(maxsize=1024)
def _factor_setup(kind, level: int, c, d: int):
    """(U, E, k <h,h>, min-term bound, R, buckets) for one factor at h = c / d.

    u = U / E = C^{-1} h^- with h^- the antidominant conjugate of h, so the
    min term of lambda = sum m_j Lambda_j is sum m_j u_j.  On the simplex of
    level <= k dominant weights that linear form is least at a vertex 0 or
    (k/a_j^vee) Lambda_j, so -min <= k max(0, -u_j/a_j^vee), the bound.
    k <h,h> and the bound are its only Fractions.

    buckets holds the factor's dominant weights of level <= k, each with
    rho = r / R from _level_table, grouped by the unscaled key (r, m), m =
    sum_j m_j U_j, as ((r, m), weights) in ascending key order.  The screens
    of every power of sigma meet the same (kind, level, c, d) again, so the
    lru_cache on that int key keeps the bucketing as well as U and E; the
    value is a tuple of tuples, so no screen can change it.
    """
    rs = build_root_system(kind)
    minus = dominant_walk(weyl_tables(kind).cols, [-x for x in c])[0]    # -d h^-
    U = tuple(-dot(row, minus) for row in rs.inv_scaled)
    E = d * rs.inv_den
    hh = level * rs.coweight_norm(c, d)
    L = lcm(*rs.comarks)
    bound = Fraction(level * max(0, *(-x * (L // a) for x, a in zip(U, rs.comarks))), E * L)
    R, table = _level_table(kind, level)
    keyed: dict[tuple[int, int], list] = {}
    for lam, r in table:
        keyed.setdefault((r, dot(lam, U)), []).append(lam)
    return U, E, hh, bound, R, tuple((key, tuple(lams)) for key, lams in sorted(keyed.items()))


def _scaled(structure: AffineStructure, hs):
    """Each h_i as integers over one denominator, (c_i, d_i) with h_i = c_i / d_i.
    A ValueError unless there is one h_i per factor, each with as many
    coordinates as its factor's rank."""
    if len(hs) != len(structure.components):
        raise ValueError("one Cartan element per simple factor")
    return tuple(scale_coweight(kind, h, f"factor {f} ({kind_name(kind)})")
                 for f, ((kind, _), h) in enumerate(zip(structure.components, hs)))


def _setups(components, scaled):
    """_factor_setup of every factor at h_i = c_i / d_i."""
    return [_factor_setup(kind, level, c, d) for (kind, level), (c, d) in zip(components, scaled)]


def safe_rho_cap(structure: AffineStructure, hs, floor=1) -> int:
    """Smallest integer cap >= 3 such that modules with rho(M) > cap provably
    keep their twisted weight at or above the floor: cap + 1 - bound +
    <h,h>/2 >= floor, with bound the sum of the factors' min-term bounds."""
    return _rho_cap(_setups(structure.components, _scaled(structure, hs)), floor)


def _rho_cap(setups, floor) -> int:
    need = Fraction(floor) - 1 + sum(bound - hh / 2 for _, _, hh, bound, _, _ in setups)
    return max(3, ceil(need))


def _scaled_buckets(setups):
    """(D, buckets): D the lcm of the factors' R and E, and each factor's
    buckets with the key (r, m) scaled to (a r, a r + b m), a = D // R,
    b = D // E, that is to (rho D, (rho + min) D)."""
    D = lcm(*(R for *_, R, _ in setups), *(E for _, E, *_ in setups))
    buckets = []
    for _, E, _, _, R, keyed in setups:
        a, b = D // R, D // E
        buckets.append([((a * r, a * r + b * m), lams) for (r, m), lams in keyed])
    return D, buckets


def screen_problematic_modules(structure: AffineStructure, hs, floor=1):
    """Modules with integral conformal weight in [2, cap] whose twisted
    weight drops below the floor, cap = safe_rho_cap(structure, hs, floor) on
    the setups the search reads.  Every h_i must keep alpha(h_i) >= -1, else a
    ValueError; verify_case screens no power whose representative breaks it.

    Returns a sorted list of (lambda_tuple, rho(M), rho(M^{(h)})).  The cap
    loses nothing: any module with rho(M) > cap has integral
    rho(M) >= cap + 1 and min terms >= -bound, where bound is the sum of the
    factors' linear-programming bounds (_factor_setup), an upper bound on
    -sum min over every dominant weight tuple of the structure.  So
    rho(M^{(h)}) >= cap + 1 - bound + <h,h>/2 >= floor by the choice of cap,
    which depends on the bound alone, not on the search below.

    The search is an exact integer branch-and-bound over the factors.  Each
    factor holds rho = r / R (_level_table) and u = U / E (_factor_setup);
    every rho and every min term sum m_j u_j is scaled by D = lcm of the R's
    and E's, through the integer factors D // R and D // E, so the search
    only adds integers and builds no Fraction before its output.  Each
    factor's weights are bucketed by the key (rho D, (rho + min) D); the
    search walks the keys, a few per factor, instead of the weights.  The
    buckets come from the memo _factor_setup, an lru_cache on the int key
    (kind, level, c, d), under the unscaled key (r, m) = (rho R, min E); a
    screen only maps each key to (a r, a r + b m), a = D // R, b = D // E.
    With a, b > 0 that map is injective, so it merges no buckets, and it keeps
    the lexicographic order: a r < a r' iff r < r', and for r = r' the second
    entries compare as m and m'.  So the scaled buckets and their order are
    those of bucketing the scaled keys afresh, and every hit is unchanged.  A
    branch is cut by two suffix lower bounds: rho, once the partial sum is
    above cap D (the factors still to come can add 0, the rho of the zero
    weight), and rho + min, once the partial sum plus the least keys of the
    factors still to come reaches (floor - <h,h>/2) D.  A leaf passes if its
    rho is integral and >= 2; its buckets are expanded back into weight
    tuples, all of which share the leaf's rho(M) and rho(M^{(h)}).  The last
    factor's keys are grouped by r mod D and only the group of -r_acc mod D
    is walked, so the index drops exactly the leaves the integrality test
    rejected.  The factors are walked by ascending bucket count, the largest
    last; every test is on order-free sums, so the order changes only which
    branches are cut, never which leaves pass.

    The rows depend on the factors, each h_i = c_i / d_i and the floor
    alone, so the search runs in _screen, an lru_cache on that key.
    scale_vector and Fraction reduce, so equal coweights and floors spelled
    as ints, Fractions or strings share one entry.  This public entry runs
    the length and rank checks and the alcove precondition on every call,
    before the memo is read; lru_cache keeps no exception, so a bad call
    raises afresh every time.  The memo holds the rows as a tuple of tuples,
    and every call returns a fresh list of them.
    """
    floor = Fraction(floor)
    scaled = _scaled(structure, hs)
    _require_alcove_range(structure.components, scaled)
    return list(_screen(structure.components, scaled, floor))


@lru_cache(maxsize=256)
def _screen(components, scaled, floor: Fraction):
    """screen_problematic_modules on the factors at h_i = c_i / d_i, the rows
    as a tuple.  It checks nothing: screen_problematic_modules checks its
    input first."""
    setups = _setups(components, scaled)
    cap = _rho_cap(setups, floor)
    D, buckets = _scaled_buckets(setups)
    if not buckets:
        return ()
    order = sorted(range(len(buckets)), key=lambda i: len(buckets[i]))
    walk = [buckets[i] for i in order]
    back = sorted(range(len(order)), key=order.__getitem__)
    by_residue: dict[int, list] = {}
    for item in walk[-1]:
        by_residue.setdefault(item[0][0] % D, []).append(item)
    # least_after[i]: the least scaled rho + min that walked factors i, i+1, ... add
    least_after = [0] * (len(walk) + 1)
    for i in range(len(walk) - 1, -1, -1):
        least_after[i] = least_after[i + 1] + min(t for (_, t), _ in walk[i])
    half = sum(hh for _, _, hh, *_ in setups) / 2
    top = cap * D
    limit = ceil((floor - half) * D)        # a leaf's scaled rho + min stays below
    last = len(walk) - 1
    hits = []

    def rec(idx, r_acc, t_acc, chosen):
        room = limit - least_after[idx + 1] - t_acc
        if idx == last:
            for (r, t), lams in by_residue.get(-r_acc % D, ()):
                if r_acc + r > top:
                    break
                if t < room and r_acc + r >= 2 * D:
                    hits.append((r_acc + r, t_acc + t, chosen + (lams,)))
            return
        for (r, t), lams in walk[idx]:
            if r_acc + r > top:
                break
            if t < room:
                rec(idx + 1, r_acc + r, t_acc + t, chosen + (lams,))

    rec(0, 0, 0, ())
    out = [(lams, Fraction(r, D), Fraction(t, D) + half)
           for r, t, chosen in hits for lams in product(*(chosen[k] for k in back))]
    out.sort(key=lambda rec: (rec[2], rec[0]))
    return tuple(out)


def render_weight_tuple(lams) -> str:
    """Paper-style bracket rendering: ([m1,...],[m1,...],...)."""
    return "(" + ",".join("[" + ",".join(str(int(x)) for x in lam) + "]" for lam in lams) + ")"
