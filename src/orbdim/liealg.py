"""Combinatorial data of the simple Lie algebras and their weight theory.

Coordinates: weights are integer/rational vectors in the fundamental-weight
basis (lambda = sum m_i Lambda_i), Cartan elements in the fundamental-
coweight basis (h = sum c_i Lambda_i^vee).  Roots are kept in simple-root
coordinates, where pairing against a coweight is a plain dot product; a
root system builds only the positive roots, by raising steps from the
simple roots (see RootSystem._positive_roots).  The pairing of a weight
against a coweight goes through the inverse Cartan matrix:
lambda(h) = m^T C^{-1} c.

Arithmetic runs on scaled integers.  C^{-1}, over one common denominator,
is built once per kind from C by fraction-free elimination and kept in
weyl_tables(kind), which the loader's lattice tests and every root system
share; a root system adds the Gram matrices of the fundamental weights and
coweights in the same form.  A rational vector enters as (integer vector,
one denominator), see scale_vector.  Pairings, forms, reflections, Weyl
dimensions and Freudenthal's recursion then add and multiply ints; a
Fraction is built only for a returned value.  Integral weights come back
as ints, coweights as Fractions.

Two kernels serve weight systems.  Pairing a whole weight system against one
coweight h pays for h once: each root system keeps (h, C^{-1} h scaled) for
the last tuple h it was given, found again by identity, and an integer
weight is then paired by one dot product, with no rescaling.  Freudenthal's
recursion fills the weight dict orbit by orbit as each dominant
multiplicity is found and reads every weight of a root string from that
dict.  The dominant weights below the highest weight lam are found by a
walk over mu_0, mu_1, ... that carries C^{-1}(lam - mu) and cuts a branch
as soon as an entry turns negative, which is sound because every entry of
C^{-1} is positive (Lusztig and Tits, 1992; see dominant_below).  An orbit
is expanded as a tree rooted at its dominant member, in which every other
member has one parent, so each member is made once and no seen set is kept
(see orbit_tree).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import add, floordiv, mul, sub
from types import MappingProxyType
from typing import NamedTuple

from .cartan import (
    Kind,
    cartan_matrix,
    classical_dimension,
    comarks,
    coxeter,
    dual_coxeter,
    kind_name,
    marks,
    parse_kind,
    root_norms,
    validate_kind,
)


def scale_vector(v) -> tuple[tuple[int, ...], int]:
    """(n, d) with v = n / d entrywise and d the lcm of the entries' denominators."""
    try:
        d = lcm(*[x.denominator for x in v])
    except AttributeError:              # floats, strings: read them as Fractions
        v = [Fraction(x) for x in v]
        d = lcm(*[x.denominator for x in v])
    if d == 1:
        return tuple([x.numerator for x in v]), 1
    return tuple([x.numerator * (d // x.denominator) for x in v]), d


def scale_coweight(kind: Kind, h, where=None) -> tuple[tuple[int, ...], int]:
    """scale_vector(h) for a coweight of kind, or a ValueError led by where (the kind's
    name by default) unless h has one entry per simple root."""
    if len(h) != kind[1]:
        raise ValueError(f"{where or kind_name(kind)}: coweight ({', '.join(map(str, h))}) "
                         f"has {len(h)} entries, not {kind[1]}")
    return scale_vector(h)


def _reduced(N, d) -> tuple[tuple[tuple[int, ...], ...], int]:
    """N / d as (N', d') with d' the lcm of the reduced entries' denominators:
    that lcm is d / gcd(d, all entries of N)."""
    g = gcd(d, *(x for row in N for x in row))
    return tuple(tuple(x // g for x in row) for row in N), d // g


def dot(a, b) -> int:
    """Integer dot product."""
    return sum(map(mul, a, b))


def _adjugate(M) -> tuple[list[list[int]], int]:
    """(adj M, det M) of an integer matrix with non-zero leading minors.

    Fraction-free Gauss-Jordan (E. H. Bareiss, Math. Comp. 22 (1968)
    565-578) on [M | I]: at step k every other row becomes
    (p_k a_r - a_rk a_k) / p_{k-1}, p_k the current pivot, and the division
    is exact (Sylvester's identity).  At the end the left block is det * I
    and the right block det * M^{-1}.
    """
    n = len(M)
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    prev = 1
    for k in range(n):
        pivot_row = A[k]
        p = pivot_row[k]
        if not p:
            raise ArithmeticError(f"leading minor {k + 1} of {M} vanishes")
        for r, row in enumerate(A):
            if r == k:
                continue
            f = row[k]
            new = []
            for x, y in zip(row, pivot_row):
                q, rem = divmod(p * x - f * y, prev)
                if rem:
                    raise ArithmeticError(f"Bareiss step {k} on {M} is not exact")
                new.append(q)
            A[r] = new
        prev = p
    return [row[n:] for row in A], prev


# -- Weyl-chamber and alcove walks and coroot coordinates, from Cartan data --

class WeylTables(NamedTuple):
    """What the walks and lattice tests of one kind read.  rows[i] and
    cols[i] list the non-zero (j, C[i][j]) and (j, C[j][i]): s_i sends a
    weight m to m - m_i C[i][.] and a coweight c to c - c_i C[.][i].
    C^{-1} = inv / den, den the least common denominator."""

    rows: tuple[tuple[tuple[int, int], ...], ...]
    cols: tuple[tuple[tuple[int, int], ...], ...]
    marks: tuple[int, ...]
    theta: tuple[int, ...]          # theta^vee: <alpha_j, theta^vee> = sum_i a_i^vee C[j][i]
    inv: tuple[tuple[int, ...], ...]
    den: int


@lru_cache(maxsize=None)
def weyl_tables(kind: Kind) -> WeylTables:
    C = cartan_matrix(kind)
    l = len(C)
    return WeylTables(
        tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in C),
        tuple(tuple((j, C[j][i]) for j in range(l) if C[j][i]) for i in range(l)),
        tuple(marks(kind)),
        tuple(dot(comarks(kind), row) for row in C),
        *_reduced(*_adjugate(C)))


def dominant_walk(sparse, v) -> tuple[list[int], list[int]]:
    """(v+, word): the dominant Weyl conjugate of an integer vector, reached
    by reflecting at the first negative entry until none is left, and the
    indices reflected in, in order.  sparse is the rows of weyl_tables for
    a weight, its cols for a coweight."""
    v = list(v)
    word = []
    while True:
        for i, x in enumerate(v):
            if x < 0:
                for j, y in sparse[i]:
                    v[j] -= x * y
                word.append(i)
                break
        else:
            return v, word


def alcove_walk(kind: Kind, c, d) -> tuple[list[int], list]:
    """(d h~, word) for h = c/d: h~ = w(h) + q lies in the fundamental
    alcove of W x Q^vee, so h~ is dominant and theta(h~) <= 1, q lies in
    Q^vee, and w is the product of the reflections in word, each entry a
    simple index or "theta" (Kac, Infinite-dimensional Lie algebras, ch. 8).
    The walk goes to the dominant chamber, and while theta(h) > 1 reflects
    in the wall theta = 1, whose linear part is s_theta.  Each step moves c
    by integer multiples of integer vectors, so d stays."""
    table = weyl_tables(kind)
    c, word = dominant_walk(table.cols, c)
    while (t := dot(table.marks, c)) > d:
        c = [x - (t - d) * y for x, y in zip(c, table.theta)]
        word.append("theta")
        c, more = dominant_walk(table.cols, c)
        word += more
    return c, word


def unwalk(kind: Kind, word, c) -> list[int]:
    """w^{-1} c on the integer numerators of a coweight, w the linear part
    of a walk's word."""
    table = weyl_tables(kind)
    c = list(c)
    for op in reversed(word):
        if op == "theta":
            t = dot(table.marks, c)
            c = [x - t * y for x, y in zip(c, table.theta)]
        else:
            ci = c[op]
            for j, y in table.cols[op]:
                c[j] -= ci * y
    return c


def in_alcove_range(kind: Kind, h) -> bool:
    """alpha(h) >= -1 for every root alpha."""
    return _in_alcove_range(kind, *scale_coweight(kind, h))


@lru_cache(maxsize=1024)
def _in_alcove_range(kind: Kind, c: tuple[int, ...], d: int) -> bool:
    """in_alcove_range at h = c/d, a tuple of integers c and d > 0 with any
    common factor.  Roots come in pairs +-alpha and the largest alpha(h) is
    theta(h+) for the dominant conjugate h+.  Memoized on that int key: a
    record's contract check walks, and a miss of _screen reads the verdict."""
    table = weyl_tables(kind)
    return dot(table.marks, dominant_walk(table.cols, c)[0]) <= d


def coroot_order(kind: Kind, h) -> int:
    """The least k >= 1 with k h in Q^vee, the order of sigma_h on modules:
    e / gcd(e, u) for C^{-1} h = u / e, h on the simple coroots."""
    return _coroot_order(kind, *scale_coweight(kind, h))


def _coroot_order(kind: Kind, c, d: int) -> int:
    """coroot_order at h = c/d, integers c and d > 0 with any common factor."""
    table = weyl_tables(kind)
    e = d * table.den
    return e // gcd(e, *[dot(row, c) for row in table.inv])


def in_coroot_lattice(kind: Kind, v) -> bool:
    """v in Q^vee: C^{-1} v is integral."""
    return coroot_order(kind, v) == 1


class RootSystem:
    """All combinatorial data of one simple Lie algebra.

    Built once per kind and cached; treat instances as immutable.
    """

    def __init__(self, kind: Kind):
        kind = validate_kind(kind)
        self.kind = kind
        self.rank = kind[1]
        self.cartan = cartan_matrix(kind)          # C[i][j] = <a_i, a_j^vee>
        self.norms = root_norms(kind)
        self.marks = marks(kind)
        self.comarks = comarks(kind)
        self.coxeter = coxeter(kind)
        self.dual_coxeter = dual_coxeter(kind)
        self.dim = classical_dimension(kind)
        l = self.rank
        tables = weyl_tables(kind)
        self.inv_scaled, self.inv_den = tables.inv, tables.den
        # d_i = (alpha_i, alpha_i) = norm[i] / nd, and 2/d_i = co[i] is an integer
        norm, nd = scale_vector(self.norms)
        co = []
        for x in norm:
            q, r = divmod(2 * nd, x)
            if r:
                raise ArithmeticError(f"{kind_name(kind)}: 2/(alpha, alpha) is not an integer")
            co.append(q)
        inv = self.inv_scaled
        # (Lambda_i, Lambda_j) = d_i/2 (C^{-1})_{ji};  (Lambda_i^v, Lambda_j^v) = (2/d_i)(C^{-1})_{ij}
        self.gram_weights_scaled, self.gram_weights_den = _reduced(
            [[norm[i] * inv[j][i] for j in range(l)] for i in range(l)], 2 * nd * self.inv_den)
        self.gram_coweights_scaled, self.gram_coweights_den = _reduced(
            [[co[i] * inv[i][j] for j in range(l)] for i in range(l)], self.inv_den)
        self._rows, self._cols = tables.rows, tables.cols
        # (c, _coroot_scaled(c)) for the last tuple c, replaced in one assignment
        self._last_coweight = (None, None)
        self._root_weights = self._positive_roots()
        self.positive_roots = [root for root, _ in self._root_weights]
        self._sanity()

    @cached_property
    def _positive_pairings(self):
        """(alpha in weight coordinates, g) per positive root alpha, where
        g_a = (Lambda_a, alpha) * gram_weights_den.  As (Lambda_a, alpha_b) =
        delta_ab (alpha_a, alpha_a)/2, g is alpha's simple-root coordinates
        times half_a = (Lambda_a, alpha_a) scaled, the Gram row of Lambda_a
        against alpha_a = C[a] in weight coordinates."""
        half = [dot(row, a) for row, a in zip(self.gram_weights_scaled, self.cartan)]
        return [(m, tuple(map(mul, root, half))) for root, m in self._root_weights]

    # -- construction ------------------------------------------------------

    def _positive_roots(self):
        """(beta, m) for beta in Phi+, sorted, m its weight coordinates.  Phi+
        is the simple roots closed under the raising steps
        s_i beta = beta - p alpha_i, p = <beta, alpha_i^vee> < 0.  A step stays
        in Phi+, as s_i permutes Phi+ minus alpha_i (Humphreys, section 10.2).
        A non-simple beta in Phi+ has some p > 0, so it is the raising step s_i
        of the lower positive root s_i beta: by induction on height, all of Phi+.

        Each root is kept with its pairings m_i = <beta, alpha_i^vee>, its
        weight coordinates, so a step reads p = m_i; alpha_i's are row i of
        C, and the new root's are m - p C[i], from the sparse row i."""
        l = self.rank
        found = [(tuple(int(i == j) for j in range(l)), tuple(row))
                 for i, row in enumerate(self.cartan)]
        seen = {root for root, _ in found}
        for root, m in found:               # grows while it is read
            for i, p in enumerate(m):
                if p >= 0:
                    continue                # s_i fixes or lowers the root
                t = root[:i] + (root[i] - p,) + root[i + 1:]
                if t not in seen:
                    seen.add(t)
                    r = list(m)
                    for j, x in self._rows[i]:
                        r[j] -= p * x
                    found.append((t, tuple(r)))
        return sorted(found)

    @cached_property
    def roots(self):
        """Phi, sorted: the positive roots and their negatives."""
        return sorted(self.positive_roots + [tuple(-x for x in r) for r in self.positive_roots])

    def _sanity(self):
        """Tie the tables of cartan to the root closure: 2|Phi+| = dim - rank
        = rank h, which marks that are a long root other than theta break,
        and the marks are a long root theta.  The last check, (theta, theta
        + 2 rho) = 2 h^vee on the integer weight Gram matrix with rho = (1,
        ..., 1), holds for every long root whatever the marks, as (theta,
        2 rho) = 2 sum comarks defines h^vee: it checks the Gram matrix
        against the comarks and catches no typo in the marks."""
        name = kind_name(self.kind)
        theta = tuple(self.marks)
        if 2 * len(self.positive_roots) != self.dim - self.rank:
            raise ArithmeticError(f"{name}: {len(self.positive_roots)} positive roots, "
                                  f"expected {(self.dim - self.rank) // 2}")
        if 2 * len(self.positive_roots) != self.rank * self.coxeter:
            raise ArithmeticError(f"{name}: 2|Phi+| = {2 * len(self.positive_roots)} is not "
                                  f"rank h = {self.rank * self.coxeter}")
        if theta not in self.positive_roots or self.root_pair_sq(theta) != 2:
            raise ArithmeticError(f"{name}: the marks are not a long root")
        w = self.root_to_weight_coords(theta)
        pairing = dot(w, [dot(row, w) + 2 * sum(row) for row in self.gram_weights_scaled])
        if pairing != 2 * self.dual_coxeter * self.gram_weights_den:
            raise ArithmeticError(f"{name}: (theta, theta + 2 rho) is not 2 h^vee = "
                                  f"{2 * self.dual_coxeter}")

    # -- basic forms and conversions ---------------------------------------

    def root_pair_sq(self, root) -> Fraction:
        """(alpha, alpha) for a root in simple-root coordinates, as the
        weight form of alpha in weight coordinates."""
        w = self.root_to_weight_coords(root)
        return self.weight_form(w, w)

    def root_to_weight_coords(self, root) -> tuple:
        """m_j = <alpha, alpha_j^vee>."""
        l = self.rank
        return tuple(sum(root[i] * self.cartan[i][j] for i in range(l)) for j in range(l))

    def root_on_coweight(self, root, h) -> Fraction:
        """alpha(h) for h in fundamental-coweight coordinates: a dot product."""
        c, d = scale_vector(h)
        return Fraction(dot(root, c), d)

    def _coroot_scaled(self, c) -> tuple[tuple[int, ...], int]:
        """(u, d) with C^{-1} c = u / d: h on the simple coroots.

        A one-slot memo holds the last c and its answer, looked up by
        identity, so pairing a weight system against one h scales h once.
        Only a plain tuple is stored: a list or a subclass may change
        between calls.  The memo holds a reference to c, so no other object
        can take its id while it is stored, and u is a tuple, so no caller
        can change the stored answer."""
        last = self._last_coweight
        if last[0] is c:
            return last[1]
        n, d = scale_vector(c)
        out = tuple([dot(row, n) for row in self.inv_scaled]), d * self.inv_den
        if type(c) is tuple:
            self._last_coweight = (c, out)
        return out

    def pair_weight_coweight(self, m, c) -> Fraction:
        """lambda(h) = m^T C^{-1} c.  A weight whose dot product with the
        integer C^{-1} c scaled is an int needs no scaling; Fractions, floats
        and numeric strings go through scale_vector."""
        u, d = self._coroot_scaled(c)
        try:
            s = dot(m, u)
        except TypeError:               # strings do not add to ints
            s = None
        if type(s) is int:
            return Fraction(s, d)
        m, dm = scale_vector(m)
        return Fraction(dot(m, u), d * dm)

    @staticmethod
    def _form(G, den, v1, v2) -> Fraction:
        a, da = scale_vector(v1)
        b, db = scale_vector(v2)
        return Fraction(sum(x * dot(row, b) for x, row in zip(a, G) if x), den * da * db)

    def weight_form(self, m1, m2) -> Fraction:
        """(mu, nu) on the weight side."""
        return self._form(self.gram_weights_scaled, self.gram_weights_den, m1, m2)

    def coweight_form(self, c1, c2) -> Fraction:
        """(h, h') on the coweight side."""
        return self._form(self.gram_coweights_scaled, self.gram_coweights_den, c1, c2)

    def coweight_norm(self, c, d: int) -> Fraction:
        """(h, h) at h = c/d, integers c and d > 0, on the integer Gram matrix."""
        G = self.gram_coweights_scaled
        return Fraction(sum(x * dot(row, c) for x, row in zip(c, G) if x),
                        self.gram_coweights_den * d * d)

    def in_coroot_lattice(self, c) -> bool:
        return in_coroot_lattice(self.kind, c)

    # -- Weyl group actions -------------------------------------------------

    def reflect_weight(self, m, i):
        """s_i m, as a tuple; a tuple m with m_i = 0 comes back as itself."""
        mi = m[i]
        if not mi and type(m) is tuple:
            return m
        r = list(m)
        for j, x in self._rows[i]:
            r[j] -= mi * x
        return tuple(r)

    def level(self, m) -> Fraction:
        c, d = scale_vector(m)
        return Fraction(dot(c, self.comarks), d)


@lru_cache(maxsize=None)
def build_root_system(kind: Kind) -> RootSystem:
    return RootSystem(kind)


def root_system(spec) -> RootSystem:
    """Accepts a (letter, rank) pair or a string like 'E6'."""
    if isinstance(spec, str):
        return build_root_system(parse_kind(spec))
    return build_root_system(validate_kind(tuple(spec)))


def dominant_weights_of_level(rs: RootSystem, k: int) -> list[tuple]:
    """All dominant integral weights of level at most k, lexicographic order."""
    if k < 0:
        raise ValueError("the level bound must be non-negative")
    out = []
    l = rs.rank
    m = [0] * l

    def rec(i, budget):
        if i == l:
            out.append(tuple(m))
            return
        step = rs.comarks[i]
        top = budget // step
        for v in range(top + 1):
            m[i] = v
            rec(i + 1, budget - v * step)
        m[i] = 0

    rec(0, k)
    return sorted(out)


def dominant_below(table: WeylTables, lam: tuple) -> list[tuple[int, tuple[int, ...]]]:
    """(depth, mu) for every dominant integral mu <= lam, sorted, the depth
    being the height of lam - mu.

    mu <= lam means k = C^{-1}(lam - mu), the simple-root coordinates of
    lam - mu, is a non-negative integer vector.  Every entry of C^{-1} is
    positive (G. Lusztig and J. Tits, "The inverse of a Cartan matrix",
    An. Univ. Timisoara 30 (1992) 17-23), so raising mu_j lowers every k_i.
    The walk sets mu_0, mu_1, ... in turn on den * k, which mu_j = v lowers
    by v * inv[j], and stops v where an entry would turn negative; a leaf
    is kept when den divides all of den * k.  The cut is only sound for a
    positive C^{-1}, so any other table raises ArithmeticError."""
    inv, den = table.inv, table.den
    if min(map(min, inv)) <= 0:
        raise ArithmeticError("the walk below lam needs every entry of C^{-1} positive")
    l = len(lam)
    mu = [0] * l
    out = []

    def walk(j, k):
        if j == l:
            if not any(x % den for x in k):
                out.append((sum(k) // den, tuple(mu)))
            return
        row = inv[j]
        for v in range(min(map(floordiv, k, row)) + 1):
            mu[j] = v
            walk(j + 1, k)
            k = list(map(sub, k, row))

    walk(0, [dot(col, lam) for col in zip(*inv)])
    out.sort()
    return out


def _dominant_integral(m, rank: int) -> tuple[int, ...]:
    """m as a tuple of ints; ValueError unless it is a dominant integral
    weight with rank entries.  Non-negative ints (not bools) pass as they
    are; every other entry is read as a Fraction."""
    m = tuple(m)
    if len(m) != rank:
        raise ValueError(f"weight {m} has {len(m)} entries, not {rank}")
    if all(type(x) is int and x >= 0 for x in m):
        return m
    out = [Fraction(x) for x in m]
    if any(x.denominator != 1 for x in out):
        raise ValueError(f"weight {m} is not integral")
    if any(x < 0 for x in out):
        raise ValueError(f"weight {m} is not dominant integral")
    return tuple([x.numerator for x in out])


def weyl_dimension(rs: RootSystem, m) -> int:
    """Weyl dimension formula, exact."""
    # (lambda + delta, alpha) / (delta, alpha); the common scale of the Gram
    # matrix cancels between numerator and denominator
    lam_delta = [x + 1 for x in _dominant_integral(m, rs.rank)]
    num = den = 1
    for _, g in rs._positive_pairings:
        num *= dot(lam_delta, g)
        den *= sum(g)
    d, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl dimension of {tuple(m)} is not an integer")
    return d


@lru_cache(maxsize=None)
def _weight_system_cached(kind: Kind, m: tuple) -> Mapping[tuple, int]:
    return MappingProxyType(_weight_system(build_root_system(kind), m))


def weight_system(rs: RootSystem, m) -> Mapping[tuple, int]:
    """Weights of the irreducible module of highest weight m, with
    multiplicities, as a read-only view: the cache hands the same mapping
    to every caller."""
    return _weight_system_cached(rs.kind, _dominant_integral(m, rs.rank))


def _weight_system(rs: RootSystem, lam: tuple) -> dict[tuple, int]:
    """Freudenthal's recursion on integers: every inner product is scaled by
    the Gram denominator, which cancels in the quotient.  The dominant
    weights below lam come from the walk of dominant_below, cut wherever
    C^{-1}(lam - mu) turns negative.  The dict lists their orbits in order
    of depth below lam, ties by mu, each orbit in the order of orbit_tree."""
    G = rs.gram_weights_scaled
    dominant = dominant_below(weyl_tables(rs.kind), lam)

    def norm(mu):                       # (mu + delta, mu + delta), scaled
        v = [x + 1 for x in mu]
        return sum(x * dot(row, v) for x, row in zip(v, G))

    # (alpha in weight coordinates, g, (alpha, alpha)) per positive root,
    # g_a = (Lambda_a, alpha), all scaled
    roots = [(w, g, dot(w, g)) for w, g in rs._positive_pairings]
    full: dict[tuple, int] = {}
    get = full.get
    norm_top = norm(lam)
    for depth, mu in dominant:
        if depth == 0:
            val = 1
        else:
            # weights along mu + k alpha, k >= 1, form a contiguous string,
            # and each has its dominant conjugate at a smaller depth, so its
            # orbit is already in full; the first miss ends the string.
            acc = 0
            for wroot, g, step in roots:
                shifted = tuple(map(add, mu, wroot))
                mult = get(shifted)
                if mult is None:
                    continue
                pair = dot(mu, g)
                while mult is not None:
                    pair += step
                    acc += mult * pair
                    shifted = tuple(map(add, shifted, wroot))
                    mult = get(shifted)
            val, r = divmod(2 * acc, norm_top - norm(mu))
            if r:
                raise ArithmeticError(f"Freudenthal multiplicity of {mu} in {lam} is not integral")
        full.update(dict.fromkeys(orbit_tree(rs._rows, mu), val))
    return full


def orbit_tree(rows, lam) -> list[tuple[int, ...]]:
    """The Weyl orbit of a dominant integral weight lam, each member once,
    level by level down from lam.  rows is the rows of weyl_tables.

    Every mu != lam in the orbit has exactly one parent: s_f mu, f the least
    index with mu_f < 0.  Such an f exists, as the orbit meets the dominant
    chamber only in lam.  The parent s_f mu = mu - mu_f alpha_f is higher
    than mu, so following parents climbs through the finite orbit and stops
    at a member with no negative entry, which is lam.  The walk keeps the
    child s_i nu of nu exactly when nu is its parent: nu_i > 0, so that
    (s_i nu)_i = -nu_i < 0, and (s_i nu)_j >= 0 for every j < i.  Each
    member is then reached once, down its chain of parents from lam.

    With f the least index of nu with nu_f < 0 (the rank for lam), every
    i < f with nu_i > 0 passes, since s_i adds nu_i |C_ij| >= 0 to each
    other entry j; an i > f passes only if (s_i nu)_f = nu_f - nu_i C_if
    >= 0, so only if i is a neighbour of f, and those are tested.
    """
    # beyond[f]: the neighbours of node f above f
    beyond = [tuple(j for j, _ in row if j > f) for f, row in enumerate(rows)] + [()]
    out, firsts = [lam], [len(lam)]
    for nu, f in zip(out, firsts):      # both grow while they are read
        for i, x in enumerate(nu[:f]):
            if x > 0:
                r = list(nu)
                for j, y in rows[i]:
                    r[j] -= x * y
                out.append(tuple(r))
                firsts.append(i)
        for i in beyond[f]:
            x = nu[i]
            if x > 0:
                r = list(nu)
                for j, y in rows[i]:
                    r[j] -= x * y
                if min(r[:i]) >= 0:
                    out.append(tuple(r))
                    firsts.append(i)
    return out


def affine_conformal_weight(rs: RootSystem, k: int, m) -> Fraction:
    """(lambda + 2 delta, lambda) / (2(k + h_vee)) for a level <= k weight."""
    _dominant_integral(m, rs.rank)
    if rs.level(m) > k:
        raise ValueError(f"weight {tuple(m)} has level above {k}")
    shifted = tuple(x + 2 for x in m)
    return rs.weight_form(shifted, m) / (2 * (k + rs.dual_coxeter))


def min_weight_pairing(rs: RootSystem, m, h) -> Fraction:
    """min over the weight system of lambda = m of mu(h).

    Equals lambda evaluated at the antidominant Weyl conjugate of h, since
    the minimum over the weight polytope is attained on the extreme orbit.
    With h = c/d, h_minus = -(dominant conjugate of -c)/d, and the pairing
    runs on integers until the one Fraction returned.
    """
    c, d = scale_vector(h)
    minus, _ = dominant_walk(rs._cols, [-x for x in c])
    n, dm = scale_vector(m)
    u = [dot(row, minus) for row in rs.inv_scaled]
    return Fraction(-dot(n, u), d * rs.inv_den * dm)


@dataclass(frozen=True)
class AffineStructure:
    """Semisimple weight-one structure g_{1,k_1}...g_{r,k_r} plus abelian rank."""

    components: tuple[tuple[Kind, int], ...]
    abelian_rank: int = 0

    def __post_init__(self):
        comps = tuple((validate_kind(tuple(k)), level) for k, level in self.components)
        for _, level in comps:
            if type(level) is not int or level <= 0:
                raise ValueError("levels must be positive integers")
        if type(self.abelian_rank) is not int or self.abelian_rank < 0:
            raise ValueError("abelian rank must be a non-negative integer")
        object.__setattr__(self, "components", comps)

    def dimension(self) -> int:
        return sum(classical_dimension(k) for k, _ in self.components) + self.abelian_rank

    def kinds(self) -> list[Kind]:
        return [k for k, _ in self.components]

    def label(self) -> str:
        if not self.components and not self.abelian_rank:
            return "0"
        parts = [f"{kind_name(k)}" + (f",{level}" if level != 1 else "")
                 for k, level in self.components]
        if self.abelian_rank:
            parts.append(f"C^{self.abelian_rank}")
        return " ".join(parts)


def schellekens_constraint(structure: AffineStructure):
    """Check h_vee_i / k_i = (dim - 24)/24 across all simple components.

    Returns (holds, ratio) with ratio the common value when it holds.
    """
    if not structure.components:
        return (True, Fraction(structure.dimension() - 24, 24)) if structure.abelian_rank else (True, Fraction(0))
    target = Fraction(structure.dimension() - 24, 24)
    for kind, level in structure.components:
        if Fraction(dual_coxeter(kind), level) != target:
            return False, None
    return True, target
