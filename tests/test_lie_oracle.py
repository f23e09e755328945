"""Differential test of the scaled-integer Lie kernel against the Fraction
implementations it replaced, kept here as the oracle: the old bodies, with
the root system passed as rs and every call going to another oracle.  The
Fraction matrices the old bodies read (C^{-1} and the Gram matrices) are
built here as RootSystem used to build them, by Fraction Gauss-Jordan, and
the roots by the full reflection closure that the raising closure replaced."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import cycle
from math import lcm
from types import SimpleNamespace

import pytest

from orbdim.cartan import _VALID_RANKS, cartan_determinant
from orbdim.liealg import (
    _adjugate,
    _dominant_integral,
    alcove_walk,
    build_root_system,
    coroot_order,
    dominant_below,
    dominant_walk,
    dominant_weights_of_level,
    dot,
    in_alcove_range,
    in_coroot_lattice,
    min_weight_pairing,
    orbit_tree,
    scale_vector,
    unwalk,
    weight_system,
    weyl_dimension,
    weyl_tables,
)
from orbdim.orbifold import alcove_representative

KINDS = [("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 6)] + \
    [("C", r) for r in range(3, 6)] + [("D", r) for r in range(4, 7)] + \
    [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]

DENOMINATORS = (1, 2, 3, 4, 5, 6, 8)

# every (letter, rank) that cartan accepts, D3 (built as A3) included
ACCEPTED_KINDS = [(letter, r) for letter, ranks in _VALID_RANKS.items() for r in ranks]


# -- the oracle: Fraction arithmetic throughout ------------------------------

def _mat_inverse(M):
    """Exact inverse of a square matrix of Fractions (Gauss-Jordan)."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv = Fraction(1) / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def _scale_matrix(M) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, d) with M = N / d entrywise, d the lcm of all the entries' denominators."""
    d = lcm(*(x.denominator for row in M for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in M), d


@lru_cache(maxsize=None)
def fraction_matrices(kind):
    """cartan_inv, gram_weights, gram_coweights and root_gram as Fraction
    matrices, computed from the Cartan matrix and the root norms alone."""
    rs = build_root_system(kind)
    l = rs.rank
    cartan_inv = _mat_inverse(rs.cartan)
    # (Lambda_i, Lambda_j) = d_i/2 (C^{-1})_{ji};  (Lambda_i^v, Lambda_j^v) = (2/d_i)(C^{-1})_{ij}
    gram_weights = [[rs.norms[i] / 2 * cartan_inv[j][i] for j in range(l)] for i in range(l)]
    gram_coweights = [[2 / rs.norms[i] * cartan_inv[i][j] for j in range(l)] for i in range(l)]
    # (alpha_i, alpha_j) = C[i][j] d_j / 2
    root_gram = [[Fraction(rs.cartan[i][j]) * rs.norms[j] / 2 for j in range(l)]
                 for i in range(l)]
    return SimpleNamespace(cartan_inv=cartan_inv, gram_weights=gram_weights,
                           gram_coweights=gram_coweights, root_gram=root_gram)


def _frac_vec(values):
    return tuple(Fraction(v) for v in values)


def _reflection_closure(rs):
    """(Phi, Phi+): the simple roots closed under every s_i, then negated,
    and the roots whose first non-zero coordinate is positive."""
    l = rs.rank
    simple = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for root in frontier:
            for i in range(l):
                pairing = sum(root[j] * rs.cartan[j][i] for j in range(l))
                if not pairing:
                    continue
                refl = list(root)
                refl[i] -= pairing
                t = tuple(refl)
                if t not in seen:
                    seen.add(t)
                    new.append(t)
        frontier = new
    seen |= {tuple(-x for x in r) for r in seen}
    roots = sorted(seen)
    return roots, [r for r in roots if next(x for x in r if x) > 0]


def _root_pair_sq(rs, root):
    l = rs.rank
    root_gram = fraction_matrices(rs.kind).root_gram
    return sum(Fraction(root[i]) * root_gram[i][j] * root[j]
               for i in range(l) for j in range(l))


def _root_on_coweight(rs, root, h):
    return sum(Fraction(n) * Fraction(c) for n, c in zip(root, h))


def _pair_weight_coweight(rs, m, c):
    l = rs.rank
    cartan_inv = fraction_matrices(rs.kind).cartan_inv
    total = Fraction(0)
    for i in range(l):
        if m[i]:
            row = cartan_inv[i]
            total += Fraction(m[i]) * sum(row[j] * Fraction(c[j]) for j in range(l))
    return total


def _weight_form(rs, m1, m2):
    l = rs.rank
    gram_weights = fraction_matrices(rs.kind).gram_weights
    total = Fraction(0)
    for i in range(l):
        if m1[i]:
            total += Fraction(m1[i]) * sum(gram_weights[i][j] * Fraction(m2[j])
                                           for j in range(l) if m2[j])
    return total


def _coweight_form(rs, c1, c2):
    l = rs.rank
    gram_coweights = fraction_matrices(rs.kind).gram_coweights
    total = Fraction(0)
    for i in range(l):
        if c1[i]:
            total += Fraction(c1[i]) * sum(gram_coweights[i][j] * Fraction(c2[j])
                                           for j in range(l) if c2[j])
    return total


def _coweight_to_coroot_coords(rs, c):
    l = rs.rank
    cartan_inv = fraction_matrices(rs.kind).cartan_inv
    return tuple(sum(cartan_inv[i][j] * Fraction(c[j]) for j in range(l))
                 for i in range(l))


def _in_coroot_lattice(rs, c):
    return all(x.denominator == 1 for x in _coweight_to_coroot_coords(rs, c))


def _walk_in_coroot_lattice(kind, v):
    """v in Q^vee.  det C * P^vee lies in Q^vee, as det C is the order of
    P^vee/Q^vee, so an integral v is first reduced entrywise mod det C,
    towards 0: an entry keeps its sign and entries below det C in absolute
    value stay, so small vectors walk as before.  The alcove walk keeps v
    mod Q^vee and takes an integral v to an integral point of the alcove:
    0, or one minuscule coweight per non-zero class of P^vee/Q^vee."""
    c, d = scale_vector(v)
    if d != 1:
        return False
    m = cartan_determinant(kind)
    return not any(alcove_walk(kind, [x % m if x >= 0 else -(-x % m) for x in c], 1)[0])


def _reflect_weight(rs, m, i):
    mi = m[i]
    return tuple(Fraction(m[j]) - mi * rs.cartan[i][j] for j in range(rs.rank))


def _reflect_coweight(rs, c, i):
    ci = Fraction(c[i])
    return tuple(Fraction(c[j]) - ci * rs.cartan[j][i] for j in range(rs.rank))


def _dominant_weight_conjugate(rs, m):
    m = _frac_vec(m)
    while True:
        for i in range(rs.rank):
            if m[i] < 0:
                m = _reflect_weight(rs, m, i)
                break
        else:
            return m


def _weyl_antidominant(rs, h):
    c = _frac_vec(h)
    word = []
    while True:
        for i in range(rs.rank):
            if c[i] > 0:
                c = _reflect_coweight(rs, c, i)
                word.append(i)
                break
        else:
            return c, word


def _weyl_orbit(rs, m):
    start = tuple(int(x) for x in m)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for w in frontier:
            for i in range(rs.rank):
                if w[i] != 0:
                    r = tuple(int(x) for x in _reflect_weight(rs, w, i))
                    if r not in seen:
                        seen.add(r)
                        new.append(r)
        frontier = new
    return seen


def _weyl_dimension(rs, m):
    delta = (1,) * rs.rank
    num = Fraction(1)
    den = Fraction(1)
    lam_delta = tuple(Fraction(x) + 1 for x in m)
    for root in rs.positive_roots:
        wroot = rs.root_to_weight_coords(root)
        num *= _weight_form(rs, lam_delta, wroot)
        den *= _weight_form(rs, delta, wroot)
    d = num / den
    assert d.denominator == 1
    return int(d)


def _weight_system(rs, lam):
    l = rs.rank
    cartan_inv = fraction_matrices(rs.kind).cartan_inv
    lam_v = _frac_vec(lam)
    dominant = []
    for cand in dominant_weights_of_level(rs, int(rs.level(lam))):
        diff = tuple(Fraction(a) - b for a, b in zip(lam_v, cand))
        k = tuple(sum(cartan_inv[j][i] * diff[j] for j in range(l)) for i in range(l))
        if all(x.denominator == 1 and x >= 0 for x in k):
            dominant.append((sum(k), cand))
    dominant.sort()
    mults = {}
    lam_delta = tuple(x + 1 for x in lam_v)
    norm_top = _weight_form(rs, lam_delta, lam_delta)
    pos_w = [rs.root_to_weight_coords(r) for r in rs.positive_roots]
    for depth, mu in dominant:
        if depth == 0:
            mults[mu] = 1
            continue
        mu_delta = tuple(Fraction(x) + 1 for x in mu)
        denom = norm_top - _weight_form(rs, mu_delta, mu_delta)
        acc = Fraction(0)
        for wroot in pos_w:
            k = 1
            while True:
                shifted = tuple(a + k * b for a, b in zip(mu, wroot))
                dom = tuple(int(x) for x in _dominant_weight_conjugate(rs, shifted))
                mult = mults.get(dom)
                if mult is None:
                    break
                acc += mult * _weight_form(rs, shifted, wroot)
                k += 1
        val = 2 * acc / denom
        assert val.denominator == 1, "Freudenthal multiplicity must be integral"
        mults[mu] = int(val)
    full = {}
    for mu, mult in mults.items():
        for w in _weyl_orbit(rs, mu):
            full[w] = mult
    return full


def _alcove_point(rs, h):
    c = tuple(Fraction(x) for x in h)
    word = []
    theta_covec = tuple(sum(rs.comarks[i] * Fraction(rs.cartan[j][i]) for i in range(rs.rank))
                        for j in range(rs.rank))
    while True:
        moved = False
        for i in range(rs.rank):
            if c[i] < 0:
                c = _reflect_coweight(rs, c, i)
                word.append(i)
                moved = True
                break
        if moved:
            continue
        t = sum(Fraction(a) * x for a, x in zip(rs.marks, c))
        if t > 1:
            c = tuple(x - (t - 1) * tv for x, tv in zip(c, theta_covec))
            word.append("theta")
            continue
        return c, word


def _apply_inverse_linear(rs, word, c):
    theta_covec = tuple(sum(rs.comarks[i] * Fraction(rs.cartan[j][i]) for i in range(rs.rank))
                        for j in range(rs.rank))
    for op in reversed(word):
        if op == "theta":
            t = sum(Fraction(a) * x for a, x in zip(rs.marks, c))
            c = tuple(x - t * tv for x, tv in zip(c, theta_covec))
        else:
            c = _reflect_coweight(rs, c, op)
    return c


def _alcove_representative(rs, h):
    tilde, word = _alcove_point(rs, h)
    cur = _apply_inverse_linear(rs, word, tilde)
    coroot_dirs = []
    l = rs.rank
    root_gram = fraction_matrices(rs.kind).root_gram
    for root in rs.positive_roots:
        nn = _root_pair_sq(rs, root)
        pair = [2 * sum(root_gram[j][i] * root[i] for i in range(l)) / nn for j in range(l)]
        coroot_dirs.append(tuple(pair))
    improved = True
    norm = _coweight_form(rs, cur, cur)
    while improved:
        improved = False
        for v in coroot_dirs:
            for sign in (1, -1):
                cand = tuple(c - sign * x for c, x in zip(cur, v))
                cn = _coweight_form(rs, cand, cand)
                if cn < norm:
                    cur, norm = cand, cn
                    improved = True
    if any(abs(_root_on_coweight(rs, root, cur)) > 1 for root in rs.roots):
        raise ArithmeticError(f"alcove reduction of {tuple(h)} left the alcove")
    return cur


# -- seeded inputs -------------------------------------------------------------

def _coweight(rng, rank):
    """Mixed denominators, one of them possibly 1 throughout."""
    return tuple(Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS)) for _ in range(rank))


def _weight(rng, rank, fractional=False):
    if fractional:
        return tuple(Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS)) for _ in range(rank))
    return tuple(rng.randint(-4, 4) for _ in range(rank))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_pairings_forms_and_reflections_match_oracle(kind):
    rs = build_root_system(kind)
    rng = random.Random(f"forms-{kind}")
    ks = [rng.randint(-3, 3) for _ in range(rs.rank)]
    coroot_point = tuple(sum(rs.cartan[j][i] * k for i, k in enumerate(ks)) for j in range(rs.rank))
    cws = [_coweight(rng, rs.rank) for _ in range(6)] + [coroot_point, tuple(range(rs.rank))]
    wts = [_weight(rng, rs.rank) for _ in range(6)] + [_weight(rng, rs.rank, True) for _ in range(2)]
    for c in cws:
        assert rs.in_coroot_lattice(c) == _in_coroot_lattice(rs, c)
        for root in rs.roots[::7]:
            assert rs.root_on_coweight(root, c) == _root_on_coweight(rs, root, c)
            assert rs.root_pair_sq(root) == _root_pair_sq(rs, root)
        for c2 in cws:
            assert rs.coweight_form(c, c2) == _coweight_form(rs, c, c2)
        num, d = scale_vector(c)
        for i in range(rs.rank):        # s_i = s_i^{-1}
            assert tuple(Fraction(x, d) for x in unwalk(kind, [i], num)) == _reflect_coweight(rs, c, i)
        minus, word = dominant_walk(weyl_tables(kind).cols, [-x for x in num])
        h_minus = tuple(Fraction(-x, d) for x in minus)
        old_minus, old_word = _weyl_antidominant(rs, c)
        assert h_minus == old_minus
        assert word == old_word
        for m in wts:
            assert rs.pair_weight_coweight(m, c) == _pair_weight_coweight(rs, m, c)
    assert rs.in_coroot_lattice(coroot_point)
    for m in wts:
        num, d = scale_vector(m)
        dom = dominant_walk(weyl_tables(kind).rows, num)[0]
        assert tuple(Fraction(x, d) for x in dom) == _dominant_weight_conjugate(rs, m)
        for m2 in wts:
            assert rs.weight_form(m, m2) == _weight_form(rs, m, m2)
        for i in range(rs.rank):
            assert rs.reflect_weight(m, i) == _reflect_weight(rs, m, i)


class _TupleSubclass(tuple):
    pass


def _module_order_bound(rs, h):
    """Smallest k with k h in Q^vee: the lcm of the denominators of C^{-1} h."""
    return lcm(*(x.denominator for x in _coweight_to_coroot_coords(rs, h)))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_pairing_memo_matches_oracle(kind):
    """The root system keeps the last tuple coweight and C^{-1} of it, found
    by identity; every way of handing a coweight in again gives the oracle's
    pairing, and coroot_order, which reads C^{-1} from weyl_tables and not
    the memo, the oracle's order."""
    rs = build_root_system(kind)
    rng = random.Random(f"memo-{kind}")
    wts = [_weight(rng, rs.rank) for _ in range(3)] + [_weight(rng, rs.rank, True)]

    def check(c):
        for m in wts:
            assert rs.pair_weight_coweight(m, c) == _pair_weight_coweight(rs, m, c)
        assert coroot_order(kind, c) == _module_order_bound(rs, c)

    h1, h2 = _coweight(rng, rs.rank), _coweight(rng, rs.rank)
    check(h1)                                   # the same tuple twice
    check(h1)
    assert rs._last_coweight[0] is h1
    twin = tuple(list(h1))                      # equal but distinct
    assert twin == h1 and twin is not h1
    check(twin)
    assert rs._last_coweight[0] is twin
    for c in (h1, h2, h1, h2):                  # two coweights in turn
        check(c)
    as_list = list(h2)                          # a list changed in place
    check(as_list)
    as_list[0] += Fraction(1, 7)
    as_list[-1] = -as_list[-1] + 1
    check(as_list)
    assert rs._last_coweight[0] is h2
    sub = _TupleSubclass(h1)                    # a tuple subclass
    check(sub)
    check(sub)
    assert rs._last_coweight[0] is h2
    u, d = rs._coroot_scaled(h2)
    assert type(u) is tuple and tuple(Fraction(x, d) for x in u) == \
        _coweight_to_coroot_coords(rs, h2)


@lru_cache(maxsize=None)
def _small_highest_weights(kind):
    """Dominant weights of level 1 and 2 whose modules have dimension <= 400,
    shared by the tests of one kind."""
    rs = build_root_system(kind)
    pool = [lam for level in (1, 2) for lam in dominant_weights_of_level(rs, level)]
    return sorted({lam for lam in pool if _weyl_dimension(rs, lam) <= 400})


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_orbits_from_non_dominant_starts_match_oracle(kind):
    """The orbit tree of the dominant conjugate lists each member once and
    finds the same orbit as the oracle's walk over every non-zero entry,
    from seeded weights of the small weight systems, most of them not
    dominant, and from seeded small highest weights."""
    rs = build_root_system(kind)
    rng = random.Random(f"orbits-{kind}")
    rows = weyl_tables(kind).rows
    pool = _small_highest_weights(kind)
    starts = []
    for lam in pool:
        ws = sorted(weight_system(rs, lam))
        starts += rng.sample(ws, min(2, len(ws)))
    assert any(min(w) < 0 for w in starts)
    starts += rng.sample(pool, min(4, len(pool)))
    for w in starts:
        tree = orbit_tree(rows, tuple(dominant_walk(rows, w)[0]))
        assert len(tree) == len(set(tree))
        assert set(tree) == _weyl_orbit(rs, w)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_pairing_and_reflection_input_types_match_oracle(kind):
    """pair_weight_coweight pairs a weight of ints without scaling it; int
    lists, bools, Fractions, floats, numeric strings and mixed entries give
    the oracle's value too.  reflect_weight returns a tuple for a list and a
    tuple m itself when m_i = 0."""
    rs = build_root_system(kind)
    rng = random.Random(f"types-{kind}")
    l = rs.rank
    h = _coweight(rng, l)
    ints = [_weight(rng, l) for _ in range(3)]
    fracs = [_weight(rng, l, True) for _ in range(2)]
    inputs = [tuple(bool(x % 2) for x in ints[0])]
    for m in ints + fracs:
        inputs += [m, list(m), tuple(map(Fraction, m)), tuple(map(float, m)), tuple(map(str, m)),
                   tuple(conv(x) for conv, x in zip(cycle((int, Fraction, float, str)), m))]
    for m in inputs:
        got = rs.pair_weight_coweight(m, h)
        assert type(got) is Fraction and got == _pair_weight_coweight(rs, m, h), m
    for i in range(l):
        m = list(ints[1])
        m[i] = 0
        reflected = rs.reflect_weight(m, i)
        assert type(reflected) is tuple and reflected == _reflect_weight(rs, m, i) == tuple(m)
        t = tuple(m)
        assert rs.reflect_weight(t, i) is t


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_min_weight_pairing_matches_brute_force(kind):
    rs = build_root_system(kind)
    rng = random.Random(f"min-pairing-{kind}")
    hs = [_coweight(rng, rs.rank) for _ in range(2)]
    # lambda(h) = sum_i lambda_i u_i with u = C^{-1} h from the Fraction inverse
    us = [_coweight_to_coroot_coords(rs, h) for h in hs]
    for lam in _small_highest_weights(kind):
        ws = weight_system(rs, lam)
        for h, u in zip(hs, us):
            assert min_weight_pairing(rs, lam, h) == \
                min(sum(x * y for x, y in zip(w, u)) for w in ws)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_weight_systems_and_dimensions_match_oracle(kind):
    rs = build_root_system(kind)
    rng = random.Random(f"weights-{kind}")
    pool = _small_highest_weights(kind)
    for lam in pool:
        assert weyl_dimension(rs, lam) == _weyl_dimension(rs, lam)
    rows = weyl_tables(kind).rows
    for lam in [pool[0], pool[-1]] + rng.sample(pool, min(2, len(pool))):
        ws = weight_system(rs, lam)
        oracle = _weight_system(rs, lam)
        assert ws == oracle
        # orbit by orbit in the oracle's order, each orbit in its tree's order
        dominant = dict.fromkeys(tuple(dominant_walk(rows, w)[0]) for w in oracle)
        assert list(ws) == [w for mu in dominant for w in orbit_tree(rows, mu)]
        some = next(iter(oracle))
        assert set(orbit_tree(rows, tuple(dominant_walk(rows, some)[0]))) == \
            _weyl_orbit(rs, some)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_alcove_reduction_matches_oracle(kind):
    rs = build_root_system(kind)
    rng = random.Random(f"alcove-{kind}")
    for h in [_coweight(rng, rs.rank) for _ in range(5)] + [(0,) * rs.rank]:
        c, d = scale_vector(h)
        tilde, word = alcove_walk(kind, c, d)
        old_tilde, old_word = _alcove_point(rs, h)
        assert tuple(Fraction(x, d) for x in tilde) == old_tilde
        assert word == old_word
        assert tuple(Fraction(x, d) for x in unwalk(kind, word, tilde)) == \
            _apply_inverse_linear(rs, word, old_tilde)
        assert alcove_representative(rs, h) == _alcove_representative(rs, h)


@pytest.mark.parametrize("kind", ACCEPTED_KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_roots_match_reflection_closure(kind):
    """The raising closure gives the oracle's positive roots, and roots the
    oracle's full root system, both in the oracle's sorted order."""
    rs = build_root_system(kind)
    roots, positive = _reflection_closure(rs)
    assert rs.positive_roots == positive
    assert rs.roots == roots


def _positive_roots_oracle(rs):
    """Phi+, sorted, by the raising closure as it was before each root kept
    its pairings: <beta, alpha_i^vee> summed from column i of C at every
    step."""
    l = rs.rank
    found = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    seen = set(found)
    for root in found:                  # grows while it is read
        for i, col in enumerate(rs._cols):
            pairing = sum(root[j] * x for j, x in col)
            if pairing >= 0:
                continue
            t = root[:i] + (root[i] - pairing,) + root[i + 1:]
            if t not in seen:
                seen.add(t)
                found.append(t)
    return sorted(found)


VALID_KINDS = [k for k in ACCEPTED_KINDS if k != ("D", 3)]


@pytest.mark.parametrize("kind", VALID_KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_positive_roots_match_the_column_sum_closure(kind):
    """Carrying each root's pairings gives the column-sum closure's list,
    in its order, for every valid kind up to rank 24."""
    rs = build_root_system(kind)
    assert rs.positive_roots == _positive_roots_oracle(rs)
    assert len(rs.positive_roots) == (rs.dim - rs.rank) // 2


MATRIX_KINDS = ([("A", r) for r in range(1, 25)] + [("B", r) for r in range(2, 13)]
                + [("C", r) for r in range(2, 13)] + [("D", r) for r in range(4, 17)]
                + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("kind", MATRIX_KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_integer_matrices_match_fraction_gauss_jordan(kind):
    """C^{-1} and both Gram matrices, built by fraction-free elimination,
    equal the Fraction construction, and theta^vee is checked against the
    Fraction root Gram matrix as <alpha_j, theta^vee> = (alpha_j, theta),
    theta long."""
    rs = build_root_system(kind)
    oracle = fraction_matrices(kind)
    assert (rs.inv_scaled, rs.inv_den) == _scale_matrix(oracle.cartan_inv)
    assert (rs.gram_weights_scaled, rs.gram_weights_den) == _scale_matrix(oracle.gram_weights)
    assert (rs.gram_coweights_scaled, rs.gram_coweights_den) == \
        _scale_matrix(oracle.gram_coweights)
    theta = rs.marks
    assert weyl_tables(kind).theta == tuple(sum(a * x for a, x in zip(theta, row))
                                            for row in oracle.root_gram)
    assert cartan_determinant(kind) == _adjugate(rs.cartan)[1]


def _check_alcove_condition(rs, h):
    """alpha(h) >= -1 for every root, in integers over the denominator of h."""
    scaled, den = scale_vector(h)
    return all(dot(r, scaled) >= -den for r in rs.roots)


@pytest.mark.parametrize("kind", MATRIX_KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_walk_lattice_tests_match_oracles(kind):
    """in_alcove_range against the loop over all roots, in_coroot_lattice
    against the Fraction C^{-1}, on random points and their alcove
    representatives.  h = -Lambda_i^vee / a_i has min alpha(h) = -theta_i / a_i
    = -1 exactly; 1 + 1/a_i times it goes below -1."""
    rs = build_root_system(kind)
    rng = random.Random(f"lattice-{kind}")
    l = rs.rank
    for i, a in enumerate(rs.marks):
        edge = tuple(Fraction(-int(j == i), a) for j in range(l))
        beyond = tuple((1 + Fraction(1, a)) * x for x in edge)
        assert in_alcove_range(kind, edge) and _check_alcove_condition(rs, edge)
        assert not in_alcove_range(kind, beyond) and not _check_alcove_condition(rs, beyond)
    seen = set()
    for _ in range(12):
        den = rng.choice([1, 2, 3, 4, 6])
        h = tuple(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(l))
        ks = [rng.randint(-3, 3) for _ in range(l)]
        coroot = tuple(dot(row, ks) for row in rs.cartan)      # sum_j k_j alpha_j^vee
        v = tuple(rng.randint(-3, 3) for _ in range(l))
        for w in (h, alcove_representative(rs, h)):
            ok = in_alcove_range(kind, w)
            assert ok == _check_alcove_condition(rs, w), w
            seen.add(("alcove", ok))
        for w in (h, v, coroot, tuple(x + y for x, y in zip(v, coroot))):
            ok = in_coroot_lattice(kind, w)
            assert ok == _in_coroot_lattice(rs, w), w
            seen.add(("coroot", ok))
    assert seen == {("alcove", True), ("alcove", False), ("coroot", True), ("coroot", False)}


BIG = 10**12


@pytest.mark.parametrize("kind", MATRIX_KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_coroot_coordinates_match_walk_and_fraction_oracles(kind):
    """in_coroot_lattice, read off C^{-1} v from weyl_tables, against the
    alcove walk after reduction mod det C and against the Fraction C^{-1},
    on integer vectors with entries up to 10^12, coroot points and their
    sums; coroot_order against the lcm of the Fraction coordinates'
    denominators on coweights with denominators 1..12.  The root system
    holds the same C^{-1} object as weyl_tables."""
    rs = build_root_system(kind)
    assert weyl_tables(kind).inv is rs.inv_scaled and weyl_tables(kind).den == rs.inv_den
    rng = random.Random(f"coroot-{kind}")
    l = rs.rank
    seen = set()
    for _ in range(8):
        ks = [rng.randint(-BIG, BIG) for _ in range(l)]
        coroot = tuple(dot(row, ks) for row in rs.cartan)      # sum_j k_j alpha_j^vee
        v = tuple(rng.randint(-BIG, BIG) for _ in range(l))
        assert in_coroot_lattice(kind, coroot)
        for w in (v, coroot, tuple(x + y for x, y in zip(v, coroot))):
            ok = in_coroot_lattice(kind, w)
            assert ok == _walk_in_coroot_lattice(kind, w) == _in_coroot_lattice(rs, w), w
            seen.add(ok)
    assert seen == ({True} if cartan_determinant(kind) == 1 else {True, False})
    for den in range(1, 13):
        h = tuple(Fraction(rng.randint(-BIG, BIG), den) for _ in range(l))
        k = coroot_order(kind, h)
        assert k == _module_order_bound(rs, h), h
        assert in_coroot_lattice(kind, [k * x for x in h])


def _dominant_by_level_filter(rs, lam):
    """The search dominant_below replaced, kept as its oracle: every dominant
    weight of level at most lam's, kept when lam - mu lies in Q+."""
    den = rs.inv_den
    cols = list(zip(*rs.inv_scaled))
    # dominant weights mu <= lam: level is bounded by lam's, difference in Q+;
    # its simple-root coordinates are k_i = sum_j (C^{-1})_{ji} diff_j
    dominant = []
    for cand in dominant_weights_of_level(rs, dot(lam, rs.comarks)):
        diff = [a - b for a, b in zip(lam, cand)]
        k = [dot(col, diff) for col in cols]
        if all(x >= 0 and x % den == 0 for x in k):
            dominant.append((sum(k) // den, cand))
    dominant.sort()
    return dominant


# the most dominant weights of level <= level(lam) that the oracle may list
FILTER_BUDGET = 20000


def _count_to_level(comarks, k):
    """The number of dominant weights of level at most k: the solutions of
    sum a_i m_i <= k in non-negative integers, counted by a coin table."""
    ways = [1] + [0] * k
    for a in comarks:
        for t in range(a, k + 1):
            ways[t] += ways[t - a]
    return sum(ways)


@pytest.mark.parametrize("kind", MATRIX_KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_dominant_walk_matches_level_filter(kind):
    """Every entry of C^{-1} is positive, the premise of the walk's cut, and
    the walk gives the level filter's (depth, mu) list, order included, on
    one seeded highest weight of each level up to 6, or up to the level
    where the filter would list more than FILTER_BUDGET weights."""
    table = weyl_tables(kind)
    assert min(map(min, table.inv)) > 0
    rs = build_root_system(kind)
    rng = random.Random(f"below-{kind}")
    top = max(k for k in range(7) if _count_to_level(rs.comarks, k) <= FILTER_BUDGET)
    by_level = {}
    for lam in dominant_weights_of_level(rs, top):
        by_level.setdefault(dot(lam, rs.comarks), []).append(lam)
    assert len(by_level) > 1
    assert sum(map(len, by_level.values())) == _count_to_level(rs.comarks, top)
    for level in sorted(by_level):
        lam = rng.choice(by_level[level])
        assert dominant_below(table, lam) == _dominant_by_level_filter(rs, lam), lam


@pytest.mark.parametrize("entry", [0, -1], ids=["zero", "negative"])
def test_dominant_walk_refuses_a_table_without_positive_inverse(entry):
    """A table whose C^{-1} has an entry that is not positive would make the
    walk's cut unsound; the walk raises instead of answering."""
    table = weyl_tables(("A", 3))
    inv = [list(row) for row in table.inv]
    inv[2][0] = entry
    with pytest.raises(ArithmeticError, match="positive"):
        dominant_below(table._replace(inv=tuple(map(tuple, inv))), (1, 0, 1))


@pytest.mark.parametrize("kind", MATRIX_KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_positive_pairings_match_gram_product(kind):
    """g_a = k_a (Lambda_a, alpha_a) per positive root with simple-root
    coordinates k equals the product of the weight Gram matrix with alpha
    in weight coordinates that it replaced."""
    rs = build_root_system(kind)
    assert rs._positive_pairings == [
        (w, tuple(dot(row, w) for row in rs.gram_weights_scaled))
        for w in map(rs.root_to_weight_coords, rs.positive_roots)]


def _old_dominant_integral(m):
    """_dominant_integral before its int fast path, kept as its oracle."""
    out = [Fraction(x) for x in m]
    if any(x.denominator != 1 for x in out):
        raise ValueError(f"weight {tuple(m)} is not integral")
    if any(x < 0 for x in out):
        raise ValueError(f"weight {tuple(m)} is not dominant integral")
    return tuple([x.numerator for x in out])


def _outcome(fn, m):
    try:
        got = fn(m)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)
    return got, [type(x) for x in got]


@pytest.mark.parametrize("m", [
    (2, 0, 1), [2, 0, 1], (), (0, 0, 0), (-1, 0, 2),
    (True, False, True), (True, 0, 2), (2, -1, False),
    (Fraction(2), 0, 1), (Fraction(1, 2), 0, 1), (Fraction(-2), 0, 1),
    (2.0, 0, 1), (0.5, 0, 1), (-1.0, 0, 1), (float("nan"), 0, 1), (float("inf"), 0, 1),
    ("2", "0", "1"), ("1/2", 0, 1), ("-1", 0, 1), ("x", 0, 1),
], ids=repr)
def test_dominant_integral_input_types_match_oracle(m):
    """Non-negative ints take the fast path; bools, Fractions, floats and
    strings take the Fraction path; each returns the oracle's ints or raises
    its exception with the same text."""
    assert _outcome(lambda m: _dominant_integral(m, len(m)), m) == \
        _outcome(_old_dominant_integral, m)
    if len(m) == 3 and type(got := _outcome(_old_dominant_integral, m)[0]) is tuple:
        rs = build_root_system(("A", 3))
        assert weight_system(rs, m) == weight_system(rs, got)
        assert weyl_dimension(rs, m) == weyl_dimension(rs, got)
