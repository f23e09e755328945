"""Kac's classification of finite-order automorphisms and its consequences.

A conjugacy class of order-n automorphisms of a simple algebra is a twist
k in {1,2,3} together with coprime non-negative node coordinates s on the
twisted affine diagram, with n = k * sum_i a_i s_i; the fixed subalgebra is
read off the subdiagram of nodes with s_i = 0 plus an abelian part.  Classes
are stored up to diagram automorphisms of the affine diagram, which is
conjugacy under the full automorphism group of the algebra: each class is
represented by the lexicographically least s of its orbit, and
enumerate_classes returns the classes of each twist in ascending order of
that s, an order callers may rely on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .cartan import (
    AffineDiagram,
    Kind,
    admissible_twists,
    classical_dimension,
    diagram_automorphisms,
    kind_name,
    twisted_diagram,
    untwisted_diagram,
    validate_kind,
)
from .liealg import RootSystem, alcove_walk, build_root_system, dot, scale_vector
from .modcurve import divisors


class UnknownDiagramShape(ValueError):
    pass


def classify_components(gcm, nodes) -> list[Kind]:
    """Connected components of a sub-GCM, classified as finite simple kinds."""
    nodes = list(nodes)
    remaining = set(nodes)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in remaining - comp:
                if gcm[i][j] != 0:
                    comp.add(j)
                    frontier.append(j)
        remaining -= comp
        comps.append(sorted(comp))
    return sorted(_classify_one(gcm, comp) for comp in comps)


def _classify_one(gcm, comp) -> Kind:
    r = len(comp)
    if r == 1:
        return ("A", 1)
    neighbours = {i: [j for j in comp if j != i and gcm[i][j] != 0] for i in comp}
    degrees = sorted(len(v) for v in neighbours.values())
    edges = [(i, j) for i in comp for j in comp if i < j and gcm[i][j] != 0]
    multiplicities = {e: gcm[e[0]][e[1]] * gcm[e[1]][e[0]] for e in edges}
    n_double = sum(1 for m in multiplicities.values() if m == 2)
    n_triple = sum(1 for m in multiplicities.values() if m == 3)
    if any(m > 3 for m in multiplicities.values()) or n_triple + n_double > 1:
        raise UnknownDiagramShape(f"component {comp} is not of finite type")
    if n_triple:
        if r != 2:
            raise UnknownDiagramShape(f"triple bond in a rank-{r} component")
        return ("G", 2)
    if degrees[-1] > 3 or sum(1 for d in degrees if d == 3) > 1:
        raise UnknownDiagramShape(f"component {comp} has an invalid branch structure")
    branch = next((i for i in comp if len(neighbours[i]) == 3), None)
    if branch is not None:
        if n_double:
            raise UnknownDiagramShape("branch node together with a double bond")
        lengths = []
        for start in neighbours[branch]:
            length, prev, cur = 1, branch, start
            while True:
                nxt = [j for j in neighbours[cur] if j != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            lengths.append(length)
        lengths.sort()
        if lengths[0] == 1 and lengths[1] == 1:
            return ("D", r)
        if lengths == [1, 2, 2]:
            return ("E", 6)
        if lengths == [1, 2, 3]:
            return ("E", 7)
        if lengths == [1, 2, 4]:
            return ("E", 8)
        raise UnknownDiagramShape(f"branch lengths {lengths} are not of finite type")
    # path: order it end to end
    ends = [i for i in comp if len(neighbours[i]) == 1]
    path = [ends[0]]
    while len(path) < r:
        nxt = [j for j in neighbours[path[-1]] if j not in path]
        path.append(nxt[0])
    if not n_double:
        return ("A", r)
    if r == 2:
        return ("B", 2)
    u, v = next(e for e, m in multiplicities.items() if m == 2)
    pos = sorted((path.index(u), path.index(v)))
    if pos == [1, 2] and r == 4:
        return ("F", 4)
    if pos[0] == 0 or pos[1] == r - 1:
        if pos[1] == r - 1:
            end, inner = path[-1], path[-2]
        else:
            path.reverse()
            end, inner = path[-1], path[-2]
        if gcm[inner][end] == -2:
            return ("B", r)       # short end node
        return ("C", r)           # long end node
    raise UnknownDiagramShape(f"double bond at interior position {pos} of a path")


@dataclass(frozen=True)
class KacClass:
    """One Aut-conjugacy class of finite-order automorphisms of a simple algebra."""

    diagram: AffineDiagram
    s: tuple[int, ...]
    order: int
    fixed_components: tuple[Kind, ...]
    fixed_abelian: int

    @property
    def base(self) -> Kind:
        return self.diagram.base

    @property
    def twist(self) -> int:
        return self.diagram.twist

    def is_inner(self) -> bool:
        return self.twist == 1

    def fixed_dimension(self) -> int:
        return sum(classical_dimension(k) for k in self.fixed_components) + self.fixed_abelian

    def fixed_rank(self) -> int:
        return sum(k[1] for k in self.fixed_components) + self.fixed_abelian

    def label(self) -> str:
        base = kind_name(self.base)
        fixed = " ".join(kind_name(k) for k in self.fixed_components) or "-"
        if self.fixed_abelian:
            fixed += f" C^{self.fixed_abelian}"
        return (f"{self.base[0]}_{self.base[1]}^({self.twist}); "
                f"s={list(self.s)}; order={self.order}; fixed={fixed}")


def _diagram(kind: Kind, k: int) -> AffineDiagram:
    return untwisted_diagram(kind) if k == 1 else twisted_diagram(kind, k)


@lru_cache(maxsize=None)
def _auto_orbit_reps(kind: Kind, k: int):
    d = _diagram(kind, k)
    return d, diagram_automorphisms(d)


def fixed_from_s(diagram: AffineDiagram, s) -> tuple[tuple[Kind, ...], int]:
    """(fixed components, abelian rank) of the class with Kac coordinates s.

    The components are those of the subdiagram on Z = {i : s_i = 0}, so they
    are classified once per diagram and zero set; the abelian rank is
    #{i : s_i != 0} - 1."""
    zero = tuple([i for i, x in enumerate(s) if not x])
    comps = diagram.fixed_by_zero_set.get(zero)
    if comps is None:
        comps = diagram.fixed_by_zero_set[zero] = tuple(classify_components(diagram.gcm, zero))
    return comps, len(s) - len(zero) - 1


@lru_cache(maxsize=None)
def enumerate_classes(kind: Kind, order: int) -> tuple[KacClass, ...]:
    """All conjugacy classes of order-n automorphisms of the simple algebra.

    The classes come twist by twist, in the order of admissible_twists.
    Each class is given by the lexicographically least label vector s of
    its orbit under the diagram automorphisms, and within a twist the
    classes come in ascending lexicographic order of s.  This order is part
    of the contract: `orbdim kac` prints it and callers index into it.

    The search is an orderly generation (R. C. Read, "Every one a winner",
    Ann. Discrete Math. 2 (1978)).  It sets s[0], s[1], ... in turn, each in
    ascending order, and the last coordinate is fixed by the budget
    sum_i a_i s_i = order/k.  For every non-identity diagram automorphism
    pi it carries j, with the invariant that the image t = s o pi
    (t[m] = s[pi[m]]) agrees with s on positions 0..j-1.  Position j can be
    compared once s[j] and s[pi[j]] are both set, that is at node
    w = max(j, pi[j]), so (pi, j) waits in the bucket of node w.  Once s[i]
    is set, node i takes each (pi, j) from its bucket and advances j while
    j <= i, pi[j] <= i and t[j] = s[j].  If t[j] and s[j] are then both
    known and t[j] < s[j], every completion has an image smaller than
    itself, so the branch is cut; if t[j] > s[j], no completion has t < s,
    and pi is dropped for the rest of the branch; otherwise (pi, j) moves to
    the bucket of its next wake node, or is dropped if s o pi = s.  These
    moves are undone before node i tries its next value, and automorphisms
    in later buckets are not touched, so a node costs only what its own
    bucket holds.  A complete s that survives is no larger than any of its
    images, so it is the least member of its orbit; conversely every prefix
    of a least member survives, so each orbit is reached exactly once.  The
    recursion visits label vectors in ascending lexicographic order, so the
    output is each orbit's least member in ascending order: the tuple
    obtained by canonicalising every composition with a min over the group
    and keeping first occurrences.  The fixed algebra of each class is
    classified once per zero set, see fixed_from_s.
    """
    kind = validate_kind(kind)
    if order < 1:
        raise ValueError("the order must be a positive integer")
    out = []
    for k in admissible_twists(kind):
        if order % k:
            continue
        diagram, autos = _auto_orbit_reps(kind, k)
        labels = diagram.labels
        last = diagram.num_nodes - 1
        identity = tuple(range(last + 1))
        s = [0] * (last + 1)
        buckets = [[] for _ in s]
        for perm in autos:
            if perm != identity:
                buckets[perm[0]].append((perm, 0))

        def rec(i, left):
            if i == last:
                v, r = divmod(left, labels[i])
                values = () if r else (v,)
            else:
                values = range(left // labels[i] + 1)
            waiting = buckets[i]
            for v in values:
                s[i] = v
                moved = []
                for perm, j in waiting:
                    while j <= i and perm[j] <= i and s[perm[j]] == s[j]:
                        j += 1
                    if j > last:
                        continue                    # s o pi = s
                    wake = perm[j] if perm[j] > j else j
                    if wake > i:
                        buckets[wake].append((perm, j))
                        moved.append(wake)
                    elif s[perm[j]] < s[j]:
                        break
                else:
                    if i < last:
                        rec(i + 1, left - v * labels[i])
                    elif gcd(*s) == 1:
                        comps, ab = fixed_from_s(diagram, s)
                        out.append(KacClass(diagram, tuple(s), order, comps, ab))
                for wake in moved:
                    buckets[wake].pop()

        rec(0, order // k)
    return tuple(out)


# -- inner automorphisms from coweights ----------------------------------

def inner_from_coweight(rs: RootSystem, h):
    """Order and fixed subalgebra of exp(-2 pi i h_0) on the algebra.

    Returns (order, (components, abelian_rank), fixed_dimension).  With
    h = c/d from scale_vector, gcd(c_1, ..., c_r, d) = 1.  The automorphism
    multiplies the root space of alpha by exp(-2 pi i alpha(h)), and
    alpha_i(h) = c_i/d.  Every root is an integral combination of simple
    roots, so m*alpha(h) is integral for all roots iff d divides m*c_i for
    all i, iff d divides m: the order is d.  The fixed subalgebra is read
    off the Kac coordinates by fixed_from_s on the untwisted affine diagram;
    its dimension is checked against rank + 2 #{alpha > 0 : (alpha, c) = 0
    mod d}.
    """
    c, d = scale_vector(h)
    comps, abelian = fixed_from_s(untwisted_diagram(rs.kind), coweight_to_kac_labels(rs, h))
    dim = rs.rank + 2 * sum(1 for root in rs.positive_roots if dot(root, c) % d == 0)
    if dim != sum(classical_dimension(k) for k in comps) + abelian:
        raise ArithmeticError(f"fixed subalgebra of {tuple(h)} on {kind_name(rs.kind)} "
                              f"has dimension {dim}, not that of {comps} + C^{abelian}")
    return d, (comps, abelian), dim


def module_order_bound(rs: RootSystem, h) -> int:
    """Smallest k with k*h in the coroot lattice; bounds the order on modules."""
    u, d = rs._coroot_scaled(h)
    return d // gcd(d, *u)


def coweight_to_kac_labels(rs: RootSystem, h):
    """Kac coordinates of the inner automorphism exp(-2 pi i h_0).

    With h = c/d from scale_vector: the automorphism depends on h only modulo
    the coweight lattice, so c is reduced mod d first and the alcove walk
    does not grow with |h|.  The alcove point c~/d gives s_0 = d - theta(c~)
    and s_i = c~_i, so sum_i a_i s_i = d.  Every walk step applies an
    integral reflection to c and adds d times an integer vector, so
    gcd(c~, d) = gcd(c, d) = 1 and hence gcd(s) = 1.  h and h + lambda, lambda a coweight, give the same
    automorphism but may reach alcove points that differ by a diagram
    automorphism induced by P^vee/Q^vee, so s is fixed only up to those.
    """
    c, d = scale_vector(h)
    tilde, _ = alcove_walk(rs.kind, [x % d for x in c], d)
    s = (d - dot(rs.marks, tilde), *tilde)
    if any(x < 0 for x in s):
        raise ArithmeticError(f"Kac coordinates {s} of {tuple(h)} are not non-negative")
    return s


# -- automorphisms of semisimple algebras --------------------------------

@dataclass(frozen=True)
class CyclePart:
    """A cyclic permutation of isomorphic factors with a residual class.

    indices are positions into the ambient factor list; the composite fixes
    a diagonal copy of the residual's fixed subalgebra and has order
    len(indices) * residual.order.
    """

    indices: tuple[int, ...]
    residual: KacClass


@dataclass(frozen=True)
class InnerPart:
    """A single factor acted on by exp(-2 pi i h_0) for a rational coweight h."""

    index: int
    h: tuple


@dataclass(frozen=True)
class SemisimpleAut:
    parts: tuple

    def order(self, kinds) -> int:
        total = 1
        for part in self.parts:
            if isinstance(part, CyclePart):
                total = lcm(total, len(part.indices) * part.residual.order)
            else:
                rs = build_root_system(kinds[part.index])
                total = lcm(total, inner_from_coweight(rs, part.h)[0])
        return total


def fixed_subalgebra_semisimple(aut: SemisimpleAut, kinds):
    """Fixed subalgebra of a semisimple automorphism: (components, abelian, dim).

    kinds is the list of simple factors (an affine structure is accepted and
    reduced to its factors); every factor index must be covered exactly once
    across the parts.
    """
    if hasattr(kinds, "kinds"):
        kinds = kinds.kinds()
    kinds = [validate_kind(tuple(k)) for k in kinds]
    covered = []
    comps: list[Kind] = []
    abelian = 0
    for part in aut.parts:
        if isinstance(part, CyclePart):
            cycle_kinds = {kinds[i] for i in part.indices}
            if len(cycle_kinds) != 1:
                raise ValueError("cycles must permute isomorphic factors")
            if part.residual.base not in cycle_kinds:
                raise ValueError("residual class acts on the wrong kind")
            covered.extend(part.indices)
            comps.extend(part.residual.fixed_components)
            abelian += part.residual.fixed_abelian
        else:
            covered.append(part.index)
            rs = build_root_system(kinds[part.index])
            _, (c, ab), _ = inner_from_coweight(rs, part.h)
            comps.extend(c)
            abelian += ab
    if sorted(covered) != list(range(len(kinds))):
        raise ValueError("automorphism parts must cover every factor exactly once")
    dim = sum(classical_dimension(k) for k in comps) + abelian
    return tuple(sorted(comps)), abelian, dim


def witness_fault(kinds, witness, target_components, target_abelian: int, n: int):
    """Why a witness of admits_fixed_subalgebra is no certificate, or None.

    Each (kind, p, cls) of the witness becomes a p-cycle, with residual
    class cls, of the next p factors of that kind in kinds, so the indices
    of one kind are used consecutively.  The SemisimpleAut so built must
    have order dividing n, and fixed_subalgebra_semisimple must give back
    the target."""
    free: dict[Kind, list[int]] = {}
    for index, kind in enumerate(kinds):
        free.setdefault(validate_kind(tuple(kind)), []).append(index)
    parts = []
    for kind, p, cls in witness:
        left = free.get(kind, [])
        if len(left) < p:
            return f"the witness cycles more {kind_name(kind)} factors than there are"
        parts.append(CyclePart(tuple(left[:p]), cls))
        del left[:p]
    aut = SemisimpleAut(tuple(parts))
    try:
        comps, abelian, _ = fixed_subalgebra_semisimple(aut, kinds)
    except ValueError as err:
        return str(err)
    order = aut.order(kinds)
    if n % order:
        return f"the witness has order {order}, which does not divide {n}"
    target = tuple(sorted(validate_kind(tuple(k)) for k in target_components))
    if (comps, abelian) != (target, target_abelian):
        return f"the witness fixes {comps} + C^{abelian}, not {target} + C^{target_abelian}"
    return None


@lru_cache(maxsize=None)
def _cycle_options(kind: Kind, n: int):
    """What a p-cycle of `kind` factors, with a residual class of order
    dividing n/p, can fix: each distinct (p, ((component, multiplicity), ...),
    abelian rank) once, with one witness class."""
    table = {}
    for p in divisors(n):
        for r in divisors(n // p):
            for cls in enumerate_classes(kind, r):
                comps = tuple(sorted(Counter(cls.fixed_components).items()))
                table.setdefault((p, comps, cls.fixed_abelian), cls)
    return tuple((p, comps, ab, cls) for (p, comps, ab), cls in table.items())


def admits_fixed_subalgebra(kinds, target_components, target_abelian: int, n: int):
    """Is some automorphism of order dividing n with the given fixed algebra possible?

    kinds: simple factors of the ambient algebra; the target is a multiset of
    kinds plus an abelian rank.  Returns (found, witness) where the witness
    lists (kind, cycle_length, KacClass) choices.  The search fills the
    groups of equal kinds in turn with cycles from _cycle_options, so it
    branches on distinct fixed algebras, never on two classes fixing the same.
    """
    groups = sorted(Counter(validate_kind(tuple(k)) for k in kinds).items())
    left = Counter(validate_kind(tuple(k)) for k in target_components)
    witness = []

    def fits(option, length, ab_left):
        p, comps, ab, _ = option
        return p <= length and ab <= ab_left and all(left[k] >= m for k, m in comps)

    def enter(gi, ab_left):
        """Start group gi with the options that still fit, or check the end."""
        if gi == len(groups):
            return ab_left == 0 and not any(left.values())
        kind, count = groups[gi]
        opts = [o for o in _cycle_options(kind, n) if fits(o, count, ab_left)]
        return search(gi, opts, 0, count, ab_left)

    def search(gi, opts, start, length, ab_left):
        """Cover `length` more factors of group gi by cycles from opts[start:]."""
        if length == 0:
            return enter(gi + 1, ab_left)
        for oi in range(start, len(opts)):
            if not fits(opts[oi], length, ab_left):
                continue
            p, comps, ab, cls = opts[oi]
            left.subtract(dict(comps))
            witness.append((groups[gi][0], p, cls))
            if search(gi, opts, oi, length - p, ab_left - ab):
                return True
            witness.pop()
            left.update(dict(comps))
        return False

    found = enter(0, int(target_abelian))
    return (True, witness) if found else (False, None)
