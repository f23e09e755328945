"""Differential test of the admissibility scan against its nested oracle.

`_admits_oracle` is the nested per-call search that `admits_fixed_subalgebra`
replaced, kept verbatim.  Both must agree on whether a fixed subalgebra is
admitted: on every (case, entry) pair of the paper's Schellekens scans, and
on seeded targets read off random automorphisms of the same structures at
the same orders (admitted by construction) and on perturbations of those.
Every witness the new search returns is checked to be a decomposition.
The option tables are bounded by each target's component rank and abelian
rank; the search must return the same (found, witness) as with every table
unbounded.
"""

import random
from collections import Counter
from functools import lru_cache

import pytest

from orbdim import kacaut
from orbdim.cartan import validate_kind
from orbdim.cases import load_cases, load_schellekens
from orbdim.kacaut import admits_fixed_subalgebra, enumerate_classes
from orbdim.modcurve import divisors

SEED = 20260518
DRAWS_PER_PAIR = 4


def _admits_oracle(kinds, target_components, target_abelian: int, n: int):
    """Is some automorphism of order dividing n with the given fixed algebra possible?

    kinds: simple factors of the ambient algebra; the target is a multiset of
    kinds plus an abelian rank.  Returns (found, witness) where the witness
    lists (kind, cycle_length, KacClass) choices.
    """
    kinds = [validate_kind(tuple(k)) for k in kinds]
    target = {}
    for k in target_components:
        k = validate_kind(tuple(k))
        target[k] = target.get(k, 0) + 1
    groups = {}
    for k in kinds:
        groups[k] = groups.get(k, 0) + 1
    group_list = sorted(groups.items())

    # options per kind: (cycle length p, class R) with p * order(R) dividing n
    def options(kind):
        opts = []
        for p in range(1, n + 1):
            if n % p:
                continue
            for r in range(1, n // p + 1):
                if (n // p) % r:
                    continue
                for cls in enumerate_classes(kind, r):
                    opts.append((p, cls))
        return opts

    witness = []

    def assign(gi, counter, ab_left):
        if gi == len(group_list):
            return not counter_total(counter) and ab_left == 0
        kind, count = group_list[gi]
        opts = [o for o in options(kind) if o[0] <= count]

        def fill(remaining, oi, counter, ab_left):
            if remaining == 0:
                return assign(gi + 1, counter, ab_left)
            if oi == len(opts):
                return False
            p, cls = opts[oi]
            # skip this option entirely
            if fill(remaining, oi + 1, counter, ab_left):
                return True
            # or take it (possibly repeatedly)
            if p <= remaining:
                new_counter = dict(counter)
                ok = True
                for k in cls.fixed_components:
                    if new_counter.get(k, 0) == 0:
                        ok = False
                        break
                    new_counter[k] -= 1
                    if new_counter[k] == 0:
                        del new_counter[k]
                new_ab = ab_left - cls.fixed_abelian
                if ok and new_ab >= 0:
                    witness.append((kind, p, cls))
                    if fill(remaining - p, oi, new_counter, new_ab):
                        return True
                    witness.pop()
            return False

        return fill(count, 0, counter, ab_left)

    def counter_total(counter):
        return sum(counter.values())

    found = assign(0, dict(target), int(target_abelian))
    return (True, list(witness)) if found else (False, None)


def _paper_queries():
    table = load_schellekens()
    return [(tuple(entry.structure.kinds()), case.fixed_components, case.fixed_abelian, case.n)
            for case in load_cases() for entry in table if entry.dim == case.expected_d]


def _random_fixed(rng, kinds, n):
    """The fixed algebra of a random automorphism of order dividing n."""
    comps, abelian = [], 0
    for kind, count in sorted(Counter(kinds).items()):
        while count:
            p = rng.choice([d for d in divisors(n) if d <= count])
            cls = rng.choice(enumerate_classes(kind, rng.choice(divisors(n // p))))
            comps += cls.fixed_components
            abelian += cls.fixed_abelian
            count -= p
    return tuple(sorted(comps)), abelian


def _generated_queries():
    """Per paper (structure, order): admitted targets and four perturbations each
    (a component dropped, a component doubled, the abelian rank one up or down)."""
    rng = random.Random(SEED)
    out = []
    for kinds, _, _, n in _paper_queries():
        for _ in range(DRAWS_PER_PAIR):
            comps, abelian = _random_fixed(rng, kinds, n)
            out.append((kinds, comps, abelian, n))
            if comps:
                i = rng.randrange(len(comps))
                out.append((kinds, comps[:i] + comps[i + 1:], abelian, n))
                out.append((kinds, tuple(sorted(comps + (comps[i],))), abelian, n))
            out.append((kinds, comps, abelian + 1, n))
            if abelian:
                out.append((kinds, comps, abelian - 1, n))
    return out


def _check_witness(kinds, comps, abelian, n, witness):
    """The witness covers every factor by cycles of its kind and fixes the target."""
    covered = Counter()
    fixed = []
    fixed_abelian = 0
    for kind, p, cls in witness:
        assert cls.base == kind and n % (p * cls.order) == 0, (kind, p, cls.label())
        covered[kind] += p
        fixed += cls.fixed_components
        fixed_abelian += cls.fixed_abelian
    assert covered == Counter(kinds)
    assert sorted(fixed) == sorted(comps) and fixed_abelian == abelian


def _unbounded(monkeypatch, kinds, comps, abelian, n):
    """admits_fixed_subalgebra searching every option table unbounded, with
    a memo of searches of its own, dropped afterwards, so it neither reads
    the bounded search's answer nor leaves its own behind."""
    bounded = kacaut._cycle_options
    full = float("inf")
    with monkeypatch.context() as patch:
        patch.setattr(kacaut, "_cycle_options",
                      lambda kind, order, comp_rank, ab: bounded(kind, order, full, full))
        patch.setattr(kacaut, "_admits", lru_cache(maxsize=None)(kacaut._admits.__wrapped__))
        return admits_fixed_subalgebra(kinds, comps, abelian, n)


def _agree(monkeypatch, queries):
    admitted = 0
    for kinds, comps, abelian, n in queries:
        found, witness = admits_fixed_subalgebra(kinds, comps, abelian, n)
        assert (found, witness) == _unbounded(monkeypatch, kinds, comps, abelian, n), \
            (kinds, comps, abelian, n)
        assert found == _admits_oracle(kinds, comps, abelian, n)[0], (kinds, comps, abelian, n)
        if found:
            _check_witness(kinds, comps, abelian, n, witness)
            admitted += 1
        else:
            assert witness is None
    return admitted


def test_paper_scan_pairs_agree_with_oracle(monkeypatch):
    queries = _paper_queries()
    assert len(queries) == 43
    assert _agree(monkeypatch, queries) == 15          # one survivor per case


def test_generated_and_perturbed_targets_agree_with_oracle(monkeypatch):
    queries = _generated_queries()
    generated = len(_paper_queries()) * DRAWS_PER_PAIR
    admitted = _agree(monkeypatch, queries)
    assert generated <= admitted < len(queries)


@pytest.mark.parametrize("kinds, comps, abelian, n", [
    ([], [], 0, 3),                                  # nothing to cover: only the empty target
    ([], [], 1, 3),
    ([("A", 2)], [], 2, 3),                          # a regular element of A2
    ([("E", 8)] * 2, [("E", 8)], 0, 2),              # the swap of two E8 factors
    ([("E", 8)] * 2, [("E", 8)], 0, 3),              # no 2-cycle at odd order
])
def test_edge_queries_agree_with_oracle(monkeypatch, kinds, comps, abelian, n):
    _agree(monkeypatch, [(kinds, comps, abelian, n)])
