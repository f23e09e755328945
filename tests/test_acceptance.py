"""Acceptance suite: one test per criterion, exact checks, stated runtime
budgets, one PASS line printed per criterion (run pytest with -s to see them).
"""

import random
import time
from fractions import Fraction
from math import gcd

from orbdim.cases import load_cases, load_schellekens, verify_all
from orbdim.liealg import (
    build_root_system,
    dominant_weights_of_level,
    min_weight_pairing,
    weight_system,
    weyl_dimension,
)
from orbdim.modcurve import (
    ETA_HAUPTMODUL_LEVELS,
    GENUS_ZERO_LEVELS,
    cusp_classes,
    cusp_function,
    dedekind_psi,
    divisor_order,
    divisors,
    euler_phi,
    find_cusp,
    hauptmodul,
)
from orbdim.orbifold import (
    DimProfile,
    alcove_representative,
    all_tabulated_triples,
    c_coefficients,
    cycle_shape_stats,
    d_coefficient,
    dim_orbifold,
    general_dimension_relation,
    vacuum_anomaly,
)
from orbdim.qseries import etaq_expand

F = Fraction


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.1f}s over budget {self.seconds}s"
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL")
        return False


COR42 = {
    2: {1: 3, 2: -1}, 3: {1: 4, 3: -1}, 4: {1: 6, 2: F(-3, 2), 4: F(-1, 2)},
    5: {1: 6, 5: -1}, 6: {1: 12, 2: -4, 3: -3, 6: 1}, 7: {1: 8, 7: -1},
    8: {1: 12, 2: -3, 4: F(-3, 4), 8: F(-1, 4)}, 9: {1: 12, 3: F(-8, 3), 9: F(-1, 3)},
    10: {1: 18, 2: -6, 5: -3, 10: 1},
    12: {1: 24, 2: -6, 3: -6, 4: -2, 6: F(3, 2), 12: F(1, 2)}, 13: {1: 14, 13: -1},
    16: {1: 24, 2: -6, 4: F(-3, 2), 8: F(-3, 8), 16: F(-1, 8)},
    18: {1: 36, 2: -12, 3: -8, 6: F(8, 3), 9: -1, 18: F(1, 3)},
    25: {1: 30, 5: F(-24, 5), 25: F(-1, 5)},
}


def test_criterion_1_coefficient_table():
    with Budget("1 (coefficient table)", 1.0):
        assert c_coefficients(1) == {1: F(1)}
        for n, row in COR42.items():
            got = c_coefficients(n)
            assert got == {d: F(v) for d, v in row.items()}
            assert got[1] == dedekind_psi(n)
            assert sum(got.values()) == n


def test_criterion_2_d_table():
    with Budget("2 (d-table)", 1.0):
        for n in (2, 3, 5, 7, 13):
            for k in range(1, n):
                i = next(x for x in range(1, n) if any((x * j - k) % n == 0 for j in range(1, n)))
                j = next(j for j in range(1, n) if (i * j - k) % n == 0)
                assert d_coefficient(n, i, j, k) == sum(divisors(n - k))
        # coprime formula spot-checks at composite levels
        assert d_coefficient(6, 1, 1, 1) == 6
        assert d_coefficient(9, 1, 1, 1) == sum(8 // d for d in divisors(8) if gcd(d, 9) == 1)
        tabulated = 0
        for n in sorted(GENUS_ZERO_LEVELS - {1}):
            triples = all_tabulated_triples(n)
            for (i, j, k), v in triples.items():
                assert triples[(j, i, k)] == v
                assert triples[(n - i, n - j, k)] == v
                if gcd(gcd(i, j), n) > 1:
                    tabulated += 1
        assert tabulated >= 50
        # the printed residual rows
        assert d_coefficient(6, 2, 4, 2) == 5
        assert d_coefficient(6, 3, 3, 3) == 2
        assert d_coefficient(8, 2, 6, 4) == 6
        assert d_coefficient(10, 2, 2, 4) == 4
        assert d_coefficient(12, 4, 4, 4) == 8
        assert d_coefficient(16, 2, 14, 12) == 6
        assert d_coefficient(18, 9, 9, 9) == 6


def test_criterion_3_cusp_combinatorics():
    with Budget("3 (cusp combinatorics)", 1.0):
        for n in range(1, 31):
            reps = cusp_classes(n)
            assert len(reps) == sum(euler_phi(gcd(c, n // c)) for c in divisors(n))
            assert sum(r.width for r in reps) == dedekind_psi(n)


def test_criterion_4_divisor_contracts():
    with Budget("4 (divisors)", 5.0):
        for n in ETA_HAUPTMODUL_LEVELS:
            reps = cusp_classes(n)
            inf = find_cusp(n, 1, n)
            zero = find_cusp(n, 1, 1)
            for s in reps:
                f = cusp_function(n, s).quotient
                assert sum(divisor_order(f, t) * t.width for t in reps) == 0
                for t in reps:
                    o = divisor_order(f, t)
                    if t == s:
                        assert o == F(-1, s.width)
                    elif s == inf and t == zero:
                        assert o == F(1, n)
                    elif s != inf and t == inf:
                        assert o == 1
                    else:
                        assert o == 0
                series = etaq_expand(f, f.leading_exponent() + 2)
                assert divisor_order(f, inf) == series.leading_exponent()


def test_criterion_5_hauptmodul_expansions():
    with Budget("5 (Hauptmodul expansions)", 5.0):
        for n in (2, 3, 5, 7, 13):
            s = etaq_expand(hauptmodul(n), 20)
            assert s.coefficient(-1) == 1
            assert s.coefficient(0) == F(-24, n - 1)
        for n, c0 in ((4, -8), (6, -5), (8, -4)):
            s = etaq_expand(hauptmodul(n), 20)
            assert s.coefficient(-1) == 1
            assert s.coefficient(0) == c0


D_COLUMN = [264, 216, 240, 744, 168, 312, 144, 96, 312, 312, 144, 456, 456, 312, 168]
HH_COLUMN = [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 8, 2]
FIXED_COLUMN = [
    "A5 C5 D5 C^1", "A1 A1 A3 A7 B2 B2", "A8 B4", "D8 E8", "A1 A2 A2 A3 A5 B2 C^1",
    "C4 C4 F4 F4", "A4 A4 B2 B2", "A1 A1 A1 A1 A2 A2 A2 A2", "A1 B5 D6 F4",
    "B2 B4 C4 C6", "A4 C^4", "A1 A4 A7 B3 C^1", "A7 B2 B6 C^1", "A1 A2 C4 C^1", "A3 C^7",
]


def test_criterion_6_case_pipeline():
    with Budget("6 (case pipeline)", 120.0):
        cases = load_cases()
        reports, rows = verify_all(cases, load_schellekens())
        assert all(r["passed"] for r in rows), [r["case"] for r in rows if not r["passed"]]
        assert [r["d"] for r in rows] == D_COLUMN
        assert [F(str(r["hNormSq"])) for r in rows] == HH_COLUMN
        assert [r["fixed"] for r in rows] == FIXED_COLUMN
        for case, row in zip(cases, rows):
            assert row["orbifold"] == case.target.label()
        # the survivor equals the Niemeier root system of the construction
        for case, report in zip(cases, reports):
            step = next(s for s in report.steps if s.name.startswith("(f)"))
            assert step.actual == [case.target.label()]


def test_criterion_7_screening_lists():
    with Budget("7 (screening lists)", 300.0):
        cases = load_cases()
        table = load_schellekens()
        from orbdim.orbifold import screen_problematic_modules
        for case in cases:
            found = screen_problematic_modules(case.source, case.h, floor=1)
            if case.id == "11":
                assert len(found) == 11
                assert sorted(tw for _, _, tw in found) == [F(3, 5)] * 3 + [F(4, 5)] * 8
            elif case.id == "15":
                assert len(found) == 17
                assert sorted(tw for _, _, tw in found) == [F(3, 4)] * 9 + [F(7, 8)] * 8
            else:
                assert found == []


RANK_COLUMN = [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 4, 3, 4, 4, 0, 2]


def test_criterion_8_cycle_shapes():
    with Budget("8 (cycle shapes)", 1.0):
        ranks = []
        for case in load_cases():
            for record in case.shapes:
                stats = cycle_shape_stats(record.shape)
                assert stats["degree"] == 24
                assert vacuum_anomaly(record.shape) == 1
                ranks.append(stats["fixedRank"])
        assert ranks == RANK_COLUMN


def test_criterion_9a_dimension_relation_balance():
    with Budget("9a (relation balance)", 60.0):
        rng = random.Random(1234)
        for n in sorted(GENUS_ZERO_LEVELS):
            for _ in range(20):
                dims = {d: rng.randint(0, 400) for d in divisors(n)}
                profile = DimProfile(n, dims)
                orb = {d: dim_orbifold(profile.restricted_to_power(d)) for d in divisors(n)}
                assert general_dimension_relation(profile, orb, {})["balanced"]


KINDS_FOR_PROPERTIES = [("A", 1), ("A", 2), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
                        ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]


def test_criterion_9b_weight_system_properties():
    with Budget("9b (weight systems)", 240.0):
        rng = random.Random(77)
        for kind in KINDS_FOR_PROPERTIES:
            rs = build_root_system(kind)
            done = 0
            while done < 10:
                m = tuple(rng.choice([0, 0, 0, 1, 1, 2]) for _ in range(rs.rank))
                if weyl_dimension(rs, m) > 8000:   # keep the enumeration honest but finite
                    continue
                ws = weight_system(rs, m)
                assert sum(ws.values()) == weyl_dimension(rs, m)
                i = rng.randrange(rs.rank)
                reflected = {tuple(int(x) for x in rs.reflect_weight(w, i)): mult
                             for w, mult in ws.items()}
                assert reflected == ws
                done += 1


def test_criterion_9c_alcove_contract():
    with Budget("9c (alcove contract)", 240.0):
        rng = random.Random(4321)
        for kind in KINDS_FOR_PROPERTIES:
            rs = build_root_system(kind)
            for _ in range(50):
                h = tuple(F(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 5, 6, 8]))
                          for _ in range(rs.rank))
                rep = alcove_representative(rs, h)
                assert rs.in_coroot_lattice(tuple(a - b for a, b in zip(rep, h)))
                assert all(abs(rs.root_on_coweight(r, rep)) <= 1 for r in rs.roots)


def test_criterion_9d_min_term_oracle_on_case_factors():
    with Budget("9d (min-term oracle)", 240.0):
        for case in load_cases():
            for (kind, level), h in zip(case.source.components, case.h):
                rs = build_root_system(kind)
                for lam in dominant_weights_of_level(rs, level):
                    if weyl_dimension(rs, lam) > 5000:
                        continue
                    ws = weight_system(rs, lam)
                    brute = min(rs.pair_weight_coweight(w, h) for w in ws)
                    assert min_weight_pairing(rs, lam, h) == brute


def test_criterion_10_paper_asserted_labelling():
    with Budget("10 (metadata honesty)", 60.0):
        from orbdim.cases import PAPER_ASSERTED, verify_case
        cases = load_cases()
        table = load_schellekens()
        for case in cases:
            report = verify_case(case, table)
            flagged = {s.name for s in report.steps if s.provenance == PAPER_ASSERTED}
            assert any("class length" in name for name in flagged), case.id
            assert any("coset group" in name for name in flagged), case.id
            if case.shifted_rho:
                assert any("shifted twisted weights" in name for name in flagged)
            # nothing paper-asserted is ever marked computed
            for s in report.steps:
                if "class length" in s.name or "coset group" in s.name:
                    assert s.provenance == PAPER_ASSERTED
