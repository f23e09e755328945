"""Cross-module invariants tying the case data to the Lie machinery."""

from fractions import Fraction
from math import lcm

import pytest

from orbdim.cartan import untwisted_diagram
from orbdim.cases import load_cases, load_schellekens
from orbdim.kacaut import (
    CyclePart,
    SemisimpleAut,
    coweight_to_kac_labels,
    enumerate_classes,
    fixed_from_s,
    fixed_subalgebra_semisimple,
    inner_from_coweight,
)
from orbdim.liealg import build_root_system, coroot_order

from test_inner_oracle import _inner_oracle
from test_lie_oracle import _reflect_coweight
from test_liealg import _antidominant

F = Fraction


def test_kac_label_route_on_all_fifteen_h_vectors():
    for case in load_cases():
        for (kind, _), h in zip(case.source.components, case.h):
            rs = build_root_system(kind)
            order, (comps, ab), dim = _inner_oracle(rs, h)
            assert inner_from_coweight(rs, h) == (order, (comps, ab), dim), (case.id, kind)
            s = coweight_to_kac_labels(rs, h)
            diagram = untwisted_diagram(rs.kind)
            assert order == sum(a * si for a, si in zip(diagram.labels, s)), (case.id, kind)
            assert fixed_from_s(diagram, s) == (comps, ab), (case.id, kind)


def test_case_order_bounds_coincide():
    for case in load_cases():
        algebra = 1
        module = 1
        for (kind, _), h in zip(case.source.components, case.h):
            rs = build_root_system(kind)
            algebra = lcm(algebra, inner_from_coweight(rs, h)[0])
            module = lcm(module, coroot_order(kind, h))
        assert algebra == case.n and module == case.n, case.id


def test_fixed_subalgebra_relabeling_invariance():
    e8 = ("E", 8)
    id_cls = enumerate_classes(e8, 1)[0]
    invol = next(c for c in enumerate_classes(e8, 2) if c.fixed_components == (("D", 8),))
    kinds = [e8, e8, e8]
    auts = [
        SemisimpleAut((CyclePart((0, 1), id_cls), CyclePart((2,), invol))),
        SemisimpleAut((CyclePart((1, 2), id_cls), CyclePart((0,), invol))),
        SemisimpleAut((CyclePart((0, 2), id_cls), CyclePart((1,), invol))),
    ]
    results = {fixed_subalgebra_semisimple(a, kinds) for a in auts}
    assert len(results) == 1
    comps, ab, dim = results.pop()
    assert dim == 368


def test_weyl_antidominant_word_applies():
    import random
    rng = random.Random(3)
    for name in ("A4", "B3", "G2", "F4", "D5"):
        rs = build_root_system(name) if isinstance(name, tuple) else None
        from orbdim.liealg import root_system
        rs = root_system(name)
        for _ in range(10):
            h = tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(rs.rank))
            h_minus, word = _antidominant(rs, h)
            replay = tuple(F(x) for x in h)
            for i in word:
                replay = _reflect_coweight(rs, replay, i)
            assert replay == h_minus
            assert all(c <= 0 for c in h_minus)


def test_missing_table_is_hard_error():
    with pytest.raises(OSError):
        load_schellekens("/nonexistent/schellekens.json")
    with pytest.raises(OSError):
        load_cases("/nonexistent/cases.json")


def test_enumerate_classes_match_inner_route_for_case_factors():
    # every tabulated (factor, h) pair appears among the enumerated classes of
    # its order, with the same fixed subalgebra
    for case in load_cases():
        for (kind, _), h in zip(case.source.components, case.h):
            rs = build_root_system(kind)
            order, (comps, ab), _ = inner_from_coweight(rs, h)
            matches = [cls for cls in enumerate_classes(kind, order)
                       if cls.twist == 1 and cls.fixed_components == comps
                       and cls.fixed_abelian == ab]
            assert matches, (case.id, kind, order)


ADMISSION_MATRIX = {
    # case id -> {entry no: admits}
    "1": {54: True, 55: False},
    "2": {49: True, 50: False},
    "3": {51: True, 52: False, 53: False},
    "4": {68: False, 69: True},
    "5": {41: True, 42: False, 43: False, 44: False},
    "6": {58: False, 59: True},
    "7": {37: True, 38: False, 39: False, 40: False},
    "8": {24: True, 25: False, 26: False, 27: False, 28: False, 29: False},
    "9": {58: True, 59: False},
    "10": {58: True, 59: False},
    "11": {37: True, 38: False, 39: False, 40: False},
    "12": {64: False, 65: True},
    "13": {64: False, 65: True},
    "14": {58: False, 59: True},
    "15": {41: False, 42: True, 43: False, 44: False},
}


def test_full_admission_matrix_at_scanned_dimensions():
    from orbdim.kacaut import admits_fixed_subalgebra, witness_fault

    table = {e.no: e for e in load_schellekens()}
    for case in load_cases():
        expected = ADMISSION_MATRIX[case.id]
        at_dim = {no for no, e in table.items() if e.dim == case.expected_d}
        assert at_dim == set(expected), case.id
        for no, should_admit in expected.items():
            found, witness = admits_fixed_subalgebra(
                table[no].structure.kinds(), case.fixed_components,
                case.fixed_abelian, case.n)
            assert found == should_admit, (case.id, no)
            if found:
                assert witness_fault(table[no].structure.kinds(), witness,
                                     case.fixed_components, case.fixed_abelian, case.n) is None
