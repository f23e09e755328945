"""Differential tests of the two search memos, orbifold._screen and kacaut._admits.

A memoized answer must equal the answer searched afresh after cache_clear():
on all 32 screens of the cases at floors 1, 3/2, 2 and 6, on the 43
admissibility queries of the paper's Schellekens scans and on the seeded
generated queries of the admissibility oracle test.  Equal inputs spelled
differently share one entry; a caller may change a returned list or witness
without changing a later answer; a failed precondition raises its text on
every call and leaves no entry; the witness check of step (f) runs on every
call; tables regen reads the floor-1 screens that verify_all filled; both
memos are bounded.
"""

from fractions import Fraction

import pytest

from orbdim import cases as cases_mod
from orbdim.cases import load_cases, load_schellekens, verify_all
from orbdim.cli import regenerate_tables
from orbdim.kacaut import _admits, admits_fixed_subalgebra
from orbdim.orbifold import _screen, screen_problematic_modules

from test_admits_oracle import _generated_queries, _paper_queries
from test_screen_oracle import SCREENS


def _hit_then_fresh(memo, call):
    """call() read once more from the memo, then searched afresh: both must
    equal the first answer, and the second call must be a hit."""
    first = call()
    hits = memo.cache_info().hits
    again = call()
    assert memo.cache_info().hits == hits + 1
    memo.cache_clear()
    fresh = call()
    assert memo.cache_info().misses == 1
    assert again == first == fresh
    return fresh


@pytest.mark.parametrize("floor", [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(6)])
def test_memoized_screens_equal_fresh_ones(floor):
    assert len(SCREENS) == 32
    rows = 0
    for case, i in SCREENS:
        reps = case.powers[i][0]
        rows += len(_hit_then_fresh(
            _screen, lambda: screen_problematic_modules(case.source, reps, floor=floor)))
    assert rows > 0


def test_memoized_admissibility_equals_fresh_on_paper_and_generated_queries():
    paper, generated = _paper_queries(), _generated_queries()
    assert len(paper) == 43 and len(generated) > 43
    admitted = 0
    for kinds, comps, abelian, n in paper + generated:
        found, _ = _hit_then_fresh(_admits, lambda: admits_fixed_subalgebra(kinds, comps,
                                                                            abelian, n))
        admitted += found
    assert 15 + 4 * 43 <= admitted < len(paper) + len(generated)


def _unreduced(x):
    """A rational spelled as a string with numerator and denominator doubled."""
    x = Fraction(x)
    return f"{2 * x.numerator}/{2 * x.denominator}"


def test_equal_screens_share_one_entry():
    case = load_cases()[10]
    reps = case.powers[2][0]
    spellings = [
        (reps, Fraction(3, 2)),
        ([list(coords) for coords in reps], "3/2"),
        (tuple(tuple(_unreduced(x) for x in coords) for coords in reps), "6/4"),
    ]
    _screen.cache_clear()
    answers = [screen_problematic_modules(case.source, hs, floor=floor) for hs, floor in spellings]
    info = _screen.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert answers[0] == answers[1] == answers[2] and answers[0]


def test_equal_admissibility_queries_share_one_entry():
    entry = next(e for e in load_schellekens() if e.label() == "A9 A9 D6")
    case = load_cases()[0]
    kinds = entry.structure.kinds()
    assert len(set(kinds)) > 1 and len(set(case.fixed_components)) > 1
    spellings = [
        (kinds, case.fixed_components),
        (kinds[::-1], case.fixed_components[::-1]),
        ([list(k) for k in kinds], [list(k) for k in case.fixed_components]),
    ]
    _admits.cache_clear()
    answers = [admits_fixed_subalgebra(ks, comps, case.fixed_abelian, case.n)
               for ks, comps in spellings]
    info = _admits.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert answers[0] == answers[1] == answers[2] and answers[0][0]


def test_changing_a_returned_list_changes_no_later_answer():
    case = load_cases()[14]
    got = screen_problematic_modules(case.source, case.h)
    want = list(got)
    got.reverse()
    got.append(None)
    assert screen_problematic_modules(case.source, case.h) == want
    entry = next(e for e in load_schellekens() if e.structure == case.target)
    query = (entry.structure.kinds(), case.fixed_components, case.fixed_abelian, case.n)
    found, witness = admits_fixed_subalgebra(*query)
    want = list(witness)
    witness.pop()
    witness.append(None)
    assert found and admits_fixed_subalgebra(*query) == (True, want)


def test_a_failed_precondition_raises_every_time_and_leaves_no_entry():
    case = load_cases()[10]
    shifted = tuple(x + a for x, a in zip(case.ih_reps[2][1], (2, -1, 0, 0)))  # + alpha_1^vee
    screens = [
        ((case.h[0],), "one Cartan element per simple factor"),
        ((case.ih_reps[2][0], shifted),
         "('A', 4) component violates alpha(h) >= -1; reduce with alcove_representative"),
    ]
    _screen.cache_clear()
    for hs, message in screens:
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                screen_problematic_modules(case.source, hs)
            assert str(err.value) == message
    assert _screen.cache_info().currsize == 0
    queries = [
        (([("A", 1)], [], 1, 0), "the order must be a positive integer"),
        (([("A", 1)], [], "1", 2), "the abelian rank '1' is not an integer"),
        (([("A", 1)], [], -1, 2), "the abelian rank must be non-negative"),
        (([("Q", 1)], [], 1, 2), "Q1 is not a simple Lie algebra kind in range"),
        (([("A", 1)], [("A", 0)], 0, 2), "A0 is not a simple Lie algebra kind in range"),
    ]
    _admits.cache_clear()
    for args, message in queries:
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                admits_fixed_subalgebra(*args)
            assert str(err.value) == message
    assert _admits.cache_info().currsize == 0


def test_the_witness_check_runs_on_every_call(monkeypatch):
    case = load_cases()[0]
    table = load_schellekens()
    checked = []
    real = cases_mod.witness_fault
    monkeypatch.setattr(cases_mod, "witness_fault", lambda *args: checked.append(1) or real(*args))
    hits = _admits.cache_info().hits
    for _ in range(3):
        survivors, faults = cases_mod.schellekens_survivors(
            table, case.expected_d, case.fixed_components, case.fixed_abelian, case.n)
        assert [e.structure for e in survivors] == [case.target] and not faults
    assert len(checked) == 3 and _admits.cache_info().hits > hits


def test_regen_reads_the_screens_verify_all_filled():
    _screen.cache_clear()
    verify_all()
    misses = _screen.cache_info().misses
    assert misses == 32
    regenerate_tables()
    assert _screen.cache_info().misses == misses and _screen.cache_info().hits == 2


def test_the_memos_are_bounded():
    for memo in (_screen, _admits):
        assert memo.cache_parameters()["maxsize"] is not None
