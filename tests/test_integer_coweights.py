"""The integer coweights of the case records and the screen's input checks.

A case record holds h once as integers (OrbifoldCase.scaled_h) and the
representative of every power of sigma once in both forms, with the verdict
of its contract (OrbifoldCase.powers), and step (g) reads that verdict and
screens each power on the Fraction form.  These tests hold the table to the
two-step lookup it replaced, kept here as the oracle, and each stored
verdict to a fresh representative_fault, on the shipped records and on
records without ihReps, which reach alcove reduction; the rows verify_case
stores equal those of screen_problematic_modules on the table; the scaled
representative_fault gives the verdict and text of the Fraction body it
replaced, kept here as the oracle; a warm verify_all scales coweights only
in the public entries it calls and walks nowhere; the memos of the
alpha(h) >= -1 check and the rendered rows fill once per key on a cold
verify_all and miss nothing on a warm one, and a seeded fault still fails
its contract row after they are full; a record built by
dataclasses.replace carries both forms of its new fields; and a coweight
with the wrong number of entries is a ValueError naming the factor, or the
kind where a single coweight is read, at every public entry that reads one.
"""

import dataclasses
from collections import Counter
from fractions import Fraction as F
from math import lcm

import pytest

from orbdim import cases as cases_mod
from orbdim import kacaut, liealg, orbifold
from orbdim.cartan import kind_name
from orbdim.cases import (
    load_cases,
    load_schellekens,
    representative_fault,
    screen_power,
    verify_all,
    verify_case,
)
from orbdim.cases import _rendered
from orbdim.liealg import (
    _coroot_order,
    _in_alcove_range,
    build_root_system,
    in_alcove_range,
    scale_vector,
)
from orbdim.orbifold import (
    _factor_setup,
    _screen,
    alcove_representative,
    render_weight_tuple,
    safe_rho_cap,
    screen_problematic_modules,
    twisted_module_weight,
)


def _fault_oracle(source, rep, i, scaled_h):
    """representative_fault as it read a representative in Fractions."""
    for f, ((kind, _), coords, (b, q)) in enumerate(zip(source.components, rep, scaled_h)):
        a, p = scale_vector(coords)
        m = lcm(p, q)
        if _coroot_order(kind, [u * (m // p) - i * v * (m // q) for u, v in zip(a, b)], m) != 1:
            return (f"factor {f} ({kind_name(kind)}) differs from {i}*h "
                    "by a coweight outside the coroot lattice")
        if not in_alcove_range(kind, coords):
            return f"factor {f} ({kind_name(kind)}) has alpha < -1 for some root"
    return None


def _rows(found):
    """The rows of screen_power built afresh from a screen's hits, each
    weight tuple rendered without the _rendered memo."""
    return [{"weights": render_weight_tuple(lams), "rho": rho, "twisted": tw}
            for lams, rho, tw in found]


def _negated(rep):
    return tuple(tuple(-x for x in coords) for coords in rep)


def _power_oracle(case, i):
    """The representative of i*h by the two-step lookup that
    OrbifoldCase.powers replaced: first as (c, d) per factor, the recorded
    one for i, else minus the one for n - i, else the alcove reduction of
    i*h; then in Fractions, the printed tuple itself when i has one, else
    c/d per factor."""
    recorded = {1: case.h, **case.ih_reps}
    scaled_reps = {j: tuple(map(scale_vector, rep)) for j, rep in recorded.items()}
    if i in scaled_reps:
        scaled = scaled_reps[i]
    elif case.n - i in scaled_reps:
        scaled = tuple((tuple(-x for x in c), d) for c, d in scaled_reps[case.n - i])
    else:
        scaled = tuple(scale_vector(alcove_representative(build_root_system(kind),
                                                          tuple(i * x for x in h)))
                       for (kind, _), h in zip(case.source.components, case.h))
    if i in recorded:
        return recorded[i], scaled
    return tuple(tuple(F(x, d) for x in c) for c, d in scaled), scaled


def test_the_power_table_is_the_two_step_lookup():
    """Every shipped power equals the oracle's in both forms, its stored
    verdict is a fresh representative_fault, None, and a recorded one is the
    printed tuple itself: 23 of the 32 powers are recorded and 9 are
    negations."""
    recorded_powers = 0
    for case in load_cases():
        assert list(case.powers) == list(range(1, case.n))
        recorded = {1: case.h, **case.ih_reps}
        for i, power in case.powers.items():
            assert power[:2] == _power_oracle(case, i), (case.id, i)
            assert power[2] is None
            assert representative_fault(case.source, power[1], i, case.scaled_h) is None
            if i in recorded:
                assert power[0] is recorded[i], (case.id, i)
                recorded_powers += 1
    assert recorded_powers == 23


@pytest.mark.parametrize("index, moved", [(10, set()), (14, {4, 6})], ids=["case 11", "case 15"])
def test_a_record_without_ih_reps_reaches_the_alcove_branch(monkeypatch, index, moved):
    """With ihReps dropped, every power but 1 and n - 1 is the alcove
    reduction of i*h, which equals the oracle's; on case 15 powers 4 and 6
    reduce to other representatives than the recorded ones, yet every power
    keeps its contract, its stored verdict is a fresh representative_fault,
    it keeps its screening rows and the case still passes."""
    case = load_cases()[index]
    reductions = []
    monkeypatch.setattr(cases_mod, "alcove_representative",
                        lambda rs, h: reductions.append(rs.kind) or alcove_representative(rs, h))
    replaced = dataclasses.replace(case, ih_reps={})
    monkeypatch.undo()
    assert len(reductions) == (case.n - 3) * len(case.source.components)
    assert {i for i in case.powers if replaced.powers[i][0] != case.powers[i][0]} == moved
    for i, (rep, scaled, fault) in replaced.powers.items():
        assert (rep, scaled) == _power_oracle(replaced, i), (case.id, i)
        assert fault is None
        assert representative_fault(case.source, scaled, i, case.scaled_h) is None
        assert screen_power(replaced, i) == screen_power(case, i), (case.id, i)
    report = verify_case(replaced, load_schellekens())
    assert report.passed
    assert report.screening == verify_case(case, load_schellekens()).screening


def _seeded_faults():
    """The two faults test_cases.py seeds into case 11's representative of
    2*h: a wrong coroot coset, and alpha < -1 after adding alpha_1^vee."""
    case = load_cases()[10]
    wrong_coset = (case.ih_reps[2][0], (F(0),) * 4)
    shifted = tuple(x + a for x, a in zip(case.ih_reps[2][1], (2, -1, 0, 0)))
    return case, [(wrong_coset, "differs from 2*h"), ((case.ih_reps[2][0], shifted), "alpha < -1")]


def test_verify_case_rows_equal_the_public_screen():
    """The rows verify_case stores for each power equal the public screen's
    on the Fraction form of the power table, read from the entry verify_case
    filled (one key) and searched afresh."""
    _screen.cache_clear()
    _factor_setup.cache_clear()
    all_cases = load_cases()
    reports, _ = verify_all(all_cases)
    assert _screen.cache_info().misses == 32
    for fresh in (False, True):
        if fresh:
            _screen.cache_clear()
            _factor_setup.cache_clear()
        hits = _screen.cache_info().hits
        powers = 0
        for case, report in zip(all_cases, reports):
            assert sorted(report.screening) == list(range(1, case.n))
            for i in range(1, case.n):
                found = screen_problematic_modules(case.source, case.powers[i][0], floor=1)
                assert report.screening[i] == _rows(found), (case.id, i, fresh)
                powers += 1
        assert powers == 32
        assert _screen.cache_info().hits - hits == (0 if fresh else 32)


def test_representative_fault_matches_the_fraction_oracle():
    """Same verdict and text on every shipped representative and its
    negation, each tried as the representative of every power, and on the
    two seeded faults."""
    tried = faults = 0
    for case in load_cases():
        for i in range(1, case.n):
            rep = case.powers[i][0]
            for candidate in (rep, _negated(rep)):
                for j in range(1, case.n):
                    want = _fault_oracle(case.source, candidate, j, case.scaled_h)
                    got = representative_fault(case.source, tuple(map(scale_vector, candidate)), j,
                                               case.scaled_h)
                    assert got == want, (case.id, i, j)
                    if j == (i if candidate is rep else case.n - i):
                        assert want is None, (case.id, i, j)
                    tried += 1
                    faults += want is not None
    assert tried > 64 and 0 < faults < tried
    case, seeded = _seeded_faults()
    for bad, text in seeded:
        want = _fault_oracle(case.source, bad, 2, case.scaled_h)
        assert text in want
        assert representative_fault(case.source, tuple(map(scale_vector, bad)), 2,
                                    case.scaled_h) == want


def test_a_warm_verify_all_scales_and_walks_only_at_the_public_entries(monkeypatch):
    """A second verify_all in one process scales a coweight only in the two
    public entries it calls on the printed Fractions, inner_from_coweight
    once per factor and screen_problematic_modules once per factor and
    power.  Both scale through liealg.scale_coweight, which checks the rank
    and calls scale_vector, so that is called in liealg alone.  It calls the
    alpha >= -1 check zero times, as step (g) reads the verdict each record
    stored and the screen's precondition runs only on a miss of _screen,
    and walks zero times."""
    all_cases, table = load_cases(), load_schellekens()
    verify_all(all_cases, table)
    counts = Counter()

    def counted(name, where, call):
        def wrapper(*args):
            counts[name, where] += 1
            return call(*args)
        return wrapper

    for mod in (cases_mod, liealg):
        where = mod.__name__.rsplit(".", 1)[1]
        monkeypatch.setattr(mod, "scale_vector", counted("scale", where, liealg.scale_vector))
    for mod in (orbifold, kacaut, liealg):
        where = mod.__name__.rsplit(".", 1)[1]
        monkeypatch.setattr(mod, "scale_coweight",
                            counted("coweight", where, liealg.scale_coweight))
    for mod in (cases_mod, orbifold):
        where = mod.__name__.rsplit(".", 1)[1]
        monkeypatch.setattr(mod, "_in_alcove_range",
                            counted("check", where, liealg._in_alcove_range))
    walk = liealg.dominant_walk
    for mod in (liealg, orbifold):
        where = mod.__name__.rsplit(".", 1)[1]
        monkeypatch.setattr(mod, "dominant_walk", counted("walk", where, walk))
    reports, _ = verify_all(all_cases, table)
    assert all(r.passed for r in reports)
    factors = sum(len(c.source.components) for c in all_cases)
    screened = sum((c.n - 1) * len(c.source.components) for c in all_cases)
    assert counts == {("coweight", "kacaut"): factors, ("coweight", "orbifold"): screened,
                      ("scale", "liealg"): factors + screened}
    assert screened == 99
    assert not any(name == "walk" for name, _ in counts)


CARTAN_MEMOS = (_in_alcove_range, _rendered)


def _cartan_keys(all_cases, reports):
    """The distinct keys one verify_all asks of each Cartan-data memo: the
    alpha >= -1 check of every power's representative and the rendered
    weights of every stored screening row."""
    checks = {(kind, a, p) for case in all_cases for _, scaled, _ in case.powers.values()
              for (kind, _), (a, p) in zip(case.source.components, scaled)}
    rows = {row["weights"] for r in reports for found in r.screening.values() for row in found}
    return checks, rows


def test_a_cold_verify_all_walks_once_per_key_and_a_warm_one_misses_nothing(monkeypatch):
    """From empty Cartan-data memos and an empty _screen, with every other
    search memo full, a verify_all misses each memo once per distinct key
    and walks once per miss: the 32 misses of _screen make the 99
    alpha >= -1 checks of the screen's precondition, and 57 walks, as the
    records were built, and their verdicts stored, before the memos were
    emptied.  A second verify_all adds hits and no miss: no check, as every
    screen is a hit, and 136 rendered rows."""
    all_cases, table = load_cases(), load_schellekens()
    reports, _ = verify_all(all_cases, table)
    for memo in CARTAN_MEMOS + (_screen,):
        memo.cache_clear()
    walks, walk = [], liealg.dominant_walk

    def counted(sparse, v):
        walks.append(v)
        return walk(sparse, v)

    monkeypatch.setattr(liealg, "dominant_walk", counted)
    cold, _ = verify_all(all_cases, table)
    monkeypatch.undo()
    assert [r.to_dict() for r in cold] == [r.to_dict() for r in reports]
    keys = _cartan_keys(all_cases, cold)
    assert [len(k) for k in keys] == [57, 53]
    calls = [99, 136]
    assert [(m.cache_info().hits, m.cache_info().misses) for m in CARTAN_MEMOS] == \
        [(n - len(k), len(k)) for n, k in zip(calls, keys)]
    assert len(walks) == 57 and _screen.cache_info().misses == 32
    assert all(m.cache_parameters()["maxsize"] for m in CARTAN_MEMOS)
    before = [m.cache_info() for m in CARTAN_MEMOS]
    warm, _ = verify_all(all_cases, table)
    assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
    after = [m.cache_info() for m in CARTAN_MEMOS]
    assert [a.misses for a in after] == [b.misses for b in before]
    assert [a.hits - b.hits for a, b in zip(after, before)] == [0, 136]


@pytest.mark.parametrize("fault", [0, 1], ids=["wrong coset", "alpha below -1"])
def test_a_seeded_fault_fails_its_contract_after_the_memos_are_full(fault):
    """After a verify_all has filled every memo, a representative of 2*h in
    the wrong coroot coset or with alpha < -1 still fails the contract rows
    of i = 2 and its negation i = 3, neither power is screened, and the
    shipped record passes again afterwards."""
    all_cases, table = load_cases(), load_schellekens()
    verify_all(all_cases, table)
    case, seeded = _seeded_faults()
    bad, text = seeded[fault]
    report = verify_case(dataclasses.replace(case, ih_reps={2: bad}), table)
    failed = {s.name: s.details for s in report.steps if not s.passed}
    assert list(failed) == ["(g) i=2 representative contract", "(g) i=3 representative contract"]
    assert all(text.replace("2*h", f"{i}*h") in failed[f"(g) i={i} representative contract"]
               for i in (2, 3))
    assert sorted(report.screening) == [1, 4]
    assert verify_case(case, table).passed


def test_the_coroot_order_takes_a_list_and_a_tuple_as_one_key():
    """_coroot_order gives a list and a tuple of the same coweight one
    answer."""
    kind = ("A", 4)
    assert _coroot_order(kind, [1, 0, 0, 0], 1) == _coroot_order(kind, (1, 0, 0, 0), 1) == 5
    assert _coroot_order(kind, [2, -1, 0, 0], 1) == 1
    assert in_alcove_range(kind, [F(1, 5)] * 4) and not in_alcove_range(kind, [-2, 0, 0, 0])


def test_a_replaced_record_carries_the_integer_form_of_its_new_fields():
    case = load_cases()[10]
    h = _negated(case.ih_reps[2])
    ih_reps = {3: case.ih_reps[2]}
    replaced = dataclasses.replace(case, h=h, ih_reps=ih_reps)
    assert replaced.scaled_h == tuple(map(scale_vector, h))
    reps = {1: h, 2: _negated(ih_reps[3]), 3: ih_reps[3], 4: _negated(h)}
    assert reps[2] == h
    assert {i: power[:2] for i, power in replaced.powers.items()} == \
        {i: (rep, tuple(map(scale_vector, rep))) for i, rep in reps.items()}
    assert all(fault == representative_fault(case.source, scaled, i, replaced.scaled_h)
               for i, (_, scaled, fault) in replaced.powers.items())
    assert replaced.powers[1][0] is h and replaced.powers[3][0] is ih_reps[3]
    assert replaced.module_order == case.module_order == 5
    assert case.powers[1] == (case.h, tuple(map(scale_vector, case.h)), None)
    assert case.powers[2] == (case.ih_reps[2], tuple(map(scale_vector, case.ih_reps[2])), None)


def _coords(h) -> str:
    """h as the rank error prints it, each coordinate by str."""
    return f"({', '.join(map(str, h))})"


def _wrong_ranks():
    """Case 11 with its A4 coweight of factor 1 cut to three entries, or
    given a fifth entry 0."""
    case = load_cases()[10]
    a4 = case.h[1]
    return case, [a4[:3], a4 + (F(0),)]


@pytest.mark.parametrize("spelling", [0, 1], ids=["three entries", "fifth entry 0"])
@pytest.mark.parametrize("call", ["screen", "twisted weight", "rho cap"])
def test_a_coweight_of_the_wrong_rank_is_a_value_error_naming_the_factor(call, spelling):
    case, bad = _wrong_ranks()
    hs = (case.h[0], bad[spelling])
    zero = tuple((0,) * kind[1] for kind, _ in case.source.components)
    run = {"screen": lambda: screen_problematic_modules(case.source, hs),
           "twisted weight": lambda: twisted_module_weight(case.source, zero, hs),
           "rho cap": lambda: safe_rho_cap(case.source, hs)}[call]
    with pytest.raises(ValueError) as err:
        run()
    assert str(err.value) == (f"factor 1 (A4): coweight {_coords(bad[spelling])} has "
                              f"{len(bad[spelling])} entries, not 4")


A4 = ("A", 4)
SINGLE_ENTRIES = {
    "alcove_representative": lambda h: alcove_representative(build_root_system(A4), h),
    "coweight_to_kac_labels": lambda h: kacaut.coweight_to_kac_labels(build_root_system(A4), h),
    "inner_from_coweight": lambda h: kacaut.inner_from_coweight(build_root_system(A4), h),
    "coroot_order": lambda h: liealg.coroot_order(A4, h),
    "in_coroot_lattice": lambda h: liealg.in_coroot_lattice(A4, h),
    "RootSystem.in_coroot_lattice": lambda h: build_root_system(A4).in_coroot_lattice(h),
    "in_alcove_range": lambda h: in_alcove_range(A4, h),
}


@pytest.mark.parametrize("h", [(F(1, 5), F(2, 5), 0), (1,) * 6], ids=["short", "long"])
@pytest.mark.parametrize("entry", sorted(SINGLE_ENTRIES))
def test_a_single_coweight_of_the_wrong_rank_is_a_value_error_naming_the_kind(entry, h):
    """Each public entry that reads one coweight checks its rank before it
    scales it or reads a memo, so a short or long h on A4 is a ValueError,
    never an answer for the wrong rank or the error of a broken invariant."""
    with pytest.raises(ValueError) as err:
        SINGLE_ENTRIES[entry](h)
    assert type(err.value) is ValueError
    assert str(err.value) == f"A4: coweight {_coords(h)} has {len(h)} entries, not 4"
