import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from orbdim import cases as cases_mod
from orbdim.cases import (
    DataLoadError,
    fixed_dims_profile,
    load_cases,
    load_schellekens,
    representative_fault,
    verify_all,
    verify_case,
)
from orbdim.kacaut import _admits, _inner
from orbdim.liealg import scale_vector, schellekens_constraint
from orbdim.orbifold import _factor_setup, _screen

F = Fraction
DATA = Path(__file__).resolve().parents[1] / "src/orbdim/data"


def test_load_schellekens_invariants():
    entries = load_schellekens()
    assert len(entries) == 71
    assert [e.no for e in entries] == list(range(71))
    dims = [e.dim for e in entries]
    assert dims == sorted(dims)
    for e in entries:
        assert e.dim == e.structure.dimension()
        if e.structure.components:
            holds, ratio = schellekens_constraint(e.structure)
            assert holds and ratio == F(e.dim - 24, 24)


def test_schellekens_published_numbers():
    by_no = {e.no: e for e in load_schellekens()}
    anchors = {
        7: "A1,2 A3,4 A3,4 A3,4", 9: "A4,5 A4,5", 13: "A2,2 A2,2 A2,2 A2,2 D4,4",
        21: "A1 C5,3 G2,2", 22: "A4,2 A4,2 C4,2", 26: "A2 A2 A5,2 A5,2 B2",
        33: "A3 A7,2 C3 C3", 36: "A8,2 F4,2", 40: "A4 A9,2 B3", 44: "A5 C5 E6,2",
        48: "B4 C6 C6", 52: "C8 F4 F4", 53: "B5 E7,2 F4", 56: "B6 C10", 62: "B8 E8,2",
    }
    for no, label in anchors.items():
        assert by_no[no].label() == label, (no, by_no[no].label())
    assert by_no[0].dim == 0
    assert by_no[1].structure.abelian_rank == 24
    assert by_no[70].label() == "D24"


def test_schellekens_dim_lookup():
    entries = load_schellekens()
    labels_744 = {e.label() for e in entries if e.dim == 744}
    assert labels_744 == {"E8 E8 E8", "D16 E8"}
    labels_48 = {e.label() for e in entries if e.dim == 48}
    assert "A4,5 A4,5" in labels_48
    # dims relevant to the pipeline are complete per the constraint analysis
    expected_counts = {96: 6, 144: 4, 168: 4, 216: 2, 240: 3, 264: 2, 312: 2, 456: 2, 744: 2}
    for dim, count in expected_counts.items():
        assert sum(1 for e in entries if e.dim == dim) == count, dim


def test_schellekens_load_rejects_corruption(tmp_path):
    raw = json.loads((DATA / "schellekens.json").read_text())
    raw["entries"][62]["dim"] = 385
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(DataLoadError) as err:
        load_schellekens(bad)
    assert "62" in str(err.value)


@pytest.mark.parametrize("load, name", [(load_cases, "cases.json"),
                                        (load_schellekens, "schellekens.json")])
def test_loaders_reject_text_that_is_not_json(tmp_path, load, name):
    bad = tmp_path / name
    bad.write_text((DATA / name).read_text()[:-10])
    with pytest.raises(DataLoadError) as err:
        load(bad)
    assert str(err.value).startswith(f"{name}: ")


def test_cases_load_and_schema():
    cases = load_cases()
    assert [c.id for c in cases] == [str(i) for i in range(1, 16)]
    for case in cases:
        assert case.expected_d == case.target.dimension()
        for record in case.shapes:
            assert record.shape.degree() == 24
            assert not hasattr(record, "provenance")      # checked on load, not stored
        holds, _ = schellekens_constraint(case.source)
        assert holds
        holds, _ = schellekens_constraint(case.target)
        assert holds
    twelve = cases[11]
    assert len(twelve.shapes) == 2
    assert {r.variant for r in twelve.shapes} == {"12a", "12b"}


def test_cases_load_error_paths(tmp_path):
    raw = json.loads((DATA / "cases.json").read_text())
    del raw["cases"][0]["hNormSq"]
    bad = tmp_path / "cases.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(DataLoadError) as err:
        load_cases(bad)
    assert "hNormSq" in str(err.value)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(DataLoadError):
        load_cases(empty)


def _ih_key(key):
    return lambda node: node["ihReps"].update({key: node["ihReps"]["2"]})


def _drop_coweight(node):
    node["ihReps"]["2"] = node["ihReps"]["2"][:1]


def _short_coweight(node):
    node["ihReps"]["2"][1] = node["ihReps"]["2"][1][:3]


def _h_out_of_range_beside_ih_key_1(node):
    """h's A4 coweight set to 2 Lambda_1^vee, with alpha < -1, and
    ihReps["1"] recorded as Lambda_2^vee, in the same coset of Q^vee and
    in range.  Power 1 is h itself, so the key 1 is rejected before any
    contract is checked."""
    node["ihReps"]["1"] = [node["h"][0], ["0", "1", "0", "0"]]
    node["h"][1] = ["2", "0", "0", "0"]


def _set(*path_and_value):
    """An edit that sets node[p0][p1]...[pk] = value."""
    *path, key, value = path_and_value

    def edit(node):
        for step in path:
            node = node[step]
        node[key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_ih_key("5"), "ihReps key '5' must lie in 2..4"),
    (_ih_key("0"), "ihReps key '0' must lie in 2..4"),
    (_ih_key("x"), "ihReps key 'x' must lie in 2..4"),
    (_drop_coweight, "ihReps['2'] must list one coweight per source factor"),
    (_short_coweight, "ihReps['2'] coordinates do not match the rank of ('A', 4)"),
    (lambda node: node["fixed"].pop("components"), "missing field fixed.components"),
    (lambda node: node["fixed"].pop("abelianRank"), "missing field fixed.abelianRank"),
    (lambda node: node["shapes"][0].pop("classLength"), "missing field shapes[].classLength"),
    (lambda node: node["shapes"][0].pop("factors"), "missing field shapes[].factors"),
    (lambda node: node["shapes"][0].pop("provenance"), "missing field shapes[].provenance"),
    (_set("shapes", 0, "provenance", "computed"),
     "shapes[].provenance: 'computed' is not 'paper-asserted'"),
    (_set("n", 0), "n: 0 is not a genus-zero level >= 2"),
    (_set("n", 11), "n: 11 is not a genus-zero level >= 2"),
    (_set("n", "x"), "n: 'x' is not an integer"),
    (_set("expectedD", "x"), "expectedD: 'x' is not an integer"),
    (_set("schellekensNo", 1.5), "schellekensNo: 1.5 is not an integer"),
    (_set("factorOrders", 1, "x"), "factorOrders: 'x' is not an integer"),
    (_set("hNormSq", "1/0"), "hNormSq: '1/0' is not a rational number"),
    (_set("h", 1, 0, "1/0"), "h: '1/0' is not a rational number"),
    (_set("ihReps", "2", 1, 0, "1/0"), "ihReps['2']: '1/0' is not a rational number"),
    (_set("h", 1, ["2", "0", "0", "0"]), "h: factor 1 (A4) has alpha < -1 for some root"),
    (_h_out_of_range_beside_ih_key_1, "ihReps key '1' must lie in 2..4"),
    (_set("ihReps", "2", 1, 0, "2/5"),
     "ihReps['2']: factor 1 (A4) differs from 2*h by a coweight outside the coroot lattice"),
    (_set("ihReps", "2", 1, ["7/5", "-3/5", "2/5", "-3/5"]),   # a coroot away
     "ihReps['2']: factor 1 (A4) has alpha < -1 for some root"),
    (_set("shiftedRho", 0, "1/0"), "shiftedRho: '1/0' is not a rational number"),
    (_set("fixed", "components", 0, ["Q", 4]),
     "fixed.components: Q4 is not a simple Lie algebra kind in range"),
    (_set("shapes", 0, "factors", "0", 1), "shapes[].factors: cycle lengths must be positive"),
    (_set("source", "factors", 0, 2, 0), "source: levels must be positive integers"),
    (lambda node: node["source"].pop("factors"), "missing field source.factors"),
    (lambda node: node["target"].pop("factors"), "missing field target.factors"),
    (_set("rhoRequired", "no"), "rhoRequired: 'no' is not a boolean"),
    (_set("rhoRequired", 0), "rhoRequired: 0 is not a boolean"),
    (_set("fixed", "abelianRank", -1), "fixed.abelianRank: -1 is not an integer >= 0"),
    (_set("h", 5), "h: 5 is not a list"),
    (_set("h", 1, "abc"), "h: 'abc' is not a list"),
    (_set("shiftedRho", 5), "shiftedRho: 5 is not a list"),
    (_set("factorOrders", 5), "factorOrders: 5 is not a list"),
    (_set("shapes", 5), "shapes: 5 is not a list"),
    (_set("shapes", 0, "factors", 5), "shapes[].factors: 5 is not an object"),
    (_set("fixed", 5), "missing field fixed.components"),
    (_set("ihReps", 5), "ihReps: 5 is not an object"),
    (_set("source", "abelianRank", -1), "source: abelian rank must be a non-negative integer"),
    (_set("target", "factors", 0, 2, 1.5), "target: levels must be positive integers"),
    (_set("shapes", 0, "factors", {"1": -8.7, "2": 16.2}),      # degree 24 once truncated
     "shapes[].factors: cycle length 1 and exponent -8.7 must be integers"),
    (_set("shapes", 0, "factors", "5", "5"),
     "shapes[].factors: cycle length 5 and exponent '5' must be integers"),
    (_set("shapes", 0, "factors", "5", True),
     "shapes[].factors: cycle length 5 and exponent True must be integers"),
    (_set("shapes", 0, "factors", "5", 5.0),
     "shapes[].factors: cycle length 5 and exponent 5.0 must be integers"),
    (_set("shapes", 0, "factors", "-1", 1), "shapes[].factors: cycle length '-1' is not a decimal integer"),
    (_set("shapes", 0, "factors", "05", 1), "shapes[].factors: cycle length '05' is not a decimal integer"),
    (_set("shapes", 0, "factors", " 5", 1), "shapes[].factors: cycle length ' 5' is not a decimal integer"),
    (_set("shapes", 0, "factors", "2.0", 1), "shapes[].factors: cycle length '2.0' is not a decimal integer"),
    (_set("shapes", 0, "factors", "\u0665", 1),
     "shapes[].factors: cycle length '\u0665' is not a decimal integer"),
    (_ih_key("02"), "ihReps key '02' must lie in 2..4"),        # beside "2", not in place of it
    (_ih_key("\u0662"), "ihReps key '\u0662' must lie in 2..4"),
])
def test_cases_load_rejects_malformed_nested_fields(tmp_path, edit, message):
    """Case 11 (n = 5) with one corrupted field fails to load, naming it."""
    raw = json.loads((DATA / "cases.json").read_text())
    edit(raw["cases"][10])
    bad = tmp_path / "cases.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(DataLoadError) as err:
        load_cases(bad)
    assert str(err.value) == f"case 11: {message}"


@pytest.mark.parametrize("no, edit, message", [
    (9, _set("dim", 48.9), "dim: 48.9 is not an integer"),
    (6, _set("no", "6"), "no: '6' is not an integer"),
    (62, lambda node: node.pop("dim"), "missing field dim"),
    (62, lambda node: node.pop("factors"), "missing field factors"),
    (62, _set("factors", 0, 0, "Q"), "factors: Q8 is not a simple Lie algebra kind in range"),
    (62, _set("factors", 0, 2, 1.5), "factors: levels must be positive integers"),
    (62, _set("factors", 0, ["B", 8]), "factors: not enough values to unpack (expected 3, got 2)"),
    (62, _set("factors", 0, 1, "8"), "factors: the rank '8' of B is not an integer"),
    (62, _set("factors", 0, 1, 8.0), "factors: the rank 8.0 of B is not an integer"),
    (7, _set("factors", 0, 1, True), "factors: ATrue is not a simple Lie algebra kind in range"),
    (1, _set("abelianRank", -1), "abelianRank: -1 is not an integer >= 0"),
    (11, _set("transcription", "chekced"),
     "transcription: 'chekced' is not 'checked' or 'uncertain-transcription'"),
    (62, _set("transcription", 7), "transcription: 7 is not 'checked' or 'uncertain-transcription'"),
    (62, _set("transcription", None),
     "transcription: None is not 'checked' or 'uncertain-transcription'"),
])
def test_schellekens_load_rejects_malformed_fields(tmp_path, no, edit, message):
    """One corrupted field of one entry fails to load, naming the entry and field."""
    raw = json.loads((DATA / "schellekens.json").read_text())
    edit(raw["entries"][no])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(DataLoadError) as err:
        load_schellekens(bad)
    assert str(err.value) == f"entry {no}: {message}"


def _swapped(i, j):
    def edit(entries):
        entries[i], entries[j] = entries[j], entries[i]
    return edit


def _contents_swapped(i, j):
    """Entries i and j trade factors, abelianRank and dim, keeping their numbers."""
    def edit(entries):
        for key in ("factors", "abelianRank", "dim"):
            entries[i][key], entries[j][key] = entries[j][key], entries[i][key]
    return edit


@pytest.mark.parametrize("edit, message", [
    (_swapped(40, 41), "entry 41: listed at position 40, not in number order 0..70"),
    (_swapped(0, 70), "entry 70: listed at position 0, not in number order 0..70"),
    (_contents_swapped(4, 5), "entry 5: dim 36 is below the dim 48 of entry 4"),
    (_contents_swapped(69, 70), "entry 70: dim 744 is below the dim 1128 of entry 69"),
], ids=["swap 40 and 41", "swap 0 and 70", "dims of 4 and 5", "dims of 69 and 70"])
def test_schellekens_load_rejects_entries_out_of_order(tmp_path, edit, message):
    """Each entry is checked in turn against the one listed before it: the
    table lists the numbers 0..70 in order, and the dims never decrease,
    so a table whose rows or contents moved fails, naming the entry."""
    raw = json.loads((DATA / "schellekens.json").read_text())
    edit(raw["entries"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(DataLoadError) as err:
        load_schellekens(bad)
    assert str(err.value) == message


def test_shipped_schellekens_table_loads_unchanged():
    """The sha256 pins each entry's (no, factors, abelian rank, dim,
    transcription) as the loader reads them, in order."""
    rows = [[e.no, [[letter, rank, level] for (letter, rank), level in e.structure.components],
             e.structure.abelian_rank, e.dim, e.transcription] for e in load_schellekens()]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "e1d2086fc34e1e259f284e2bc3b3c2addb35fa2f5ffe7685e2ee9e124d0bbd66"


def _records(key, value):
    return lambda raw: {**raw, key: value}


def _record(key, index, value):
    return lambda raw: {**raw, key: raw[key][:index] + [value] + raw[key][index + 1:]}


@pytest.mark.parametrize("load, name, edit, message", [
    (load_cases, "cases.json", lambda raw: [], "top level: [] is not an object"),
    (load_cases, "cases.json", lambda raw: 5, "top level: 5 is not an object"),
    (load_cases, "cases.json", lambda raw: {}, "missing field cases"),
    (load_cases, "cases.json", _records("cases", 5), "cases: 5 is not a list"),
    (load_cases, "cases.json", _records("cases", [5]), "cases[0]: 5 is not an object"),
    (load_cases, "cases.json", _record("cases", 14, None), "cases[14]: None is not an object"),
    (load_schellekens, "schellekens.json", lambda raw: [], "top level: [] is not an object"),
    (load_schellekens, "schellekens.json", lambda raw: {}, "missing field entries"),
    (load_schellekens, "schellekens.json", _records("entries", 5), "entries: 5 is not a list"),
    (load_schellekens, "schellekens.json", _records("entries", [5]),
     "entries[0]: 5 is not an object"),
    (load_schellekens, "schellekens.json", _record("entries", 70, "D24"),
     "entries[70]: 'D24' is not an object"),
])
def test_loaders_reject_malformed_records(tmp_path, load, name, edit, message):
    """The top level must be an object and its record list a list of
    objects; each is checked before any field of a record is read, so a
    bad last record fails on its index, not on a field."""
    bad = tmp_path / name
    bad.write_text(json.dumps(edit(json.loads((DATA / name).read_text()))))
    with pytest.raises(DataLoadError) as err:
        load(bad)
    assert str(err.value) == f"{name}: {message}"


def _zero_ih_rep(raw):
    """Case 11's ihReps with an all-zero "2", outside the coset of 2h, put
    before the real one."""
    node = raw["cases"][10]["ihReps"]
    raw["cases"][10]["ihReps"] = {"@": [["0"] * 4, ["0"] * 4], **node}
    return raw


def _dim_385(raw):
    raw["entries"][62] = {"@": 385, **raw["entries"][62]}
    return raw


@pytest.mark.parametrize("load, name, edit, repeated", [
    (load_cases, "cases.json", _zero_ih_rep, "2"),
    (load_cases, "cases.json", lambda raw: {"@": [], **raw}, "cases"),
    (load_schellekens, "schellekens.json", _dim_385, "dim"),
    (load_schellekens, "schellekens.json", lambda raw: {"@": [], **raw}, "entries"),
])
def test_loaders_reject_a_repeated_key(tmp_path, load, name, edit, repeated):
    """json.loads keeps the last of two equal keys, so the first would
    never be checked: an object that names a key twice is a DataLoadError
    naming the file and the key, whichever of the two is valid."""
    text = json.dumps(edit(json.loads((DATA / name).read_text())))
    assert text.count('"@"') == 1
    bad = tmp_path / name
    bad.write_text(text.replace('"@"', json.dumps(repeated)))
    with pytest.raises(DataLoadError) as err:
        load(bad)
    assert str(err.value) == f"{name}: repeated key {repeated!r}"


@pytest.mark.parametrize("value", [1.5, "11", True, -1])
def test_cases_load_rejects_bad_problematic_modules(tmp_path, value):
    raw = json.loads((DATA / "cases.json").read_text())
    raw["cases"][10]["problematicModules"] = value
    bad = tmp_path / "cases.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(DataLoadError) as err:
        load_cases(bad)
    assert "problematicModules" in str(err.value)


def test_fault_injection_problematic_modules(tmp_path):
    """The expected floor-1 count of case 11 is read from cases.json."""
    raw = json.loads((DATA / "cases.json").read_text())
    assert raw["cases"][10]["problematicModules"] == 11
    raw["cases"][10]["problematicModules"] = 10
    edited = tmp_path / "cases.json"
    edited.write_text(json.dumps(raw))
    report = verify_case(load_cases(edited)[10], load_schellekens())
    step = next(s for s in report.steps if s.name == "(g) i=1 problematic modules")
    assert not step.passed and (step.expected, step.actual) == (10, 11)
    raw["cases"][10]["problematicModules"] = -11
    edited.write_text(json.dumps(raw))
    with pytest.raises(DataLoadError, match="problematicModules"):
        load_cases(edited)



@pytest.mark.parametrize("number", [37, 71])
def test_fault_injection_schellekens_number(capsys, monkeypatch, number):
    """Case 11's schellekensNo is 9, its source A4,5 A4,5.  Entry 37 is its
    target A4^6 and no entry is numbered 71: either way the (f) row fails
    with the fault in its details, the survivor list unchanged, and case
    run exits 1."""
    import orbdim.cases as cases_mod
    from orbdim.cli import main

    real = cases_mod._data_text

    def corrupted(name):
        raw = json.loads(real(name))
        if name == "cases.json":
            raw["cases"][10]["schellekensNo"] = number
        return json.dumps(raw)

    monkeypatch.setattr(cases_mod, "_data_text", corrupted)
    report = verify_case(load_cases()[10], load_schellekens())
    step = next(s for s in report.steps if s.name == "(f) unique Schellekens survivor")
    assert not step.passed and step.actual == step.expected == ["A4 A4 A4 A4 A4 A4"]
    assert step.details == f"schellekensNo {number} does not name the source A4,5 A4,5"
    assert [s.name for s in report.steps if not s.passed] == [step.name]
    assert main(["case", "run", "11"]) == 1
    assert f"schellekensNo {number} does not name" in capsys.readouterr().out

def test_screening_lists_and_step_g_share_their_cases():
    from orbdim.cli import regenerate_tables

    def as_fractions(rows):
        return [(r["weights"], F(str(r["rho"])), F(str(r["twisted"]))) for r in rows]

    cases = load_cases()
    lists = regenerate_tables()["screening_lists.json"]
    assert set(lists) == {c.id for c in cases if c.problematic_modules}
    table = load_schellekens()
    for case in cases:
        if case.id in lists:
            report = verify_case(case, table)
            assert as_fractions(lists[case.id]) == as_fractions(report.screening[1])
            assert len(lists[case.id]) == case.problematic_modules


def test_verify_all_rows_are_the_case_summary_golden():
    """verify_all and tables regen build their summary rows with one
    function: without "passed" the rows are the golden, JSON types included."""
    _, rows = verify_all()
    stripped = [{k: v for k, v in row.items() if k != "passed"} for row in rows]
    golden = (DATA / "goldens" / "case_summary.json").read_text()
    assert json.dumps(stripped, indent=1, sort_keys=True) + "\n" == golden
    assert all(row["passed"] is True for row in rows)


def test_a_warm_verify_all_reports_what_a_cold_one_did():
    """The second call reads every inner automorphism, screening factor,
    screen and admissibility search from the memos the first one filled."""
    for memo in (_inner, _factor_setup, _screen, _admits):
        memo.cache_clear()
    cold = verify_all()
    warm = verify_all()
    assert [r.to_dict() for r in warm[0]] == [r.to_dict() for r in cold[0]]
    assert warm[1] == cold[1]
    assert _inner.cache_info().hits and _factor_setup.cache_info().hits
    assert _screen.cache_info().hits == 32 and _admits.cache_info().hits == 43


def test_step_g_and_the_loader_report_the_same_representative_fault(tmp_path):
    """A recorded representative of 2*h in the wrong coroot coset fails the
    loader and the (g) rows of i = 2 and of its negation i = 3 with the one
    verdict the record stored when it was built."""
    case = load_cases()[10]
    bad = (case.ih_reps[2][0], (F(0),) * 4)
    replaced = dataclasses.replace(case, ih_reps={2: bad})
    fault = replaced.powers[2][2]
    assert fault == "factor 1 (A4) differs from 2*h by a coweight outside the coroot lattice"
    report = verify_case(replaced, load_schellekens())
    failed = {s.name: s.details for s in report.steps if not s.passed}
    assert failed == {"(g) i=2 representative contract": fault,
                      "(g) i=3 representative contract": fault.replace("2*h", "3*h")}
    raw = json.loads((DATA / "cases.json").read_text())
    raw["cases"][10]["ihReps"]["2"][1] = ["0", "0", "0", "0"]
    edited = tmp_path / "cases.json"
    edited.write_text(json.dumps(raw))
    with pytest.raises(DataLoadError) as err:
        load_cases(edited)
    assert str(err.value) == f"case 11: ihReps['2']: {fault}"


def test_step_g_fails_a_representative_below_the_alcove_range_without_screening_it():
    """A recorded representative of 2*h in the right coroot coset but with
    alpha < -1 fails the (g) contract rows of i = 2 and i = 3, and verify_case
    returns its report: neither power is screened, so no ValueError escapes."""
    case = load_cases()[10]
    shifted = tuple(x + a for x, a in zip(case.ih_reps[2][1], (2, -1, 0, 0)))   # + alpha_1^vee
    bad = (case.ih_reps[2][0], shifted)
    fault = "factor 1 (A4) has alpha < -1 for some root"
    assert representative_fault(case.source, tuple(map(scale_vector, bad)), 2,
                                case.scaled_h) == fault
    report = verify_case(dataclasses.replace(case, ih_reps={2: bad}), load_schellekens())
    failed = {s.name: s.details for s in report.steps if not s.passed}
    assert failed == {"(g) i=2 representative contract": fault,
                      "(g) i=3 representative contract": fault}
    assert sorted(report.screening) == [1, 4]
    assert not any(s.name.startswith(("(g) i=2 ", "(g) i=3 ")) and "problematic" in s.name
                   for s in report.steps)


def test_representatives_are_the_recorded_ones_or_their_negations(monkeypatch):
    """Every power of every case takes the recorded tuple itself, or the exact
    negation of the one recorded for n - i; none reaches alcove reduction."""
    def unused(rs, h):
        raise AssertionError(f"alcove reduction reached for {rs.kind} {h}")

    monkeypatch.setattr(cases_mod, "alcove_representative", unused)
    powers = 0
    for case in load_cases():
        recorded = {1: case.h, **case.ih_reps}
        for i in range(1, case.n):
            reps = case.powers[i][0]
            if i in recorded:
                assert reps is recorded[i], (case.id, i)
            else:
                assert reps == tuple(tuple(-x for x in coords)
                                     for coords in recorded[case.n - i]), (case.id, i)
            powers += 1
    assert powers == 32


def test_data_checksums_recorded():
    recorded = {}
    for line in (DATA / "CHECKSUMS.sha256").read_text().splitlines():
        digest, name = line.split()
        recorded[name] = digest
    for name in ("cases.json", "schellekens.json"):
        actual = hashlib.sha256((DATA / name).read_bytes()).hexdigest()
        assert recorded[name] == actual, f"{name} changed without updating CHECKSUMS.sha256"


def test_verify_case_1_report():
    cases = load_cases()
    table = load_schellekens()
    report = verify_case(cases[0], table)
    assert report.passed
    by_name = {s.name: s for s in report.steps}
    assert by_name["(e) orbifold dimension"].actual == 264
    assert by_name["(c) <h,h>"].actual == 2
    survivors = by_name["(f) unique Schellekens survivor"].actual
    assert survivors == ["A9 A9 D6"]


def test_fault_injection_corrupted_d():
    cases = load_cases()
    table = load_schellekens()
    case4 = cases[3]
    corrupted = dataclasses.replace(case4, expected_d=743)
    report = verify_case(corrupted, table)
    assert not report.passed
    failing = [s.name for s in report.steps if not s.passed]
    assert "(e) orbifold dimension" in failing
    # the pipeline keeps going and still gathers later steps
    assert any(s.name.startswith("(g)") for s in report.steps)


def test_fault_injection_module_order():
    """Adding Lambda_1^vee to case 1's h on A5 (h = 0 there) leaves the
    automorphism of V1 as it was, but Lambda_1^vee has order 6 in
    P^vee/Q^vee = Z/6, so the least k with k*h in the coroot lattice, the
    order on modules that step (b) compares with n = 2, becomes 6."""
    case = load_cases()[0]
    a5 = case.h[0]
    shifted = dataclasses.replace(case, h=((a5[0] + 1,) + a5[1:],) + case.h[1:])
    steps = {s.name: s for s in verify_case(shifted, load_schellekens()).steps}
    assert steps["(b) per-factor orders on V1"].passed and steps["(b) fixed subalgebra"].passed
    step = steps["(b) order bounds coincide"]
    assert not step.passed and step.actual == {"algebra": 2, "module": 6}


@pytest.mark.parametrize("corruption, message", [
    ("fixed algebra", "not ("),
    ("order", "does not divide 2"),
    ("cycle length", "more A9 factors than there are"),
    ("labels", "the witness fixes (('A', 5), ('C', 5), ('C', 5)) + C^1, not"),
    ("labels gcd", "are not coprime Kac coordinates"),
    ("labels sign", "are not coprime Kac coordinates"),
    ("labels length", "the labels s=[0, 0, 0, 0, 1] on A_9^(2) are not coprime Kac coordinates"),
])
def test_fault_injection_corrupted_witness(monkeypatch, corruption, message):
    """Step (f) rebuilds every admissibility witness as an automorphism; a
    witness class that fixes something else or whose order does not divide
    n, a cycle over more factors than the algebra has, or a class whose
    labels are no coprime Kac coordinates, fails the (f) row although the
    survivor list is unchanged.  Case 1's first class is A_9^(2) with
    s = [0, 0, 0, 0, 0, 1], order 2 and fixed D5.  In its place, a class of
    order 6 from enumerate_classes has an order that does not divide 2; the
    labels (1, 0, ..., 0) fix C5; and (0, ..., 0, 2), (0, ..., 2, -1) and
    the five entries (0, 0, 0, 0, 1) are no coprime Kac coordinates on the
    six nodes, reported without reading a fixed algebra from them."""
    import orbdim.cases as cases_mod
    from orbdim.kacaut import enumerate_classes

    real = cases_mod.admits_fixed_subalgebra

    def corrupt(kind, p, cls):
        if corruption == "order":
            return kind, p, next(c for c in enumerate_classes(kind, 3 * cls.order)
                                 if c.twist == cls.twist)
        if corruption == "cycle length":
            return kind, p + 2, cls
        if corruption.startswith("labels"):
            s = {"labels": (1, 0, 0, 0, 0, 0), "labels gcd": (0, 0, 0, 0, 0, 2),
                 "labels sign": (0, 0, 0, 0, 2, -1), "labels length": (0, 0, 0, 0, 1)}[corruption]
            return kind, p, dataclasses.replace(cls, s=s)
        return kind, p, next(c for c in enumerate_classes(kind, cls.order)
                             if c.fixed_components != cls.fixed_components)

    def admits(kinds, comps, abelian, n):
        found, witness = real(kinds, comps, abelian, n)
        if found:
            witness = [corrupt(*witness[0])] + witness[1:]
        return found, witness

    case = load_cases()[0]
    table = load_schellekens()
    assert verify_case(case, table).passed
    monkeypatch.setattr(cases_mod, "admits_fixed_subalgebra", admits)
    report = verify_case(case, table)
    step = next(s for s in report.steps if s.name == "(f) unique Schellekens survivor")
    assert not step.passed and not report.passed
    assert step.actual == step.expected == ["A9 A9 D6"]
    assert message in step.details


def test_metadata_honesty_labels():
    cases = load_cases()
    table = load_schellekens()
    for case in (cases[0], cases[10]):
        report = verify_case(case, table)
        asserted = [s for s in report.steps if s.provenance == "paper-asserted"]
        assert any("class length" in s.name for s in asserted)
        assert any("coset group" in s.name for s in asserted)
        computed = [s for s in report.steps if s.provenance == "computed"]
        assert not any("class length" in s.name for s in computed)
    eleven = verify_case(cases[10], table)
    assert any("shifted twisted weights" in s.name and s.provenance == "paper-asserted"
               for s in eleven.steps)


def test_fixed_dims_profiles_match_table_columns():
    cases = load_cases()
    # case 1: dim fixed = 136, whole algebra 168
    p1 = fixed_dims_profile(cases[0])
    assert p1.dims == {1: 136, 2: 168}
    # case 4: 368 / 384
    p4 = fixed_dims_profile(cases[3])
    assert p4.dims == {1: 368, 2: 384}
    # case 11: 28 / 48
    p11 = fixed_dims_profile(cases[10])
    assert p11.dims == {1: 28, 5: 48}


def test_representatives_contract_all_cases():
    from orbdim.liealg import build_root_system, in_alcove_range
    for case in load_cases():
        systems = [build_root_system(k) for k, _ in case.source.components]
        for i in range(1, case.n):
            reps = case.powers[i][0]
            for rs, rep, h in zip(systems, reps, case.h):
                diff = tuple(r - i * x for r, x in zip(rep, h))
                assert rs.in_coroot_lattice(diff)
                assert in_alcove_range(rs.kind, rep)


def test_report_json_roundtrip():
    cases = load_cases()
    table = load_schellekens()
    report = verify_case(cases[2], table)
    blob = json.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert parsed["case"] == "3"
    assert parsed["passed"] is True
    assert all(isinstance(s["name"], str) for s in parsed["steps"])
