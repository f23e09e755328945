import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbdim.cases import _rendered
from orbdim.cli import main
from orbdim.kacaut import _admits, _inner
from orbdim.liealg import _in_alcove_range
from orbdim.orbifold import _factor_setup, _screen


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_json_matches_table(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "6", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"1": 12, "2": -4, "3": -3, "6": 1}
    code, out, _ = run_cli(capsys, "coeffs", "--n", "8", "--format", "json")
    assert json.loads(out) == {"1": 12, "2": -3, "4": "-3/4", "8": "-1/4"}


def test_coeffs_usage_error_for_genus_one(capsys):
    code, out, err = run_cli(capsys, "coeffs", "--n", "11")
    assert code == 2
    assert "not a genus-zero level" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_dcoeff(capsys):
    code, out, _ = run_cli(capsys, "dcoeff", "--n", "5", "--i", "1", "--j", "1", "--k", "1")
    assert code == 0 and out.strip() == "7"
    code, _, err = run_cli(capsys, "dcoeff", "--n", "5", "--i", "1", "--j", "1", "--k", "2")
    assert code == 2 and "congruent" in err


def test_cusps_csv(capsys):
    code, out, _ = run_cli(capsys, "cusps", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "cusp,width"
    assert set(lines[1:]) == {"1/1,4", "1/2,1", "1/4,1"}


@pytest.mark.parametrize("argv, headers, count", [
    (["screen", "--case", "11"], ["weights", "rho(M)", "rho(M^h)"], 11),
    (["schellekens", "scan", "--dim", "36", "--fixed", "A2+D4", "--order", "1"],
     ["no", "structure", "dim"], 1),
])
def test_csv_rows_parse_to_the_json_rows(capsys, argv, headers, count):
    """Weight tuples and level labels hold commas; a CSV reader must still see
    one field per column, equal to the json output."""
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == headers
    assert all(len(row) == len(headers) for row in rows)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    keys = {"rho(M)": "rho", "rho(M^h)": "twisted"}
    want = [[str(record[keys.get(h, h)]) for h in headers] for record in json.loads(out)]
    assert rows[1:] == want and len(want) == count
    assert any("," in field for row in want for field in row)


def test_eta_and_hauptmodul(capsys):
    code, out, _ = run_cli(capsys, "eta", "--quotient", "1:24,2:-24", "--prec", "2")
    assert code == 0
    assert "1 * q^(-1) + -24 * q^(0)" in out
    code, out, _ = run_cli(capsys, "hauptmodul", "--n", "8", "--prec", "2")
    assert code == 0 and "-4 * q^(0)" in out
    code, _, err = run_cli(capsys, "hauptmodul", "--n", "9")
    assert code == 2 and "Conway-Norton" in err


def test_fs_divisor(capsys):
    code, out, _ = run_cli(capsys, "fs", "--n", "4", "--cusp", "1/2", "--divisor",
                           "--format", "json")
    assert code == 0
    assert "1:8,2:-24,4:16" in out
    rows = json.loads(out.splitlines()[-1]) if out.splitlines()[-1].startswith("[") else None
    # divisor table lines include order -1 at its own cusp
    assert '"order": -1' in out or "'order': -1" in out or rows is not None


def test_kac_and_inner(capsys):
    code, out, _ = run_cli(capsys, "kac", "--algebra", "A8", "--order", "2")
    assert code == 0
    assert "fixed=B4" in out
    code, out, _ = run_cli(capsys, "inner", "--algebra", "B8", "--h", "0,0,0,0,0,0,0,1/2")
    assert code == 0 and "order=2; fixed=D8; dim=120" in out
    code, _, err = run_cli(capsys, "inner", "--algebra", "B8", "--h", "1/2")
    assert code == 2


def test_a_fixed_algebra_without_a_simple_component_prints_a_dash(capsys):
    code, out, _ = run_cli(capsys, "inner", "--algebra", "A2", "--h", "1/3,1/3")
    assert (code, out) == (0, "order=3; fixed=- C^2; dim=2\n")
    code, out, _ = run_cli(capsys, "kac", "--algebra", "A2", "--order", "3")
    assert code == 0
    assert out.splitlines()[1] == "A_2^(1); s=[1, 1, 1]; order=3; fixed=- C^2"


def test_inner_reduces_h_modulo_the_coweight_lattice(capsys):
    # exp(-2 pi i h_0) depends on h only modulo the coweight lattice; an
    # unreduced alcove walk would take ~5e8 steps here
    code, out, _ = run_cli(capsys, "inner", "--algebra", "A1", "--h", "1000000000")
    assert code == 0 and out == "order=1; fixed=A1; dim=3\n"


def test_screen_case_11(capsys):
    code, out, _ = run_cli(capsys, "screen", "--case", "11", "--format", "json")
    assert code == 0
    found = json.loads(out)
    assert len(found) == 11
    assert {f["twisted"] for f in found} == {"3/5", "4/5"}


def test_case_run_single(capsys):
    code, out, _ = run_cli(capsys, "case", "run", "4")
    assert code == 0
    assert "d = 744" in out and "PASS" in out


def test_case_run_unknown(capsys):
    code, _, err = run_cli(capsys, "case", "run", "99")
    assert code == 2


def test_schellekens_scan_unique_survivor(capsys):
    code, out, _ = run_cli(capsys, "schellekens", "scan", "--dim", "744",
                           "--fixed", "D8+E8", "--order", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["structure"] == "E8 E8 E8"
    code, out, _ = run_cli(capsys, "schellekens", "scan", "--dim", "168",
                           "--fixed", "A3+ab:7", "--order", "8", "--format", "json")
    rows = json.loads(out)
    assert [r["structure"] for r in rows] == ["D4 D4 D4 D4 D4 D4"]


def test_false_witness_exits_1_from_scan_and_case_run(capsys, monkeypatch):
    """A survivor whose witness is not an automorphism fixing the target is a
    verification failure: the scan still prints its table and names the fault
    on stderr, and the text report of case run names it under the (f) row."""
    import orbdim.cases as cases_mod

    real = cases_mod.admits_fixed_subalgebra

    def admits(kinds, comps, abelian, n):
        found, witness = real(kinds, comps, abelian, n)
        return found, (witness[1:] if found else witness)

    monkeypatch.setattr(cases_mod, "admits_fixed_subalgebra", admits)
    code, out, err = run_cli(capsys, "schellekens", "scan", "--dim", "744",
                             "--fixed", "D8+E8", "--order", "2", "--format", "json")
    assert code == 1
    assert [r["structure"] for r in json.loads(out)] == ["E8 E8 E8"]
    assert "witness check failed" in err and "every factor exactly once" in err
    code, out, _ = run_cli(capsys, "case", "run", "1")
    assert code == 1
    lines = out.splitlines()
    row = lines.index("  FAIL (f) unique Schellekens survivor")
    assert lines[row + 1] == "       expected ['A9 A9 D6'], got ['A9 A9 D6']"
    assert "every factor exactly once" in lines[row + 2]


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "coeffs", "--n", "18", "--format", "json")
        outs.add(out)
    assert len(outs) == 1


def test_tables_regen_matches_goldens(tmp_path, capsys):
    code, out, err = run_cli(capsys, "tables", "regen", "--out", str(tmp_path / "t"))
    assert code == 0, err
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    assert set(manifest) == {
        "coefficient_table.json", "d_tables.json", "case_summary.json",
        "fixed_ranks.json", "screening_lists.json"}
    for name in manifest:
        assert (tmp_path / "t" / name).exists()


def test_tables_regen_detects_golden_mismatch(tmp_path, capsys, monkeypatch):
    # corrupt one regenerated table via monkeypatching and expect a diff report
    from orbdim import cli as cli_mod

    real = cli_mod.regenerate_tables

    def corrupted():
        tables = real()
        tables["coefficient_table.json"]["6"]["1"] = 13
        return tables

    monkeypatch.setattr(cli_mod, "regenerate_tables", corrupted)
    code, out, err = run_cli(capsys, "tables", "regen", "--out", str(tmp_path / "t"))
    assert code == 1
    assert "coefficient_table.json" in err


def test_tables_regen_unwritable_dir(capsys, tmp_path):
    # a regular file in the way makes the output path uncreatable
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _, err = run_cli(capsys, "tables", "regen", "--out", str(blocker / "x"))
    assert code == 1
    assert "cannot" in err


def test_case_run_all_end_to_end(capsys):
    code, out, _ = run_cli(capsys, "case", "run", "--all")
    assert code == 0
    assert out.count("PASS") == 15 and "FAIL" not in out


def test_case_run_without_an_id_runs_every_case(capsys):
    _, every, _ = run_cli(capsys, "case", "run", "--all")
    code, out, _ = run_cli(capsys, "case", "run")
    assert code == 0 and out == every


# SHA-256 of `orbdim case run --all --format json` stdout, also under python -O:
# every report, the i > 1 screening lists included, byte for byte.
CASE_RUN_ALL_JSON_SHA256 = "f6c6bed8ca7bdba1d3a05acc4715d13fb8f2744831c36cbfc8cdeac407f6e958"


def test_case_run_all_json_is_pinned(capsys):
    """Twice in one process, from empty memos of inner automorphisms,
    screening factors, screens, admissibility searches, alpha >= -1 checks
    and rendered rows and then from full ones, so a stale entry would
    show."""
    for memo in (_inner, _factor_setup, _screen, _admits, _in_alcove_range, _rendered):
        memo.cache_clear()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "case", "run", "--all", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CASE_RUN_ALL_JSON_SHA256
    assert _inner.cache_info().hits and _factor_setup.cache_info().hits
    assert _screen.cache_info().hits == 32 and _admits.cache_info().hits == 43


def test_screen_case_15(capsys):
    code, out, _ = run_cli(capsys, "screen", "--case", "15", "--format", "json")
    assert code == 0
    found = json.loads(out)
    assert len(found) == 17
    assert {f["twisted"] for f in found} == {"3/4", "7/8"}


@pytest.mark.parametrize("argv, message", [
    (["screen", "--case", "11", "--i", "0"], "--i must lie in 1..4"),
    (["screen", "--case", "11", "--i", "5"], "--i must lie in 1..4"),
    (["screen", "--case", "11", "--i", "9"], "--i must lie in 1..4"),
    (["screen", "--case", "15", "--i", "-1"], "--i must lie in 1..7"),
    (["screen", "--case", "11", "--floor", "abc"], "--floor must be a rational number"),
    (["screen", "--case", "11", "--floor", "1/0"], "--floor must be a rational number"),
    (["screen", "--case", "15", "--rho-cap", "1"], "unrecognized arguments: --rho-cap 1"),
    (["screen", "--case", "99"], "no case with id 99"),
    (["inner", "--algebra", "A2", "--h", "1/0,1"], "--h coordinate must be a rational number"),
    (["hauptmodul", "--n", "6", "--prec", "1/0"], "--prec must be a rational number"),
    (["fs", "--n", "4", "--cusp", "1/2", "--prec", "1/0"], "--prec must be a rational number"),
    (["fs", "--n", "4", "--cusp", "1/0"], "--cusp must be a rational number"),
    (["eta", "--quotient", "1:24", "--prec", "1/0"], "--prec must be a rational number"),
    (["schellekens", "scan", "--dim", "744", "--fixed", "D8+E8", "--order", "0"],
     "--order must be a positive integer"),
    (["schellekens", "scan", "--dim", "744", "--fixed", "D8+E8", "--order", "-3"],
     "--order must be a positive integer"),
    (["schellekens", "scan", "--dim", "744", "--fixed", "+", "--order", "2"],
     "--fixed names no component and no ab: part"),
    (["schellekens", "scan", "--dim", "744", "--fixed", "D8+ab:-1", "--order", "2"],
     "--fixed abelian rank must be non-negative"),
    (["case", "run", "--all", "--format", "csv"], "case run has no csv format"),
    (["schellekens", "scan", "--dim", "744", "--fixed", "ab:x", "--order", "2"],
     "--fixed abelian rank must be an integer"),
    (["eta", "--quotient", "1:x"], "--quotient: eta factor '1:x' is not d:r"),
    (["eta", "--quotient", "3:1,2"], "--quotient: eta factor '2' is not d:r"),
    (["kac", "--algebra", "A2", "--order", "0"], "the order must be a positive integer"),
    (["kac", "--algebra", "Q2", "--order", "2"], "cannot parse algebra kind 'Q2'"),
    (["dcoeff", "--n", "11", "--i", "1", "--j", "1", "--k", "1"], "11 is not a genus-zero level"),
    (["cusps", "--n", "0"], "n must be positive"),
    (["coeffs", "--n", "11"], "11 is not a genus-zero level"),
    (["eta", "--quotient", "2:1", "--prec", "1e999"], "more terms than a list can index"),
    (["hauptmodul", "--n", "2", "--prec", "1e999"], "more terms than a list can index"),
    (["fs", "--n", "2", "--cusp", "1/2", "--prec", "1e999"], "more terms than a list can index"),
    (["fs", "--n", "2", "--cusp", "1/2", "--prec", "-3"], "does not reach the leading exponent"),
    (["schellekens", "scan", "--dim", "624", "--fixed", "A1+ab:3+ab:-2", "--order", "6"],
     "--fixed abelian rank must be non-negative, got 'ab:-2'"),
    (["case", "run", "99", "--all"], "give a case id or --all, not both"),
    (["case", "run", "--all", "4"], "give a case id or --all, not both"),
    (["inner", "--algebra", "A2", "--h", "1,2,3"], "A2: coweight (1, 2, 3) has 3 entries, not 2"),
    (["inner", "--algebra", "Q1", "--h", "1"], "cannot parse algebra kind 'Q1'"),
    (["fs", "--n", "9", "--cusp", "1/3"], "no cusp functions shipped for level 9"),
    (["dcoeff", "--n", "9", "--i", "3", "--j", "3", "--k", "9"], "i, j, k must lie in 1..n-1"),
    (["eta", "--quotient", "0:1"], "--quotient: level must be positive"),
    (["cusps", "--n", "-3"], "n must be positive"),
    (["case", "run", "99"], "no case with id 99"),
    (["eta", "--quotient", ",,"], "--quotient: ',,' names no d:r factor"),
    (["eta", "--quotient", ""], "--quotient: '' names no d:r factor"),
])
def test_screen_usage_errors_exit_2(capsys, argv, message):
    """Bad values for any subcommand: exit 2, nothing on stdout, one stderr line."""
    try:
        code, out, err = run_cli(capsys, *argv)
    except SystemExit as exc:           # argparse's own errors: its usage, then one line
        code, (out, err) = exc.code, capsys.readouterr()
        assert err.startswith("usage: orbdim ")
        err = err.strip().splitlines()[-1]
    assert code == 2
    assert out == ""
    assert message in err and len(err.strip().splitlines()) == 1


def test_corrupted_shipped_data_exits_1(capsys, monkeypatch):
    """A shipped data file that fails its checks is a verification failure:
    exit 1, nothing on stdout, one stderr line naming the case and field."""
    import orbdim.cases as cases_mod

    real = cases_mod._data_text

    def corrupted(name):
        raw = json.loads(real(name))
        if name == "cases.json":
            raw["cases"][10]["n"] = "x"
        return json.dumps(raw)

    monkeypatch.setattr(cases_mod, "_data_text", corrupted)
    code, out, err = run_cli(capsys, "case", "run", "11")
    assert (code, out, err) == (1, "", "case 11: n: 'x' is not an integer\n")


def test_case_run_survives_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-m", "orbdim.cli", "case", "run", "15"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    proc = subprocess.run([sys.executable, "-O", "-m", "orbdim.cli", "case", "run", "--all"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 15 and "FAIL" not in proc.stdout


def test_package_has_no_assert_statements():
    """python -O strips assert, so no check the results rely on may be one."""
    package = Path(__file__).resolve().parents[1] / "src" / "orbdim"
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
