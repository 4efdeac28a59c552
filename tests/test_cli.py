import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cdrings import cli, suites
from cdrings.cli import build_parser, main
from cdrings.errors import EnumerationBudgetExceeded
from cdrings.essentiality import centrally_essential_criterion, n_essential_criterion
from cdrings.suites import SUITES, sweep_towers


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_document_and_flags(tmp_path, capsys):
    out = tmp_path / "oct.json"
    code, stdout, _ = run_cli(
        capsys, "build", "--base", "4", "--params", "1,1,1", "--out", str(out)
    )
    assert code == 0
    assert "rank 8" in stdout
    flag_line = stdout.split("flags:")[1].split("\n")[0]
    assert "alternative" in flag_line
    bare = flag_line.replace("right_alternative", "").replace("alternative", "")
    assert "associative" not in bare and "commutative" not in bare
    assert "centrally essential: True" in stdout
    doc = json.loads(out.read_text())
    assert doc["rank"] == 8 and doc["modulus"] == 4


def test_build_rank16_not_right_alternative(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "build", "--base", "4", "--params", "1,1,1,1")
    assert code == 0
    assert "rank 16" in stdout
    flag_line = stdout.split("flags:")[1].split("\n")[0]
    assert "right_alternative" not in flag_line
    # 4^16 is over the budget: the verdict comes from the socle route.
    assert "centrally essential: True (socle)" in stdout


def test_build_reports_a_check_it_cannot_decide(capsys, monkeypatch):
    def over_budget(algebra, budget):
        raise EnumerationBudgetExceeded(4**16, budget)

    monkeypatch.setattr(cli, "is_centrally_essential", over_budget)
    code, stdout, _ = run_cli(capsys, "build", "--base", "4", "--params", "1,1,1,1")
    assert code == 0
    assert "centrally essential: skipped (over enumeration budget)" in stdout


def test_build_reports_construction_error_with_stage(capsys):
    code, _, stderr = run_cli(capsys, "build", "--base", "4", "--params", "1,2")
    assert code == 2
    assert "stage 2" in stderr and "no two-sided inverse" in stderr


def test_build_all_stages(tmp_path, capsys):
    out = tmp_path / "tower.json"
    code, stdout, _ = run_cli(
        capsys,
        "build",
        "--base",
        "3",
        "--params",
        "1,1",
        "--all-stages",
        "--out",
        str(out),
    )
    assert code == 0
    assert stdout.count("rank") >= 3
    assert (tmp_path / "tower.json.stage0").exists()
    assert (tmp_path / "tower.json.stage2").exists()


def test_analyze_document(tmp_path, capsys):
    out = tmp_path / "quat.json"
    run_cli(capsys, "build", "--base", "4", "--params", "1,1", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "analyze", str(out))
    assert code == 0
    assert "|Z| = 32" in stdout
    assert "centrally essential: True [definitional]" in stdout


def test_analyze_missing_file(capsys):
    code, _, stderr = run_cli(capsys, "analyze", "/nonexistent/path.json")
    assert code == 2
    assert "cannot load" in stderr


_Z2 = {"format_version": 1, "modulus": 2, "rank": 1, "unit": [1], "involution": [[1]]}


@pytest.mark.parametrize(
    "doc",
    [{"format_version": 1}, [], dict(_Z2, structure=[1.5]), dict(_Z2, structure=[10**20])],
    ids=["no-modulus", "array", "float-entry", "entry-beyond-int64"],
)
def test_analyze_rejects_a_malformed_document(tmp_path, capsys, doc):
    # The float entry used to be truncated to 1 and analyzed with exit 0.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert stderr.startswith("cannot load document:")


def test_analyze_rejects_labels_that_are_not_strings(tmp_path, capsys):
    # A label string "x" was split into its characters and analyzed with exit 0.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(_Z2, structure=[1], labels="x")))
    code, _, stderr = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert stderr.startswith("cannot load document: labels")


def test_analyze_reports_witness_for_false_verdict(tmp_path, capsys):
    out = tmp_path / "z3quat.json"
    run_cli(capsys, "build", "--base", "3", "--params", "1,1", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "analyze", str(out))
    assert code == 0
    assert "centrally essential: False [definitional] witness" in stdout


def test_verify_thm_1_5(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "thm-1.5")
    assert code == 0
    assert "PASS" in stdout and "FAIL" not in stdout


def test_verify_thm_1_5_under_a_small_budget_skips_the_definitional_row(capsys):
    # 4^8 is over the budget: the socle verdict is reported, not passed off
    # as the definitional scan the row names.
    code, stdout, _ = run_cli(capsys, "--budget", "1000", "verify", "thm-1.5")
    assert code == 0
    assert "FAIL" not in stdout and "scanned all" not in stdout
    assert (
        "[SKIP] rank-8 Z4 tower centrally essential (definitional) -- definitional scan"
        " skipped: enumeration needs 65536 elements, budget is 1000; socle verdict = True"
        " (socle step (a)"
    ) in stdout
    assert "4 passed, 0 failed, 1 skipped" in stdout


def test_verify_prop_5_2_json(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "prop-5.2", "--n-range", "2..9", "--json"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["suite"] == "prop-5.2"
    assert report["passed"] is True
    assert len(report["instances"]) == 8


def test_verify_remark_2_5_scoped(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "remark-2.5", "--bases", "2,3", "--depth", "2"
    )
    assert code == 0
    assert "FAIL" not in stdout


def test_verify_formula_suites_scoped(capsys):
    for suite in ("thm-1.3", "thm-1.4"):
        code, stdout, _ = run_cli(
            capsys, "verify", suite, "--bases", "2,3", "--depth", "2"
        )
        assert code == 0
        assert "FAIL" not in stdout
        assert "formula" in stdout and "criterion-agreement" in stdout
        # Under a budget of 8 every stage and double is over budget; the
        # socle route decides each check as the scans do at the default.
        scanned = run_cli(capsys, "verify", suite, "--bases", "3", "--depth", "2")[1]
        code, stdout, _ = run_cli(
            capsys, "--budget", "8", "verify", suite, "--bases", "3", "--depth", "2"
        )
        assert code == 0
        assert "SKIP" not in stdout and stdout.splitlines()[:-1] == scanned.splitlines()[:-1]


@pytest.mark.parametrize("suite", ["thm-1.3", "thm-1.4"])
@pytest.mark.parametrize("route", ["criterion", "definitional"])
def test_verify_formula_suites_report_checks_over_budget_as_skips(capsys, monkeypatch, suite, route):
    # A check that raises becomes a skipped row; the rows before it and the
    # other towers are still reported.
    def over_budget(algebra, *args, budget):
        raise EnumerationBudgetExceeded(algebra.modulus**algebra.rank, budget)

    names = {
        ("thm-1.3", "criterion"): "n_essential_criterion",
        ("thm-1.3", "definitional"): "is_left_n_essential",
        ("thm-1.4", "criterion"): "centrally_essential_criterion",
        ("thm-1.4", "definitional"): "is_centrally_essential",
    }
    monkeypatch.setattr(suites, names[suite, route], over_budget)
    code, stdout, _ = run_cli(capsys, "verify", suite, "--bases", "3", "--depth", "2")
    assert code == 0
    assert "FAIL" not in stdout and "Z3;2,2 formula" in stdout
    if route == "criterion":
        expected = "[SKIP] Z3;1,1 criterion-agreement -- criterion skipped: enumeration needs 9"
    else:
        expected = (
            "[SKIP] Z3;1,1 criterion-agreement -- definitional check skipped: enumeration needs"
            " 81 elements, budget is 1048576; criterion verdict = "
        )
    assert expected in stdout


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_exit_code_1_on_failure(capsys, monkeypatch):
    import cdrings.suites as suites_mod
    from cdrings.suites import InstanceResult, VerificationReport

    def failing_suite(**kwargs):
        rep = VerificationReport("thm-1.5")
        rep.instances.append(
            InstanceResult("forced failure", False, detail="injected", witness=(1,))
        )
        return rep

    monkeypatch.setitem(suites_mod.SUITES, "thm-1.5", failing_suite)
    code, stdout, _ = run_cli(capsys, "verify", "thm-1.5")
    assert code == 1
    assert "FAIL" in stdout and "witness" in stdout


def test_verify_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "lemma-5.1", "--n-range", "2..6")
    code2, out2, _ = run_cli(capsys, "verify", "lemma-5.1", "--n-range", "2..6")
    assert code1 == code2 == 0
    strip = lambda s: "\n".join(
        line for line in s.splitlines() if "in " not in line  # timing line varies
    )
    assert strip(out1) == strip(out2)


def test_search_filter_finds_flagship(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    code, stdout, _ = run_cli(
        capsys,
        "search",
        "--bases",
        "4",
        "--depth",
        "3",
        "--filter",
        "centrally_essential & !associative",
        "--out",
        str(out),
    )
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    matches = [r for r in rows if not r.get("skipped")]
    assert any(r["base"] == 4 and r["params"] == [1, 1, 1] for r in matches)
    for r in matches:
        assert r["flags"]["centrally_essential"] and not r["flags"]["associative"]


def test_search_depth_zero_matches_commutative(capsys):
    code, stdout, _ = run_cli(
        capsys, "search", "--bases", "3,4", "--depth", "0", "--filter", "commutative"
    )
    assert code == 0
    rows = [json.loads(line) for line in stdout.splitlines()]
    assert {(r["base"], tuple(r["params"])) for r in rows} == {(3, ()), (4, ())}


def test_search_left_vs_right_n_essential_empty(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "search",
        "--bases",
        "2,3",
        "--depth",
        "2",
        "--filter",
        "left_n_essential & !right_n_essential",
    )
    assert code == 0
    rows = [json.loads(line) for line in stdout.splitlines()]
    assert [r for r in rows if not r.get("skipped")] == []


def test_search_decides_rows_over_budget_as_the_scans_do(capsys):
    argv = ["search", "--bases", "4", "--depth", "3", "--filter", "centrally_essential"]
    scanned = run_cli(capsys, *argv)[1]
    # Under a budget of 4000 the rank-8 rows (4^8 elements) take the socle route.
    code, stdout, _ = run_cli(capsys, "--budget", "4000", *argv)
    assert code == 0
    rows = [json.loads(line) for line in stdout.splitlines()]
    assert any(r["rank"] == 8 for r in rows) and not any(r.get("skipped") for r in rows)
    assert stdout == scanned


def test_search_marks_budget_skips(capsys, monkeypatch):
    def over_budget(algebra, budget):
        raise EnumerationBudgetExceeded(algebra.modulus**algebra.rank, budget)

    monkeypatch.setattr(cli, "is_centrally_essential", over_budget)
    code, stdout, _ = run_cli(
        capsys, "search", "--bases", "4", "--depth", "1", "--filter", "centrally_essential"
    )
    assert code == 0
    rows = [json.loads(line) for line in stdout.splitlines()]
    assert len(rows) == 3 and all(r["skipped"] for r in rows)
    assert rows[0]["reason"] == (
        "filter needs centrally_essential but deciding it exceeds the enumeration budget"
    )
    code, stdout, _ = run_cli(capsys, "search", "--bases", "4", "--depth", "1")
    rows = [json.loads(line) for line in stdout.splitlines()]
    assert all(r["flags_skipped"] == ["centrally_essential"] for r in rows)


def test_search_reports_a_base_that_cannot_be_built(capsys):
    # Past 2^31 even Z/n is refused; at depth 0 no list of its ~3e9 units is made.
    code, stdout, _ = run_cli(capsys, "search", "--bases", "3037000501", "--depth", "0")
    assert code == 0
    rows = [json.loads(line) for line in stdout.splitlines()]
    assert len(rows) == 1
    assert rows[0]["skipped"] is True and rows[0]["params"] == []
    assert rows[0]["reason"].startswith("construction failed: modulus 3037000501 is too large")


def test_search_rejects_unknown_flag(capsys):
    code, _, stderr = run_cli(
        capsys, "search", "--bases", "3", "--depth", "1", "--filter", "bogus_flag"
    )
    assert code == 2
    assert "unknown flag" in stderr


@pytest.mark.parametrize(
    "text, message",
    [
        ("centrally_essential &", "bad filter expression"),
        ("__import__('os')", "unsupported syntax"),
        ("centrally_essential.real", "unsupported syntax"),
        ("associative == commutative", "unsupported syntax"),
        ("True", "unsupported syntax"),
    ],
)
def test_search_refuses_a_filter_outside_the_flag_grammar(capsys, text, message):
    # The filter is evaluated with `eval`, so anything beyond flag names,
    # !, &, | and parentheses must be refused before a row is printed.
    argv = ["search", "--bases", "3", "--depth", "1", "--filter", text]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert message in stderr
    assert stdout == ""


def test_budget_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CDRINGS_ENUM_BUDGET", "10")
    out = tmp_path / "q.json"
    run_cli(capsys, "build", "--base", "4", "--params", "1,1", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "analyze", str(out))
    assert code == 0
    # 4^4 > 10, so every check is decided on the socle, not scanned.
    assert stdout.count("[socle]") == 3 and "[definitional]" not in stdout


@pytest.mark.parametrize("command", ["verify", "analyze", "search"])
def test_budget_is_taken_before_and_after_the_subcommand(tmp_path, capsys, monkeypatch, command):
    # One --budget definition serves both positions; the environment
    # variable still applies when neither is given.
    doc = tmp_path / "q.json"
    run_cli(capsys, "build", "--base", "4", "--params", "1,1", "--out", str(doc))
    argv, budget, sign = {
        "verify": (["verify", "thm-1.5"], "1000", "[SKIP]"),
        "analyze": (["analyze", str(doc)], "10", "[socle]"),
        "search": (["search", "--bases", "2", "--depth", "1"], "4", '"base": 2'),
    }[command]

    def output(*args):
        code, stdout, _ = run_cli(capsys, *args)
        assert code == 0
        return re.sub(r" in \d+\.\d+s", "", stdout)  # the suite's elapsed time

    before = output("--budget", budget, *argv)
    assert sign in before
    assert output(*argv, "--budget", budget) == before
    monkeypatch.setenv("CDRINGS_ENUM_BUDGET", budget)
    assert output(*argv) == before
    if command != "search":  # the search rows do not show how a flag was decided
        monkeypatch.delenv("CDRINGS_ENUM_BUDGET")
        assert sign not in output(*argv)


def exit_code(capsys, *argv):
    """Exit code and stderr of one call, whether main returns or argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_bad_budget_env_var_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CDRINGS_ENUM_BUDGET", "abc")
    code, stderr = exit_code(capsys, "verify", "thm-1.5")
    assert code == 2
    assert "CDRINGS_ENUM_BUDGET" in stderr


def test_non_integer_params_are_a_usage_error(capsys):
    code, stderr = exit_code(capsys, "build", "--base", "4", "--params", "a")
    assert code == 2
    assert "--params" in stderr


def test_open_range_is_a_usage_error(capsys):
    for bases in ("2..", "5..2"):
        code, stderr = exit_code(capsys, "search", "--bases", bases, "--depth", "1")
        assert code == 2
        assert "--bases" in stderr


def test_modulus_below_two_is_a_usage_error(capsys):
    code, stderr = exit_code(capsys, "verify", "prop-5.2", "--n-range", "1..3")
    assert code == 2
    assert "modulus must be >= 2" in stderr


def test_unwritable_search_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "rows.jsonl"
    code, stderr = exit_code(capsys, "search", "--bases", "2", "--depth", "1", "--out", str(out))
    assert code == 2
    assert "cannot write" in stderr


def test_unwritable_build_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "oct.json"
    code, stderr = exit_code(capsys, "build", "--base", "4", "--params", "1", "--out", str(out))
    assert code == 2
    assert "cannot write document" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("all_stages", [False, True], ids=["last-stage", "all-stages"])
def test_build_opens_every_output_before_any_scan(tmp_path, capsys, monkeypatch, all_stages):
    def never(*args, **kwargs):
        raise AssertionError("scanned before the output was opened")

    monkeypatch.setattr(cli, "is_centrally_essential", never)
    monkeypatch.setattr(cli, "identity_flags", never)
    out = tmp_path / "missing" / "oct.json"
    argv = ["build", "--base", "4", "--params", "1", "--out", str(out)]
    if all_stages:
        # Stage 0 can be written; stage 1 is a directory, found before stage 0 is scanned.
        out = tmp_path / "oct.json"
        (tmp_path / "oct.json.stage1").mkdir()
        argv = ["build", "--base", "4", "--params", "1", "--all-stages", "--out", str(out)]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert "cannot write document" in stderr


@pytest.mark.parametrize(
    "argv, attr",
    [
        (["verify", "lemma-5.1", "--n-range", "2..1000000000000"], "n_range"),
        (["verify", "remark-2.5", "--bases", "2..1000000000000"], "bases"),
        (["search", "--bases", "2..1000000000000"], "bases"),
    ],
    ids=["n-range", "verify-bases", "search-bases"],
)
def test_huge_ranges_are_parsed_lazily(argv, attr):
    parsed = getattr(build_parser().parse_args(argv), attr)
    # A range object: its length is known without holding 10^12 moduli.
    assert isinstance(parsed, range)
    assert len(parsed) == 10**12 - 1 and parsed[0] == 2 and parsed[-1] == 10**12


def test_zero_budget_is_a_usage_error(capsys):
    code, stderr = exit_code(capsys, "--budget", "0", "build", "--base", "4", "--params", "1,1")
    assert code == 2
    assert "budget must be >= 1" in stderr


def test_negative_depth_is_a_usage_error(capsys):
    code, stderr = exit_code(capsys, "verify", "thm-1.3", "--bases", "2", "--depth", "-1")
    assert code == 2
    assert "depth must be >= 0" in stderr


def test_verify_honours_depth_zero(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "remark-2.5", "--bases", "2", "--depth", "0", "--json"
    )
    assert code == 0
    assert json.loads(stdout)["instances"] == []


@pytest.mark.parametrize(
    "depth, instances",
    [("1", ["Z2;1 formula", "Z2;1 criterion-agreement"]), ("0", [])],
)
def test_verify_explicit_depth_bounds_the_z2_sweep(capsys, depth, instances):
    code, stdout, _ = run_cli(
        capsys, "verify", "thm-1.3", "--bases", "2", "--depth", depth, "--json"
    )
    assert code == 0
    assert [r["instance"] for r in json.loads(stdout)["instances"]] == instances


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "prop-5.2", "--bases", "9"], "--bases"),
        (["--budget", "5", "verify", "remark-2.5"], "--budget"),
        (["verify", "remark-2.5", "--budget", "5"], "--budget"),
        (["--budget", "5", "verify", "lemma-2.1"], "--budget"),
    ],
    ids=["prop-5.2-bases", "remark-2.5-budget", "remark-2.5-budget-after", "lemma-2.1-budget"],
)
def test_verify_rejects_a_flag_the_suite_does_not_take(capsys, argv, flag):
    code, stderr = exit_code(capsys, *argv)
    assert code == 2
    assert flag in stderr


def test_suite_signatures_match_the_readme_flags_table():
    # cmd_verify derives a suite's flags from the registered function's
    # signature, so the registry must keep each generator's parameters.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| suite | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        suites, flags = row.strip("|").split("|")
        params = {f.lstrip("-").replace("-", "_") for f in re.findall(r"`([^`]+)`", flags)}
        for suite in re.findall(r"`([^`]+)`", suites):
            documented[suite] = params
    taken = {name: set(inspect.signature(fn).parameters) for name, fn in SUITES.items()}
    assert taken == documented


def test_build_reduces_a_parameter_beyond_int64(tmp_path, capsys):
    # 10^20 + 1 is 1 mod 5; it used to end in an OverflowError traceback.
    runs = []
    for params in ("1", str(10**20 + 1)):
        out = tmp_path / f"{params}.json"
        code, stdout, _ = run_cli(
            capsys, "build", "--base", "5", "--params", params, "--out", str(out)
        )
        doc = json.loads(out.read_text())
        algebra = [doc[key] for key in ("modulus", "structure", "unit", "involution")]
        runs.append((code, stdout.replace(str(out), "OUT"), algebra))
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_build_reports_a_modulus_too_large_for_int64(capsys):
    code, _, stderr = run_cli(capsys, "build", "--base", "3037000493", "--params", "1,1")
    assert code == 2
    assert "too large for exact int64 arithmetic" in stderr


@pytest.mark.parametrize("argv, expected", [(["verify", "thm-1.5"], 0), (["verify", "nope"], 2)])
def test_python_m_cdrings_returns_the_cli_exit_code(argv, expected):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "cdrings", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == expected, proc.stderr


def test_a_reader_that_closes_the_pipe_ends_the_cli_quietly():
    # The rows (about 100 kB) overrun the pipe's buffer, so the CLI is still
    # writing when the reader stops after the first row.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cdrings", "search", "--bases", "2..6", "--depth", "4"],
        env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline())["base"] == 2
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert (proc.returncode, stderr) == (141, b"")


def test_importing_the_package_loads_only_the_standard_library_and_numpy():
    # Import time is every CLI call's start-up; no third-party module may
    # join numpy there. Modules the interpreter loads before (site hooks)
    # do not count.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; before = set(sys.modules); import cdrings; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    loaded = set(proc.stdout.split())
    assert {"cdrings", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) == {"cdrings", "numpy"}


GOLDEN = Path(__file__).resolve().parent / "golden"

# The stages and doubling parameters of `criteria-*.json`: every unit tower
# over Z2..Z6 of depth 1 to 3, in `sweep_towers` order.
CRITERIA_SWEEP = {"bases": range(2, 7), "depth": 3}


def _criterion_rows() -> str:
    """(verdict, method, witness, cost, detail) of both criteria for
    (stages[-2], params[-1]) of each tower in CRITERIA_SWEEP; a criterion
    over budget is a row with its `skipped` message."""
    rows = []
    for base, params, stages in sweep_towers(**CRITERIA_SWEEP):
        for check in (n_essential_criterion, centrally_essential_criterion):
            row = {"base": base, "params": list(params), "criterion": check.__name__}
            try:
                v = check(stages[-2], params[-1])
            except EnumerationBudgetExceeded as exc:
                row["skipped"] = str(exc)
            else:
                witness = None if v.witness is None else list(v.witness)
                row.update(verdict=v.verdict, method=v.method, witness=witness, cost=v.cost,
                           detail=v.detail)
            rows.append(row)
    return json.dumps(rows, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.iterdir()))
def test_reports_match_the_golden_files(capsys, monkeypatch, tmp_path, golden):
    # The files hold, at the default budget:
    # - verify-<suite>.json: `verify <suite> --json` without `elapsed`;
    # - search-*.jsonl: the rows of `search --bases 2..4 --depth 4`;
    # - analyze-<base>-<params>.txt: `analyze` of the document that
    #   `build --base <base> --params <params> --out` writes;
    # - criteria-*.json: `_criterion_rows()`, whose ideal scans take
    #   `Submodule.elements` of a ring as their universe.
    # Every verdict, cost, witness and skip must stay byte-identical;
    # regenerate a file only for an output change that is meant and stated.
    monkeypatch.delenv("CDRINGS_ENUM_BUDGET", raising=False)
    code = 0
    if golden.startswith("verify-"):
        suite = golden.removeprefix("verify-").removesuffix(".json")
        code, stdout, _ = run_cli(capsys, "verify", suite, "--json")
        report = json.loads(stdout)
        del report["elapsed"]
        stdout = json.dumps(report, sort_keys=True, indent=1) + "\n"
    elif golden.startswith("search-"):
        code, stdout, _ = run_cli(capsys, "search", "--bases", "2..4", "--depth", "4")
    elif golden.startswith("analyze-"):
        base, params = golden.removeprefix("analyze-").removesuffix(".txt").split("-")
        doc = tmp_path / "doc.json"
        assert run_cli(capsys, "build", "--base", base, "--params", params, "--out", str(doc))[0] == 0
        code, stdout, _ = run_cli(capsys, "analyze", str(doc))
    else:
        assert golden.startswith("criteria-")
        stdout = _criterion_rows()
    assert code == 0
    assert stdout == (GOLDEN / golden).read_text()
