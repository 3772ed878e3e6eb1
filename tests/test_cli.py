"""Input parsing, report plumbing, exit codes, and the shipped corpus."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crystor.cli import main, parse_input, run_command
from crystor.errors import NotPrime, NotPositiveDefinite, ParseError

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"

TATE5 = "p = 5\nt = 1\nmu = [[5]]\n"


# ---------------------------------------------------------------------------
# parsing


def test_minimal_input_parses():
    data = parse_input(TATE5)
    assert data.p == 5
    assert data.t == 1
    assert data.mu.entry(0, 0) == 5
    assert data.symbol(0, 0) == "u1_1"


def test_comments_and_multiline_matrix():
    text = (
        "# leading comment\n"
        "p = 3   # prime\n"
        "t = 2\n"
        "mu = [[2, 1],  # first row\n"
        "      [1, 2]]\n"
    )
    data = parse_input(text)
    assert data.mu.as_rows() == ((2, 1), (1, 2))


def test_explicit_units_grid():
    text = (
        "p = 5\nt = 2\nmu = [[5, 1], [1, 5]]\n"
        "units = [[q1, s], [s, q2]]\n"
    )
    data = parse_input(text)
    assert data.symbol(0, 0) == "q1"
    assert data.symbol(0, 1) == "s"
    assert data.symbol(1, 0) == "s"


def test_negative_entries_allowed_by_parser():
    # the parser takes any integer; definiteness is validation's job
    with pytest.raises(NotPositiveDefinite):
        parse_input("p = 5\nt = 1\nmu = [[-3]]\n")


def test_nonprime_p_rejected():
    with pytest.raises(NotPrime) as exc:
        parse_input("p = 4\nt = 1\nmu = [[5]]\n")
    assert "p = 4" in str(exc.value)


# one list of cases, shared with scripts/compare_outputs.py, which runs
# each text through the command line under two checkouts
PARSE_ERROR_CASES = json.loads((ROOT / "tests" / "parse_errors.json").read_text())


@pytest.mark.parametrize("text,fragment,line,col", PARSE_ERROR_CASES)
def test_positioned_parse_errors(text, fragment, line, col):
    with pytest.raises(ParseError) as exc:
        parse_input(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line
    assert exc.value.col == col


def test_missing_keys_reported_without_position():
    with pytest.raises(ParseError) as exc:
        parse_input("p = 5\nt = 1\n")
    assert str(exc.value) == "missing key 'mu'"
    assert exc.value.line == 0


def test_units_shape_checked():
    with pytest.raises(ParseError) as exc:
        parse_input("p = 5\nt = 2\nmu = [[1,0],[0,1]]\nunits = [[a, b]]\n")
    assert "units is 1x2" in str(exc.value)


# ---------------------------------------------------------------------------
# main: outputs and exit codes


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tate_frozen_rendering(capsys):
    code, out, err = run_main(
        capsys, ["tate", "--v", "5", "--p", "5", "--m", "2"])
    assert code == 0
    assert "Z/25 ⊕ Z/5" in out
    assert err == ""


def test_component_group_identity_prints_trivial(capsys, tmp_path):
    path = tmp_path / "id.txt"
    path.write_text("p = 3\nt = 2\nmu = [[1, 0], [0, 1]]\n")
    code, out, _ = run_main(capsys, ["component-group", str(path)])
    assert code == 0
    assert "trivial" in out


def test_crys1_oracle_agreement_exit_zero(capsys):
    code, out, _ = run_main(
        capsys,
        ["crys1", str(CORPUS / "t2_hilbert_p3.txt"), "--m", "1", "--oracle"])
    assert code == 0
    assert "(order 27)" in out
    assert "agreement: yes" in out


def test_json_flag_emits_canonical_document(capsys):
    code, out, _ = run_main(
        capsys,
        ["crys1", str(CORPUS / "t2_hilbert_p3.txt"), "--m", "1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "crys1 --m 1"
    assert doc["result"]["order"] == 27
    assert out.endswith("\n")


def test_parse_error_exit_one(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p = 5\nt = 1\nmu = [[1,\n")
    code, out, err = run_main(capsys, ["torsion", str(path), "--m", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError:")
    assert "line 3" in err


def test_missing_file_exit_one(capsys):
    code, _, err = run_main(capsys, ["r1", "/nonexistent/input.txt"])
    assert code == 1
    assert err.startswith("error: BadInput:")


def test_unstabilized_cap_exit_one(capsys, tmp_path):
    path = tmp_path / "grow.txt"
    path.write_text("p = 2\nt = 1\nmu = [[8]]\n")
    code, _, err = run_main(capsys, ["r1", str(path), "--cap", "2"])
    assert code == 1
    assert err.startswith("error: NotStabilized:")
    assert "raise the cap" in err


@pytest.fixture
def int_digit_limit():
    """main lifts the interpreter's limit on int/str conversion for the
    whole process; restore it so later tests run under the default."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("argv, p, m", [
    (["crys1", str(CORPUS / "t2_identity_p3.txt"), "--m", "9000"], 3, 9000),
    (["tate", "--v", "5", "--p", "5", "--m", "7000"], 5, 7000),
    (["torsion", str(CORPUS / "t2_identity_p3.txt"), "--m", "9000"], 3, 9000),
], ids=["crys1", "tate", "torsion"])
def test_large_level_prints_exactly(capsys, int_digit_limit, argv, p, m):
    # p^m has more than 4,300 digits, past Python's default str limit
    code, out, err = run_main(capsys, argv + ["--json"])
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["n"] == p**m
    code, out, err = run_main(capsys, argv)
    assert code == 0 and err == ""
    assert f"{p**m}" in out


def test_long_literal_in_mu_parses(capsys, int_digit_limit, tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("p = 3\nt = 1\nmu = [[3" + "0" * 4400 + "]]\n")
    code, out, err = run_main(capsys, ["component-group", str(path), "--json"])
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["order"] == 3 * 10**4400


def test_torsion_report_labels_and_orders():
    report, code = run_command(
        ["torsion", str(CORPUS / "t2_identity_p3.txt"), "--m", "2"])
    assert code == 0
    doc = report.payload
    assert doc["generators"] == ["x1", "x2", "y1", "y2"]
    assert doc["orders"] == [9] * 4 and doc["ambient_order"] == 9**4
    assert doc["val_matrix"] == [[1, 0], [0, 1]]
    assert doc["unit_symbols"] == [["u1_1", "u1_2"], ["u1_2", "u2_2"]]


@pytest.mark.parametrize("sub", ["r1", "les"])
@pytest.mark.parametrize("cap", ["1", "0", "-5"])
def test_cap_below_two_exit_one(capsys, sub, cap):
    code, out, err = run_main(
        capsys, [sub, str(CORPUS / "t2_identity_p3.txt"), "--cap", cap])
    assert code == 1
    assert out == ""
    assert err.startswith("error: BadInput: the cap must be at least 2")


def test_budget_exceeded_exit_three(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "10")
    path = tmp_path / "small.txt"
    path.write_text("p = 2\nt = 2\nmu = [[2, 0], [0, 2]]\n")
    code, _, err = run_main(
        capsys, ["crys1", str(path), "--m", "2", "--oracle"])
    assert code == 3
    assert err.startswith("error: BudgetExceeded:")


def test_oracle_answers_z2_rank_nine(capsys, tmp_path, monkeypatch):
    # (Z/2)^9 has 512 elements, inside the element budget, and 8,283,458
    # subgroups; the oracle walks the elements only, so it answers
    monkeypatch.delenv("CRYSTOR_ENUM_BUDGET", raising=False)
    path = tmp_path / "z2_rank9.txt"
    rows = ", ".join(
        "[" + ", ".join("2" if j == i else "0" for j in range(9)) + "]"
        for i in range(9))
    path.write_text(f"p = 2\nt = 9\nmu = [{rows}]\n")
    code, out, _ = run_main(
        capsys, ["crys1", str(path), "--m", "1", "--oracle", "--json"])
    assert code == 0
    oracle = json.loads(out)["result"]["oracle"]
    assert oracle["agrees"] is True and oracle["order"] == 2**18
    code, out, _ = run_main(capsys, ["verify", str(path), "--max-m", "1"])
    assert code == 0
    assert "ok oracle agreement at m=1" in out
    assert "FAIL" not in out


def test_bad_budget_value_exit_one(capsys, monkeypatch):
    monkeypatch.setenv("CRYSTOR_ENUM_BUDGET", "abc")
    code, _, err = run_main(
        capsys, ["crys1", str(CORPUS / "tate_v05_p5.txt"), "--m", "1", "--oracle"])
    assert code == 1
    assert err.startswith("error: BadInput: CRYSTOR_ENUM_BUDGET")


def test_route_disagreement_exit_two(capsys, monkeypatch):
    import crystor.crys
    from crystor.abelian import FinAbGroup

    monkeypatch.setattr(crystor.crys, "p_primary_part",
                        lambda g, p: FinAbGroup.trivial())
    code, out, err = run_main(capsys, ["r1", str(CORPUS / "tate_v05_p5.txt")])
    assert code == 2
    assert out == ""
    assert err.startswith("error: RouteDisagreement:")


def test_oracle_non_subgroup_span_exit_two(capsys, monkeypatch):
    # a span that is not a subgroup has torsion counts that are not
    # powers of p; the oracle reports it as a route disagreement.  The
    # faulty one-generator step keeps the new vector but drops its
    # multiples and everything spanned before it.
    import crystor.presentation

    monkeypatch.setattr(crystor.presentation, "extend_span",
                        lambda elements, g, n: frozenset({(0,) * len(g), g}))
    code, out, err = run_main(
        capsys, ["crys1", str(CORPUS / "tate_v05_p5.txt"), "--m", "1", "--oracle"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: RouteDisagreement:")


def test_invariant_product_disagreement_exit_two(capsys, monkeypatch):
    import crystor.degen

    monkeypatch.setattr(crystor.degen, "invariant_factors_mod_det",
                        lambda mu, det: (1,) * mu.rows)
    code, out, err = run_main(
        capsys, ["component-group", str(CORPUS / "tate_v05_p5.txt")])
    assert code == 2
    assert out == ""
    assert err.startswith("error: RouteDisagreement: invariant factors of mu")


ROUTE_CHECK_UNDER_O = """
import sys
assert False, "asserts are live"
import crystor.crys as crys
from crystor.abelian import FinAbGroup, IntMatrix
from crystor.degen import DegenerationData
from crystor.errors import RouteDisagreement

crys.p_primary_part = lambda g, p: FinAbGroup.trivial()
try:
    crys.r1crys1_tors(DegenerationData(5, IntMatrix.from_rows([[5]])))
except RouteDisagreement:
    print("raised", sys.flags.optimize)
"""


def src_env(**extra) -> dict:
    """The environment for a child interpreter that imports this tree's src/."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_route_check_survives_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", ROUTE_CHECK_UNDER_O],
                          capture_output=True, text=True,
                          env=src_env(PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised 1\n"


NO_SYMPY = """
import sys
from crystor.cli import main
code = main(sys.argv[1:])
sys.exit("sympy was imported" if "sympy" in sys.modules else code)
"""


EVERY_SUBCOMMAND = pytest.mark.parametrize("argv", [
    ["component-group", "corpus/t3_dense_p5.txt", "--p-part"],
    ["torsion", "corpus/t3_dense_p5.txt", "--m", "2"],
    ["crys1", "corpus/t3_dense_p5.txt", "--m", "2", "--oracle"],
    ["phi-check", "corpus/t3_dense_p5.txt", "--m", "2"],
    ["r1", "corpus/t3_dense_p5.txt"],
    ["les", "corpus/t3_dense_p5.txt"],
    ["tate", "--v", "5", "--p", "5", "--m", "2"],
    ["verify", "corpus/t3_dense_p5.txt", "--max-m", "1"],
], ids=lambda argv: argv[0])


@EVERY_SUBCOMMAND
def test_no_subcommand_imports_sympy(argv):
    """The prime check is stdlib code: no command loads sympy."""
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY, *argv], cwd=ROOT,
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr


ADDED_MODULES = """
import contextlib, io, json, sys
before = set(sys.modules)
import crystor.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = crystor.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

# what ``import crystor`` loads: the layers every subcommand runs
CORE_MODULES = ["crystor.abelian", "crystor.crys", "crystor.degen", "crystor.errors",
                "crystor.record"]


def added_modules(argv: list[str]) -> list[str]:
    """The modules that one in-process ``main(argv + ["--json"])`` loads
    after ``import crystor.cli``; the run must exit 0."""
    proc = subprocess.run([sys.executable, "-c", ADDED_MODULES, *argv, "--json"],
                          cwd=ROOT, capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    code, added = json.loads(proc.stdout)
    assert code == 0
    return added


@EVERY_SUBCOMMAND
def test_each_subcommand_loads_only_what_it_runs(argv):
    """The extension-class and pushout layers and the invariant suite
    load for ``verify`` alone, the presentation layer over Z/n for
    ``verify`` and ``crys1 --oracle`` alone, and crystor's records come
    from its own base class: no run loads dataclasses, the inspect it
    pulls in, or typing."""
    added = added_modules(argv)
    expected = CORE_MODULES + ["crystor.cli"]
    if argv[0] == "verify":
        expected += ["crystor.kummer", "crystor.pushout", "crystor.verify"]
    if argv[0] == "verify" or "--oracle" in argv:
        expected.append("crystor.presentation")
    assert [m for m in added if m.startswith("crystor.")] == sorted(expected)
    assert not {"dataclasses", "inspect", "typing"} & set(added)


def test_crys1_loads_the_presentation_layer_for_the_oracle_alone():
    added = added_modules(["crys1", "corpus/t3_dense_p5.txt", "--m", "2"])
    assert [m for m in added if m.startswith("crystor.")] == sorted(
        CORE_MODULES + ["crystor.cli"])


# imports nothing besides crystor.cli, so that json can only come from it
NO_JSON = """
import sys
import crystor.cli
code = crystor.cli.main(sys.argv[1:])
print(code, "json" in sys.modules)
"""


@EVERY_SUBCOMMAND
def test_human_output_does_not_load_json(argv):
    """Only the ``--json`` rendering loads json."""
    proc = subprocess.run([sys.executable, "-c", NO_JSON, *argv], cwd=ROOT,
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_package_import_loads_the_core_alone():
    script = ("import sys, crystor\n"
              "print(sorted(m for m in sys.modules if m.startswith('crystor.')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{CORE_MODULES}\n"


def test_unknown_subcommand_exit_one(capsys):
    code, _, err = run_main(capsys, ["frobnicate"])
    assert code == 1
    assert err.startswith("error: BadInput:")


def test_verify_passes_on_tate_file(capsys):
    code, out, _ = run_main(
        capsys, ["verify", str(CORPUS / "tate_v05_p5.txt")])
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("ok ") for line in lines[:-1])
    assert lines[-1].startswith("passed ")


@pytest.mark.parametrize("level", ["0", "-2"])
def test_verify_rejects_level_below_one_before_any_check(
        capsys, monkeypatch, level):
    import crystor.verify

    def refuse(name):
        def stub(*args, **kwargs):
            raise AssertionError(f"{name} ran before --max-m was checked")
        return stub

    for name in ("les_report", "crys1_tate_module", "degeneration_object"):
        monkeypatch.setattr(crystor.verify, name, refuse(name))
    # the suite holds no r1crys1_tors; the stub stands in for one added
    monkeypatch.setattr(crystor.verify, "r1crys1_tors", refuse("r1crys1_tors"),
                        raising=False)
    code, out, err = run_main(
        capsys, ["verify", str(CORPUS / "t3_dense_p5.txt"), "--max-m", level])
    assert code == 1
    assert out == ""
    assert err == "error: BadLevel: torsion level exponent must be at least 1\n"


def test_verify_reads_the_level_tower_from_one_les_report(monkeypatch):
    # "r1 stabilization" and "long exact sequence" share one report, and
    # r1crys1_tors, which would raise on a disagreement, is not called
    import crystor.verify
    from crystor.verify import _verify_checks

    def refuse(*args, **kwargs):
        raise AssertionError("verify called r1crys1_tors")

    real = crystor.verify.les_report
    reports = []

    def recording(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(crystor.verify, "les_report", recording)
    # the suite holds no r1crys1_tors; the stub stands in for one added
    monkeypatch.setattr(crystor.verify, "r1crys1_tors", refuse, raising=False)
    data = parse_input((CORPUS / "t3_chain_p2.txt").read_text())
    checks = _verify_checks(data, 2, 0)
    assert len(reports) == 1
    assert all(ok for _, ok, _ in checks)


def test_verify_builds_each_presentation_once(capsys, monkeypatch):
    # each level presents its own object's and its star pullback's
    # middle terms, and the pushout checks present obj (the level-2
    # object, already presented) and obj ⊕ obj; each is presented once,
    # however many maps are transported through it and however many
    # equal copies are built
    from crystor.pushout import PresentedModule, _nu_presentation

    _nu_presentation.cache_clear()
    built = []
    post_init = PresentedModule.__post_init__

    def counting(self):
        built.append((self.orders, tuple(map(tuple, self.relations))))
        post_init(self)

    monkeypatch.setattr(PresentedModule, "__post_init__", counting)
    code, out, _ = run_main(
        capsys, ["verify", str(CORPUS / "t3_dense_p5.txt"), "--max-m", "3"])
    assert code == 0 and "FAIL" not in out
    assert len(built) == 2 * 3 + 1
    assert len(set(built)) == len(built)


def test_verify_seed_changes_echo_only(capsys):
    path = str(CORPUS / "tate_v01_p2.txt")
    code_a, out_a, _ = run_main(capsys, ["verify", path, "--seed", "7"])
    code_b, out_b, _ = run_main(capsys, ["verify", path, "--seed", "8"])
    assert code_a == code_b == 0
    assert "seed 7" in out_a and "seed 8" in out_b


# ---------------------------------------------------------------------------
# shipped corpus


def corpus_files():
    return sorted(CORPUS.glob("*.txt"))


def test_corpus_is_large_enough_and_spans_shapes():
    files = corpus_files()
    assert len(files) >= 20
    ts, ps = set(), set()
    tate_vals = set()
    for path in files:
        data = parse_input(path.read_text())
        ts.add(data.t)
        ps.add(data.p)
        if data.t == 1:
            tate_vals.add(data.mu.entry(0, 0))
    assert ts == {1, 2, 3}
    assert ps == {2, 3, 5}
    assert tate_vals >= set(range(1, 13))


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_verify_passes_on_corpus_file(path):
    code = main(["verify", str(path)])
    assert code == 0


# ---------------------------------------------------------------------------
# golden machine reports

# one list of cases, shared with scripts/make_goldens.py, which regenerates
# the goldens after deliberate changes; corpus paths are relative to ROOT
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES), ids=lambda n: n[:-5])
def test_golden_machine_report(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    report, code = run_command(GOLDEN_CASES[name])
    assert code == 0
    assert report.machine().encode() == (GOLDEN / name).read_bytes()


# ---------------------------------------------------------------------------
# process level: ``python -m crystor`` ends with os._exit once main returns


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "crystor", "tate",
         "--v", "5", "--p", "5", "--m", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Z/25" in proc.stdout


def test_module_entry_point_reports_errors():
    proc = subprocess.run(
        [sys.executable, "-m", "crystor", "tate",
         "--v", "5", "--p", "6", "--m", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: NotPrime:")


@pytest.mark.parametrize("argv, env, code", [
    (["tate", "--v", "5", "--p", "5", "--m", "2"], {}, 0),
    (["tate", "--v", "5", "--p", "6", "--m", "2", "--json"], {}, 1),
    (["crys1", "corpus/tate_v05_p5.txt", "--m", "1", "--oracle"],
     {"CRYSTOR_ENUM_BUDGET": "1"}, 3),
], ids=["exit0", "exit1", "exit3"])
def test_module_entry_point_matches_in_process_main(argv, env, code, capsys,
                                                    monkeypatch):
    # buffered, so the output reaches the pipe only through the flush
    proc = subprocess.run([sys.executable, "-m", "crystor", *argv], cwd=ROOT,
                          capture_output=True,
                          env=src_env(PYTHONIOENCODING="utf-8", PYTHONUNBUFFERED="",
                                      **env))
    monkeypatch.chdir(ROOT)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (proc.stdout, proc.stderr, proc.returncode) == (
        out.encode(), err.encode(), code)


ATEXIT_THEN_MODULE = """
import atexit, runpy, sys
atexit.register(print, "atexit handler ran")
sys.argv = ["crystor", "tate", "--v", "5", "--p", "5", "--m", "2", "--json"]
runpy.run_module("crystor", run_name="__main__")
"""


def test_atexit_handlers_run_before_the_process_ends():
    proc = subprocess.run([sys.executable, "-c", ATEXIT_THEN_MODULE],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("}\natexit handler ran\n")


SYS_EXIT_MAIN = "import sys; from crystor.cli import main; sys.exit(main(sys.argv[1:]))"


def closed_pipe_run(args: list[str], unbuffered: str) -> tuple[int, str]:
    """Exit code and stderr of ``python ARGS`` writing to a pipe whose
    read end is closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True,
                              env=src_env(PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_ends_as_through_sys_exit(unbuffered):
    # unbuffered, the write in main raises; buffered, the flush does, and
    # the process leaves through sys.exit so the interpreter reports it
    argv = ["tate", "--v", "5", "--p", "5", "--m", "2"]
    code, err = closed_pipe_run(["-m", "crystor", *argv], unbuffered)
    ref_code, ref_err = closed_pipe_run(["-c", SYS_EXIT_MAIN, *argv], unbuffered)
    assert code == ref_code == (1 if unbuffered else 120)
    assert (err.splitlines()[-1] == ref_err.splitlines()[-1]
            == "BrokenPipeError: [Errno 32] Broken pipe")
    if not unbuffered:
        assert err == ref_err
