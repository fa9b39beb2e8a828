"""Command-line behaviour: outputs, exit codes, determinism."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anrec.cli
from anrec.cli import _indented_json, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_text(capsys):
    code, out, _ = run(capsys, "constants", "--h", "4", "--tuple", "1,2")
    assert code == 0
    assert "C(1,2) = 1/2" in out
    assert "SymC(1,2) = 1" in out


def test_approx_only_on_constants(capsys):
    code, out, _ = run(capsys, "constants", "--h", "4", "--tuple", "1,2", "--approx")
    assert code == 0
    assert "approx C = 0.5+0j" in out
    for argv in (("potential", "--n", "2", "--approx"),
                 ("verify", "symstate", "--h", "3", "--approx")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--approx" in err and "Traceback" not in err


def test_constants_triple(capsys):
    code, out, _ = run(capsys, "constants", "--h", "4", "--tuple", "1,1,1")
    assert code == 0
    assert "C(1,1,1) = -1/4" in out


def test_constants_empty_tuple(capsys):
    code, out, _ = run(capsys, "constants", "--h", "3", "--tuple", "")
    assert code == 0
    assert "C() = 1" in out


def test_constants_malformed_exit_2(capsys):
    code, _, err = run(capsys, "constants", "--h", "4", "--tuple", "1,x")
    assert code == 2
    code, _, err = run(capsys, "constants", "--h", "4", "--tuple", "9")
    assert code == 2


def test_potential_golden_json(capsys):
    code, out, _ = run(capsys, "potential", "--n", "3", "--genus", "0",
                       "--degree", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["wdvv"]["pass"] and data["checks"]["euler"]["pass"]
    from anrec.series import SparsePoly
    from anrec.genus0 import Profile, solve
    from anrec.rootsys import RootData
    expect = solve(RootData(3), Profile(N=3, m_in=0, D=5)).F
    assert SparsePoly.from_json(data["f"]) == expect


def test_potential_rank_one_cubic(capsys):
    code, out, _ = run(capsys, "potential", "--n", "1", "--genus", "0",
                       "--degree", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    from anrec.series import SparsePoly, Var
    from fractions import Fraction
    got = SparsePoly.from_json(data["f"])
    assert got == (SparsePoly.variable(Var(0, 1)) ** 3).scale(Fraction(1, 6))


def test_potential_degree_too_low_is_zero(capsys):
    code, out, _ = run(capsys, "potential", "--n", "1", "--genus", "0",
                       "--degree", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["f"]["terms"] == []


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "remove-n", "--h", "6",
                       "--trials", "25", "--seed", "42", "--format", "json")
    assert code == 0
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == 2
    code, _, err = run(capsys, "verify", "remove-n")  # missing --h
    assert code == 2


def test_verify_symstate(capsys):
    code, out, _ = run(capsys, "verify", "symstate", "--h", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and len(data["results"]) == 4


def test_verify_wdvv(capsys):
    code, out, _ = run(capsys, "verify", "wdvv", "--n", "3", "--degree", "5",
                       "--format", "json")
    assert code == 0


def test_seeded_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "verify", "vandermonde", "--h", "7",
                     "--trials", "12", "--seed", "9", "--format", "json")
    _, out2, _ = run(capsys, "verify", "vandermonde", "--h", "7",
                     "--trials", "12", "--seed", "9", "--format", "json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["config"]["prng"].startswith("mersenne-twister")
    assert "content_hash" in data


def test_verify_wconstraint(capsys):
    code, out, _ = run(capsys, "verify", "wconstraint", "--n", "2",
                       "--degree", "5", "--genus", "1", "--cap", "3",
                       "--m-max", "1", "--m-in", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and len(data["results"]) == 4


def test_report_written_to_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "symstate", "--h", "3",
                       "--format", "json", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["pass"]


def test_constants_text_written_to_file(tmp_path, capsys):
    path = tmp_path / "constants.txt"
    _, printed, _ = run(capsys, "constants", "--h", "4", "--tuple", "1,2")
    code, out, _ = run(capsys, "constants", "--h", "4", "--tuple", "1,2",
                       "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == printed
    assert "SymC(1,2) = 1" in printed


@pytest.mark.parametrize("argv", [
    ("verify", "remove-n", "--h", "3", "--trials", "2"),
    ("constants", "--h", "4", "--tuple", "1,2"),
    ("potential", "--n", "1", "--degree", "3", "--format", "json"),
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "y"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"cannot write --out {path}" in err
    assert "Traceback" not in err
    assert not path.exists()


@pytest.mark.parametrize("target", ["missing", "folder", "file"])
def test_unwritable_out_is_reported_before_the_solve(tmp_path, capsys, monkeypatch, target):
    import anrec.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran before --out was checked")
    monkeypatch.setattr(anrec.cli, "solve", no_solve)
    monkeypatch.setattr(anrec.cli, "solve_recursion", no_solve)
    if target == "file":
        (tmp_path / "f").write_text("")
    path = {"missing": tmp_path / "missing" / "y", "folder": tmp_path,
            "file": tmp_path / "f" / "y"}[target]
    before = sorted(tmp_path.iterdir())
    # the message is the one opening the path for writing gives
    with pytest.raises(OSError) as exc:
        open(path, "w")
    code, out, err = run(capsys, "potential", "--n", "2", "--genus", "1",
                         "--out", str(path))
    assert code == 2
    assert out == ""
    assert err == f"cannot write --out {path}: {exc.value.strerror}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("read_only", [False, True])
def test_out_without_write_permission_is_reported_before_the_solve(
        tmp_path, capsys, monkeypatch, read_only):
    # the check asks os.access, so a denial is simulated there; a read-only
    # filesystem gives the errno open() would give on it
    import anrec.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran before --out was checked")
    monkeypatch.setattr(anrec.cli, "solve", no_solve)
    monkeypatch.setattr(anrec.cli.os, "access", lambda *args: False)
    if read_only:
        flags = os.statvfs(tmp_path).f_flag | os.ST_RDONLY
        monkeypatch.setattr(anrec.cli.os, "statvfs",
                            lambda folder: SimpleNamespace(f_flag=flags))
    path = tmp_path / "y"
    code, out, err = run(capsys, "potential", "--n", "2", "--out", str(path))
    reason = os.strerror(errno.EROFS if read_only else errno.EACCES)
    assert code == 2
    assert out == ""
    assert err == f"cannot write --out {path}: {reason}\n"
    assert not path.exists()


def test_potential_exits_1_on_a_failing_stamped_verdict(capsys, monkeypatch):
    # the payload is still printed, with the failing verdict in it
    import anrec.genus0
    from anrec.reporting import CheckReport

    monkeypatch.setattr(anrec.genus0, "wdvv_check",
                        lambda *args: CheckReport(claim="wdvv forced", passed=False))
    code, out, _ = run(capsys, "potential", "--n", "3", "--genus", "0",
                       "--degree", "5", "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks["wdvv"]["pass"] is False
    assert checks["euler"]["pass"] is True


@pytest.mark.parametrize("suite, check", [("wdvv", "wdvv_check"), ("euler", "euler_check")])
def test_verify_genus0_suite_runs_its_check_once(capsys, monkeypatch, suite, check):
    # the solve already stamps the suite's verdict, which the suite reports
    # as it is rather than checking the same potential again
    import anrec.genus0
    calls = []
    checked = getattr(anrec.genus0, check)

    def counted(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(anrec.genus0, check, counted)
    monkeypatch.setattr(anrec.cli, check, counted, raising=False)
    code, out, _ = run(capsys, "verify", suite, "--n", "3", "--degree", "5",
                       "--format", "json")
    assert code == 0
    assert len(calls) == 1
    assert [r["pass"] for r in json.loads(out)["results"]] == [True]


def _corrupt_genus0_slice(monkeypatch, key, extra):
    # add ``extra`` to the genus-0 slice p_{m,a} of degree d, key = (m, a, d)
    from anrec.genus0 import G0Solver
    p_slice = G0Solver.p_slice

    def corrupted(self, m, a, d):
        out = p_slice(self, m, a, d)
        return out + extra if (m, a, d) == key else out

    monkeypatch.setattr(G0Solver, "p_slice", corrupted)


def _engine_failure(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("internal consistency failure: ") and message in err
    assert "Traceback" not in err


def test_verify_reports_a_genus0_cross_check_failure(capsys, monkeypatch):
    # x_{0,2}^4 added to the top slice p_{0,2} keeps the mixed partials equal,
    # so only the comparison of the two genus-0 engines sees it
    from anrec.series import SparsePoly, Var
    _corrupt_genus0_slice(monkeypatch, (0, 2, 4), SparsePoly.variable(Var(0, 2)) ** 4)
    _engine_failure(capsys, ("verify", "wconstraint", "--n", "2", "--degree", "5",
                             "--genus", "1", "--cap", "2", "--m-max", "0"),
                    "genus-zero output disagrees")


@pytest.mark.parametrize("suite", ["wdvv", "euler"])
def test_verify_reports_inconsistent_mixed_partials(capsys, monkeypatch, suite):
    # x_{0,2}^3 added to p_{0,1} breaks the mixed partials of the genus-0 table
    from anrec.series import SparsePoly, Var
    _corrupt_genus0_slice(monkeypatch, (0, 1, 3), SparsePoly.variable(Var(0, 2)) ** 3)
    _engine_failure(capsys, ("verify", suite, "--n", "2", "--degree", "5"),
                    "mixed partials disagree")


@pytest.mark.parametrize("error", ["ConsistencyError", "WellFoundednessError",
                                   "NotRationalError"])
@pytest.mark.parametrize("argv", [
    ("potential", "--n", "2", "--genus", "1", "--degree", "4"),
    ("verify", "wconstraint", "--n", "2", "--degree", "4", "--genus", "1"),
])
def test_engine_errors_exit_1_without_traceback(capsys, monkeypatch, error, argv):
    import anrec.cli
    exc = getattr(anrec.cli, error)

    def failing(*args, **kwargs):
        raise exc(f"forced {error}")

    monkeypatch.setattr(anrec.cli, "solve_recursion", failing)
    _engine_failure(capsys, argv, f"forced {error}")


def test_frontier_potential_content_hash(capsys):
    # the slowest (N, genus, degree) point of the table tests: its bytes are
    # pinned so that a faster cluster expansion must reproduce them exactly
    code, out, _ = run(capsys, "potential", "--n", "4", "--genus", "1",
                       "--degree", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["content_hash"] == \
        "dc9708002b4b5622c79065fed8a05a3082cbeebf5768e52d0c300c21797cd2a6"


def test_rank_five_genus_one_content_hash(capsys):
    # a rank where the exponent-span bound of the cluster walk cuts most of
    # the configurations: the pruned walk must reproduce these bytes exactly
    code, out, _ = run(capsys, "potential", "--n", "5", "--genus", "1",
                       "--degree", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["content_hash"] == \
        "e42eb0fd77d9d15740762802edf7743e53a2a5545c007f6c4ae204f837fe43fe"


def test_rank_one_genus_five_content_hash(capsys):
    # the deepest genus any test reaches: most derivative-block plans are
    # reused here, so the memoised plans must reproduce these bytes exactly
    code, out, _ = run(capsys, "potential", "--n", "1", "--genus", "5",
                       "--degree", "12", "--m-in", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["content_hash"] == \
        "a3eb521de8274e11ff2f6ca1d39dbc3b56ce78b4f2ba60c94cfe91bb0d2b5dca"


def test_rank_one_genus_six_descendant_content_hash(capsys):
    # a rank-1 table bound by sparse-polynomial products: a faster product
    # kernel must reproduce these bytes exactly
    code, out, _ = run(capsys, "potential", "--n", "1", "--genus", "6",
                       "--degree", "14", "--m-in", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["content_hash"] == \
        "86889c99b53bc282606e570064a760d6679b10a40bda944d695c21fc8f820dc3"


@pytest.mark.parametrize("argv, digest", [
    (("--n", "4", "--genus", "1", "--degree", "6", "--m-in", "1"),
     "9e26558cb408ad9cfc93e4a497e91325821b5fae2a57230119bc3b86465e227b"),
    (("--n", "3", "--genus", "2", "--degree", "7", "--m-in", "1"),
     "c45680b341ed9b328300ed6a6748a0ae8a0d2bd06dc142e42965e8ad193db00d"),
    (("--n", "5", "--genus", "1", "--degree", "4", "--m-in", "1"),
     "e055ea0e002eabec34c0d5e4a9ecfc3132abe658ff6d2aebe5a86a7c0cb5a979"),
], ids=["n4-g1-d6", "n3-g2-d7", "n5-g1-d4"])
def test_higher_genus_descendant_content_hash(capsys, argv, digest):
    # descendant tables at ranks 3 to 5 and genus 1 and 2, all through the
    # cluster walk: a faster or simpler walk must reproduce these bytes exactly
    code, out, _ = run(capsys, "potential", *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["content_hash"] == digest


def test_vandermonde_suite_content_hash(capsys):
    # 100 seeded trials at h=30: every check passes, with these exact bytes
    code, out, _ = run(capsys, "verify", "vandermonde", "--h", "30", "--trials", "100",
                       "--seed", "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and len(data["results"]) == 100
    assert all(r["pass"] for r in data["results"])
    assert data["content_hash"] == \
        "47ab4a17ff07e97a2e960e4eb8cffcf913676bdf9cfa72f7a285b2639d30f4a5"


@pytest.mark.parametrize("argv, digest", [
    (("verify", "symstate", "--h", "7"),
     "a6e993ed6370bc853cd2170011b95fd53321386ceb6cf5b76632aa8ac51ad46c"),
    (("verify", "cbracket-gen", "--h", "7"),
     "b15a0f21efe349724d84875503381649ebf368ec26b4fcda584ad6162037f000"),
    (("verify", "symc-gen", "--h", "6"),
     "ae03ff1efd82967d98fc795ffffdfcf0bce5587d0b0688304e60f77762f80da1"),
    (("verify", "remove-n", "--h", "8", "--trials", "100", "--seed", "0"),
     "a8e2d5bc6fd3b619c79c086b8faf0c5f89d7109ec494561f95f1835bf13bc8ff"),
    (("constants", "--h", "11", "--tuple", "1,2,3,4,5"),
     "65dcd790a6543ad2974f4d6d76d02af36f4d613f646048255bdbeda87e86c945"),
], ids=["symstate-h7", "cbracket-gen-h7", "symc-gen-h6", "remove-n-h8", "constants-h11"])
def test_identity_suite_content_hash(capsys, argv, digest):
    # the C, SymC and C[...] suites and a constants table: a faster kernel
    # for the tuple constants must reproduce these bytes exactly
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data.get("pass", True) is True
    assert data["content_hash"] == digest


@pytest.mark.parametrize("argv, digest", [
    (("--n", "5", "--degree", "7"),
     "78e5309b95c5ef87fcc7fe6f85fb24960622406bd641f9cbf9a845bb9fc4697e"),
    (("--n", "2", "--degree", "7", "--m-in", "2"),
     "a532b4484681f16e7513810f7abe415e36e10d0f46b286adbb2d9c1ae6452daf"),
    (("--n", "6", "--degree", "7"),
     "8c610f7c20b3a5ce1a21c06f3b80f4a09a2d56b258ca6e2b6ea225703ff91fb6"),
    (("--n", "7", "--degree", "7"),
     "715b8bb8a68d1d85f11758cfa943ee94086bacc23c3f1c18d360061f5b8449c3"),
    (("--n", "3", "--degree", "8", "--m-in", "1"),
     "61cc6244a464c57a7176c745afdf92ff885d351809ac77edfab62f83bb9351a1"),
    (("--n", "4", "--degree", "9", "--m-in", "1"),
     "18b85990410847b49336cefa8fc17d9f5783a6b99a748e0b03e6228cefd100f1"),
])
def test_genus0_potential_content_hash(capsys, argv, digest):
    # genus-zero tables, primary and descendant: a faster recursion or
    # product must reproduce these bytes exactly, and pass its exactness check
    code, out, _ = run(capsys, "potential", "--genus", "0", *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["exactness"]["pass"] is True
    assert data["content_hash"] == digest


@pytest.mark.parametrize("argv, count, digest", [
    (("--n", "3", "--degree", "5", "--genus", "1", "--cap", "2", "--m-max", "1"), 6,
     "fe0e94c64b399c92a5e426017edc627d35a2ec79bf0c2cd190f31d27636eaf65"),
    (("--n", "3", "--degree", "7", "--genus", "2", "--cap", "4", "--m-max", "2",
      "--m-in", "1"), 9,
     "fc0c2f7efa296e2c53b85549d97216c0526f92db3531b7c608d9f95425e823cc"),
    (("--n", "4", "--degree", "5", "--genus", "1", "--cap", "2", "--m-max", "1",
      "--m-in", "1"), 8,
     "7be9fc0ab7b9d96975434dcc0a49b659a5727a705aee8084fa7f74da6773edc4"),
], ids=["n3-g1", "n3-g2", "n4-g1"])
def test_wconstraint_suite_content_hash(capsys, argv, count, digest):
    # residual suites over solved tables at ranks 3 and 4 and genus 1 and 2:
    # every residual vanishes, and a faster walk or closing must reproduce
    # these bytes exactly
    code, out, _ = run(capsys, "verify", "wconstraint", *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and len(data["results"]) == count
    assert all(r["pass"] for r in data["results"])
    assert data["content_hash"] == digest


@pytest.mark.parametrize("argv, message", [
    (("verify", "wconstraint", "--n", "0"), "bad rank"),
    (("verify", "vandermonde", "--h", "1"), "bad rank"),
    (("verify", "remove-n", "--h", "1"), "bad rank"),
    (("verify", "wdvv", "--n", "0"), "bad rank"),
    (("constants", "--h", "1"), "bad rank"),
    (("potential", "--n", "0"), "bad rank"),
    (("potential", "--n", "2", "--genus", "-1"), "--genus"),
    (("potential", "--n", "2", "--degree", "-1"), "--degree"),
    (("potential", "--n", "2", "--m-in", "-1"), "--m-in"),
    (("verify", "wconstraint", "--n", "2", "--genus", "-1"), "--genus"),
    (("verify", "wconstraint", "--n", "2", "--cap", "-1"), "--cap"),
    (("verify", "wconstraint", "--n", "2", "--m-max", "-1"), "--m-max"),
    (("verify", "wdvv", "--n", "2", "--degree", "-2"), "--degree"),
    (("constants",), "constants requires --h"),
    (("potential",), "potential requires --n"),
    (("constants", "--h", "4", "--tuple", "9"), "bad tuple"),
    # a packed monomial holds degrees up to 255
    (("potential", "--n", "2", "--degree", "256"), "--degree"),
    (("verify", "wdvv", "--n", "2", "--degree", "256"), "--degree"),
    (("verify", "euler", "--n", "2", "--degree", "300"), "--degree"),
    (("verify", "wconstraint", "--n", "2", "--degree", "256"), "--degree"),
    (("verify", "wconstraint", "--n", "2", "--cap", "256"), "--cap"),
])
def test_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ("verify", "symc-gen", "--h", "2"),
    ("verify", "cbracket-gen", "--h", "2"),
    ("verify", "remove-n", "--h", "3", "--trials", "-5"),
    ("verify", "vandermonde", "--h", "4", "--trials", "0"),
    ("verify", "wdvv", "--n", "1"),
    ("verify", "wdvv", "--n", "3", "--degree", "2"),
    ("verify", "euler", "--n", "3", "--degree", "2"),
])
def test_empty_suite_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"suite {argv[1]} has no checks" in err


def _cli_process(*argv, **kwargs):
    # a real interpreter, so the module's sys.exit(main()) wiring runs too
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "anrec.cli", *argv], env=env,
                          stderr=subprocess.PIPE, text=True, timeout=120, check=False,
                          **kwargs)


def test_cli_exit_codes_across_a_process_boundary():
    proc = _cli_process("verify", "symstate", "--h", "4", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
    for argv, needle in ((("potential",), "--n"), (("verify", "nosuch", "--h", "4"), "nosuch")):
        proc = _cli_process(*argv)
        assert proc.returncode == 2, argv
        assert needle in proc.stderr and "Traceback" not in proc.stderr, argv
        assert proc.stdout == "", argv


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # main builds its parser on the first call and reuses it: a usage error,
    # a potential, a verify and --help made in this one process print the
    # bytes and exit codes of separate fresh processes
    import anrec.cli
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    calls = [("potential", "--n", "2", "--degree", "nine"),
             ("potential", "--n", "2", "--genus", "1", "--degree", "4", "--m-in", "1",
              "--format", "json"),
             ("verify", "wconstraint", "--n", "2", "--degree", "4", "--genus", "1",
              "--cap", "2", "--m-max", "1", "--format", "json"),
             ("--help",)]
    got = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in got] == [2, 0, 0, 0]
    assert anrec.cli._parser.cache_info().misses == 1
    for argv, (code, out, err) in zip(calls, got):
        proc = _cli_process(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv


@pytest.mark.parametrize("argv", [
    # 804 bytes: still in the stdout buffer, so the flush meets the closed pipe
    ("verify", "symstate", "--h", "4", "--format", "json"),
    # 77 kB: print itself meets it
    ("potential", "--n", "3", "--genus", "0", "--degree", "6", "--m-in", "1", "--format", "json"),
])
def test_closed_stdout_exits_141_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        proc = _cli_process(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_unwritable_stdout_exits_2_without_traceback():
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "w") as full:
        proc = _cli_process("constants", "--h", "3", "--tuple", "1", stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == f"cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


# -- the indented JSON writer ---------------------------------------------------

def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


_KEYS = st.text(max_size=6) | st.sampled_from(["", "\"", "\\", "\n\t\x00", "é", "\u2028", "😀"])
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 300, 2 ** 300)
           | st.floats() | st.text() | _KEYS)


def _trees(keys=_KEYS):
    return st.recursive(_LEAVES, lambda kids: (st.lists(kids, max_size=4)
                                               | st.lists(kids, max_size=4).map(tuple)
                                               | st.dictionaries(keys, kids, max_size=4)),
                        max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(tree=_trees())
def test_indented_writer_matches_json_dumps(tree):
    # nested containers, empty ones, escaped and non-ASCII strings and keys,
    # True/False before int, None, big ints and floats: the same bytes
    assert _indented_json(tree) == _dumps(tree)


def _outcome(write, obj):
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(tree=_trees(st.integers(-9, 9) | st.booleans() | st.none() | st.floats(-9, 9)))
def test_indented_writer_leaves_other_keys_to_json_dumps(tree):
    # a dict with keys json.dumps converts is written as json.dumps writes
    # it, and keys it cannot sort are refused as json.dumps refuses them
    assert _outcome(_indented_json, {"top": [tree]}) == _outcome(_dumps, {"top": [tree]})


@pytest.mark.parametrize("bad", [{"a": {1, 2}}, [object()], {"a": 1, 2: "b"}])
def test_indented_writer_refuses_what_json_dumps_refuses(bad):
    assert _outcome(_dumps, bad) is TypeError
    assert _outcome(_indented_json, bad) is TypeError


def _workload_jobs(monkeypatch):
    # the job lists of the benchmark's four workloads, from their one definition
    import importlib

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    return [job for name in workloads.WORKLOADS for job in workloads.jobs(name, 0) if job.argv]


def test_indented_writer_on_every_benchmark_payload(capsys, monkeypatch):
    payloads = []

    def recorded(obj, pad="\n"):
        if pad == "\n":  # the payload itself, not one of its members
            payloads.append(obj)
        return _indented_json(obj, pad)

    jobs = _workload_jobs(monkeypatch)
    monkeypatch.setattr(anrec.cli, "_indented_json", recorded)
    for job in jobs:
        main(list(job.argv) + ["--format", "json"])
        capsys.readouterr()
    assert len(payloads) == len(jobs) > 0
    for payload in payloads:
        assert _indented_json(payload) == _dumps(payload)
