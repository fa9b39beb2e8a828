"""Command-line behaviour: outputs, exit codes, determinism."""

import errno
import json
import os
from types import SimpleNamespace

import pytest

from anrec.cli import main


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


@pytest.mark.parametrize("argv, digest", [
    (("--n", "5", "--degree", "7"),
     "78e5309b95c5ef87fcc7fe6f85fb24960622406bd641f9cbf9a845bb9fc4697e"),
    (("--n", "2", "--degree", "7", "--m-in", "2"),
     "a532b4484681f16e7513810f7abe415e36e10d0f46b286adbb2d9c1ae6452daf"),
])
def test_genus0_potential_content_hash(capsys, argv, digest):
    # genus-zero tables, primary and descendant: a faster recursion or
    # product must reproduce these bytes exactly
    code, out, _ = run(capsys, "potential", "--genus", "0", *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["content_hash"] == digest


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
