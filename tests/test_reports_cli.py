import csv
import io
import json
from fractions import Fraction

import pytest

from latrep.cli import main
from latrep.enumeration import find_representations
from latrep.localrep import represents_locally_everywhere, represents_over_Zp
from latrep.matrices import GramMatrix
from latrep.reports import (check_theorem_hypotheses, parse_family,
                            report_emit, scan_family)


def write_gram(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps([list(r) for r in entries]))
    return str(path)


@pytest.fixture
def i8(tmp_path):
    return write_gram(tmp_path, "i8.json", GramMatrix.identity(8).entries)


@pytest.fixture
def i4(tmp_path):
    return write_gram(tmp_path, "i4.json", GramMatrix.identity(4).entries)


# ---------------------------------------------------------------------------
# report objects

def test_check_theorem_hypotheses_i8():
    report = check_theorem_hypotheses(GramMatrix.identity(8),
                                      GramMatrix.diagonal([1, 1]),
                                      q=3, j=1, c=1, C=0)
    assert report.rank_check
    assert report.condition_i_ok
    assert report.condition_i["isotropy_method"] == "shortcut"
    assert report.condition_ii_ok
    assert report.condition_iii_ok  # mu = 1 > 0
    assert report.globally_represented
    assert report.witness is not None
    assert not report.undecided


def test_check_isotropy_from_invariants():
    # 3 | det T, so no shortcut: the complement of diag(3) in I5 has rank
    # 4 and det class 3, not a square at 3, so it is isotropic there
    report = check_theorem_hypotheses(GramMatrix.identity(5),
                                      GramMatrix.diagonal([3]),
                                      q=3, j=1, c=1, C=0)
    assert report.condition_i["isotropy_method"] == "invariants"
    assert report.condition_i["complement_isotropic_at_q"] is True
    assert report.condition_i_ok


@pytest.mark.parametrize("n, target", [(4, [1]), (5, [1, 1])])
def test_check_unit_discriminants_at_two(n, target):
    # the complement is I3, anisotropic over Q_2 since (-1, -1)_2 = -1;
    # unit discriminants force isotropy only at odd q
    report = check_theorem_hypotheses(GramMatrix.identity(n),
                                      GramMatrix.diagonal(target),
                                      q=2, j=1, c=1, C=0)
    assert report.condition_i["complement_isotropic_at_q"] is False
    assert report.condition_i["isotropy_method"] == "invariants"
    assert not report.condition_i_ok


def test_check_rank_check_fails():
    report = check_theorem_hypotheses(GramMatrix.identity(3),
                                      GramMatrix.diagonal([1]),
                                      q=3, j=1, c=1, C=0)
    assert not report.rank_check


def test_check_condition_ii_fails():
    # ord_2(det T) = 4 > j = 1
    report = check_theorem_hypotheses(GramMatrix.identity(6),
                                      GramMatrix.diagonal([7 * 16]),
                                      q=2, j=1, c=1, C=0)
    assert not report.condition_ii_ok
    assert report.condition_ii["ord_q_det_T"] == 4


def test_check_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_theorem_hypotheses(GramMatrix.identity(4),
                                 GramMatrix.diagonal([1]), 4, 1, 1, 0)
    with pytest.raises(ValueError):
        check_theorem_hypotheses(GramMatrix.diagonal([1, -1]),
                                 GramMatrix.diagonal([1]), 3, 1, 1, 0)


@pytest.mark.parametrize("c", [0, -2])
def test_imprimitivity_bound_must_be_positive(c):
    # c = 0 once listed "prime" 0, the real place, among the finite places
    S, T = GramMatrix.identity(4), GramMatrix.diagonal([1])
    calls = [lambda: find_representations(S, T, c),
             lambda: represents_over_Zp(S, T, 3, c),
             lambda: represents_locally_everywhere(S, T, c),
             lambda: check_theorem_hypotheses(S, T, 3, 1, c, 0),
             lambda: scan_family(S, "rank1:3", 3, 1, c, 3)]
    for call in calls:
        with pytest.raises(ValueError, match="c must be a positive integer"):
            call()


def test_report_json_roundtrip():
    report = check_theorem_hypotheses(GramMatrix.identity(8),
                                      GramMatrix.diagonal([2]),
                                      q=3, j=1, c=1, C=0)
    blob = report_emit(report, "json")
    parsed = json.loads(blob)
    assert parsed["schema_version"] == 1
    assert json.loads(report_emit(report, "json")) == parsed
    for key in ("condition_i", "condition_ii", "condition_iii",
                "globally_represented"):
        assert key in parsed


def test_parse_family():
    desc, gen = parse_family("rank1:5")
    mats = list(gen)
    assert len(mats) == 5
    assert mats[0].entries == ((1,),)
    desc2, gen2 = parse_family("diag2:3")
    assert len(list(gen2)) == 6  # (1,1) (1,2) (1,3) (2,2) (2,3) (3,3)
    with pytest.raises(ValueError):
        parse_family("cubes:9")
    with pytest.raises(ValueError):
        parse_family("rank1:x")


def test_scan_family_three_squares_shape():
    # I4 against rank-1 targets: no exceptions, empirical_C = 0
    result = scan_family(GramMatrix.identity(4), "rank1:20",
                         q=3, j=1, c=1, neighbor_prime=3)
    assert result.exceptions == ()
    assert result.empirical_C == 0
    assert result.to_dict()["genus_mass_certified"] is True
    assert len(result.rows) == 20
    for row in result.rows:
        if row.local_ok:
            assert row.classes_total == 1
            assert row.classes_representing == 1
            assert not row.exception


def test_scan_family_deterministic_and_paginated():
    S = GramMatrix.identity(4)
    a = scan_family(S, "rank1:12", q=3, j=1, c=1, neighbor_prime=3)
    b = scan_family(S, "rank1:12", q=3, j=1, c=1, neighbor_prime=3)
    assert report_emit(a, "json") == report_emit(b, "json")
    first = scan_family(S, "rank1:12", q=3, j=1, c=1, neighbor_prime=3,
                        max_rows=5)
    assert len(first.rows) == 5
    assert first.resume_token == 5
    rest = scan_family(S, "rank1:12", q=3, j=1, c=1, neighbor_prime=3,
                       start=first.resume_token)
    assert first.rows + rest.rows == a.rows


def test_scan_family_empty():
    result = scan_family(GramMatrix.identity(4), "rank1:0",
                         q=3, j=1, c=1, neighbor_prime=3)
    assert result.rows == ()
    assert result.empirical_C is None


@pytest.mark.parametrize("q", [0, 1, 4])
def test_scan_family_rejects_non_prime_q(q):
    # unchecked, q = 1 loops in ord_p, q = 0 divides by zero, and on I8 the
    # rank gap shortcut carries q = 4 through to a report
    for n in (3, 8):
        with pytest.raises(ValueError, match="not prime"):
            scan_family(GramMatrix.identity(n), "rank1:3", q=q, j=1, c=1,
                        neighbor_prime=3)


def test_scan_csv_emission():
    result = scan_family(GramMatrix.identity(4), "rank1:6",
                         q=3, j=1, c=1, neighbor_prime=3)
    text = report_emit(result, "csv").decode()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["det", "mu", "local_ok", "classes_total",
                       "classes_representing", "exception"]
    assert len(rows) == 7
    empty = scan_family(GramMatrix.identity(4), "rank1:0",
                        q=3, j=1, c=1, neighbor_prime=3)
    assert report_emit(empty, "csv").decode().strip().splitlines() == \
        ["det,mu,local_ok,classes_total,classes_representing,exception"]


def test_scan_rows_record_full_gram():
    """Two non-diagonal targets with the same diagonal share `target` but
    not `gram`."""
    targets = [GramMatrix([[2, 1], [1, 2]]), GramMatrix([[2, -1], [-1, 2]])]
    result = scan_family(GramMatrix.identity(6), targets,
                         q=3, j=1, c=1, neighbor_prime=3)
    records = json.loads(report_emit(result, "json"))["rows"]
    assert [r["target"] for r in records] == [[2, 2], [2, 2]]
    assert [r["gram"] for r in records] == [[[2, 1], [1, 2]],
                                            [[2, -1], [-1, 2]]]
    assert json.loads(report_emit(result, "json"))["schema_version"] == 1


def _starved_local_search(monkeypatch):
    """Give every mod-p^N search a node budget of 1, so each local
    certificate that the global search does not settle is undecided."""
    import latrep.localrep
    search = latrep.localrep.represents_over_Zp

    def starved(S, T, p, c=1, node_budget=None, try_global=True):
        return search(S, T, p, c, node_budget=1, try_global=try_global)

    monkeypatch.setattr(latrep.localrep, "represents_over_Zp", starved)


def test_scan_flags_undecided_rows(monkeypatch):
    S = GramMatrix.identity(3)
    result = scan_family(S, "rank1:8", q=3, j=1, c=1, neighbor_prime=3)
    assert result.undecided is False
    assert not any(row.undecided for row in result.rows)
    _starved_local_search(monkeypatch)
    result = scan_family(S, "rank1:8", q=3, j=1, c=1, neighbor_prime=3)
    # t = 4, 7, 8 (t mod 8 in {0, 4, 7}) have no primitive representation
    # by I3, so their local certificates reach the search; the other rows
    # have global witnesses
    flagged = [row.target for row in result.rows if row.undecided]
    assert flagged == [(4,), (7,), (8,)]
    assert all(not row.local_ok for row in result.rows if row.undecided)
    data = result.to_dict()
    assert data["undecided"] is True
    assert [r["undecided"] for r in data["rows"]] == [
        row.target in flagged for row in result.rows]


def test_check_theorem_hypotheses_flags_undecided(monkeypatch):
    """4 has no primitive representation by I3, so its certificate at 2
    comes from the search, which a budget of 1 leaves undecided."""
    S, T = GramMatrix.identity(3), GramMatrix.diagonal([4])
    report = check_theorem_hypotheses(S, T, 3, 1, 1, 0)
    assert report.undecided is False
    _starved_local_search(monkeypatch)
    report = check_theorem_hypotheses(S, T, 3, 1, 1, 0)
    assert report.undecided is True
    assert report.condition_i["places"]["2"]["status"] == "undecided"


def test_report_emit_unknown_format():
    result = scan_family(GramMatrix.identity(4), "rank1:1",
                         q=3, j=1, c=1, neighbor_prime=3)
    with pytest.raises(ValueError):
        report_emit(result, "xml")
    report = check_theorem_hypotheses(GramMatrix.identity(8),
                                      GramMatrix.diagonal([2]), 3, 1, 1, 0)
    with pytest.raises(ValueError):
        report_emit(report, "csv")


# ---------------------------------------------------------------------------
# CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_invariants(capsys, i4):
    code, out = run_cli(capsys, "invariants", "--gram", i4)
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 4
    assert data["det"] == 1
    assert data["signature"] == [4, 0]


def test_cli_jordan(capsys, tmp_path):
    path = write_gram(tmp_path, "d.json", GramMatrix.diagonal([1, 2, 4]).entries)
    code, out = run_cli(capsys, "jordan", "--gram", path, "-p", "2")
    assert code == 0
    comps = json.loads(out)["components"]
    assert [(c["scale"], c["rank"]) for c in comps] == [(0, 1), (1, 1), (2, 1)]


def test_cli_localrep_exit_codes(capsys, tmp_path):
    i3 = write_gram(tmp_path, "i3.json", GramMatrix.identity(3).entries)
    t5 = write_gram(tmp_path, "t5.json", [[5]])
    t7 = write_gram(tmp_path, "t7.json", [[7]])
    code, out = run_cli(capsys, "localrep", "--gram", i3, "--target", t5)
    assert code == 0
    assert json.loads(out)["certificates"]
    code, _ = run_cli(capsys, "localrep", "--gram", i3, "--target", t7)
    assert code == 1
    # equal ranks: det 7 is no square at 2 or at 7, refuted without a search
    t117 = write_gram(tmp_path, "t117.json", GramMatrix.diagonal([1, 1, 7]).entries)
    code, out = run_cli(capsys, "localrep", "--gram", i3, "--target", t117)
    assert code == 1
    methods = {c["method"] for c in json.loads(out)["certificates"]}
    assert "determinant" in methods


def test_cli_isotropy(capsys, i4):
    code, out = run_cli(capsys, "isotropy", "--gram", i4, "-q", "3")
    assert code == 0
    assert json.loads(out)["isotropic"] is True
    code, out = run_cli(capsys, "isotropy", "--gram", i4, "-q", "0")
    assert json.loads(out)["isotropic"] is False


def test_cli_minimum(capsys, i8):
    code, out = run_cli(capsys, "minimum", "--gram", i8, "--format", "json")
    assert code == 0
    assert json.loads(out)["minimum"] == 1
    # CSV is defined for scans only; argparse refuses it elsewhere
    for cmd in ("minimum", "check"):
        args = [cmd, "--gram", i8]
        if cmd == "check":
            args += ["--target", i8, "-q", "3", "-j", "1"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--format", "csv"])
        assert exc.value.code == 2


def test_cli_represent(capsys, tmp_path, i4):
    t = write_gram(tmp_path, "t.json", [[3]])
    code, out = run_cli(capsys, "represent", "--gram", i4, "--target", t)
    assert code == 0
    assert json.loads(out)["count"] == 1
    i2 = write_gram(tmp_path, "i2.json", GramMatrix.identity(2).entries)
    code, _ = run_cli(capsys, "represent", "--gram", i2, "--target", t)
    assert code == 1
    # r4*(4)/2 primitive and r4(4)/2 in all of I4; a limit below 1 is an
    # input error, not one representation
    t4 = write_gram(tmp_path, "t4.json", [[4]])
    for c, count in (("1", 8), ("2", 12)):
        code, out = run_cli(capsys, "represent", "--gram", i4, "--target", t4,
                            "-c", c, "--limit", "1000")
        assert code == 0
        assert json.loads(out)["count"] == count
    for limit in ("0", "-1"):
        code, out = run_cli(capsys, "represent", "--gram", i4, "--target", t4,
                            "--limit", limit)
        assert code == 2
        assert out == ""


def test_cli_genus(capsys, i4):
    code, out = run_cli(capsys, "genus", "--gram", i4, "-p", "3")
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is True
    assert len(data["classes"]) == 1
    assert data["mass_certified"] is True
    assert data["mass_expected"] == data["mass_found"] == "1/384"


def test_cli_genus_classes_beyond_the_mass(capsys, monkeypatch, i4):
    # a genus mass below 1/|Aut(I4)| is an internal failure, exit 4
    import latrep.mass
    monkeypatch.setattr(latrep.mass, "_mass",
                        lambda n, d, splits: Fraction(1, 10 ** 6))
    code = main(["genus", "--gram", i4, "-p", "3"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["type"] == "AssertionError"


def test_cli_check(capsys, tmp_path, i8):
    t = write_gram(tmp_path, "t.json", [[1, 0], [0, 1]])
    code, out = run_cli(capsys, "check", "--gram", i8, "--target", t,
                        "-q", "3", "-j", "1")
    assert code == 0
    data = json.loads(out)
    assert data["globally_represented"] is True
    # rank check failure drops to exit 1
    i3 = write_gram(tmp_path, "i3.json", GramMatrix.identity(3).entries)
    t1 = write_gram(tmp_path, "t1.json", [[1]])
    code, _ = run_cli(capsys, "check", "--gram", i3, "--target", t1,
                      "-q", "3", "-j", "1")
    assert code == 1


def test_cli_scan_csv(capsys, i4):
    code, out = run_cli(capsys, "scan", "--gram", i4, "--family", "rank1:8",
                        "-q", "3", "-j", "1", "--neighbor-prime", "3",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "det"
    assert len(rows) == 9


@pytest.mark.parametrize("q", ["0", "1", "4"])
def test_cli_scan_rejects_non_prime_q(capsys, tmp_path, q):
    i3 = write_gram(tmp_path, "i3.json", GramMatrix.identity(3).entries)
    code = main(["scan", "--gram", i3, "--family", "rank1:3", "-q", q,
                 "-j", "1", "--neighbor-prime", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{q} is not prime" in captured.err


def test_cli_scan_undecided_exit(capsys, monkeypatch, tmp_path):
    i3 = write_gram(tmp_path, "i3.json", GramMatrix.identity(3).entries)
    argv = ("scan", "--gram", i3, "--family", "rank1:8", "-q", "3", "-j", "1",
            "--neighbor-prime", "3", "--format", "csv")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    _starved_local_search(monkeypatch)
    code, out = run_cli(capsys, *argv)
    assert code == 3
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["det", "mu", "local_ok", "classes_total",
                       "classes_representing", "exception"]
    assert len(rows) == 9
    code, out = run_cli(capsys, *argv[:-2])
    assert code == 3
    assert json.loads(out)["undecided"] is True


def test_cli_extend(capsys, tmp_path, i4):
    t = write_gram(tmp_path, "m.json", [[1, 0], [0, 3]])
    sigma = tmp_path / "sigma.json"
    sigma.write_text("[[1], [0], [0], [0]]")
    glue = tmp_path / "glue.json"
    glue.write_text("[[1], [0]]")
    code, out = run_cli(capsys, "extend", "--gram", i4, "--target", t,
                        "--sigma", str(sigma), "--glue", str(glue))
    assert code == 0
    assert json.loads(out)["extended"] is True
    i2 = write_gram(tmp_path, "i2.json", GramMatrix.identity(2).entries)
    sigma2 = tmp_path / "sigma2.json"
    sigma2.write_text("[[1], [0]]")
    code, _ = run_cli(capsys, "extend", "--gram", i2, "--target", t,
                      "--sigma", str(sigma2), "--glue", str(glue))
    assert code == 1


def test_cli_input_errors(capsys, tmp_path, i4):
    code = main(["invariants", "--gram", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2], [3, 1]]")  # asymmetric
    code = main(["invariants", "--gram", str(bad)])
    assert code == 2
    bad.write_text("[[2.5, 1], [1, 2]]")  # not integral, never truncated
    code = main(["invariants", "--gram", str(bad)])
    assert code == 2


@pytest.mark.parametrize("c", ["0", "-2"])
def test_cli_rejects_nonpositive_c(capsys, tmp_path, i4, c):
    t = write_gram(tmp_path, "t.json", [[1]])
    for argv in (["localrep", "--target", t],
                 ["localrep", "--target", t, "-p", "3"],
                 ["represent", "--target", t],
                 ["check", "--target", t, "-q", "3", "-j", "1"],
                 ["scan", "--family", "rank1:3", "-q", "3", "-j", "1",
                  "--neighbor-prime", "3"]):
        code = main(argv + ["--gram", i4, "-c", c])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert "c must be a positive integer" in captured.err


def test_cli_internal_failure_exit_code(capsys, monkeypatch, i4):
    import latrep.cli

    def broken(*args, **kwargs):
        raise AssertionError("neighbor left the genus")

    monkeypatch.setattr(latrep.cli, "enumerate_genus", broken)
    code = main(["genus", "--gram", i4, "-p", "3"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "internal"
    assert record["type"] == "AssertionError"
    assert record["message"] == "neighbor left the genus"
