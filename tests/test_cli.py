"""End-to-end command-line tests driven through main(argv)."""

import json

import numpy as np
import pytest
from scipy.stats import ttest_ind

from ebnull.cli import CLIError, ingest_statistics, main


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def stats_file(tmp_path):
    rng = np.random.default_rng(17)
    z = np.concatenate([
        -np.abs(rng.normal(0.0, 2.0, 900)) + rng.standard_normal(900),
        rng.normal(3.0, 1.0, 100),
    ])
    lines = "\n".join(repr(float(v)) for v in z)
    return _write(tmp_path / "stats.txt", lines + "\n")


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_plain_numbers_with_comments(tmp_path):
    path = _write(tmp_path / "plain.txt", "1.0\n−2.5\n# comment\n0.0\n\n")
    sample = ingest_statistics(path)
    assert sample.values.tolist() == [1.0, -2.5, 0.0]
    assert sample.ids is None


def test_ingest_csv_with_ids(tmp_path):
    path = _write(tmp_path / "t.csv",
                  "id,statistic\n# midway comment\ng1,0.5\ng2,−1.25\n")
    sample = ingest_statistics(path)
    assert sample.ids == ("g1", "g2")
    assert sample.values.tolist() == [0.5, -1.25]


def test_ingest_csv_statistic_column_only(tmp_path):
    path = _write(tmp_path / "t.csv", "statistic,extra\n0.5,x\n1.5,y\n")
    sample = ingest_statistics(path)
    assert sample.values.tolist() == [0.5, 1.5]
    assert sample.ids == ("0", "1")


def test_ingest_errors_carry_line_numbers(tmp_path):
    path = _write(tmp_path / "bad.txt", "1.0\noops\n")
    with pytest.raises(CLIError, match="line 2"):
        ingest_statistics(path)
    path2 = _write(tmp_path / "bad.csv", "id,statistic\ng1,0.5\ng2,huh\n")
    with pytest.raises(CLIError, match="line 3"):
        ingest_statistics(path2)
    path3 = _write(tmp_path / "bad2.csv", "id,statistic\ng1,0.5,extra\n")
    with pytest.raises(CLIError, match="line 2"):
        ingest_statistics(path3)
    path4 = _write(tmp_path / "head.csv", "id,value\ng1,0.5\n")
    with pytest.raises(CLIError, match="statistic"):
        ingest_statistics(path4)
    with pytest.raises(CLIError, match="no statistics"):
        ingest_statistics(_write(tmp_path / "empty.txt", "# nothing\n"))
    with pytest.raises(CLIError, match="finite"):
        ingest_statistics(_write(tmp_path / "inf.txt", "1.0\ninf\n"))


# ---------------------------------------------------------------------------
# fit-null


def test_fit_null_report_shape(stats_file, tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit-null", "--input", stats_file, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"family", "params", "logliks", "xi",
                           "n_truncated", "config"}
    assert report["family"] in ("gaussian", "skew_normal", "mixture")
    assert set(report["logliks"]) == {"gaussian", "skew_normal", "mixture"}
    assert report["config"]["xi_quantile"] == 0.85
    assert report["config"]["k"] == 50
    assert "version" in report["config"]
    if report["family"] == "mixture":
        assert len(report["params"]["weights"]) == 50


def test_fit_null_to_stdout(stats_file, capsys):
    assert main(["fit-null", "--input", stats_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_truncated"] == 850


def test_fit_null_rejects_single_atom_grid(stats_file, capsys):
    # a one-atom grid is an error, not a silently dropped mixture family
    assert main(["fit-null", "--input", stats_file, "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "grid atoms" in json.loads(lines[0])["error"]


def test_fit_null_report_is_strict_json(tmp_path):
    # one statistic at -1e160 drives two fits to non-finite log-likelihoods;
    # they must be reported as failed (null), never as -Infinity or NaN
    z = np.append(np.random.default_rng(1).standard_normal(50), -1e160)
    path = _write(tmp_path / "huge.txt", "\n".join(repr(float(v)) for v in z) + "\n")
    out = tmp_path / "fit.json"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["fit-null", "--input", path, "--output", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["logliks"]["skew_normal"] is None
    assert report["logliks"]["gaussian"] is None
    assert report["family"] == "mixture"


# ---------------------------------------------------------------------------
# test command


def test_test_command_report(stats_file, tmp_path):
    out = tmp_path / "test.json"
    assert main(["test", "--input", stats_file, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"config", "fit", "methods", "records"}
    assert set(report["methods"]) == {"stbh", "c-stbh", "d-stbh", "proposed"}
    assert len(report["records"]) == 1000
    record = report["records"][0]
    assert set(record) == {"id", "statistic", "p_std", "p_eb", "rejected"}
    assert set(record["rejected"]) == set(report["methods"])
    # left-shifted nulls: the fitted-null p-values give at least as many
    # rejections as adaptive BH on the standard ones
    assert (report["methods"]["proposed"]["n_rejected"]
            >= report["methods"]["stbh"]["n_rejected"])
    counted = sum(r["rejected"]["proposed"] for r in report["records"])
    assert counted == report["methods"]["proposed"]["n_rejected"]


def test_test_command_method_selection(stats_file, capsys):
    assert main(["test", "--input", stats_file, "--method", "bh",
                 "--method", "bh"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["methods"]) == ["bh"]


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_csv_deterministic(tmp_path):
    args = ["simulate", "--rho-grid", "1.0", "--n-reps", "2",
            "--method", "stbh", "--method", "proposed"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "scenario,param,method,fdr,fdr_se,tpr,tpr_se,n_reps,seed"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[2] for r in rows] == ["stbh", "proposed"]
    assert all(r[0] == "two_point" and r[1] == "1.0" for r in rows)
    assert all(r[7] == "2" and r[8] == "0" for r in rows)
    for r in rows:
        assert 0.0 <= float(r[3]) <= 1.0
        assert 0.0 <= float(r[5]) <= 1.0


def test_simulate_both_grids(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["simulate", "--rho-grid", "0.5", "--sigma0-grid", "1.5",
                 "--n-reps", "1", "--method", "bh", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [(r[0], r[1]) for r in rows] == [("two_point", "0.5"),
                                            ("half_normal", "1.5")]


def test_simulate_bad_grid(capsys):
    assert main(["simulate", "--rho-grid", "abc", "--n-reps", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "rho-grid" in err["error"]


def test_simulate_rejects_bad_xi_quantile(capsys):
    # a configuration error, not a run of failed replications with nan rows
    assert main(["simulate", "--rho-grid", "0.8", "--n-reps", "2",
                 "--xi-quantile", "2", "--method", "bh",
                 "--method", "proposed"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "quantile level" in json.loads(lines[0])["error"]


# ---------------------------------------------------------------------------
# histogram command


def test_histogram_report(stats_file, capsys):
    assert main(["histogram", "--input", stats_file, "--bins", "20"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"config", "edges", "p_std_counts", "p_eb_counts",
                           "family", "xi", "pi0_hat"}
    assert len(report["edges"]) == 21
    assert report["edges"][0] == 0.0 and report["edges"][-1] == 1.0
    assert sum(report["p_std_counts"]) == 1000
    assert sum(report["p_eb_counts"]) == 1000
    assert 0.0 < report["pi0_hat"] <= 1.0
    # fitting the left-shifted null moves mass out of the top bins
    top_std = sum(report["p_std_counts"][-5:])
    top_eb = sum(report["p_eb_counts"][-5:])
    assert top_eb < top_std


# ---------------------------------------------------------------------------
# tstats command


def test_tstats_matches_scipy_welch(tmp_path, capsys):
    rng = np.random.default_rng(23)
    a = rng.normal(0.0, 1.0, (6, 4))
    b = rng.normal(0.5, 1.3, (6, 5))
    rows = ["id," + ",".join(f"a{j}" for j in range(4))
            + "," + ",".join(f"b{j}" for j in range(5))]
    for i in range(6):
        rows.append(f"r{i}," + ",".join(f"{x:.9f}" for x in a[i])
                    + "," + ",".join(f"{x:.9f}" for x in b[i]))
    path = _write(tmp_path / "mat.csv", "\n".join(rows) + "\n")

    assert main(["tstats", "--input", str(path),
                 "--group-a", "a0,a1,a2,a3",
                 "--group-b", "b0,b1,b2,b3,b4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "id,statistic"
    got = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[2:]}
    for i in range(6):
        aa = [float(f"{x:.9f}") for x in a[i]]
        bb = [float(f"{x:.9f}") for x in b[i]]
        expected = ttest_ind(aa, bb, equal_var=False).statistic
        assert got[f"r{i}"] == pytest.approx(expected, rel=1e-12)


def test_tstats_pooled_matches_scipy(tmp_path, capsys):
    path = _write(tmp_path / "m.csv",
                  "id,x1,x2,x3,y1,y2,y3\n"
                  "r0,1.0,2.0,3.0,2.5,3.5,4.5\n")
    assert main(["tstats", "--input", str(path), "--group-a", "x1,x2,x3",
                 "--group-b", "y1,y2,y3", "--pooled"]) == 0
    got = float(capsys.readouterr().out.splitlines()[2].split(",")[1])
    expected = ttest_ind([1.0, 2.0, 3.0], [2.5, 3.5, 4.5],
                         equal_var=True).statistic
    assert got == pytest.approx(expected, rel=1e-12)


def test_tstats_drops_blank_cells(tmp_path, capsys):
    path = _write(tmp_path / "m.csv",
                  "id,x1,x2,x3,y1,y2,y3\n"
                  "r0,1.0,2.0,,2.5,NA,4.5\n")
    assert main(["tstats", "--input", str(path), "--group-a", "x1,x2,x3",
                 "--group-b", "y1,y2,y3"]) == 0
    got = float(capsys.readouterr().out.splitlines()[2].split(",")[1])
    expected = ttest_ind([1.0, 2.0], [2.5, 4.5], equal_var=False).statistic
    assert got == pytest.approx(expected, rel=1e-12)


def test_tstats_errors(tmp_path, capsys):
    path = _write(tmp_path / "m.csv",
                  "id,x1,x2,y1,y2\nr0,1.0,,2.0,3.0\n")
    assert main(["tstats", "--input", str(path), "--group-a", "x1,x2",
                 "--group-b", "y1,y2"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "r0" in err["error"]

    assert main(["tstats", "--input", str(path), "--group-a", "x1,nope",
                 "--group-b", "y1,y2"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "nope" in err["error"]


# ---------------------------------------------------------------------------
# error handling


def test_missing_input_file_is_reported(capsys):
    assert main(["fit-null", "--input", "/nonexistent/stats.txt"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "/nonexistent/stats.txt" in err["error"]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    json.loads(capsys.readouterr().err)  # single-line JSON on stderr


def test_bad_flag_value_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fit-null", "--input", "x", "--k", "lots"])
    assert excinfo.value.code == 2
