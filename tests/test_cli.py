"""End-to-end command-line tests driven through main(argv)."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import norm, ttest_ind
from scipy.stats import t as student_t

import ebnull.cli as cli
import ebnull.simulate as sim
from ebnull.cli import CLIError, ingest_statistics, main
from ebnull.nullmodel import TruncationRule, select_null
from ebnull.pvalues import PValueVector, standard_pvalues
from ebnull.simulate import METHOD_NAMES, generate, run_methods


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _record_reads(monkeypatch) -> list:
    """The paths the commands hand ``ingest_statistics`` from now on."""
    read = []
    monkeypatch.setattr(cli, "ingest_statistics",
                        lambda path: read.append(path) or ingest_statistics(path))
    return read


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
    # ids come only from an id column; `test` numbers the rest itself
    assert sample.ids is None


def test_plain_file_reads_as_a_statistic_column(stats_file, tmp_path):
    # a plain file is the one-column CSV without a header: the same values,
    # no ids, and the same `test` report past its config block
    with open(stats_file, encoding="utf-8") as fh:
        text = fh.read()
    csv_file = _write(tmp_path / "stats.csv", "statistic\n" + text)
    plain, headed = ingest_statistics(stats_file), ingest_statistics(csv_file)
    assert plain.values.tolist() == headed.values.tolist()
    assert plain.ids is None and headed.ids is None
    reports = []
    for path in (stats_file, csv_file):
        out = tmp_path / "report.json"
        assert main(["test", "--input", path, "--output", str(out)]) == 0
        reports.append(out.read_text(encoding="utf-8").split('"fit": ', 1)[1])
    assert reports[0] == reports[1]


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


def _ingest_error(tmp_path, text):
    with pytest.raises(CLIError) as excinfo:
        ingest_statistics(_write(tmp_path / "in.csv", text))
    return str(excinfo.value)


def test_ingest_error_messages_keep_line_numbers(tmp_path):
    # blank and comment lines count towards the 1-based line numbers
    head = "id,statistic\n\n# comment\ng1,0.5\n  \n"
    assert (_ingest_error(tmp_path, head + "g2,0.7,extra\ng3,1.0\n")
            == "line 6: expected 2 fields, got 3")
    assert (_ingest_error(tmp_path, head + "g2,huh\n")
            == "line 6: cannot parse statistic from 'huh'")
    assert (_ingest_error(tmp_path, head + "g2, nan \n")
            == "line 6: statistic must be finite, got 'nan'")
    assert (_ingest_error(tmp_path, head + "g2,-inf\n")
            == "line 6: statistic must be finite, got '-inf'")
    assert (_ingest_error(tmp_path, "1.0\n\n# c\n2.0\ninf\n")
            == "line 5: statistic must be finite, got 'inf'")
    assert (_ingest_error(tmp_path, "1.0\n# c\nx1\n")
            == "line 3: cannot parse statistic from 'x1'")
    # a column named twice would be read from its first cell without a sign
    assert (_ingest_error(tmp_path, "# c\nid,statistic,statistic\ng1,0.5,1.5\n")
            == "line 2: column 'statistic' matches 2 header cells")
    assert (_ingest_error(tmp_path, "id,statistic,id\ng1,0.5,h1\n")
            == "line 1: column 'id' matches 2 header cells")
    path = _write(tmp_path / "head.csv", "# only a header\nid,statistic\n\n")
    with pytest.raises(CLIError) as excinfo:
        ingest_statistics(path)
    assert str(excinfo.value) == f"{path}: no statistics found"


def test_ingest_errors_come_in_line_order(tmp_path):
    assert (_ingest_error(tmp_path, "id,statistic\ng1,bad\ng2,1.0,x\n")
            == "line 2: cannot parse statistic from 'bad'")
    assert (_ingest_error(tmp_path, "id,statistic\ng1,1.0,x\ng2,bad\n")
            == "line 2: expected 2 fields, got 3")
    # far past the first block of lines
    rows = [f"g{i},{i * 0.001!r}" for i in range(20000)]
    rows[15000] = "g15000,oops"
    text = "id,statistic\n\n" + "\n".join(rows) + "\n"
    assert _ingest_error(tmp_path, text) == "line 15003: cannot parse statistic from 'oops'"


@pytest.mark.parametrize("text, ids", [
    ("\ufeffid,statistic\ng1,0.5\ng2,-1.25\n", ("g1", "g2")),
    ("\ufeff0.5\n-1.25\n", None),
], ids=["csv", "plain"])
def test_ingest_reads_past_a_byte_order_mark(tmp_path, text, ids):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF, which must not
    # become part of the first header cell or of the first number
    sample = ingest_statistics(_write(tmp_path / "bom.csv", text))
    assert sample.ids == ids
    assert sample.values.tolist() == [0.5, -1.25]


def test_ingest_over_long_quoted_cell_names_its_line(tmp_path, capsys):
    # a quoted cell past csv's field-size limit ends in the one JSON error
    # line, after the faults above it, and leaves the limit as it was
    limit = csv.field_size_limit()
    huge = '"' + "x" * 140_000 + '"'
    text = f"id,statistic\ng1,0.5\n\n{huge},1.0\n"
    assert main(["test", "--input", _write(tmp_path / "huge.csv", text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": f"line 4: field larger than field limit ({limit})"}
    assert (_ingest_error(tmp_path, f"id,statistic\ng1,oops\n{huge},1.0\n")
            == "line 2: cannot parse statistic from 'oops'")
    assert (_ingest_error(tmp_path, f"# c\n{huge},statistic\n")
            == f"line 2: field larger than field limit ({limit})")
    assert csv.field_size_limit() == limit


def test_ingest_unterminated_quote_stays_on_its_line(tmp_path):
    assert (_ingest_error(tmp_path, 'id,statistic\n\n"g1,0.5\ng2,0.7\n')
            == "line 3: expected 2 fields, got 1")
    # a quote left open in the last field ends with its line
    sample = ingest_statistics(
        _write(tmp_path / "q.csv", 'id,statistic\ng1,"0.5\ng2,0.7\n'))
    assert sample.ids == ("g1", "g2")
    assert sample.values.tolist() == [0.5, 0.7]


def test_ingest_quoted_ids_and_typographic_minus(tmp_path):
    path = _write(tmp_path / "q.csv",
                  'statistic,id\n−1.5,"a,b"\n2.0,"say ""hi"""\n 3.25 , plain \n')
    sample = ingest_statistics(path)
    assert sample.ids == ("a,b", 'say "hi"', "plain")
    assert sample.values.tolist() == [-1.5, 2.0, 3.25]
    plain = ingest_statistics(_write(tmp_path / "p.txt", "1e-3\n −2\n4.5e1\n"))
    assert plain.ids is None
    assert plain.values.tolist() == [0.001, -2.0, 45.0]


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


def test_fit_null_has_no_grid_size_flag(stats_file, capsys):
    # the mixture grid has one size, so the parser refuses --k as unknown
    with pytest.raises(SystemExit) as excinfo:
        main(["fit-null", "--input", stats_file, "--k", "1"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "--k" in json.loads(lines[0])["error"]


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

    # d-stbh's uncapped pi0 overflows when tau - lambda is near 0; it is
    # reported as null, and the rejections are the exact zeros: none here
    path = _write(tmp_path / "few.csv", "id,statistic\na,0.5\nb,-1.0\nc,2.5\nd,-0.3\n")
    assert main(["test", "--input", path, "--method", "d-stbh", "--tau", "1e-320",
                 "--lambda-discard", "0", "--output", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["methods"]["d-stbh"] == {"n_rejected": 0, "threshold": 0.0,
                                           "pi0_hat": None}


@pytest.mark.parametrize("command", ["fit-null", "test", "histogram"])
def test_huge_statistic_leaves_stderr_empty(tmp_path, capsys, command):
    # the overflows a statistic at -1e160 causes inside the fits end as
    # failed families, and a statistic at -100 gets a mixture atom of its
    # own; numpy must not warn about either on the error channel
    far = sim.generate(sim.SimScenario(sim.TwoPointPrior(0.8), base_seed=7000), 0).values
    for z in (np.append(np.random.default_rng(1).standard_normal(50), -1e160),
              np.append(far, -100.0)):
        path = _write(tmp_path / "in.txt", "\n".join(repr(float(v)) for v in z) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--input", path, "--output", str(tmp_path / "out.json")]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""


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


_AWKWARD_IDS = ['say "hi"', "back\\slash", "é☃", "bell\x07", "", "100%s"]


@pytest.fixture()
def awkward_ids_file(tmp_path):
    # ids that JSON must escape, quoted where CSV needs it
    rng = np.random.default_rng(5)
    z = np.concatenate([-np.abs(rng.normal(0.0, 1.5, 180)), rng.normal(3.5, 1.0, 20)])
    ids = [f"r{i}" for i in range(z.size)]
    ids[: len(_AWKWARD_IDS)] = _AWKWARD_IDS
    cells = ['"' + i.replace('"', '""') + '"' if '"' in i else i for i in ids]
    rows = [f"{c},{v!r}" for c, v in zip(cells, z.tolist())]
    return _write(tmp_path / "awkward.csv", "id,statistic\n" + "\n".join(rows) + "\n")


def _per_record_report(path, methods, written):
    """The report as the writer built it before it went columnar: one dict
    per record, all of it through ``json.dumps(indent=2)``."""
    sample = ingest_statistics(path)
    model = select_null(sample, TruncationRule(quantile_level=0.85), k=50)
    p_std = standard_pvalues(sample)
    p_eb = cli.eb_pvalues(sample, model)
    results = run_methods(methods, p_std, p_eb, q=0.1, tau=0.5,
                          lambda_storey=0.5, lambda_discard=0.25)
    masks = {method: results[method].mask() for method in methods}
    records = [
        {
            "id": str(i) if sample.ids is None else sample.ids[i],
            "statistic": sample.values[i],
            "p_std": p_std.values[i],
            "p_eb": p_eb.values[i],
            "rejected": {method: bool(masks[method][i]) for method in methods},
        }
        for i in range(len(sample))
    ]
    report = {
        "config": json.loads(written)["config"],
        "fit": cli._fit_block(model),
        "methods": {
            method: {
                "n_rejected": results[method].n_rejected,
                "threshold": results[method].threshold,
                "pi0_hat": results[method].pi0_hat,
            }
            for method in methods
        },
        "records": records,
    }
    return json.dumps(report, indent=2, default=cli._json_default) + "\n"


def _plain_file(tmp_path, m):
    rng = np.random.default_rng(m)
    z = np.concatenate([-np.abs(rng.normal(0.0, 1.5, m - 2)), rng.normal(3.5, 1.0, 2)])
    return _write(tmp_path / f"plain-{m}.txt", "\n".join(map(repr, z.tolist())) + "\n")


# in blocks of 7 records, the 200 awkward rows are 28 blocks and 4, 14 plain
# rows 2 blocks, and 15 plain rows end in a block of one; ``test`` cannot fit
# fewer than 2 statistics at or below the cut, so m = 1 itself is no report
@pytest.mark.parametrize("source, methods, block_lines", [
    pytest.param("awkward", ("proposed",), None, id="one-method"),
    pytest.param("awkward", METHOD_NAMES, None, id="all-methods"),
    pytest.param("awkward", METHOD_NAMES, 7, id="all-methods-blocks-of-7"),
    pytest.param(14, METHOD_NAMES, 7, id="plain-14-blocks-of-7"),
    pytest.param(15, METHOD_NAMES, 7, id="plain-15-blocks-of-7"),
])
def test_test_report_bytes_match_per_record_writer(request, tmp_path, capsys, monkeypatch,
                                                   source, methods, block_lines):
    if block_lines is not None:
        monkeypatch.setattr(cli, "_BLOCK_LINES", block_lines)
    path = (request.getfixturevalue("awkward_ids_file") if source == "awkward"
            else _plain_file(tmp_path, source))
    flags = [arg for method in methods for arg in ("--method", method)]
    out = tmp_path / "report.json"
    assert main(["test", "--input", path, *flags, "--output", str(out)]) == 0
    written = out.read_text(encoding="utf-8")
    assert written == _per_record_report(path, methods, written)
    ids = _AWKWARD_IDS if source == "awkward" else list(map(str, range(source)))
    assert [r["id"] for r in json.loads(written)["records"]][: len(ids)] == ids

    assert main(["test", "--input", path, *flags]) == 0
    assert capsys.readouterr().out == written


def _traced_peak(argv) -> int:
    """Bytes at the peak of Python and numpy allocations while ``main`` runs."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_test_report_streams_to_its_output(tmp_path):
    # the records are written block by block, so the report costs far less
    # memory than its own size on top of the fit that ``fit-null`` makes
    sample = generate(sim.SimScenario(sim.HalfNormalPrior(1.0), m=50_000), 0)
    rows = [f"s{i},{v!r}" for i, v in enumerate(sample.values.tolist())]
    path = _write(tmp_path / "large.csv", "id,statistic\n" + "\n".join(rows) + "\n")
    out = str(tmp_path / "report.json")
    assert main(["test", "--input", path, "--output", out]) == 0  # imports, untraced
    fit_peak = _traced_peak(["fit-null", "--input", path, "--output", str(tmp_path / "fit.json")])
    test_peak = _traced_peak(["test", "--input", path, "--output", out])
    assert test_peak - fit_peak < os.path.getsize(out) / 2


def test_closed_stdout_is_one_error_line(tmp_path):
    # a reader that stops early: the report is cut short, and the run says so
    path = _plain_file(tmp_path, 5000)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "ebnull.cli", "test", "--input", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert err.count("\n") == 1  # one JSON line, no traceback
    assert json.loads(err) == {"error": "cannot write stdout: Broken pipe"}


def test_test_refuses_a_nan_pvalue(awkward_ids_file, tmp_path, capsys, monkeypatch):
    # NaN is not a p-value: the container refuses it before any report is built
    eb_pvalues = cli.eb_pvalues

    def with_nan(sample, model):
        values = eb_pvalues(sample, model).values.copy()
        values[1] = np.nan
        return PValueVector(values=values)

    monkeypatch.setattr(cli, "eb_pvalues", with_nan)
    out = tmp_path / "report.json"
    assert main(["test", "--input", awkward_ids_file, "--method", "bh",
                 "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "p-values must lie in [0, 1]"}
    assert not out.exists()


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


def test_simulate_default_grids(tmp_path):
    # without a grid flag, simulate runs both default grids
    out = tmp_path / "default.csv"
    assert main(["simulate", "--n-reps", "1", "--method", "stbh",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    config = json.loads(lines[0][len("# config: "):])
    assert config["rho_grid"] == list(cli.DEFAULT_RHO_GRID)
    assert config["sigma0_grid"] == list(cli.DEFAULT_SIGMA0_GRID)
    rows = [line.split(",") for line in lines[2:]]
    assert [(r[0], float(r[1])) for r in rows] == (
        [("two_point", rho) for rho in cli.DEFAULT_RHO_GRID]
        + [("half_normal", sigma0) for sigma0 in cli.DEFAULT_SIGMA0_GRID])
    assert len(rows) == 12 and all(r[2] == "stbh" for r in rows)


def test_simulate_bad_grid(capsys):
    assert main(["simulate", "--rho-grid", "abc", "--n-reps", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "rho-grid" in err["error"]
    # a grid flag that names no value is an error, not the default grid
    assert main(["simulate", "--rho-grid", ",", "--n-reps", "1"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "--rho-grid grid is empty"}


def test_an_underscore_in_a_number_is_refused(tmp_path, capsys):
    # float() reads the digit-group underscore of Python source, so "1_5"
    # was once taken for 15.0; every number the command line reads refuses it
    path = _write(tmp_path / "in.csv", "id,statistic\ng1,0.5\na,1_5\n")
    assert main(["fit-null", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "line 3: cannot parse statistic from '1_5'"}
    # the first line of a plain file, and far past the first block of lines
    assert (_ingest_error(tmp_path, "1_5\n2.0\n")
            == "line 1: cannot parse statistic from '1_5'")
    rows = [repr(i * 0.001) for i in range(20000)]
    rows[15000] = " -2_0.5 "
    assert (_ingest_error(tmp_path, "\n".join(rows) + "\n")
            == "line 15001: cannot parse statistic from '-2_0.5'")
    text = _MATRIX_HEAD + "r0,1,2,3,5\nr1,1,2_0,3,5\n"
    assert _tstats_error(tmp_path, capsys, text) == "line 3: cannot parse value from '2_0'"
    for flag in ("--rho-grid", "--sigma0-grid"):
        assert main(["simulate", flag, "1_0", "--n-reps", "1"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": f"cannot parse {flag} grid from '1_0'"}


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


@pytest.mark.parametrize("flags", [
    ["--tau", "2", "--method", "c-stbh", "--method", "bh"],
    ["--lambda-discard", "0.7", "--method", "d-stbh"],
    ["--lambda-storey", "1.5", "--method", "stbh"],
], ids=["tau", "lambda-discard", "lambda-storey"])
def test_simulate_rejects_bad_procedure_parameter(capsys, monkeypatch, flags):
    # as in ``ebnull test``: an error before any replication is drawn, not
    # rows of nan from failed replications
    drawn = []
    monkeypatch.setattr(sim, "generate",
                        lambda scenario, rep: drawn.append(rep) or generate(scenario, rep))
    assert main(["simulate", "--rho-grid", "0.8", "--n-reps", "2", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])
    assert drawn == []


# ---------------------------------------------------------------------------
# histogram command


def test_histogram_report(stats_file, capsys, monkeypatch):
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
    # the bin count is checked before the input is read, and before
    # np.linspace would refuse -2 in its own words
    read = _record_reads(monkeypatch)
    for bins in ("0", "-1", "-2"):
        assert main(["histogram", "--input", stats_file, "--bins", bins]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "need at least one bin"}
    assert read == []


def test_histogram_records_lambda_storey(stats_file, capsys):
    # pi0_hat depends on lambda, so the report must say which one it used
    reports = {}
    for lam in ("0.5", "0.8"):
        assert main(["histogram", "--input", stats_file, "--lambda-storey", lam]) == 0
        reports[lam] = json.loads(capsys.readouterr().out)
    for lam, report in reports.items():
        assert list(report["config"])[2:4] == ["bins", "lambda_storey"]
        assert report["config"]["lambda_storey"] == float(lam)
    assert reports["0.5"]["pi0_hat"] != reports["0.8"]["pi0_hat"]


# ---------------------------------------------------------------------------
# tstats command


def _tstats_row(line):
    """The t, df and statistic cells of one ``tstats`` output row."""
    return [float(cell) for cell in line.split(",")[1:]]


def _assert_matches_scipy(row, a, b, equal_var):
    expected = ttest_ind(a, b, equal_var=equal_var)
    t, df, z = row
    assert t == pytest.approx(expected.statistic, rel=1e-12)
    assert df == pytest.approx(expected.df, rel=1e-12)
    assert z == pytest.approx(norm.ppf(student_t.cdf(expected.statistic, expected.df)),
                              rel=1e-10)


def test_tstats_matches_scipy_welch(tmp_path, capsys, monkeypatch):
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
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[1] == "id,t,df,statistic"
    got = {row.split(",")[0]: _tstats_row(row) for row in lines[2:]}
    # rows written in blocks of 4 and 2 keep their bytes
    monkeypatch.setattr(cli, "_BLOCK_LINES", 4)
    assert main(["tstats", "--input", str(path),
                 "--group-a", "a0,a1,a2,a3",
                 "--group-b", "b0,b1,b2,b3,b4"]) == 0
    assert capsys.readouterr().out == text
    for i in range(6):
        aa = [float(f"{x:.9f}") for x in a[i]]
        bb = [float(f"{x:.9f}") for x in b[i]]
        _assert_matches_scipy(got[f"r{i}"], aa, bb, equal_var=False)


def test_tstats_pooled_matches_scipy(tmp_path, capsys):
    path = _write(tmp_path / "m.csv",
                  "id,x1,x2,x3,y1,y2,y3\n"
                  "r0,1.0,2.0,3.0,2.5,3.5,4.5\n")
    assert main(["tstats", "--input", str(path), "--group-a", "x1,x2,x3",
                 "--group-b", "y1,y2,y3", "--pooled"]) == 0
    row = _tstats_row(capsys.readouterr().out.splitlines()[2])
    _assert_matches_scipy(row, [1.0, 2.0, 3.0], [2.5, 3.5, 4.5], equal_var=True)
    assert row[1] == 4.0


def test_tstats_drops_blank_cells(tmp_path, capsys):
    path = _write(tmp_path / "m.csv",
                  "id,x1,x2,x3,y1,y2,y3\n"
                  "r0,1.0,2.0,,2.5,NA,4.5\n"
                  "r1,nan,2.0,3.5,2.5,1.0,4.5\n")
    assert main(["tstats", "--input", str(path), "--group-a", "x1,x2,x3",
                 "--group-b", "y1,y2,y3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    _assert_matches_scipy(_tstats_row(lines[2]), [1.0, 2.0], [2.5, 4.5], equal_var=False)
    _assert_matches_scipy(_tstats_row(lines[3]), [2.0, 3.5], [2.5, 1.0, 4.5],
                          equal_var=False)


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


@pytest.mark.parametrize("header, group_a, group_b, message", [
    ("id,a1,a2,b1,b2", "a1,a1", "b1,b2", "column 'a1' is named twice"),
    ("id,a1,a2,b1,b2", "a1,a2", "b1,b2,b1", "column 'b1' is named twice"),
    ("id,a1,a2,b1,b2", "a1,a2", "a2,b1", "column 'a2' is named twice"),
    ("id,a1,a1,b1,b2", "a1", "b1,b2", "line 1: column 'a1' matches 2 header cells"),
    ("# c\n\nid,a1,a2,b1,b1", "a1,a2", "b1", "line 3: column 'b1' matches 2 header cells"),
], ids=["twice-in-a", "twice-in-b", "in-both", "two-header-cells", "two-cells-later-line"])
def test_tstats_rejects_ambiguous_group_columns(tmp_path, capsys, header, group_a, group_b,
                                                message):
    # each reads one column where two were meant; a1,a1 vs b1,b2 used to
    # exit 0 with t = -3.0 on 1 df, a1's value counted as two observations
    path = _write(tmp_path / "m.csv", header + "\nr0,1.0,2.0,3.0,5.0\n")
    assert main(["tstats", "--input", path, "--group-a", group_a,
                 "--group-b", group_b]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith(message)


_MATRIX_HEAD = "id,x1,x2,y1,y2\n"


def _tstats(tmp_path, text):
    path = _write(tmp_path / "m.csv", text)
    return main(["tstats", "--input", path, "--group-a", "x1,x2", "--group-b", "y1,y2"])


def _tstats_error(tmp_path, capsys, text):
    assert _tstats(tmp_path, text) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)["error"]


def test_tstats_needs_a_column_in_each_group(tmp_path, capsys):
    # checked before the input is read: the file does not exist
    missing = str(tmp_path / "missing.csv")
    for group_a, group_b in ((" , ", "y1"), ("x1", ",")):
        assert main(["tstats", "--input", missing, "--group-a", group_a,
                     "--group-b", group_b]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "both --group-a and --group-b need at least one column"}


def test_tstats_parse_error_names_the_file_line(tmp_path, capsys):
    # blank lines count towards the 1-based line numbers, as in ingest
    text = _MATRIX_HEAD + "\nr0,1,2,3,5\n\nr1,1,oops,3,5\n"
    assert _tstats_error(tmp_path, capsys, text) == "line 5: cannot parse value from 'oops'"
    text = _MATRIX_HEAD + "r0,1,2,3,5\n\nr1,1,inf,3,5\n"
    assert _tstats_error(tmp_path, capsys, text) == "line 4: value must be finite, got 'inf'"


def test_tstats_missing_group_column_names_the_header_line(tmp_path, capsys):
    # like every other reader error, the header's 1-based line comes first
    text = "# exported matrix\n\nid,x1,x2,y1\nr0,1,2,3\n"
    assert _tstats_error(tmp_path, capsys, text) == (
        f"line 3: column 'y2' not found in {tmp_path / 'm.csv'}")


def test_tstats_skips_comment_lines(tmp_path, capsys):
    text = "# exported matrix\n" + _MATRIX_HEAD + "r0,1,2,3,5\n# midway\nr1,2,4,1,2\n"
    assert _tstats(tmp_path, text) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[2:]] == ["r0", "r1"]
    _assert_matches_scipy(_tstats_row(lines[3]), [2.0, 4.0], [1.0, 2.0], equal_var=False)
    for text in ("# only a comment\n", "# note\n" + _MATRIX_HEAD):
        assert _tstats_error(tmp_path, capsys, text).endswith(
            "m.csv: need a header row and at least one data row")


def test_tstats_reads_quoted_id_as_one_cell(tmp_path, capsys):
    text = _MATRIX_HEAD + '"a,b",1,2,3,5\n"say ""hi""",2,4,1,2\n'
    assert _tstats(tmp_path, text) == 0
    lines = capsys.readouterr().out.splitlines()
    # ids that need quoting are written quoted, so ``test`` reads them back
    rows = list(csv.reader(lines[2:]))
    assert [row[0] for row in rows] == ["a,b", 'say "hi"']
    assert all(len(row) == 4 for row in rows)


def test_tstats_quotes_an_id_led_by_hash(tmp_path):
    # written bare, the "#7" row would be skipped by ``test`` as a comment
    rows = ",1,2,3,5\ng2,2,4,1,2\ng3,1,3,2,5\n"
    path = tmp_path / "m.csv"
    for first_id, name in (('"#7"', "hashed"), ("r7", "plain")):
        _write(path, _MATRIX_HEAD + first_id + rows)
        assert main(["tstats", "--input", str(path), "--group-a", "x1,x2",
                     "--group-b", "y1,y2", "--output", str(tmp_path / name)]) == 0
    assert ingest_statistics(str(tmp_path / "hashed")).ids == ("#7", "g2", "g3")
    # only that id is quoted: every other id and float keeps its bytes
    hashed, plain = ((tmp_path / name).read_text(encoding="utf-8").splitlines()
                     for name in ("hashed", "plain"))
    assert hashed[2] == '"#7"' + plain[2][len("r7"):]
    assert hashed[:2] + hashed[3:] == plain[:2] + plain[3:]


def test_tstats_wrong_width_names_its_line(tmp_path, capsys):
    text = _MATRIX_HEAD + "r0,1,2,3,5\n\nr1,1,2,3\n"
    assert _tstats_error(tmp_path, capsys, text) == "line 4: expected 5 fields, got 4"


def test_tstats_errors_come_in_file_order(tmp_path, capsys):
    # width and parse errors in line order, as in ingest
    text = _MATRIX_HEAD + "r0,1,bad,3,5\nr1,1,2,3\n"
    assert _tstats_error(tmp_path, capsys, text) == "line 2: cannot parse value from 'bad'"
    text = _MATRIX_HEAD + "r0,1,2,3\nr1,1,bad,3,5\n"
    assert _tstats_error(tmp_path, capsys, text) == "line 2: expected 5 fields, got 4"
    # count and zero-variance errors are found on whole columns after parsing
    text = _MATRIX_HEAD + "r0,1,,3,5\nr1,1,bad,3,5\n"
    assert _tstats_error(tmp_path, capsys, text) == "line 3: cannot parse value from 'bad'"
    text = _MATRIX_HEAD + "r0,1,1,3,3\nr1,1,,3,5\n"
    assert _tstats_error(tmp_path, capsys, text) == "line 2: row 'r0' has zero variance"
    text = _MATRIX_HEAD + "r0,1,2,3,5\nr1,1,,3,5\nr2,1,1,3,3\n"
    assert (_tstats_error(tmp_path, capsys, text)
            == "line 3: row 'r1' needs at least 2 values per group")


def test_tstats_rejects_a_z_value_beyond_float_range(tmp_path, capsys):
    # t near -1.5e300 on 3 df has a lower tail far below the smallest float
    path = _write(tmp_path / "m.csv",
                  "id,x1,x2,x3,x4,y1,y2,y3,y4\n"
                  "r0,0,1,2,3,1e300,1e300,1e300,1e300\n")
    assert main(["tstats", "--input", path, "--group-a", "x1,x2,x3,x4",
                 "--group-b", "y1,y2,y3,y4"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("line 2: row 'r0' ")
    assert "no finite z-value" in err


def test_tstats_then_test_rejects_nothing_on_null_matrix(tmp_path, capsys):
    # raw Welch t on ~3 df is far wider than N(0, 1): read as z-values it
    # gave 129 / 129 / 132 false rejections; the z-values give none
    x = np.random.default_rng(5).standard_normal((5000, 6))
    names = ["a1", "a2", "a3", "b1", "b2", "b3"]
    rows = [f"g{i}," + ",".join(map(repr, row)) for i, row in enumerate(x.tolist())]
    matrix = _write(tmp_path / "null.csv", "id," + ",".join(names) + "\n"
                    + "\n".join(rows) + "\n")
    stats = tmp_path / "z.csv"
    assert main(["tstats", "--input", matrix, "--group-a", "a1,a2,a3",
                 "--group-b", "b1,b2,b3", "--output", str(stats)]) == 0
    assert main(["test", "--input", str(stats), "--method", "bh", "--method", "stbh",
                 "--method", "proposed"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert len(report["records"]) == 5000
    assert {method: block["n_rejected"] for method, block in report["methods"].items()} \
        == {"bh": 0, "stbh": 0, "proposed": 0}


# ---------------------------------------------------------------------------
# error handling


@pytest.mark.parametrize("argv, error", [
    (["test", "--q", "1.5"], "target FDR level q must lie in (0, 1)"),
    (["test", "--method", "c-stbh", "--tau", "2"], "tau must lie in (0, 1]"),
    (["test", "--lambda-discard", "0.7"], "need 0 <= lambda < tau <= 1"),
    (["histogram", "--lambda-storey", "1.5"], "lambda must lie in [0, 1)"),
    (["fit-null", "--xi-quantile", "2"], "quantile level must lie in (0, 1)"),
], ids=["test-q", "test-tau", "test-lambda-discard", "histogram-lambda-storey",
        "fit-null-xi-quantile"])
def test_bad_setting_stops_before_the_input_is_read(tmp_path, capsys, monkeypatch,
                                                    argv, error):
    # the input is missing too: the setting is reported, and no file is read
    read = _record_reads(monkeypatch)
    assert main([*argv, "--input", str(tmp_path / "missing.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": error}
    assert read == []


def test_missing_input_file_is_reported(capsys):
    assert main(["fit-null", "--input", "/nonexistent/stats.txt"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "/nonexistent/stats.txt" in err["error"]


@pytest.mark.parametrize("command", ["fit-null", "test", "histogram"])
def test_unwritable_output_is_reported(stats_file, tmp_path, capsys, command):
    target = str(tmp_path / "missing-dir" / "x.json")
    assert main([command, "--input", stats_file, "--output", target]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1  # one JSON line, no traceback
    assert target in json.loads(out.err)["error"]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    json.loads(capsys.readouterr().err)  # single-line JSON on stderr


def test_bad_flag_value_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["histogram", "--input", "x", "--bins", "lots"])
    assert excinfo.value.code == 2
