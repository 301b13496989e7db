"""Command-line interface.

Subcommands
-----------
fit-null   estimate the null model from a statistics file, report JSON
test       run testing procedures on a statistics file, report JSON
simulate   run the synthetic benchmark grids, report CSV
histogram  standard vs fitted-null p-value histograms, report JSON
tstats     two-sample t-statistics and their z-values from a two-group matrix

Statistics files and ``tstats`` matrices are read by one CSV reader: blank
and ``#`` lines are skipped, quotes hold within a line, errors name the line.
All reports embed the resolved configuration and tool version, numbers are
serialized with full round-trip precision, and re-running a command with
the same inputs reproduces the output byte for byte.  Errors exit non-zero
with a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import chain, islice

import numpy as np
from scipy import special

from . import __version__
from .nullmodel import _GRID_K, NullModel, StatSample, TruncationRule, select_null
from .procedures import storey_pi0
from .pvalues import eb_pvalues, standard_pvalues
from .simulate import (
    DEFAULT_METHODS,
    METHOD_NAMES,
    HalfNormalPrior,
    SimScenario,
    TwoPointPrior,
    check_methods,
    pvalue_histogram,
    run_methods,
    run_scenario,
)

DEFAULT_RHO_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_SIGMA0_GRID = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


class CLIError(ValueError):
    """User-facing failure with a one-line message."""


# ---------------------------------------------------------------------------
# input handling


def _normalize_number(text: str) -> str:
    # tolerate the typographic minus that spreadsheet exports sometimes emit
    return text.strip().replace("−", "-")


def _parse_float(text: str, lineno: int, what: str) -> float:
    try:
        value = float(_normalize_number(text))
    except ValueError:
        raise CLIError(f"line {lineno}: cannot parse {what} from {text.strip()!r}")
    if not np.isfinite(value):
        raise CLIError(f"line {lineno}: {what} must be finite, got {text.strip()!r}")
    return value


def _parse_column(texts, linenos, what: str = "statistic") -> np.ndarray:
    """Numbers of one column, parsed in one pass.

    A cell that is unparseable, non-finite or written with the typographic
    minus sends the column through ``_parse_float`` cell by cell, which
    normalizes the minus and names the first bad cell's 1-based line.
    """
    try:
        values = np.array([float(text) for text in texts])
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_parse_float(text, lineno, what) for text, lineno in zip(texts, linenos)])


# data lines split and parsed, or report records and rows formatted and
# written, at a time: the lists and text of one block are freed before the
# next is built, so ingest holds little beyond its result, a report little
# beyond one block's text
_BLOCK_LINES = 8192


def _data_lines(path: str):
    """(1-based line number, text) of each non-blank, non-``#`` line of ``path``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
            for lineno, line in enumerate(fh, start=1):
                if (head := line.lstrip()) and head[0] != "#":
                    yield lineno, line.rstrip("\n")
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc.strerror or exc}")


def _split_row(text: str, lineno: int) -> list[str]:
    """The cells of line ``lineno``, by ``csv`` rules only where it holds a quote."""
    try:
        return next(csv.reader([text])) if '"' in text else text.split(",")
    except csv.Error as exc:  # such as a quoted cell over csv's field-size limit
        raise CLIError(f"line {lineno}: {exc}") from None


def _csv_blocks(lines, width: int):
    """Line numbers and split rows of blocks of ``_BLOCK_LINES`` lines; a row
    that cannot be split or is not ``width`` cells wide raises after the rows
    above it are handed out, so a block-by-block parse keeps line order."""
    while block := list(islice(lines, _BLOCK_LINES)):
        linenos, rows = [lineno for lineno, _ in block], []
        try:
            for lineno, text in block:
                row = _split_row(text, lineno)
                if len(row) != width:
                    raise CLIError(f"line {lineno}: expected {width} fields, got {len(row)}")
                rows.append(row)
        except CLIError:
            yield linenos[: len(rows)], rows  # the rows above the fault, then the fault
            raise
        yield linenos, rows


def _column(header: list[str], lineno: int, name: str) -> int | None:
    """Index of ``name`` in the header on line ``lineno``, None when absent;
    a name matching two cells, which would be read from the first, raises."""
    count = header.count(name)
    if count > 1:
        raise CLIError(f"line {lineno}: column {name!r} matches {count} header cells")
    return header.index(name) if count else None


def ingest_statistics(path: str) -> StatSample:
    """Load statistics from a plain-number file, read as a one-column CSV
    without a header, or a CSV with a ``statistic`` column and an optional
    ``id`` column, the only source of ids (``ids`` is None without one).

    The file is read once, in blocks of lines whose statistic column is
    parsed in one pass; every parse failure names its 1-based line number.
    """
    lines = _data_lines(path)
    first = next(lines, None)
    if first is None:
        raise CLIError(f"{path}: no statistics found")
    try:
        float(_normalize_number(first[1]))
    except ValueError:
        header = [cell.strip() for cell in _split_row(first[1], first[0])]
        if "statistic" not in header:
            raise CLIError(f"line {first[0]}: expected a number or a CSV header "
                           "with a 'statistic' column")
    else:
        header, lines = ["statistic"], chain([first], lines)
    stat_col, id_col = (_column(header, first[0], name) for name in ("statistic", "id"))

    values, ids = [], []
    for linenos, rows in _csv_blocks(lines, len(header)):
        values.append(_parse_column([row[stat_col] for row in rows], linenos))
        if id_col is not None:
            ids += [row[id_col].strip() for row in rows]
    if not values:
        raise CLIError(f"{path}: no statistics found")
    return StatSample(values=np.concatenate(values),
                      ids=None if id_col is None else tuple(ids))


# ---------------------------------------------------------------------------
# serialization helpers


def _json_default(value) -> object:
    """``json.dumps`` hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# every report's encoder: json.dumps(indent=2), but a NaN or inf raises ValueError
_report_json = json.JSONEncoder(indent=2, default=_json_default, allow_nan=False).encode

# how ``json.dumps`` (``ensure_ascii=True``) writes a string and a bool
_json_string = json.encoder.encode_basestring_ascii
_JSON_BOOLS = ("false", "true")


def _write_output(pieces, output: str | None):
    """Write the text ``pieces`` in order to the file ``output``, or to
    stdout when it is None; each piece is written as soon as it is drawn."""
    if output is None:
        try:
            for piece in pieces:
                sys.stdout.write(piece)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # the reader has gone: point fd 1 at nothing, so that the flush
            # at exit cannot raise again, and report the truncated output
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise CLIError(f"cannot write stdout: {exc.strerror or exc}")
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                for piece in pieces:
                    fh.write(piece)
        except OSError as exc:
            raise CLIError(f"cannot write {output}: {exc.strerror or exc}")


def _records_json(ids, statistic, p_std, p_eb, masks: dict):
    """The ``records`` list of the test report, yielded in pieces of
    ``_BLOCK_LINES`` records, so no more than one block's text is held.

    The joined pieces are what ``json.dumps(..., indent=2)`` gives for the
    list of per-record dicts (``id``, ``statistic``, ``p_std``, ``p_eb`` and
    one ``rejected`` flag per method), nested one level inside the report;
    ``ids`` None numbers the records from 0.  Statistics are finite and
    p-values lie in [0, 1], so each float's repr is the text ``json.dumps``
    writes for it.
    """
    flags = ",\n".join(f"        {_json_string(method)}: %s" for method in masks)
    template = (
        "    {\n"
        '      "id": %s,\n'
        '      "statistic": %s,\n'
        '      "p_std": %s,\n'
        '      "p_eb": %s,\n'
        '      "rejected": {\n'
        f"{flags}\n"
        "      }\n"
        "    }"
    )
    yield "[\n"
    for lo in range(0, len(statistic), _BLOCK_LINES):
        hi = min(lo + _BLOCK_LINES, len(statistic))
        columns = (
            map(_json_string, map(str, range(lo, hi)) if ids is None else ids[lo:hi]),
            *(map(float.__repr__, column[lo:hi].tolist()) for column in (statistic, p_std, p_eb)),
            *([_JSON_BOOLS[flag] for flag in mask[lo:hi].tolist()] for mask in masks.values()),
        )
        yield (",\n" if lo else "") + ",\n".join(map(template.__mod__, zip(*columns)))
    yield "\n  ]"


def _config(args, *names, **resolved) -> dict:
    """The report's config block: the command, each named setting in order
    (its ``resolved`` value where given, else the parsed flag), the version."""
    config = {"command": args.subcommand}
    for name in names:
        config[name] = resolved[name] if name in resolved else getattr(args, name)
    config["version"] = __version__
    return config


def _fit_block(model: NullModel) -> dict:
    return {
        "family": model.family,
        "params": model.variant.report_params(),
        "logliks": model.family_logliks,
        "xi": model.cut_xi,
        "n_truncated": model.n_truncated,
    }


# ---------------------------------------------------------------------------
# subcommands


def _fit(args) -> tuple[StatSample, NullModel]:
    """The input's statistics and their fitted null, on ``select_null``'s
    default grid of ``_GRID_K`` atoms, the ``k`` each config block reports.
    ``--xi-quantile`` is checked, by the truncation rule, before the file
    is read."""
    rule = TruncationRule(quantile_level=args.xi_quantile)
    sample = ingest_statistics(args.input)
    return sample, select_null(sample, rule)


def cmd_fit_null(args) -> int:
    _, model = _fit(args)
    report = _fit_block(model)
    report["config"] = _config(args, "input", "xi_quantile", "k")
    _write_output([_report_json(report) + "\n"], args.output)
    return 0


def _resolve_methods(args) -> tuple[str, ...]:
    # repeated --method flags run once, in order of first mention
    return tuple(dict.fromkeys(args.method or DEFAULT_METHODS))


def cmd_test(args) -> int:
    """Fit the null, run the procedures and write the JSON report.

    The text is what ``json.dumps(..., indent=2)`` gives for a report with
    one record dict per statistic.  The config, fit and methods blocks are
    encoded first, then the records stream to the output in blocks
    (``_records_json``), so the whole report is never held in memory.  All
    that can refuse runs before the first byte is written: the procedures'
    settings are checked before the input is read, input parse errors name
    their 1-based line number, and the head is encoded with NaN and inf
    refused.
    """
    methods = _resolve_methods(args)
    settings = (args.q, args.tau, args.lambda_storey, args.lambda_discard)
    check_methods(methods, *settings)
    sample, model = _fit(args)
    p_std = standard_pvalues(sample)
    p_eb = eb_pvalues(sample, model)
    results = run_methods(methods, p_std, p_eb, *settings)

    report = {
        "config": _config(args, "input", "q", "methods", "tau", "lambda_storey",
                          "lambda_discard", "xi_quantile", "k", methods=list(methods)),
        "fit": _fit_block(model),
        "methods": {
            method: {
                "n_rejected": result.n_rejected,
                "threshold": result.threshold,
                # d-stbh's uncapped estimate overflows when tau - lambda is tiny
                "pi0_hat": result.pi0_hat if np.isfinite(result.pi0_hat) else None,
            }
            for method, result in results.items()
        },
        "records": [],
    }
    head = _report_json(report)
    records = _records_json(
        sample.ids,
        sample.values,
        p_std.values,
        p_eb.values,
        {method: results[method].mask() for method in methods},
    )
    # the empty list closes the head; the records go in its place
    _write_output(chain([head[: -len("[]\n}")]], records, ["\n}\n"]), args.output)
    return 0


def _parse_grid(text: str | None, name: str) -> tuple[float, ...]:
    if text is None:
        return ()
    try:
        values = tuple(float(_normalize_number(v)) for v in text.split(",") if v.strip())
    except ValueError:
        raise CLIError(f"cannot parse --{name} grid from {text!r}")
    if not values:
        raise CLIError(f"--{name} grid is empty")
    return values


def cmd_simulate(args) -> int:
    methods = _resolve_methods(args)
    rho_grid = _parse_grid(args.rho_grid, "rho-grid")
    sigma0_grid = _parse_grid(args.sigma0_grid, "sigma0-grid")
    if not rho_grid and not sigma0_grid:  # a grid given is never empty
        rho_grid, sigma0_grid = DEFAULT_RHO_GRID, DEFAULT_SIGMA0_GRID

    priors = [TwoPointPrior(rho) for rho in rho_grid]
    priors += [HalfNormalPrior(s) for s in sigma0_grid]

    config = _config(args, "methods", "q", "n_reps", "seed", "rho_grid", "sigma0_grid",
                     "tau", "lambda_storey", "lambda_discard", "xi_quantile", "k",
                     methods=list(methods), rho_grid=list(rho_grid),
                     sigma0_grid=list(sigma0_grid))
    # held until the last prior is run, so a failing one leaves no partial CSV
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, default=_json_default) + "\n")
    buf.write("scenario,param,method,fdr,fdr_se,tpr,tpr_se,n_reps,seed\n")
    for prior in priors:
        scenario = SimScenario(
            null_prior=prior, q=args.q, n_reps=args.n_reps, base_seed=args.seed
        )
        summary = run_scenario(
            scenario,
            methods=methods,
            tau=args.tau,
            lambda_storey=args.lambda_storey,
            lambda_discard=args.lambda_discard,
            xi_quantile=args.xi_quantile,
        )
        for method in methods:
            stats = summary.methods[method]
            buf.write(
                f"{prior.name},{prior.param!r},{method},"
                f"{stats.fdr!r},{stats.fdr_se!r},{stats.tpr!r},{stats.tpr_se!r},"
                f"{summary.n_reps_used},{args.seed}\n"
            )
    _write_output([buf.getvalue()], args.output)
    return 0


def cmd_histogram(args) -> int:
    # lambda and the bin count are checked on a one-value probe before the
    # input is read
    storey_pi0([0.0], args.lambda_storey)
    pvalue_histogram([0.0], args.bins)
    sample, model = _fit(args)
    p_eb = eb_pvalues(sample, model)
    report = {
        "config": _config(args, "input", "bins", "lambda_storey", "xi_quantile", "k"),
        "edges": np.linspace(0.0, 1.0, args.bins + 1),
        "p_std_counts": pvalue_histogram(standard_pvalues(sample), args.bins),
        "p_eb_counts": pvalue_histogram(p_eb, args.bins),
        "family": model.family,
        "xi": model.cut_xi,
        "pi0_hat": min(storey_pi0(p_eb, args.lambda_storey), 1.0),
    }
    _write_output([_report_json(report) + "\n"], args.output)
    return 0


def _row_moments(x: np.ndarray):
    """Count, mean and sample variance of each row's non-NaN values (NaN
    below two values).  Rows of equal count are packed together, so each
    row's values are summed exactly as on their own."""
    present = ~np.isnan(x)
    n = present.sum(axis=1)
    mean, var = np.full((2, len(x)), np.nan)
    for k in np.unique(n[n >= 2]).tolist():
        rows = n == k
        values = x[rows][present[rows]].reshape(-1, k)
        mean[rows], var[rows] = values.mean(axis=1), values.var(axis=1, ddof=1)
    return n, mean, var


def _tstats_rows(ids: list, t, df, z):
    """The ``tstats`` CSV header, then its rows, yielded in pieces of
    ``_BLOCK_LINES`` rows."""
    buf = io.StringIO()
    # csv quotes an id that holds a comma or quote; floats are written as repr.
    # An id led by "#" is quoted too, or ``_data_lines`` would skip its line
    writer = csv.writer(buf, lineterminator="\n")
    quoting = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(("id", "t", "df", "statistic"))
    yield buf.getvalue()
    for lo in range(0, len(ids), _BLOCK_LINES):
        hi = lo + _BLOCK_LINES
        buf.seek(0)
        buf.truncate()
        for row in zip(ids[lo:hi], t[lo:hi].tolist(), df[lo:hi].tolist(), z[lo:hi].tolist()):
            (quoting if row[0].lstrip().startswith("#") else writer).writerow(row)
        yield buf.getvalue()


def cmd_tstats(args) -> int:
    """Each matrix row's two-sample t, degrees of freedom and z-value
    Phi^-1(F_df(t)).  Column 1 is the id; blank, NA and nan cells are missing."""
    group_a = [name.strip() for name in args.group_a.split(",") if name.strip()]
    group_b = [name.strip() for name in args.group_b.split(",") if name.strip()]
    if not group_a or not group_b:
        raise CLIError("both --group-a and --group-b need at least one column")
    lines = _data_lines(args.input)
    first = next(lines, None)
    if first is None:
        raise CLIError(f"{args.input}: need a header row and at least one data row")
    header = [cell.strip() for cell in _split_row(first[1], first[0])]
    names = group_a + group_b
    # a column read twice would give a wrong t without any other sign
    cols = []
    for name in names:
        if names.count(name) > 1:
            raise CLIError(f"column {name!r} is named twice in --group-a and --group-b")
        cols.append(_column(header, first[0], name))
        if cols[-1] is None:
            raise CLIError(f"line {first[0]}: column {name!r} not found in {args.input}")

    linenos, ids, blocks = [], [], []
    for block_linenos, rows in _csv_blocks(lines, len(header)):
        # cells row by row, so the first bad cell parsed is the first in the file
        cells = [row[col] for row in rows for col in cols]
        keep = [i for i, cell in enumerate(cells) if cell.strip().upper() not in ("", "NA", "NAN")]
        values = np.full(len(cells), np.nan)
        values[keep] = _parse_column([cells[i] for i in keep],
                                     [block_linenos[i // len(cols)] for i in keep], "value")
        blocks.append(values.reshape(len(rows), len(cols)))
        linenos += block_linenos
        ids += [row[0].strip() for row in rows]
    if not ids:
        raise CLIError(f"{args.input}: need a header row and at least one data row")

    x = np.concatenate(blocks)
    na, ma, va = _row_moments(x[:, : len(group_a)])
    nb, mb, vb = _row_moments(x[:, len(group_a) :])
    with np.errstate(divide="ignore", invalid="ignore"):
        if args.pooled:
            df = (na + nb - 2).astype(float)
            denom = np.sqrt(((na - 1) * va + (nb - 1) * vb) / df * (1.0 / na + 1.0 / nb))
        else:
            vna, vnb = va / na, vb / nb
            denom = np.sqrt(vna + vnb)
            df = (vna + vnb) ** 2 / (vna**2 / (na - 1) + vnb**2 / (nb - 1))
        t = (ma - mb) / denom
    # from the lower tail on both sides, so neither is lost to 1 - F rounding
    z = np.copysign(special.ndtri(special.stdtr(df, -np.abs(t))), t)
    # too few values and zero variance leave t, and so z, non-finite as well
    for i in np.flatnonzero(~np.isfinite(z))[:1].tolist():
        reason = ("needs at least 2 values per group" if min(na[i], nb[i]) < 2
                  else "has zero variance" if denom[i] == 0.0
                  else f"has no finite z-value (t = {t[i]:.6g} on {df[i]:.6g} df)")
        raise CLIError(f"line {linenos[i]}: row {ids[i]!r} {reason}")

    config = _config(args, "input", "group_a", "group_b", "pooled",
                     group_a=group_a, group_b=group_b)
    _write_output(chain(["# config: " + json.dumps(config, default=_json_default) + "\n"],
                        _tstats_rows(ids, t, df, z)),
                  args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(json.dumps({"error": message}) + "\n")
        raise SystemExit(2)


def _add_fit_flags(sub):
    sub.add_argument("--xi-quantile", type=float, default=0.85,
                     help="sample quantile for the truncation cut")
    # the grid size is no flag; the config blocks report the library's
    sub.set_defaults(k=_GRID_K)


def _add_method_flags(sub):
    sub.add_argument("--q", type=float, default=0.1, help="target FDR level")
    sub.add_argument("--method", action="append",
                     choices=METHOD_NAMES,
                     help="procedure to run (repeatable; default all four "
                          "adaptive methods)")
    sub.add_argument("--tau", type=float, default=0.5,
                     help="conditioning / discarding threshold")
    sub.add_argument("--lambda-storey", type=float, default=0.5,
                     help="Storey lambda for pi0 estimation")
    sub.add_argument("--lambda-discard", type=float, default=0.25,
                     help="lower lambda for the discarding pi0 estimate")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ebnull",
                     description="Empirical-Bayes null estimation and "
                                 "multiple testing for one-sided z-statistics")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fit-null", help="estimate the null model")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_fit_null)

    p = sub.add_parser("test", help="run testing procedures on statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    _add_method_flags(p)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("simulate", help="run the synthetic benchmarks")
    p.add_argument("--output")
    _add_method_flags(p)
    _add_fit_flags(p)
    p.add_argument("--n-reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho-grid", help="comma-separated two-point weights")
    p.add_argument("--sigma0-grid", help="comma-separated one-sided prior spreads")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("histogram", help="p-value histograms, standard vs fitted")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--lambda-storey", type=float, default=0.5)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("tstats", help="t-statistics and z-values from a two-group matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--group-a", required=True,
                   help="comma-separated column names of the first group")
    p.add_argument("--group-b", required=True,
                   help="comma-separated column names of the second group")
    p.add_argument("--pooled", action="store_true",
                   help="pooled-variance t instead of Welch")
    p.set_defaults(func=cmd_tstats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
