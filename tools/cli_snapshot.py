"""Snapshot the ``ebnull`` command line on fixed inputs, for byte comparison.

    PYTHONPATH=<tree>/src OPENBLAS_NUM_THREADS=1 python tools/cli_snapshot.py out_<tree>

Writes its inputs from fixed seeds into OUTDIR, runs a fixed list of
``ebnull`` invocations there (the ``ebnull`` on PYTHONPATH, in child
processes with one BLAS thread) and saves, for each run NAME,
``NAME.out``, ``NAME.err`` and ``NAME.code``: stdout, stderr and the exit
code.  Paths in the invocations are relative to OUTDIR, so the reports'
configs hold the same text whichever directory the snapshot lands in.
Two trees are byte-identical on the command line when

    diff -r out_parent out_change

prints nothing.  ``commands.txt`` lists each run's arguments.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

# ids that JSON must escape, and cells CSV must quote
AWKWARD_IDS = ['say "hi"', "back\\slash", "é☃", "bell\x07", "", "100%s", "a,b", "tab\tid"]

ALL_METHODS = ("bh", "stbh", "c-stbh", "d-stbh", "proposed")


def _csv_cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if ('"' in text or "," in text) else text


def write_inputs(outdir: str):
    """Statistics as a 2e4-row CSV, as a plain file, as the CSV's first
    850 rows (also behind a UTF-8 byte-order mark) and as the CSV plus one
    row at -100, a 3000-row two-group matrix with blank and NA cells, and
    the inputs of the failing runs, among them the matrix's first rows
    under a header that names a group column twice."""
    rng = np.random.default_rng(20240)
    z = np.concatenate([-np.abs(rng.normal(0.0, 1.5, 18000)) + rng.standard_normal(18000),
                        rng.normal(3.0, 1.0, 2000)])
    z = z[rng.permutation(z.size)]
    ids = [f"g{i}" for i in range(z.size)]
    ids[: len(AWKWARD_IDS)] = AWKWARD_IDS
    rows = [f"{_csv_cell(i)},{v!r}" for i, v in zip(ids, z.tolist())]
    files = {
        "stats.csv": "id,statistic\n" + "\n".join(rows) + "\n",
        "stats.txt": "\n".join(map(repr, z.tolist())) + "\n",
        # rows whose c-stbh threshold at tau = 0.7 is not (p / tau) * tau
        "stats-head.csv": "id,statistic\n" + "\n".join(rows[:850]) + "\n",
        # as a spreadsheet's "CSV UTF-8" export writes it
        "stats-head-bom.csv": "\ufeffid,statistic\n" + "\n".join(rows[:850]) + "\n",
        # one statistic far below the rest, which stretches the mixture grid
        "stats-far.csv": "id,statistic\n" + "\n".join(rows) + "\nfar,-100.0\n",
        # the same column named twice: the second cell holds other numbers
        "dup.csv": "id,statistic,statistic\n" + "".join(
            f"g{i},{v!r},{-v!r}\n" for i, v in enumerate(z[:200].tolist())),
        "dup-id.csv": "id,statistic,id\n" + "".join(
            f"g{i},{v!r},h{i}\n" for i, v in enumerate(z[:200].tolist())),
        "bad.csv": "id,statistic\n# comment\ng1,0.5\ng2,oops\n",
        # a quoted id longer than csv's field-size limit of 131072
        "huge-cell.csv": 'id,statistic\n"' + "x" * 140_000 + '",0.5\n',
    }

    rng = np.random.default_rng(20241)
    x = rng.standard_normal((3000, 8))
    x[:300, 4:] += 2.0
    # at most one missing cell per group in a row, so every row keeps a t
    cells = [[repr(v) for v in row] for row in x.tolist()]
    for r in np.flatnonzero(rng.random(3000) < 0.05).tolist():
        cells[r][0] = ""
    for r in np.flatnonzero(rng.random(3000) < 0.05).tolist():
        cells[r][5] = "NA"
    names = ["a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"]
    files["matrix.csv"] = ("id," + ",".join(names) + "\n"
                           + "".join(f"r{i}," + ",".join(row) + "\n"
                                     for i, row in enumerate(cells)))
    files["matrix-dup.csv"] = ("id," + ",".join(["a1", *names[1:3], "a1", *names[4:]]) + "\n"
                               + "".join(f"r{i}," + ",".join(row) + "\n"
                                         for i, row in enumerate(cells[:50])))
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def runs():
    """(name, arguments) of every invocation, passing ones first."""
    every = [arg for method in ALL_METHODS for arg in ("--method", method)]
    groups = ["--group-a", "a1,a2,a3,a4", "--group-b", "b1,b2,b3,b4"]
    return [
        ("fit-null", ["fit-null", "--input", "stats.csv"]),
        ("fit-null-plain", ["fit-null", "--input", "stats.txt"]),
        ("test-default", ["test", "--input", "stats.csv"]),
        ("test-all", ["test", "--input", "stats.csv", *every]),
        # tau not a power of two: the threshold is the largest rejected p-value
        ("test-c-stbh-tau", ["test", "--input", "stats-head.csv", "--method", "c-stbh",
                             "--tau", "0.7"]),
        ("test-bom", ["test", "--input", "stats-head-bom.csv"]),
        # d-stbh's pi0 overflows to inf, which the report writes as null
        ("test-d-stbh-tiny-tau", ["test", "--input", "stats-head.csv", "--method", "d-stbh",
                                  "--tau", "1e-320", "--lambda-discard", "0"]),
        ("fit-null-far", ["fit-null", "--input", "stats-far.csv"]),
        ("test-far", ["test", "--input", "stats-far.csv"]),
        ("histogram", ["histogram", "--input", "stats.txt"]),
        ("simulate", ["simulate", "--n-reps", "20", "--seed", "3", *every]),
        ("tstats-welch", ["tstats", "--input", "matrix.csv", *groups]),
        ("tstats-pooled", ["tstats", "--input", "matrix.csv", *groups, "--pooled"]),
        ("err-bad-q", ["test", "--input", "stats.csv", "--q", "1.5"]),
        ("err-bad-tau", ["test", "--input", "stats.csv", "--method", "c-stbh", "--tau", "2"]),
        ("err-lambda-discard", ["test", "--input", "stats.csv", "--lambda-discard", "0.7"]),
        # a bad setting is reported before the input is found missing
        ("err-bad-q-missing-file", ["test", "--input", "missing.txt", "--q", "1.5"]),
        # the grid size is no flag: the parser refuses --k in every form
        ("err-k1", ["fit-null", "--input", "stats.csv", "--k", "1"]),
        ("err-k1-missing-file", ["fit-null", "--input", "missing.txt", "--k", "1"]),
        ("err-k-not-int", ["fit-null", "--input", "stats.csv", "--k", "lots"]),
        ("err-xi-quantile", ["fit-null", "--input", "stats.csv", "--xi-quantile", "2"]),
        ("err-missing-file", ["fit-null", "--input", "missing.txt"]),
        ("err-unwritable", ["test", "--input", "stats.csv", "--output", "no-dir/report.json"]),
        ("err-bad-cell", ["test", "--input", "bad.csv"]),
        ("err-dup-header", ["test", "--input", "dup.csv"]),
        ("err-dup-id", ["test", "--input", "dup-id.csv"]),
        ("err-huge-cell", ["test", "--input", "huge-cell.csv"]),
        ("err-bins-0", ["histogram", "--input", "stats.txt", "--bins", "0"]),
        ("err-bins-neg2", ["histogram", "--input", "stats.txt", "--bins", "-2"]),
        ("err-lambda-storey", ["histogram", "--input", "stats.txt", "--lambda-storey", "1.5"]),
        ("err-bad-grid", ["simulate", "--rho-grid", "x", "--n-reps", "1"]),
        ("err-simulate-tau", ["simulate", "--rho-grid", "0.8", "--n-reps", "1",
                              "--method", "c-stbh", "--tau", "2"]),
        ("err-simulate-q", ["simulate", "--rho-grid", "0.8", "--n-reps", "1", "--q", "1.5"]),
        ("err-tstats-column", ["tstats", "--input", "matrix.csv",
                               "--group-a", "a1,zz", "--group-b", "b1,b2"]),
        ("err-tstats-dup-header", ["tstats", "--input", "matrix-dup.csv",
                                   "--group-a", "a1,a2,a3", "--group-b", "b1,b2,b3,b4"]),
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    # the runs start in OUTDIR, where a relative PYTHONPATH would find no ebnull
    if "PYTHONPATH" in env:
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath,
                                                env["PYTHONPATH"].split(os.pathsep)))
    where = subprocess.run([sys.executable, "-c", "import ebnull; print(ebnull.__file__)"],
                           env=env, capture_output=True, text=True)
    print(f"ebnull: {where.stdout.strip() or where.stderr.strip()}")
    write_inputs(outdir)
    with open(os.path.join(outdir, "commands.txt"), "w", encoding="utf-8") as fh:
        for name, args in runs():
            fh.write(f"{name}: {' '.join(args)}\n")
    for name, args in runs():
        done = subprocess.run([sys.executable, "-m", "ebnull.cli", *args], cwd=outdir,
                              env=env, capture_output=True)
        for suffix, data in (("out", done.stdout), ("err", done.stderr),
                             ("code", f"{done.returncode}\n".encode())):
            with open(os.path.join(outdir, f"{name}.{suffix}"), "wb") as fh:
                fh.write(data)
        print(f"{name}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
