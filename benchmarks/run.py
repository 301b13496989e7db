"""Benchmark of the ebnull pipeline, end to end and layer by layer.

    python3 benchmarks/run.py --workload sim-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program is imported from
./src and every file it writes goes under ./.bench_out.  Workloads run one
at a time in this process (the CLI workload in child processes), with one
BLAS thread.  With --trace 0 it measures the end-to-end metrics; with
--trace 1 it replays the pipeline call by call and reports per-layer
figures.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
benchmarks/README.md explains the workloads and what each metric moves.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, set before numpy loads; child processes inherit it.
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_out")

# the defaults shared by run_scenario and `ebnull test`
Q = 0.1
TAU = 0.5
LAMBDA_STOREY = 0.5
LAMBDA_DISCARD = 0.25
XI_QUANTILE = 0.85
MIXTURE_K = 50

SIM_M = 5000
SIM_WORKLOADS = {
    # workload: (methods, replications per scenario in one pass).  A pass
    # repeats the same replications, so the work is fixed by the seed; it
    # must hold enough replications that its cost varies little from one
    # seed to the next (one sim-grid replication's cost has a CV near 0.45).
    "sim-grid": (("stbh", "c-stbh", "d-stbh", "proposed"), 64),
    "sim-baselines": (("bh", "stbh", "c-stbh", "d-stbh"), 1000),
}
CLI_WORKLOAD = "cli-test-large"
CLI_M = 200_000
CLI_STRONG = 1_000  # rows drawn around z = 12, so well above 9
CLI_METHODS = ("stbh", "c-stbh", "d-stbh", "proposed")
WORKLOADS = (*SIM_WORKLOADS, CLI_WORKLOAD)
# set-ups timed before and after the measurement: the host's speed drifts
# over seconds, and samples from both ends keep the median off one spell
SETUP_REPEATS = (2, 3)

PROCEDURE_SPANS = ("bh", "stbh", "c_stbh", "d_stbh", "compute_metrics")
TIMED_CALLS = (
    "simulate.generate",
    "nullmodel.select_null",
    "nullmodel.fit_mixture",
    "nullmodel.fit_skew_normal",
    "nullmodel.fit_gaussian",
    "pvalues.standard",
    "pvalues.eb",
    *(f"procedures.{name}" for name in PROCEDURE_SPANS),
)
CLI_STAGES = ("ingest", "select_null", "pvalues", "procedures")


class ProgramMissing(Exception):
    """The checkout holds no importable ebnull under src/."""


def load_program():
    """Import ebnull from this checkout, never from an installed copy."""
    package = os.path.join(SRC, "ebnull")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise ProgramMissing(f"no ebnull package under {SRC}")
    sys.path.insert(0, SRC)
    import ebnull
    import ebnull.cli

    if os.path.dirname(os.path.abspath(ebnull.__file__)) != package:
        raise ProgramMissing(f"imported ebnull from {ebnull.__file__}, not {package}")
    return ebnull


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ---------------------------------------------------------------------------
# inputs


def sim_scenarios(eb, workload: str, seed: int):
    """Centred two-point, off-centre two-point and one-sided Gaussian priors."""
    n_reps = SIM_WORKLOADS[workload][1]
    priors = (eb.TwoPointPrior(0.0), eb.TwoPointPrior(0.6), eb.HalfNormalPrior(1.4))
    return [
        eb.SimScenario(null_prior=prior, m=SIM_M, pi0=0.9, q=Q, alt_mean=3.0,
                       n_reps=n_reps, base_seed=seed)
        for prior in priors
    ]


def cli_input(eb, seed: int, path: str):
    """Write the `ebnull test` input and return its truth labels.

    A one-sided Gaussian prior scenario, followed by a small block of
    strong signals (z near 12) whose fitted-null p-values can underflow
    to 0 where the standard ones do not.
    """
    bulk = eb.generate(eb.SimScenario(eb.HalfNormalPrior(1.0), m=CLI_M - CLI_STRONG,
                                      pi0=0.9, alt_mean=3.0, base_seed=seed), 0)
    strong = eb.generate(eb.SimScenario(eb.HalfNormalPrior(1.0), m=CLI_STRONG,
                                        pi0=0.001, alt_mean=12.0, base_seed=seed), 1)
    values = np.concatenate((bulk.values, strong.values))
    rows = [f"s{i:06d},{v!r}" for i, v in enumerate(values.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,statistic\n" + "\n".join(rows) + "\n")
    return np.concatenate((bulk.is_alt, strong.is_alt))


def setup(eb, workload: str, seed: int):
    if workload == CLI_WORKLOAD:
        path = os.path.join(WORK_DIR, "cli-input.csv")
        return path, cli_input(eb, seed, path)
    return sim_scenarios(eb, workload, seed)


def run_child(argv: list[str]) -> tuple[float, int, float]:
    """Run one child process to completion: (wall s, exit code, peak RSS MB).

    The child is reaped with wait4, which gives its own resource usage.
    """
    err_path = os.path.join(WORK_DIR, "child-stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            print(f"child {argv[1:]} exited {proc.returncode}: {fh.read()[-500:]}")
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time of fresh processes that import the program and build inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(repeats):
        wall, code, _ = run_child(argv)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}")
        times.append(wall)
    return times


# ---------------------------------------------------------------------------
# tracing and the replayed pipeline


class Tracer:
    """Spans around calls into the program, kept in memory.

    Each span is (name, op, start, end); spans of one operation (a
    replication or a CLI cycle) share ``op``.  The calls wrapped here call
    nothing else that is wrapped, so a span's duration is its self time.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []

    def call(self, name, op, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((name, op, start, time.perf_counter()))
        return out

    def durations(self, name, ops=None) -> list[float]:
        return [end - start for n, op, start, end in self.spans
                if n == name and (ops is None or op in ops)]

    def write(self, path: str):
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, start, end in self.spans:
                fh.write(json.dumps({"name": name, "op": op,
                                     "start_ms": (start - t0) * 1e3,
                                     "dur_ms": (end - start) * 1e3}) + "\n")


def run_methods(eb, tr: Tracer, op: int, sample, methods):
    """The method dispatch of run_scenario and `ebnull test`, call by call."""
    p_std = tr.call("pvalues.standard", op, eb.standard_pvalues, sample)
    model = p_eb = None
    results = {}
    for method in methods:
        if method == "bh":
            results[method] = tr.call("procedures.bh", op, eb.bh, p_std, Q)
        elif method == "stbh":
            results[method] = tr.call("procedures.stbh", op, eb.storey_bh, p_std, Q,
                                      lam=LAMBDA_STOREY)
        elif method == "c-stbh":
            results[method] = tr.call("procedures.c_stbh", op, eb.c_storey_bh, p_std, Q,
                                      tau=TAU, lam=LAMBDA_STOREY)
        elif method == "d-stbh":
            results[method] = tr.call("procedures.d_stbh", op, eb.d_storey_bh, p_std, Q,
                                      lam=LAMBDA_DISCARD, tau=TAU)
        elif method == "proposed":
            model = tr.call("nullmodel.select_null", op, eb.select_null, sample,
                            eb.TruncationRule(quantile_level=XI_QUANTILE), k=MIXTURE_K)
            p_eb = tr.call("pvalues.eb", op, eb.eb_pvalues, sample, model)
            results[method] = tr.call("procedures.stbh", op, eb.storey_bh, p_eb, Q,
                                      lam=LAMBDA_STOREY)
        else:
            raise ValueError(f"unknown method {method!r}")
    return p_std, model, p_eb, results


class Counters:
    """Work counters read from the values the public calls return."""

    def __init__(self):
        self.mixture_iterations: list[int] = []
        self.mixture_converged: list[bool] = []
        self.kkt_gaps: list[float] = []
        self.skew_at_boundary: list[bool] = []
        self.fit_errors = 0
        self.family = {"gaussian": 0, "skew_normal": 0, "mixture": 0}
        self.near_ties = 0
        self.eb_zero = 0

    def add_model(self, model, p_std, p_eb):
        logliks = model.family_logliks
        self.fit_errors += sum(v is None for v in logliks.values())
        self.family[model.family] += 1
        mix, gauss = logliks.get("mixture"), logliks.get("gaussian")
        if mix is not None and gauss is not None:
            self.near_ties += abs(mix - gauss) <= 1e-9 * max(1.0, abs(gauss))
        self.eb_zero += int(((p_eb.values == 0.0) & (p_std.values > 0.0)).sum())

    def add_fits(self, gauss, skew, mix):
        self.mixture_iterations.append(mix.iterations)
        self.mixture_converged.append(bool(mix.converged))
        self.kkt_gaps.append(mix.kkt_gap)
        self.skew_at_boundary.append(bool(skew.at_boundary))


def probe_fits(eb, tr: Tracer, op: int, sample, model):
    """Each family fit on its own, at the cut select_null used.

    select_null runs the three fits inside one call; calling them again
    here times each and exposes the counters of the families it did not
    select.  These calls lie outside the replayed operation's time.
    """
    xi = model.cut_xi
    gauss = tr.call("nullmodel.fit_gaussian", op, eb.fit_gaussian, sample, xi)
    skew = tr.call("nullmodel.fit_skew_normal", op, eb.fit_skew_normal, sample, xi)
    mix = tr.call("nullmodel.fit_mixture", op, eb.fit_mixture, sample, xi, k=MIXTURE_K)
    return gauss, skew, mix


def fit_mismatches(model, fits) -> list[str]:
    """The separate fits must reproduce select_null's per-family logliks."""
    out = []
    for name, fit in zip(("gaussian", "skew_normal", "mixture"), fits):
        if model.family_logliks.get(name) != float(fit.loglik):
            out.append(f"{name} loglik {fit.loglik!r} != {model.family_logliks.get(name)!r}")
    return out


def rejection_mismatches(results, p_std, p_eb) -> list[str]:
    """Every rejection set against the brute-force scan: the baselines on the
    standard p-values, and ``proposed`` (Storey-BH) on the fitted-null ones."""
    expected = oracles.brute_force_rejections(p_std.values, Q, TAU, LAMBDA_STOREY,
                                              LAMBDA_DISCARD)
    if p_eb is not None:
        expected["proposed"] = oracles.brute_force_rejections(
            p_eb.values, Q, TAU, LAMBDA_STOREY, LAMBDA_DISCARD)["stbh"]
    out = []
    for method, result in results.items():
        if method in expected and not np.array_equal(result.rejected, expected[method]):
            out.append(f"{method}: {result.n_rejected} rejected, brute force "
                       f"{expected[method].size}")
    return out


# ---------------------------------------------------------------------------
# report helpers


def quantile(values, level: int) -> float:
    """Inclusive percentile ``level`` of ``values``; 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[level - 1])


def frac(flags) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def environment(args, sizes: dict) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": sizes,
    }


class Run:
    """What one benchmark run reports: checks, metrics and notes.

    An operation (a replication or a CLI invocation) counts as failed once
    however many of its checks fail; a scenario-level check counts once.
    """

    MAX_FAILURE_LINES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []

    def metric(self, name: str, value, unit: str, note: str = ""):
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.lines.append(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))

    def fail(self, what: str, count: int = 1):
        self.failed += count
        if self.failed - count < self.MAX_FAILURE_LINES:
            self.lines.append(f"FAILED ({count}): {what}")

    def note(self, text: str):
        self.lines.append(text)


# ---------------------------------------------------------------------------
# simulation workloads


def measure_sim(eb, run: Run, scenarios, methods, seconds: float, fdr_gate: bool):
    """Untraced: whole run_scenario passes over the scenarios until time is up."""
    reps_per_pass = sum(s.n_reps for s in scenarios)
    rates, reference = [], None
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        summaries = [eb.run_scenario(s, methods=methods) for s in scenarios]
        rates.append(reps_per_pass / (time.perf_counter() - t0))
        run.attempted += reps_per_pass
        dropped = sum(s.n_failures for s in summaries)
        if dropped:
            run.fail(f"pass {len(rates)}: {dropped} replications dropped", dropped)
        if reference is None:
            reference = summaries
        elif summaries != reference:
            run.fail(f"pass {len(rates)}: summaries differ from pass 1")

    if fdr_gate:
        for s in reference:
            for method, stats in s.methods.items():
                if not stats.fdr <= Q + 3.0 * stats.fdr_se:
                    run.fail(f"FDR gate {s.null_prior}: {method} fdr={stats.fdr!r} "
                             f"> q + 3 se = {Q + 3.0 * stats.fdr_se!r}")

    tprs = {m: statistics.fmean(s.methods[m].tpr for s in reference) for m in methods}
    run.metric("ops_per_s", statistics.median(rates), "1/s",
               f"replications at m={SIM_M}, median of {len(rates)} passes of "
               f"{reps_per_pass}: {[round(r, 3) for r in rates]}")
    run.metric("tpr_mean", statistics.fmean(tprs.values()), "ratio",
               f"over {len(methods)} methods x {len(scenarios)} scenarios")
    run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "MB", "this process, which runs the pipeline")
    for method, tpr in tprs.items():
        run.note(f"tpr[{method}] = {tpr!r}")
    if "proposed" in tprs:
        run.note(f"tpr_proposed = {tprs['proposed']!r}")


def replay_scenario(eb, tr: Tracer, counters, run: Run, scenario, methods, summary,
                    next_op: int) -> tuple[int, float]:
    """Replay run_scenario on one scenario through the public calls.

    Returns the next free op id and the replay's own time, which excludes
    the separate family fits and the oracles.  ``counters`` is None after
    the first pass, whose work every later pass repeats exactly.
    """
    rows = {m: ([], []) for m in methods}
    failures = 0
    replay_s = 0.0
    for rep in range(scenario.n_reps):
        op = next_op
        next_op += 1
        run.attempted += 1
        t0 = time.perf_counter()
        sample = tr.call("simulate.generate", op, eb.generate, scenario, rep)
        try:
            p_std, model, p_eb, results = run_methods(eb, tr, op, sample, methods)
        except Exception as exc:  # run_scenario drops such a replication too
            failures += 1
            replay_s += time.perf_counter() - t0
            run.fail(f"{scenario.null_prior} rep {rep} raised {exc!r}")
            continue
        for method, result in results.items():
            metrics = tr.call("procedures.compute_metrics", op, eb.compute_metrics,
                              result, sample.is_alt)
            rows[method][0].append(metrics.fdp)
            rows[method][1].append(metrics.tpp)
        replay_s += time.perf_counter() - t0

        problems = rejection_mismatches(results, p_std, p_eb)
        if model is not None:
            fits = probe_fits(eb, tr, op, sample, model)
            problems += fit_mismatches(model, fits)
            if counters is not None:
                counters.add_model(model, p_std, p_eb)
                counters.add_fits(*fits)
        if problems:
            run.fail(f"{scenario.null_prior} rep {rep}: {'; '.join(problems)}")

    if failures != summary.n_failures:
        run.fail(f"{scenario.null_prior}: replay dropped {failures}, "
                 f"run_scenario {summary.n_failures}")
    for method in methods:
        fdps, tpps = (np.asarray(v) for v in rows[method])
        got = (float(fdps.mean()), float(tpps.mean())) if fdps.size else None
        want = summary.methods[method]
        if got != (want.fdr, want.tpr):
            run.fail(f"{scenario.null_prior} {method}: replay fdr/tpr {got} != "
                     f"run_scenario {(want.fdr, want.tpr)}")
    return next_op, replay_s


def trace_sim(eb, run: Run, tr: Tracer, counters: Counters, scenarios, methods,
              seconds: float) -> float:
    """Traced: each scenario runs through run_scenario, then is replayed
    call by call; passes repeat until time is up.

    Returns the replay's time against run_scenario's, minus one.
    """
    untraced_s = replay_s = 0.0
    next_op = 0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for scenario in scenarios:
            t0 = time.perf_counter()
            summary = eb.run_scenario(scenario, methods=methods)
            untraced_s += time.perf_counter() - t0
            next_op, spent = replay_scenario(eb, tr, counters if passes == 0 else None,
                                             run, scenario, methods, summary, next_op)
            replay_s += spent
        passes += 1
    run.note(f"traced passes: {passes}; replay {replay_s:.3f} s against "
             f"run_scenario {untraced_s:.3f} s")
    return replay_s / untraced_s - 1.0


# ---------------------------------------------------------------------------
# CLI workload


def cli_argv(input_path: str, output_path: str) -> list[str]:
    return [sys.executable, "-m", "ebnull.cli", "test", "--input", input_path,
            "--output", output_path]


def library_result(eb, tr: Tracer, op: int, path: str):
    """The stages of `ebnull test`, called one by one on its input file."""
    sample = tr.call("cli.ingest", op, eb.cli.ingest_statistics, path)
    return (sample, *run_methods(eb, tr, op, sample, CLI_METHODS))


def check_cli_report(report_path: str, results, labels):
    """Compare a report with the library's rejections.

    Returns the TPR of each method's reported rejections and the list of
    disagreements.
    """
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    records = report["records"]
    tprs, problems = {}, []
    for method, result in results.items():
        n_reported = report["methods"][method]["n_rejected"]
        if n_reported != result.n_rejected:
            problems.append(f"{method}: report n_rejected {n_reported} != library "
                            f"{result.n_rejected}")
        mask = np.fromiter((r["rejected"][method] for r in records), dtype=bool,
                           count=len(records))
        if not np.array_equal(mask, result.mask()):
            problems.append(f"{method}: report rejection flags differ from the library's")
        tprs[method] = float((mask & labels).sum() / max(int(labels.sum()), 1))
    return tprs, problems


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def measure_cli(eb, run: Run, path: str, labels, seconds: float):
    """Untraced: `ebnull test` child processes until time is up."""
    results = library_result(eb, Tracer(), 0, path)[-1]
    out = os.path.join(WORK_DIR, "cli-report.json")
    walls, rss, digest, tprs = [], [], None, None
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        wall, code, peak = run_child(cli_argv(path, out))
        run.attempted += 1
        walls.append(wall)
        rss.append(peak)
        if code != 0:
            run.fail(f"invocation {len(walls)} exited {code}")
            continue
        if digest is None:
            digest = file_digest(out)
            tprs, problems = check_cli_report(out, results, labels)
            if problems:
                run.fail(f"invocation 1: {'; '.join(problems)}")
        elif file_digest(out) != digest:
            run.fail(f"invocation {len(walls)}: report differs from the first")
    if tprs is None:
        raise RuntimeError("no `ebnull test` invocation succeeded")
    run.metric("ops_per_s", 1.0 / statistics.median(walls), "1/s",
               f"`ebnull test` processes at m={CLI_M}")
    run.metric("tpr_mean", statistics.fmean(tprs.values()), "ratio",
               f"over {len(tprs)} methods, from the report's rejection flags")
    run.metric("peak_rss_mb", statistics.median(rss), "MB",
               "the `ebnull test` child, median over invocations")
    run.note(f"cli_test_s = {statistics.median(walls)!r} s (median of {len(walls)} "
             f"invocations: {walls})")
    for method, tpr in tprs.items():
        run.note(f"tpr[{method}] = {tpr!r}")
    run.note(f"tpr_proposed = {tprs['proposed']!r}")
    run.note(f"report size = {os.path.getsize(out) / 1e6!r} MB")


def trace_cli(eb, run: Run, tr: Tracer, counters: Counters, path: str, labels,
              seconds: float) -> float:
    """Traced: each cycle replays the stages of `ebnull test` call by call,
    then runs ``cli.main`` in this process; one child process gives the
    untraced time and the reference output.
    """
    child_out = os.path.join(WORK_DIR, "cli-report-child.json")
    out = os.path.join(WORK_DIR, "cli-report.json")
    child_s, code, _ = run_child(cli_argv(path, child_out))
    run.attempted += 1
    if code != 0:
        run.fail(f"child invocation exited {code}")
    reference = file_digest(child_out) if code == 0 else None

    stage = {name: [] for name in (*CLI_STAGES, "report", "main")}
    op = 0
    start = time.perf_counter()
    while op == 0 or time.perf_counter() - start < seconds:
        run.attempted += 1
        sample, p_std, model, p_eb, results = library_result(eb, tr, op, path)
        stage["ingest"] += tr.durations("cli.ingest", {op})
        stage["select_null"] += tr.durations("nullmodel.select_null", {op})
        stage["pvalues"].append(sum(tr.durations("pvalues.standard", {op}))
                                + sum(tr.durations("pvalues.eb", {op})))
        stage["procedures"].append(sum(
            sum(tr.durations(f"procedures.{name}", {op})) for name in PROCEDURE_SPANS))

        t0 = time.perf_counter()
        code = eb.cli.main(["test", "--input", path, "--output", out])
        main_s = time.perf_counter() - t0
        stage["main"].append(main_s)
        stage["report"].append(main_s - sum(stage[name][-1] for name in CLI_STAGES))
        if code != 0:
            raise RuntimeError(f"cycle {op}: cli.main returned {code}")

        problems = []
        if reference is not None and file_digest(out) != reference:
            problems.append("in-process report differs from the child's")
        if op == 0:
            tprs, mismatches = check_cli_report(out, results, labels)
            fits = probe_fits(eb, tr, op, sample, model)
            problems += (mismatches + rejection_mismatches(results, p_std, p_eb)
                         + fit_mismatches(model, fits))
            counters.add_model(model, p_std, p_eb)
            counters.add_fits(*fits)
            output_mb = os.path.getsize(out) / 1e6
        if problems:
            run.fail(f"cycle {op}: {'; '.join(problems)}")
        op += 1

    for name in (*CLI_STAGES, "report"):
        derived = "; derived: cli.main total minus the four stages" if name == "report" else ""
        run.metric(f"cli.{name}_s", statistics.median(stage[name]), "s",
                   f"median of {op} cycles{derived}")
    run.metric("cli.output_mb", output_mb, "MB")
    run.note(f"cli.main in-process {stage['main']} s; child process {child_s!r} s")
    run.note(f"tpr_proposed = {tprs['proposed']!r}")
    return statistics.median(stage["main"]) / child_s - 1.0


# ---------------------------------------------------------------------------
# per-layer report


def report_layers(run: Run, tr: Tracer, counters: Counters, overhead: float):
    for name in TIMED_CALLS:
        durs = [d * 1e3 for d in tr.durations(name)]
        for level in (50, 90):
            run.metric(f"{name}_ms.p{level}", quantile(durs, level), "ms",
                       f"n={len(durs)}")
    its = counters.mixture_iterations
    run.metric("nullmodel.mixture_iterations.p50", quantile(its, 50), "count", f"n={len(its)}")
    run.metric("nullmodel.mixture_iterations.p90", quantile(its, 90), "count", f"n={len(its)}")
    run.metric("nullmodel.mixture_converged_frac", frac(counters.mixture_converged), "ratio")
    run.metric("nullmodel.kkt_gap.p50", quantile(counters.kkt_gaps, 50), "nats")
    run.metric("nullmodel.kkt_gap.p90", quantile(counters.kkt_gaps, 90), "nats")
    run.metric("nullmodel.skew_at_boundary_frac", frac(counters.skew_at_boundary), "ratio")
    run.metric("nullmodel.fit_errors", counters.fit_errors, "count")
    for family, count in counters.family.items():
        run.metric(f"nullmodel.family.{family}", count, "count")
    run.metric("nullmodel.near_ties", counters.near_ties, "count")
    run.metric("pvalues.eb_zero_count", counters.eb_zero, "count")
    for name in (*CLI_STAGES, "report"):
        run.metrics.setdefault(f"cli.{name}_s", {"value": 0.0, "unit": "s"})
    run.metrics.setdefault("cli.output_mb", {"value": 0.0, "unit": "MB"})
    run.metric("trace_overhead_frac", overhead, "ratio")


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program, build the inputs and exit "
                             "(the run times this in fresh processes)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        eb = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    if args.setup_only:
        setup(eb, args.workload, args.seed)
        return 0

    run = Run()
    if not args.trace:
        setup_times = measure_setup(args.workload, args.seed, SETUP_REPEATS[0])
    inputs = setup(eb, args.workload, args.seed)
    if args.workload == CLI_WORKLOAD:
        sizes = {"m": CLI_M, "strong_rows": CLI_STRONG, "methods": list(CLI_METHODS)}
    else:
        methods = SIM_WORKLOADS[args.workload][0]
        sizes = {"m": SIM_M, "reps_per_scenario": inputs[0].n_reps,
                 "scenarios": [str(s.null_prior) for s in inputs],
                 "methods": list(methods)}
    run.note("env " + json.dumps(environment(args, sizes)))

    if not args.trace:
        if args.workload == CLI_WORKLOAD:
            measure_cli(eb, run, *inputs, args.seconds)
        else:
            measure_sim(eb, run, inputs, methods, args.seconds,
                        fdr_gate=args.workload == "sim-grid")
        setup_times += measure_setup(args.workload, args.seed, SETUP_REPEATS[1])
        run.metric("setup_s", statistics.median(setup_times), "s",
                   f"median of {len(setup_times)} fresh processes: {setup_times}")
    else:
        tr, counters = Tracer(), Counters()
        if args.workload == CLI_WORKLOAD:
            overhead = trace_cli(eb, run, tr, counters, *inputs, args.seconds)
        else:
            overhead = trace_sim(eb, run, tr, counters, inputs, methods, args.seconds)
        report_layers(run, tr, counters, overhead)
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tr.write(spans_path)
        run.note(f"spans written to {os.path.relpath(spans_path, ROOT)}")

    run.note(f"ops_failed_frac = {run.failed / max(run.attempted, 1)!r} "
             f"({run.failed} of {run.attempted})")
    print("\n".join(run.lines))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": run.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
