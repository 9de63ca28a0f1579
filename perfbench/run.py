"""Benchmark for `gaitview analyze` and `gaitview recommend`.

    python3 perfbench/run.py --workload paper18 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; it measures the gaitview under src/. It
generates the workload's inputs from the seed (gen.py), then runs the CLI
as fresh processes, one at a time: analyze, then recommend twice on its
output, again and again until --seconds have passed. Every report is checked. The
end-to-end metrics are medians over those processes.

With --trace 1 it instead times `import gaitview.cli`, runs analyze once
untraced and once in-process under the span tracer of spans.py, and
reports each layer's self time and work counts.

Each metric is printed as "<workload> <name> = <value> <unit>"; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status is 0 only if every check held.
See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from gen import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0  # every child is killed by then

# what the installed `gaitview` console script runs
LAUNCH = "import sys; from gaitview.cli import main; sys.exit(main())"
IMPORT_PROBE = "import time; t = time.perf_counter(); import gaitview.cli; print(time.perf_counter() - t)"
IMPORT_PROBES = 3
SETUP_REPEATS = 3
RECOMMENDS_PER_ANALYZE = 3  # recommend is short, so it gets more samples

# report schema (criterion 12) and sizes
RECORDS_HEADER = ["subject", "trial", "feature", "side", "view",
                  "dtw", "mcc", "mcc_lag", "kld", "ie_2d", "ie_3d"]
STATS_HEADER = ["metric", "frontal_mean", "frontal_sd", "lateral_mean", "lateral_sd",
                "p_value", "cliffs_delta", "effect_label", "winner"]
RECOMMEND_HEADER = ["feature", "side", "recommended_view", "rationale"]
SIGNALS = 7
RECORDS_PER_SUBJECT = SIGNALS * 2  # two camera views
STATS_FILES = 4
STATS_ROWS = SIGNALS * 4  # DTW, MCC, KLD, IE
PCA_GROUPS_PER_SUBJECT = 3  # frontal, lateral, mocap3d

LAYERS = ("cli", "ingest", "preprocess", "features", "signal_core", "metrics", "stats", "dimred")


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Bench:
    """One benchmark invocation: its work directory, deadline and failures."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    # --- processes --------------------------------------------------------

    def spawn(self, argv: list[str], tag: str) -> Child:
        """Run one child to completion; wall time from spawn to exit and the
        child's own peak RSS (wait4, not RUSAGE_CHILDREN)."""
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - start, 0.0), _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    _kill(proc.pid)
                    proc.wait()
        child = Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                      out_path.read_text(), err_path.read_text())
        if child.code != 0:
            print(f"{self.name}: {tag} exited {child.code}:\n{child.stderr[-2000:]}", file=sys.stderr)
        return child

    def gaitview(self, *args: str, tag: str) -> Child:
        return self.spawn([sys.executable, "-c", LAUNCH, *args], tag)

    def generate(self, out: Path, repeat: int, spans: Path | None = None) -> dict:
        argv = [sys.executable, str(BENCH / "gen.py"), "--workload", self.name,
                "--seed", str(self.seed), "--out", str(out), "--repeat", str(repeat)]
        if spans:
            argv += ["--spans", str(spans)]
        child = self.spawn(argv, "generate")
        if child.code != 0:
            raise BenchError("workload generation failed")
        return json.loads(child.stdout.splitlines()[-1])

    # --- operations, each counted in attempted / failed --------------------

    def analyze(self, manifest: Path, out: Path, tag: str, traced_spans: Path | None = None):
        """One analyze process; returns it if its exit and reports are good."""
        self.attempted += 1
        args = ["analyze", "--manifest", str(manifest), "--out", str(out), *self.wl.analyze_args]
        if traced_spans:
            child = self.spawn([sys.executable, str(BENCH / "spans.py"),
                                "--spans", str(traced_spans), "--", *args], tag)
        else:
            child = self.gaitview(*args, tag=tag)
        problems = ["nonzero exit"] if child.code != 0 else check_reports(out, self.wl)
        if not problems:
            self.digests.add(report_digest(out))
            return child
        self.fail(tag, problems)
        return None

    def recommend(self, analyzed: Path, tag: str):
        self.attempted += 1
        child = self.gaitview("recommend", "--analyzed", str(analyzed), tag=tag)
        problems = ["nonzero exit"] if child.code != 0 else check_recommendations(analyzed)
        if not problems:
            return child
        self.fail(tag, problems)
        return None

    def fail(self, tag: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"{self.name}: {tag} failed: {'; '.join(problems)}", file=sys.stderr)

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    # --- the two kinds of run ---------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Tracing off: set-up, then analyze and recommend processes for `seconds`."""
        data = self.work / "data"
        setup = self.generate(data, SETUP_REPEATS)
        manifest = data / "manifest.csv"
        analyze, recommend = [], []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            out = self.work / f"out{len(analyze)}"
            a = self.analyze(manifest, out, f"analyze{len(analyze)}")
            if a:
                analyze.append(a)
                for _ in range(RECOMMENDS_PER_ANALYZE):
                    r = self.recommend(out, f"recommend{len(recommend)}")
                    if r:
                        recommend.append(r)
            shutil.rmtree(out, ignore_errors=True)
            now = time.perf_counter()
            if now - start >= seconds or now - round_start > self.time_left() - 5.0:
                break
        if not analyze or not recommend:
            raise BenchError("no analyze or recommend run succeeded")
        analyze_s = statistics.median(c.wall_s for c in analyze)
        metrics = {
            "analyze_s": (analyze_s, "s"),
            "records_per_s": (self.wl.subjects * RECORDS_PER_SUBJECT / analyze_s, "records/s"),
            "recommend_s": (statistics.median(c.wall_s for c in recommend), "s"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c in analyze), "MB"),
            "setup_s": (statistics.median(setup["setup_s"]), "s"),
        }
        counts = {"analyze_s": len(analyze), "records_per_s": len(analyze),
                  "recommend_s": len(recommend), "peak_rss_mb": len(analyze),
                  "setup_s": len(setup["setup_s"])}
        for name, (value, unit) in metrics.items():
            print(f"{self.name} {name} = {value:.6g} {unit} (median of {counts[name]})")
        return metrics

    def measure_traced(self) -> dict:
        """Per-layer metrics from one traced set-up and one traced analyze."""
        data = self.work / "data"
        setup_spans = self.work / "setup_spans.json"
        injected = self.generate(data, 1, setup_spans)["injected"]
        manifest = data / "manifest.csv"

        probes = [self.spawn([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], f"import{i}")
                  for i in range(IMPORT_PROBES)]
        if any(p.code != 0 for p in probes):
            raise BenchError("import probe failed")
        import_s = statistics.median(float(p.stdout.split()[-1]) for p in probes)
        scipy_s = statistics.median(scipy_import_s(p.stderr) for p in probes)

        untraced = self.analyze(manifest, self.work / "out_untraced", "analyze_untraced")
        spans_path = self.work / "analyze_spans.json"
        traced = self.analyze(manifest, self.work / "out_traced", "analyze_traced", spans_path)
        if not untraced or not traced:
            raise BenchError("analyze failed")

        table = SpanTable(json.loads(spans_path.read_text()))
        metrics = {"startup.import_s": (import_s, "s"), "startup.scipy_import_s": (scipy_s, "s")}
        metrics.update(layer_metrics(table, input_rows(manifest), injected))
        metrics.update(setup_metrics(SpanTable(json.loads(setup_spans.read_text()))))
        if table.has("cli.main"):
            in_process_s = table.total_s["cli.main"]
            metrics["trace.overhead_ratio"] = (in_process_s / (untraced.wall_s - import_s), "ratio")
        expected_dtw = self.wl.subjects * RECORDS_PER_SUBJECT
        if "metrics.dtw_calls" in metrics and metrics["metrics.dtw_calls"][0] != expected_dtw:
            self.fail("trace", [f"metrics.dtw_calls is {metrics['metrics.dtw_calls'][0]}, "
                                f"expected {expected_dtw}; a call escaped the tracer"])
        for name, (value, unit) in metrics.items():
            print(f"{self.name} {name} = {value:.6g} {unit}")
        return metrics


class BenchError(Exception):
    pass


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# --- output checks ---------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_reports(out: Path, wl) -> list[str]:
    """Schema and size of every analyze report; empty if all hold."""
    problems = []
    try:
        header, records = _read_csv(out / "metric_records.csv")
        if header != RECORDS_HEADER:
            problems.append("metric_records.csv header")
        if len(records) != wl.subjects * RECORDS_PER_SUBJECT:
            problems.append(f"metric_records.csv has {len(records)} rows")
        stats_files = sorted(out.glob("stats_*.csv"))
        stats_rows = 0
        for path in stats_files:
            header, rows = _read_csv(path)
            stats_rows += len(rows)
            if header != STATS_HEADER:
                problems.append(f"{path.name} header")
        if len(stats_files) != STATS_FILES or stats_rows != STATS_ROWS:
            problems.append(f"{len(stats_files)} stats files with {stats_rows} rows")
        _, pca = _read_csv(out / "pca_summary.csv")
        groups = 3 if wl.pca_scope == "pooled" else wl.subjects * PCA_GROUPS_PER_SUBJECT
        if len(pca) != groups:
            problems.append(f"pca_summary.csv has {len(pca)} rows, expected {groups}")
        radar = json.loads((out / "radar.json").read_text(encoding="utf-8"))
        if len(radar) != SIGNALS:
            problems.append(f"radar.json has {len(radar)} keys")
        if wl.direction_check and not direction_holds(records):
            problems.append("criterion-10 view direction does not hold")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable reports: {exc!r}")
    return problems


def direction_holds(records: list[list[str]]) -> bool:
    """Median step-length DTW lateral < frontal and median trunk-rotation KLD
    frontal < lateral (criterion 10)."""
    col = {name: i for i, name in enumerate(RECORDS_HEADER)}
    values = defaultdict(list)
    for row in records:
        if row[col["feature"]] == "step_length":
            values["dtw", row[col["view"]]].append(float(row[col["dtw"]]))
        if row[col["feature"]] == "trunk_rotation":
            values["kld", row[col["view"]]].append(float(row[col["kld"]]))
    med = {key: statistics.median(v) for key, v in values.items()}
    return (med["dtw", "lateral"] < med["dtw", "frontal"]
            and med["kld", "frontal"] < med["kld", "lateral"])


def check_recommendations(analyzed: Path) -> list[str]:
    try:
        header, rows = _read_csv(analyzed / "recommendations.csv")
    except OSError as exc:
        return [f"unreadable recommendations.csv: {exc!r}"]
    if header != RECOMMEND_HEADER or len(rows) != SIGNALS:
        return [f"recommendations.csv has header {header} and {len(rows)} rows"]
    return []


def report_digest(out: Path) -> str:
    """sha256 over the report files, with run_metadata.json's manifest path
    dropped as criterion 11 does."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        body = path.read_bytes()
        if path.name == "run_metadata.json":
            meta = json.loads(body)
            meta.pop("manifest", None)
            body = json.dumps(meta, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + hashlib.sha256(body).digest())
    return h.hexdigest()


def input_rows(manifest: Path) -> int:
    """Data rows over every CSV the manifest lists."""
    with open(manifest, newline="", encoding="utf-8") as fh:
        paths = [manifest.parent / row["path"] for row in csv.DictReader(fh)]
    total = 0
    for path in paths:
        with open(path, "rb") as fh:
            total += sum(1 for line in fh if line.strip()) - 1
    return total


# --- per-layer metrics from spans ------------------------------------------


class SpanTable:
    def __init__(self, dump: dict):
        self.wrapped = set(dump["wrapped"])
        self.spans = dump["spans"]
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.extras = defaultdict(list)
        for (name, start, end, _, extra), children in zip(self.spans, child_s):
            self.self_s[name.partition(".")[0]] += end - start - children
            self.total_s[name] += end - start
            self.calls[name] += 1
            self.extras[name].append(extra)

    def has(self, *names: str) -> bool:
        return all(n in self.wrapped for n in names)

    def has_layer(self, layer: str) -> bool:
        return any(n.partition(".")[0] == layer for n in self.wrapped)

    def probed(self, name: str) -> list | None:
        """The probe values of every call, or None if any probe failed."""
        values = self.extras[name]
        return None if any(v is None for v in values) else values


def layer_metrics(t: SpanTable, rows: int, injected: int) -> dict:
    """Metrics of the traced analyze. A metric whose functions no longer
    exist is left out, never reported as 0."""
    m = {}
    for layer in LAYERS:
        if t.has_layer(layer):
            m[f"{layer}.self_s"] = (t.self_s[layer], "s")

    parse = ("ingest.parse_pose_csv", "ingest.parse_marker_csv")
    m["ingest.rows"] = (rows, "count")
    if t.has(*parse):
        parse_s = sum(t.total_s[n] for n in parse)
        if parse_s > 0:
            m["ingest.rows_per_s"] = (rows / parse_s, "rows/s")
    if t.has("ingest.fill_gaps"):
        m["ingest.fill_gaps_s"] = (t.total_s["ingest.fill_gaps"], "s")
    m["ingest.repaired_points"] = (injected, "count")

    if t.has("preprocess.butterworth_coeffs"):
        designs = t.calls["preprocess.butterworth_coeffs"]
        m["preprocess.filter_designs"] = (designs, "count")
        specs = t.probed("preprocess.butterworth_coeffs")
        if specs:
            m["preprocess.designs_per_spec"] = (designs / len(set(specs)), "ratio")

    if t.has("features.extract_all"):
        signals = t.probed("features.extract_all")
        if signals is not None:
            m["features.signals"] = (sum(signals), "count")

    if t.has("signal_core.znormalize"):
        m["signal_core.znormalize_calls"] = (t.calls["signal_core.znormalize"], "count")

    if t.has("metrics.dtw_distance"):
        dtw_s = t.total_s["metrics.dtw_distance"]
        m["metrics.dtw_s"] = (dtw_s, "s")
        m["metrics.dtw_calls"] = (t.calls["metrics.dtw_distance"], "count")
        cells = t.probed("metrics.dtw_distance")
        if cells is not None:
            m["metrics.dtw_cells"] = (sum(cells), "count")
            if dtw_s > 0:
                m["metrics.dtw_cells_per_s"] = (sum(cells) / dtw_s, "cells/s")
    for metric, fn in (("mcc", "max_cross_correlation"), ("kld", "kl_divergence"),
                       ("ie", "information_entropy")):
        if t.has(f"metrics.{fn}"):
            m[f"metrics.{metric}_s"] = (t.total_s[f"metrics.{fn}"], "s")

    if t.has("stats.wilcoxon_signed_rank"):
        m["stats.tests"] = (t.calls["stats.wilcoxon_signed_rank"], "count")
    if t.has("stats._exact_p"):
        m["stats.exact_tests"] = (t.calls["stats._exact_p"], "count")

    if t.has("dimred.pca_fit"):
        m["dimred.pca_fits"] = (t.calls["dimred.pca_fit"], "count")
        cells = t.probed("dimred.pca_fit")
        if cells is not None:
            m["dimred.matrix_cells"] = (sum(cells), "count")

    m["trace.spans"] = (len(t.spans), "count")
    return m


def setup_metrics(t: SpanTable) -> dict:
    m = {}
    if t.has_layer("synth"):
        m["synth.self_s"] = (t.self_s["synth"], "s")
    writers = ("ingest.write_pose_csv", "ingest.write_marker_csv")
    if t.has(*writers):
        m["ingest.write_s"] = (sum(t.total_s[n] for n in writers), "s")
    return m


def scipy_import_s(importtime: str) -> float:
    """Cumulative seconds of the outermost scipy imports in -X importtime
    output; a module imported under another scipy module is counted once."""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside a scipy import)
    # importtime lists a module after its children; walk it parent-first
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


# --- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark gaitview analyze/recommend")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaitview" / "cli.py").is_file():
        print(f"no gaitview sources at {SRC / 'gaitview'}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        # installed packages ship compiled bytecode; compile before timing
        if bench.spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "gaitview")],
                       "compile").code != 0:
            raise BenchError("could not compile gaitview")
        metrics = bench.measure_traced() if args.trace else bench.measure(args.seconds)
    except BenchError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    if len(bench.digests) > 1:
        bench.fail("digest", [f"reports differ between runs: {sorted(bench.digests)}"])
    for digest in sorted(bench.digests):
        print(f"{args.workload} report_sha256 = {digest}")
    print(f"{args.workload} error_rate = {bench.failed / max(bench.attempted, 1):.6g} ratio "
          f"({bench.failed} of {bench.attempted} operations failed)")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
