"""Acceptance gate: twelve release criteria, each printing one PASS/FAIL line.

Each line is printed with capture disabled so it stays visible in the
terminal regardless of pytest's capture mode.
"""
import csv
import hashlib
import json
import statistics
import time
import numpy as np
import pytest

from gaitview.cli import main
from gaitview.dimred import FeatureMatrix, pca_fit
from gaitview.metrics import (
    MetricConfig,
    dtw_distance,
    information_entropy,
    kl_divergence,
    max_cross_correlation,
)
from gaitview.preprocess import FilterSpec, filtfilt_array
from gaitview.report import STATS_HEADER
from gaitview.signal_core import znormalize
from gaitview.stats import (
    _approx_p, _midranks, cliffs_delta, effect_label, wilcoxon_signed_rank,
)

from oracles import dtw_bruteforce, wilcoxon_enumerate


def report(capsys, number: int, description: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number:02d} [{status}] {description}")
    assert ok, f"criterion {number}: {description}"


def ts(values):
    return np.asarray(values, dtype=float)


@pytest.fixture(scope="module")
def pipeline18(tmp_path_factory):
    """18-subject synthetic dataset (2 px keypoint noise, fixed seed) run
    through the full analyze pipeline; shared by criteria 10 and 12."""
    data_dir = tmp_path_factory.mktemp("accept_data")
    out_dir = tmp_path_factory.mktemp("accept_out")
    start = time.monotonic()
    rc = main(["synth", "--subjects", "18", "--seed", "42",
               "--noise-sd", "2.0", "--out", str(data_dir)])
    assert rc == 0
    rc = main(["analyze", "--manifest", str(data_dir / "manifest.csv"),
               "--out", str(out_dir)])
    assert rc == 0
    elapsed = time.monotonic() - start
    return data_dir, out_dir, elapsed


def test_criterion_01_dtw_oracle_equivalence(capsys):
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        a = rng.normal(size=n)
        b = rng.normal(size=m)
        if dtw_distance(ts(a), ts(b)) != dtw_bruteforce(a.tolist(), b.tolist()):
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(capsys, 1, "DTW equals exhaustive path enumeration on 500 pairs (exact, < 30 s)", ok)


def test_criterion_02_dtw_axioms(capsys):
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(1000):
        a = ts(rng.normal(size=int(rng.integers(2, 30))))
        b = ts(rng.normal(size=int(rng.integers(2, 30))))
        d_ab = dtw_distance(a, b)
        if not (dtw_distance(a, a) == 0.0
                and d_ab == dtw_distance(b, a)
                and d_ab >= 0.0):
            ok = False
            break
    report(capsys, 2, "DTW identity, symmetry and nonnegativity on 1000 random pairs", ok)


def test_criterion_03_mcc_lag_recovery(capsys):
    n, period = 1000, 100
    t = np.arange(n)
    ok = True
    for k in range(1, 21):
        x = znormalize(ts(np.sin(2 * np.pi * t / period)))
        y = znormalize(ts(np.sin(2 * np.pi * (t - k) / period)))
        _, lag = max_cross_correlation(x, y)
        if lag != k:
            ok = False
            break
    report(capsys, 3, "MCC recovers every delay k in 1..20 exactly on z-normalized sinusoids", ok)


def test_criterion_04_kld_properties(capsys):
    rng = np.random.default_rng(1004)
    v = rng.normal(size=500)
    ok = kl_divergence(ts(v), ts(v)) < 1e-9
    for _ in range(1000):
        a = ts(rng.normal(size=60))
        b = ts(rng.normal(loc=rng.uniform(-1, 1), size=60))
        if kl_divergence(a, b) < 0.0:
            ok = False
            break
    # two-bin analytic case: P all in bin 0, Q split half/half over [0, 1].
    cfg = MetricConfig(histogram_bins=2)
    eps = cfg.smoothing_epsilon
    x = ts(np.linspace(0.0, 0.4, 64))
    y = ts([0.25] * 32 + [1.0] * 32)
    p = np.array([1.0 + eps, eps]) / (1.0 + 2 * eps)
    q = np.array([0.5 + eps, 0.5 + eps]) / (1.0 + 2 * eps)
    closed_form = float(np.sum(p * np.log2(p / q)))
    ok = ok and abs(closed_form - 1.0) < 1e-6
    ok = ok and abs(kl_divergence(x, y, cfg) - closed_form) < 1e-6
    report(capsys, 4, "KLD self-divergence < 1e-9, nonnegative on 1000 pairs, "
              "two-bin case = 1.0 bit within 1e-6", ok)


def test_criterion_05_ie_calibration(capsys):
    uniform = ts(np.arange(256, dtype=float))
    ok = abs(information_entropy(uniform) - 8.0) < 1e-9
    ok = ok and information_entropy(ts([3.0] * 50)) == 0.0
    rng = np.random.default_rng(1005)
    base = rng.normal(size=300)
    href = information_entropy(ts(base))
    for _ in range(100):
        if information_entropy(ts(rng.permutation(base))) != href:
            ok = False
            break
    report(capsys, 5, "IE: 256-level uniform = 8.0, constant = 0, permutation invariant", ok)


def test_criterion_06_zero_phase_filtering(capsys):
    fs = 100.0
    t = np.arange(300) / fs
    spec = FilterSpec(cutoff_hz=7.0, sample_rate_hz=fs, order=4)
    passband = ts(np.sin(2 * np.pi * 2.0 * t))
    out = filtfilt_array(passband, spec)
    c = np.correlate(out - out.mean(), passband - passband.mean(), mode="full")
    lag = int(np.argmax(c) - (len(t) - 1))
    ratio = np.max(np.abs(out)) / np.max(np.abs(passband))
    ok = lag == 0 and ratio >= 0.98
    stopband = ts(np.sin(2 * np.pi * 30.0 * t))
    out = filtfilt_array(stopband, spec)
    ok = ok and np.max(np.abs(out[30:-30])) <= 0.05
    report(capsys, 6, "zero-phase filter: 2 Hz lag 0 and ratio >= 0.98, 30 Hz <= 0.05", ok)


def test_criterion_07_wilcoxon_exactness(capsys):
    rng = np.random.default_rng(1007)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 13))
        d = np.round(rng.normal(size=n), 2)
        if np.all(d == 0.0):
            continue
        s = (tuple(d), tuple(np.zeros(n)))
        _, _, p = wilcoxon_signed_rank(*s)
        if p != wilcoxon_enumerate(d.tolist()):
            ok = False
            break
    s5 = ((1.0, 2.0, 3.0, 4.0, 5.0), (0.0,) * 5)
    _, _, p5 = wilcoxon_signed_rank(*s5)
    ok = ok and p5 == 0.0625
    worst = 0.0
    for _ in range(100):
        a = rng.normal(rng.uniform(0, 0.6), 1.0, size=18)
        s = (tuple(a), tuple(np.zeros(18)))
        w_plus, w_minus, p_exact = wilcoxon_signed_rank(*s)
        p_approx = _approx_p(_midranks(np.abs(a)), min(w_plus, w_minus), 18)
        worst = max(worst, abs(p_exact - p_approx))
    ok = ok and worst < 0.02
    report(capsys, 7, "Wilcoxon exact == enumeration (50 samples), n=5 p = 0.0625, "
              "approx within 0.02 at n=18", ok)


def test_criterion_08_cliffs_delta(capsys):
    ok = (effect_label(0.3299) == "small"
          and effect_label(0.33) == "medium"
          and effect_label(0.4739) == "medium"
          and effect_label(0.474) == "large")
    rng = np.random.default_rng(1008)
    for _ in range(200):
        n = int(rng.integers(2, 15))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        d_ab, _ = cliffs_delta(tuple(a), tuple(b))
        d_ba, _ = cliffs_delta(tuple(b), tuple(a))
        if d_ab != -d_ba:
            ok = False
            break
        # strictly increasing transform preserves every pairwise comparison
        g = lambda v: np.exp(v) + 3.0 * v
        d_g, _ = cliffs_delta(tuple(g(a)), tuple(g(b)))
        if d_g != d_ab:
            ok = False
            break
    report(capsys, 8, "Cliff's delta: boundary labels at 0.33/0.474, antisymmetry and "
              "monotone invariance on 200 samples", ok)


def test_criterion_09_pca(capsys):
    rng = np.random.default_rng(1009)
    ok = True
    for k in (1, 2, 3):
        u = rng.normal(size=(50, k))
        v = rng.normal(size=(k, 7))
        res = pca_fit(FeatureMatrix(u @ v), threshold=0.95)
        if res.k != k or abs(res.explained_ratio - 1.0) > 1e-9:
            ok = False
    full = rng.normal(size=(40, 6))  # a fit centers its matrix in place: one copy per fit
    res = pca_fit(FeatureMatrix(full.copy()), threshold=1.0)
    ok = ok and res.k == 6 and abs(res.explained_ratio - 1.0) < 1e-9
    # the covariance eigenvalues, largest first, give the same k and ratio
    eig = np.linalg.eigvalsh(np.cov(full, rowvar=False))[::-1]
    cumulative = np.cumsum(eig) / eig.sum()
    for threshold in (0.3, 0.5, 0.8, 0.95):
        res = pca_fit(FeatureMatrix(full.copy()), threshold=threshold)
        k = int(np.argmax(cumulative >= threshold)) + 1
        ok = ok and res.k == k and abs(res.explained_ratio - cumulative[k - 1]) < 1e-9
    report(capsys, 9, "PCA: rank-k -> k components with ratio 1, full rank needs every "
              "component at threshold 1, k and ratio agree with the covariance eigenvalues",
           ok)


def test_criterion_10_directional_reproduction(capsys, pipeline18):
    _, out_dir, elapsed = pipeline18
    dtw_step = {"frontal": [], "lateral": []}
    kld_trunk = {"frontal": [], "lateral": []}
    with open(out_dir / "metric_records.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["feature"] == "step_length":
                dtw_step[row["view"]].append(float(row["dtw"]))
            if row["feature"] == "trunk_rotation":
                kld_trunk[row["view"]].append(float(row["kld"]))
    step_ok = (statistics.median(dtw_step["lateral"])
               < statistics.median(dtw_step["frontal"]))
    trunk_ok = (statistics.median(kld_trunk["frontal"])
                < statistics.median(kld_trunk["lateral"]))
    ok = step_ok and trunk_ok and elapsed < 120.0
    report(capsys, 10, "18-subject run: median step-length DTW lateral < frontal and "
               "median trunk-rotation KLD frontal < lateral, < 2 min", ok)


def test_criterion_11_end_to_end_determinism(capsys, tmp_path):
    def run(tag):
        data = tmp_path / f"data_{tag}"
        out = tmp_path / f"out_{tag}"
        assert main(["synth", "--subjects", "3", "--seed", "7",
                     "--noise-sd", "1.5", "--out", str(data)]) == 0
        assert main(["analyze", "--manifest", str(data / "manifest.csv"),
                     "--out", str(out)]) == 0
        digests = {}
        for root in (data, out):
            for p in sorted(root.iterdir()):
                body = p.read_bytes()
                if p.name == "run_metadata.json":
                    # the embedded manifest path differs between runs by design
                    meta = json.loads(body)
                    meta.pop("manifest")
                    body = json.dumps(meta, sort_keys=True).encode()
                digests[f"{root.name[-1]}/{p.name}"] = hashlib.sha256(body).hexdigest()
        return {k.split("/", 1)[1]: v for k, v in digests.items()}

    ok = run("a") == run("b")
    report(capsys, 11, "synth + analyze twice with one seed/config -> byte-identical outputs", ok)


def test_criterion_12_report_schema(capsys, pipeline18):
    _, out_dir, _ = pipeline18
    ok = True
    for path in sorted(out_dir.glob("stats_*.csv")):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader) != STATS_HEADER:
                ok = False
    radar = json.loads((out_dir / "radar.json").read_text())
    ok = ok and len(radar) == 7
    for axes in radar.values():
        for pair in axes.values():
            values = {pair["frontal"], pair["lateral"]}
            if not all(0.0 <= v <= 1.0 for v in values):
                ok = False
            if values not in ({0.0, 1.0}, {0.5}):
                ok = False
    report(capsys, 12, "stats CSV header matches exactly; radar values in [0,1] with "
               "0/1 extremes per pair", ok)
