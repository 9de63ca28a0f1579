"""Workload inputs for the gaitview benchmark, generated from a seed.

run.py starts this file as a child process:

    python3 perfbench/gen.py --workload paper18 --seed 1 --out DIR [--repeat 3] [--spans FILE]

It writes the workload's CSVs and manifest into DIR, `--repeat` times anew,
and prints one JSON line with the wall seconds of each generation
and the number of low-confidence points it injected. gaitview is imported
once, before the first timed generation, so set-up time excludes import.
With `--spans` the generation runs under the span tracer of spans.py.

Importing this module does not import gaitview; run.py reads WORKLOADS.
"""
from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

NOISE_SD_PX = 2.0
FRAME_JITTER_SD = 14.0  # per-subject trial-length sd, as in gaitview.synth
GAP_CONF = 0.1  # below the default confidence threshold of 0.3
MAX_GAP_RUN = 8  # frames; two runs stay apart, so each is within max_gap = 10


@dataclass(frozen=True)
class Workload:
    subjects: int
    frames: int
    pca_scope: str = "pooled"
    long_trials: bool = False  # build trials past synth's 400-frame cap
    gaps: bool = False  # inject low-confidence runs into the pose CSVs
    direction_check: bool = False  # criterion-10 view asymmetry must hold

    @property
    def analyze_args(self) -> list[str]:
        return ["--pca-scope", self.pca_scope] if self.pca_scope != "pooled" else []


WORKLOADS = {
    # `gaitview synth --subjects 18 --noise-sd 2.0`: the paper-scale cohort
    "paper18": Workload(subjects=18, frames=169, direction_check=True),
    # long trials make the quadratic DTW dominate
    "long600": Workload(subjects=6, frames=600, long_trials=True),
    # many short trials with repairable gaps; per-subject PCA, normal-approx stats
    "cohort_gaps": Workload(subjects=40, frames=100, pca_scope="per-subject", gaps=True),
}


def generate(name: str, seed: int, out: Path) -> int:
    """Write one workload's inputs and manifest.csv into out.

    Returns the number of pose points given low confidence.
    """
    from gaitview import synth

    wl = WORKLOADS[name]
    params = synth.GaitModelParams(n_frames=wl.frames, noise_sd=NOISE_SD_PX, seed=seed)
    if wl.long_trials:
        write_long_trials(params, wl.subjects, out)
    else:
        synth.make_paired_dataset(params, wl.subjects, out)
    return inject_gaps(out, seed) if wl.gaps else 0


def write_long_trials(params, subjects: int, out: Path) -> None:
    """make_paired_dataset without its [80, 400] clip on the trial length.

    `gaitview synth --frames 600` silently caps trials at 400 frames, so the
    long trials are built here from synth's public functions, with the same
    per-subject jitter of length, cadence, speed and joint amplitudes.
    """
    import numpy as np
    from gaitview import ingest, synth
    from gaitview.signal_core import ViewLabel

    out.mkdir(parents=True, exist_ok=True)
    manifest = ["subject,trial,kind,path\n"]
    for subject in range(1, subjects + 1):
        rng = np.random.default_rng([params.seed, subject])

        def jitter(value, lo=0.85, hi=1.15):
            return value * float(rng.uniform(lo, hi))

        sub = replace(
            params,
            n_frames=int(round(rng.normal(params.n_frames, FRAME_JITTER_SD))),
            cycle_hz=jitter(params.cycle_hz, 0.9, 1.1),
            walking_speed_mps=jitter(params.walking_speed_mps),
            leg_swing_amp_deg=jitter(params.leg_swing_amp_deg),
            knee_flex_amp_deg=jitter(params.knee_flex_amp_deg),
            arm_swing_amp_deg=jitter(params.arm_swing_amp_deg),
            trunk_rot_amp_deg=jitter(params.trunk_rot_amp_deg),
        )
        seq3d = synth.generate_gait(replace(sub, seed=params.seed + subject))
        cams = synth.preset_cameras(sub)
        # generation is in meters; the marker CSV schema is millimeters
        seq_mm = ingest.MarkerSequence(frames=[
            ingest.MarkerFrame(
                fr.frame_index, fr.time_s,
                {n: tuple(1000.0 * v for v in p) for n, p in fr.markers.items()},
            )
            for fr in seq3d.frames
        ])
        marker_name = f"s{subject:02d}_mocap3d.csv"
        ingest.write_marker_csv(seq_mm, out / marker_name)
        manifest.append(f"{subject},1,mocap3d,{marker_name}\n")
        for view in (ViewLabel.FRONTAL, ViewLabel.LATERAL):
            pose = synth.project(seq3d, cams[view], conf=1.0, view=view)
            pose = synth.add_pixel_noise(pose, sub.noise_sd, rng)
            pose_name = f"s{subject:02d}_{view.value}.csv"
            ingest.write_pose_csv(pose, out / pose_name)
            manifest.append(f"{subject},1,{view.value},{pose_name}\n")
    (out / "manifest.csv").write_text("".join(manifest), encoding="utf-8")


def inject_gaps(out: Path, seed: int) -> int:
    """Give two runs of 1..MAX_GAP_RUN frames per keypoint in every pose CSV
    confidence GAP_CONF; returns the number of points changed.

    One run lies in each half of the trial, and neither touches the first
    frame, the last frame or the last frame of the first half, so the runs
    never merge and every gap can be repaired by fill_gaps.
    """
    rng = random.Random(seed)
    injected = 0
    for path in sorted(out.glob("s*_frontal.csv")) + sorted(out.glob("s*_lateral.csv")):
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = [row.rstrip("\n").split(",") for row in rows]
        frames = sorted({int(f[0]) for f in fields})
        half = len(frames) // 2
        low = set()
        for keypoint in sorted({f[2] for f in fields}):
            for lo, hi in ((1, half - 1), (half, len(frames) - 1)):
                length = rng.randint(1, MAX_GAP_RUN)
                start = rng.randint(lo, hi - length)
                low.update((frames[i], keypoint) for i in range(start, start + length))
        for f in fields:
            if (int(f[0]), f[2]) in low:
                f[5] = repr(GAP_CONF)
        path.write_text(header + "".join(",".join(f) + "\n" for f in fields), encoding="utf-8")
        injected += len(low)
    return injected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--spans", type=Path, help="trace the generation and write spans here")
    args = parser.parse_args(argv)

    import gaitview.synth  # noqa: F401  (import stays out of the timed generations)

    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    times = []
    injected = 0
    for _ in range(args.repeat):
        if args.out.exists():
            shutil.rmtree(args.out)
        start = time.perf_counter()
        injected = generate(args.workload, args.seed, args.out)
        times.append(time.perf_counter() - start)
    if tracer:
        tracer.dump(args.spans)
    print(json.dumps({"setup_s": times, "injected": injected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
