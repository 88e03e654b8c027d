"""shadowseg benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload qvga_static --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Generates the workload's seeded scene, runs the engine in fresh
single-threaded processes (bench/worker.py), checks every label map,
scores the labels against ground truth, prints a readable report with
the environment, and prints as its last line one JSON object
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end figures; with `--trace 1` they are the
per-layer figures of a traced run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

from scenes import FOREGROUND, SHADOW, WORKLOADS, render, write_sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_PROBES = 10           # fresh processes timing set-up, besides the measured one
WORKER_TIMEOUT_S = 150
# Calibration sample time (bench/worker.py) on the 2-vCPU machine the
# baseline was taken on, when quiet; timings are normalized to it.
REFERENCE_CALIBRATION_MS = 3.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# Spans every traced run must record; more per entry point below.
TRACED_LAYERS = ("pipeline.process_frame", "edge.frame_edges", "edge.model",
                 "likelihood.potentials", "optimizer.hcf", "energy.bias", "shadow.fit",
                 "background.mixture_update", "background.select", "background.bootstrap")
TRACED_BY_ENTRY = {"library": (), "cli": ("cli.main", "pgmio.read", "pgmio.write")}
TRACED_BY_BOOTSTRAP = {"static": ("background.init_static",), "adaptive": ()}


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    """What the figures depend on besides the code: recorded with each result."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "shadowseg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16],
            "loadavg": [round(v, 2) for v in os.getloadavg()]}


def git_commit() -> str:
    """HEAD of the checkout; "none" when it is not a git repository (git
    is kept from searching above the checkout) or git is missing."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "none"
    return proc.stdout.strip()


def run_worker(work: str, mode: str, seconds: float) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, WORKER, "--root", ROOT, "--work", work,
                           "--mode", mode, "--seconds", str(seconds)],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def boundary_band(truth: np.ndarray) -> np.ndarray:
    """Pixels with an 8-neighbour of another ground-truth label (the
    1-pixel band that acceptance criterion 7 leaves out)."""
    height, width = truth.shape[-2:]
    padded = np.pad(truth, [(0, 0)] * (truth.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    band = np.zeros(truth.shape, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            band |= padded[..., 1 + dr:1 + dr + height, 1 + dc:1 + dc + width] != truth
    return band


def score(labels: np.ndarray, truth: np.ndarray) -> dict:
    keep = ~boundary_band(truth)

    def recall(label):
        mask = (truth == label) & keep
        total = np.count_nonzero(mask)
        return np.count_nonzero(mask & (labels == label)) / total if total else 1.0

    return {"pixel_accuracy": np.count_nonzero((labels == truth) & keep) / np.count_nonzero(keep),
            "shadow_recall": recall(SHADOW), "foreground_recall": recall(FOREGROUND)}


def normalized(latency_ms: list[list[float]], calibration_ms: list[list[float]]) -> list[float]:
    """Latencies rescaled to the reference machine speed, frame by frame:
    each is multiplied by the reference calibration time over that
    frame's calibration time (the samples taken within 100 ms of it,
    bench/worker.py). Other tenants of a shared
    machine slow the calibration as they slow the engine, so this removes
    most of their effect."""
    return [REFERENCE_CALIBRATION_MS * lat / cal
            for lats, cals in zip(latency_ms, calibration_ms) for lat, cal in zip(lats, cals)]


def layer_metrics(result: dict, frame_sites: int) -> dict:
    """Per-layer figures from the traced pass; times are per labeled frame
    unless the name says otherwise, normalized by the pass's median
    calibration time."""
    layers = result["layers"]
    frames = layers["pipeline.process_frame"]["calls"]
    scale = REFERENCE_CALIBRATION_MS / statistics.median(
        cal for episode in result["calibration_ms"] for cal in episode)
    traced = normalized(result["latency_ms"], result["calibration_ms"])
    untraced = normalized(result["untraced_latency_ms"], result["untraced_calibration_ms"])

    def total(name, key="ns"):
        value = layers.get(name, {}).get(key, 0)
        return value * scale if key.endswith("ns") else value

    def ms_per_frame(*names):
        return sum(total(n) for n in names) / frames / 1e6

    fits = max(total("shadow.fit", "calls"), 1)
    visits = total("optimizer.hcf", "visits")
    return {
        "optimizer.hcf_ms": ms_per_frame("optimizer.hcf"),
        "optimizer.ns_per_visit": total("optimizer.hcf") / visits,
        "optimizer.visits_per_site": visits / (frames * frame_sites),
        "optimizer.relabels": total("optimizer.hcf", "relabels") / frames,
        "background.mixture_update_ms": ms_per_frame("background.mixture_update"),
        "background.select_ms": ms_per_frame("background.select"),
        "background.bootstrap_ms": total("background.bootstrap") / total("background.bootstrap", "calls") / 1e6,
        "likelihood.potentials_ms": ms_per_frame("likelihood.potentials"),
        "edge.frame_edges_ms": ms_per_frame("edge.frame_edges"),
        "edge.model_ms": ms_per_frame("edge.model"),
        "energy.bias_ms": ms_per_frame("energy.bias"),
        "shadow.refit_ms": ms_per_frame("shadow.fit", "shadow.update"),
        "shadow.fit_pairs": total("shadow.fit", "pairs") / fits,
        "shadow.refit_accepted_frac": total("shadow.fit", "accepted") / fits,
        "pipeline.self_ms": total("pipeline.process_frame", "self_ns") / frames / 1e6,
        "pgmio.read_ms": ms_per_frame("pgmio.read"),
        "pgmio.write_ms": ms_per_frame("pgmio.write"),
        "pgmio.bytes": (total("pgmio.read", "bytes") + total("pgmio.write", "bytes")) / frames,
        "cli.self_ms": total("cli.main", "self_ns") / frames / 1e6,
        "trace.overhead_frac": statistics.fmean(traced) / statistics.fmean(untraced) - 1.0,
    }


def frames_per_s(result: dict, workload) -> float:
    """Labeled frames over their normalized time inside `process_frame`;
    for the CLI, over the normalized time of the whole `segment` calls."""
    if workload.entry == "cli":
        return workload.labeled_frames * len(result["episodes"]) / sum(
            REFERENCE_CALIBRATION_MS * s / cal for s, cal in result["episodes"])
    latency = normalized(result["latency_ms"], result["calibration_ms"])
    return 1000.0 * len(latency) / sum(latency)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    scene = workload.scene
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        frames, truths = render(scene, seed)
        np.save(os.path.join(work, "frames.npy"), frames)
        if workload.entry == "cli":
            write_sequence(frames, os.path.join(work, "frames"))
        traced_layers = (TRACED_LAYERS + TRACED_BY_ENTRY[workload.entry]
                         + TRACED_BY_BOOTSTRAP[workload.bootstrap])
        spec = {"entry": workload.entry, "bootstrap": workload.bootstrap,
                "lead_in": scene.lead_in, "labeled": workload.labeled_frames,
                "n_scored": workload.n_scored, "alpha": workload.alpha,
                "lambda1": workload.lambda1, "lambda2": workload.lambda2,
                "traced_layers": traced_layers}
        with open(os.path.join(work, "spec.json"), "w") as fh:
            json.dump(spec, fh)

        probes = [] if trace else [
            run_worker(work, "repeat" if i == 0 and workload.entry == "library" else "probe", 0)
            for i in range(SETUP_PROBES)]
        result = run_worker(work, "trace" if trace else "run", seconds)
        labels = np.load(os.path.join(work, "labels.npy"))
        if trace:
            os.replace(os.path.join(work, "spans.json"),
                       os.path.join(ROOT, ".bench_work", f"{name}.spans.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not result["rows"]:
        raise BenchError("no frame of the first episode was labeled")
    first = scene.lead_in if workload.bootstrap == "static" else 0
    truth = truths[first:first + len(labels)]
    checks = {"scored all frames": len(labels) == workload.n_scored,
              "no failed frames": result["failed"] == 0}
    checks["repeat run matches"] = all(p["digest"] == result["digests"][0]
                                       for p in probes if "digest" in p)
    if trace:
        checks["traced labels match untraced"] = result["trace_digest_match"]
    rows = [row.split(",") for row in result["rows"]]
    values = dict(score(labels, truth),
                  shadow_gain_err=abs(float(rows[-1][5]) - scene.gain),
                  energy_per_site=statistics.fmean(float(r[1]) for r in rows)
                  / (scene.height * scene.width))
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "frame": f"{scene.width}x{scene.height}", "scored_frames": workload.n_scored,
              "environment": environment(), "checks": checks, "values": values,
              "frames": sum(map(len, result["latency_ms"])),
              "correct": all(checks.values()),
              "attempted": result["attempted"], "failed": result["failed"]}
    if trace:
        values.update(layer_metrics(result, scene.height * scene.width))
        return report
    latency = normalized(result["latency_ms"], result["calibration_ms"])
    values.update(setup_s=statistics.median(REFERENCE_CALIBRATION_MS * p["setup_s"]
                                            / p["setup_calibration_ms"] for p in probes + [result]),
                  frames_per_s=frames_per_s(result, workload),
                  frame_ms_p50=statistics.median(latency),
                  peak_rss_mb=result["peak_rss_mb"])
    report.update(frame_ms_p90=statistics.quantiles(latency, n=10)[-1] if len(latency) >= 100 else None,
                  calibration_ms=statistics.median(
                      cal for episode in result["calibration_ms"] for cal in episode))
    return report


def contract_line(report: dict, benchmark: dict) -> dict:
    """The last output line: every end-to-end (or per-layer) metric named
    in BENCHMARK.json, with its unit."""
    group = benchmark["per_layer" if report["trace"] else "end_to_end"]
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {m["name"]: {"value": report["values"][m["name"]], "unit": m["unit"]}
                        for m in group}}


def print_report(report: dict, line: dict) -> None:
    env = report["environment"]
    print(f"# {report['workload']}: {report['frame']}, seed {report['seed']}, "
          f"{report['seconds']:g} s, trace {report['trace']}, {report['frames']} frames "
          f"labeled, quality over the first {report['scored_frames']}")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"commit {env['commit'][:12]}, src {env['src_sha256']}, "
          f"loadavg {' '.join(map(str, env['loadavg']))}")
    for name, metric in line["metrics"].items():
        print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_frac':30s} {report['failed'] / report['attempted']:14.6g} frac "
          f"({report['failed']} of {report['attempted']} frames)")
    if not report["trace"]:
        for key in ("shadow_recall", "shadow_gain_err"):
            print(f"  {key:30s} {report['values'][key]:14.6g} (traced run, unbounded)")
        print(f"  {'calibration_ms':30s} {report['calibration_ms']:14.6g} ms (median; "
              f"reference {REFERENCE_CALIBRATION_MS} ms)")
        p90 = report["frame_ms_p90"]
        print(f"  {'frame_ms_p90':30s} " + (f"{p90:14.6g} ms ({report['frames']} samples)"
              if p90 is not None else f"{'n/a':>14s} ({report['frames']} samples < 100)"))
    for check, ok in report["checks"].items():
        if not ok:
            print(f"  CHECK FAILED: {check}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "shadowseg", "pipeline.py")):
        print(f"error: no shadowseg source under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace))
            line = contract_line(report, benchmark)
            print_report(report, line)
            print(json.dumps(line), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
