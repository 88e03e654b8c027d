"""One measured process of one benchmark workload.

Started by run.py with the single-thread environment it sets; not meant
to be run by hand. It reads the workload spec and the generated frames
from the work directory, and prints one JSON object as its last line:

    python3 bench/worker.py --root ROOT --work DIR --mode MODE --seconds S

Modes: `probe` times a fresh `import shadowseg` plus the engine
bootstrap; `repeat` also labels frame 1, for the repeat check; `run` also
runs the closed loop untraced for S seconds and at least two episodes;
`trace` runs it untraced for S/2 seconds, then traced for S/2 seconds
over the same frames, and returns the spans' layer totals.

numpy and the library are imported only after the clock starts, so the
import time is that of a fresh process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
import types

from spans import CALIBRATION, Tracer, layer_totals, replace_attr


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--mode", choices=("probe", "repeat", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    return parser.parse_args(argv)


CALIBRATION_INTERVAL_NS = 100_000_000


class Calibration:
    """Samples the machine's speed on a timer while calls are measured.

    A sample times one fixed piece of pure-Python work shaped like the HCF
    loop (heap pops and pushes of (float, int, int) tuples, float list
    updates, about 3 ms on a quiet machine). Other tenants of a shared
    machine slow it as they slow the engine. One sample is taken on entry
    and one on exit, and a SIGALRM handler takes one every 100 ms in
    between, wherever the loop is; no sample is placed around a call, so
    short calls mostly run undisturbed. A call's calibration (`around`) is
    the mean of the samples taken from one interval before it started to
    one interval after it ended. Sampling time inside a call is taken off
    its latency.
    """

    SITES = 1500

    def __init__(self, wrap=None):
        self.work = wrap(self._work) if wrap else self._work
        self.samples: list[tuple[int, int]] = []     # (midpoint, duration), ns
        self.spent_ns = 0
        self._sampling = False

    def _work(self):
        n = self.SITES
        f = [float(i % 17) for i in range(3 * n)]
        heap = [(f[3 * y] - f[3 * y + 1], y, 0) for y in range(n)]
        heapq.heapify(heap)
        while heap:
            score, y, version = heapq.heappop(heap)
            f[3 * y] += 0.5
            f[3 * y + 1] -= 0.5
            if version < 2:
                heapq.heappush(heap, (score + 1.0, y, version + 1))

    def sample(self, signum=None, frame=None):
        if self._sampling:          # a tick during a sample: skip it
            return
        self._sampling = True
        start = time.perf_counter_ns()
        self.work()
        end = time.perf_counter_ns()
        self.samples.append(((start + end) // 2, end - start))
        self.spent_ns += end - start
        self._sampling = False

    def __enter__(self):
        self.sample()
        interval_s = CALIBRATION_INTERVAL_NS / 1e9
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    @contextlib.contextmanager
    def timing(self):
        """Time the block: sets `latency_ns` (sampling excluded) and
        `span`, its (start, end) clock readings, on the yielded object."""
        timed = types.SimpleNamespace()
        spent = self.spent_ns
        start = time.perf_counter_ns()
        yield timed
        end = time.perf_counter_ns()
        timed.latency_ns = end - start - (self.spent_ns - spent)
        timed.span = (start, end)

    def around(self, span: tuple[int, int]) -> float:
        """Calibration time (ns) of a call that ran over `span`: the mean of
        the samples within one interval of it, else the nearest sample.
        Complete only once sampling has stopped."""
        start, end = span
        near = [duration for mid, duration in self.samples
                if start - CALIBRATION_INTERVAL_NS <= mid <= end + CALIBRATION_INTERVAL_NS]
        if not near:
            near = [min(self.samples, key=lambda s: max(start - s[0], s[0] - end))[1]]
        return sum(near) / len(near)


def frame_row(diag) -> str:
    """The diagnostics row of a library frame, floats at full precision."""
    return (f"{diag.k},{float(diag.energy)!r},{diag.n_background},{diag.n_shadow},"
            f"{diag.n_foreground},{float(diag.gain)!r},{float(diag.offset)!r},{diag.visits}")


def frame_digest(labels, row: str) -> str:
    return hashlib.sha256(labels.astype("int8").tobytes() + row.encode()).hexdigest()


class LibraryRunner:
    """Episodes of `process_frame` calls on the in-memory frames."""

    stops_mid_episode = True

    def __init__(self, pipeline, spec, frames, calibration):
        self.pipeline = pipeline
        self.calibration = calibration
        self.config = pipeline.EngineConfig(alpha=spec["alpha"], lambda1=spec["lambda1"],
                                            lambda2=spec["lambda2"])
        self.static = spec["bootstrap"] == "static"
        self.boot = list(frames[:spec["lead_in"]]) if self.static else frames[0]
        self.frames = frames[spec["lead_in"]:] if self.static else frames

    def bootstrap(self):
        if self.static:
            return self.pipeline.EngineState.from_static(self.boot, self.config)
        return self.pipeline.EngineState.from_first_frame(self.boot, self.config)

    def episode(self):
        """Yield (latency_ns, span, labels, row) per frame, one frame at a
        time."""
        state = self.bootstrap()
        for frame in self.frames:
            with self.calibration.timing() as timed:
                labels, diag = self.pipeline.process_frame(state, frame)
            yield timed.latency_ns, timed.span, labels, frame_row(diag)

    def close(self):
        pass


class CliRunner:
    """Episodes of `shadowseg segment` (adaptive start, --diag) through
    `shadowseg.cli.main`, on the PGM sequence in the work directory."""

    stops_mid_episode = False       # `main` labels every frame before the first is checked

    def __init__(self, cli, spec, work, read_label_pgm, calibration):
        self.cli = cli
        self.calibration = calibration
        self.labeled = spec["labeled"]
        self.out = os.path.join(work, "labels")
        self.diag = os.path.join(work, "diag.csv")
        self.argv = ["segment", "--input", os.path.join(work, "frames"),
                     "--out", self.out, "--diag", self.diag]
        self.read_label_pgm = read_label_pgm
        self.frames: list[tuple[int, tuple]] = []    # (latency, span) per frame
        self.episodes: list[tuple[int, tuple]] = []  # the same per whole `segment` call
        self._undo = replace_attr(self.cli, "process_frame", self._timed)

    def _timed(self, fn):
        """Time each `process_frame` call inside `main`."""
        def timed_frame(*args, **kwargs):
            with self.calibration.timing() as timed:
                result = fn(*args, **kwargs)
            self.frames.append((timed.latency_ns, timed.span))
            return result
        return timed_frame

    def episode(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self.frames.clear()
        with self.calibration.timing() as timed, contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(self.argv)
        self.episodes.append((timed.latency_ns, timed.span))
        if code != 0:
            raise RuntimeError(f"shadowseg segment exited with code {code}")
        with open(self.diag) as fh:
            rows = fh.read().splitlines()[1:]
        paths = sorted(os.listdir(self.out))
        if not len(rows) == len(paths) == len(self.frames) == self.labeled:
            raise RuntimeError(f"segment wrote {len(paths)} label maps and {len(rows)} "
                               f"diagnostics rows for {self.labeled} frames")
        for (latency, span), name, row in zip(list(self.frames), paths, rows):
            yield latency, span, self.read_label_pgm(os.path.join(self.out, name)), row

    def close(self):
        self._undo()


def closed_loop(runner, shape, seconds, min_frames, n_kept):
    """Label frames one after another until `seconds` have passed and at
    least `min_frames` were attempted; restart the sequence with a fresh
    bootstrap when it runs out. A runner whose episodes are one call
    finishes the episode.

    Every frame is checked: labels of the frame's shape, all in {1, 2, 3},
    and, on a repeated episode, the same digest of labels and diagnostics
    row as the first episode. A frame that raises or fails a check counts
    as failed. Latencies and spans are kept per episode, and
    the first `n_kept` label maps and rows of the first episode.
    """
    out = {"attempted": 0, "failed": 0, "latency_ns": [], "spans": [],
           "labels": [], "rows": []}
    reference = None            # per-frame digests of the first episode
    deadline = time.perf_counter() + seconds

    def finished():
        return time.perf_counter() >= deadline and out["attempted"] >= min_frames

    while True:
        digests, latencies, spans = [], [], []
        out["latency_ns"].append(latencies)
        out["spans"].append(spans)
        frames = runner.episode()
        try:
            for latency, span, labels, row in frames:
                out["attempted"] += 1
                latencies.append(latency)
                spans.append(span)
                ok = labels.shape == shape and bool(((labels >= 1) & (labels <= 3)).all())
                digest = frame_digest(labels, row)
                if reference is not None and len(digests) < len(reference):
                    ok = ok and digest == reference[len(digests)]
                digests.append(digest)
                if reference is None and len(out["labels"]) < n_kept:
                    out["labels"].append(labels.astype("int8"))
                    out["rows"].append(row)
                out["failed"] += not ok
                if runner.stops_mid_episode and finished():
                    break
        except Exception:
            traceback.print_exc()
            out["attempted"] += 1
            out["failed"] += 1
        finally:
            frames.close()
        if reference is None:
            reference = digests
        if finished():
            out["digests"] = reference
            return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(args.work, "spec.json")) as fh:
        spec = json.load(fh)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import shadowseg.pipeline as pipeline
    if spec["entry"] == "cli":
        import shadowseg.cli as cli
    import_s = time.perf_counter() - start
    if not os.path.abspath(pipeline.__file__).startswith(os.path.join(src, "")):
        raise RuntimeError(f"imported {pipeline.__file__}, not the library under {src}")
    if spec["entry"] != "cli":
        import shadowseg.cli as cli

    import numpy as np
    from scenes import read_label_pgm

    frames = np.load(os.path.join(args.work, "frames.npy"))
    shape = tuple(frames.shape[1:])
    result = {"import_s": import_s}

    if spec["entry"] == "library":
        runner = LibraryRunner(pipeline, spec, frames, None)
        start = time.perf_counter()
        state = runner.bootstrap()
        result["setup_s"] = import_s + time.perf_counter() - start
        if args.mode == "repeat":
            labels, diag = pipeline.process_frame(state, runner.frames[0])
            result["digest"] = frame_digest(labels, frame_row(diag))
    else:
        result["setup_s"] = import_s
    # speed right after set-up: the median of three samples, the first of
    # which also warms up the fresh interpreter
    setup_calibration = Calibration()
    for _ in range(3):
        setup_calibration.sample()
    result["setup_calibration_ms"] = sorted(d for _, d in setup_calibration.samples)[1] / 1e6

    def measure(seconds, min_frames, wrap=None):
        with Calibration(wrap=wrap) as calibration:
            runner = (LibraryRunner(pipeline, spec, frames, calibration)
                      if spec["entry"] == "library"
                      else CliRunner(cli, spec, args.work, read_label_pgm, calibration))
            try:
                loop = closed_loop(runner, shape, seconds, min_frames, spec["n_scored"])
            finally:
                runner.close()
        loop["latency_ms"] = [[ns / 1e6 for ns in episode] for episode in loop.pop("latency_ns")]
        loop["calibration_ms"] = [[calibration.around(span) / 1e6 for span in episode]
                                  for episode in loop.pop("spans")]
        loop["episodes"] = [(ns / 1e9, calibration.around(span) / 1e6)
                            for ns, span in getattr(runner, "episodes", [])]
        return loop

    if args.mode == "run":
        loop = measure(args.seconds, 2 * spec["labeled"])
    elif args.mode == "trace":
        untraced = measure(args.seconds / 2, spec["n_scored"])
        tracer = Tracer()
        tracer.install(pipeline, cli)
        try:
            # calibration samples get their own span, so no layer counts their time
            loop = measure(args.seconds / 2, spec["n_scored"],
                           lambda fn: tracer.wrap(CALIBRATION, fn))
        finally:
            tracer.uninstall()
        tracer.check_called(spec["traced_layers"])
        common = min(len(untraced["digests"]), len(loop["digests"]))
        result.update(trace_digest_match=untraced["digests"][:common] == loop["digests"][:common],
                      untraced_latency_ms=untraced["latency_ms"],
                      untraced_calibration_ms=untraced["calibration_ms"],
                      layers=layer_totals(tracer.spans))
        with open(os.path.join(args.work, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
        # quality is scored on the traced pass, which must match the untraced one
        loop["attempted"] += untraced["attempted"]
        loop["failed"] += untraced["failed"]
    if args.mode in ("run", "trace"):
        np.save(os.path.join(args.work, "labels.npy"),
                np.array(loop.pop("labels"), dtype=np.int8).reshape(-1, *shape))
        result.update(loop)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
