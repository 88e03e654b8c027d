"""The benchmark's tracer still finds every name it wraps.

`bench/spans.py` replaces functions on `shadowseg.pipeline` and
`shadowseg.cli`, and the `MixtureGrid` methods, by name. A refactor that
drops or renames one of them, or fuses the mixture update with the
background selection, fails here, in the test suite, instead of in a
benchmark run.
"""

import importlib
import os
import sys

import numpy as np

import shadowseg.cli as cli
import shadowseg.pipeline as pipeline
from shadowseg.pgmio import write_pgm

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def import_spans():
    """`bench/spans.py`, imported without writing anything under bench/."""
    sys.path.insert(0, BENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("spans")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(BENCH)


def test_tracer_spans_every_frame_of_a_dumping_segment_run(tmp_path):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    rng = np.random.default_rng(8)
    n_frames = 4
    for k in range(n_frames):
        write_pgm(frame_dir / f"frame_{k:04d}.pgm",
                  rng.integers(80, 120, size=(8, 8), dtype=np.uint8))

    spans = import_spans()
    originals = (cli.process_frame, pipeline.process_frame, pipeline.EngineState.from_static)
    tracer = spans.Tracer()
    tracer.install(pipeline, cli)
    try:
        code = cli.main(["segment", "--input", str(frame_dir), "--out", str(tmp_path / "labels"),
                         "--dump-potentials", str(tmp_path / "pots")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.process_frame, pipeline.process_frame,
            pipeline.EngineState.from_static) == originals

    frame_spans = [i for i, span in enumerate(tracer.spans)
                   if span[0] == "pipeline.process_frame"]
    assert len(frame_spans) == n_frames
    for index in frame_spans:
        children = [span[0] for span in tracer.spans if span[3] == index]
        # the wrappers call each layer once: one table build, one sweep
        assert children.count("likelihood.potentials") == 1
        assert children.count("optimizer.hcf") == 1
        # the frame's edges and the background's edge means, built once each
        assert children.count("edge.frame_edges") == 1
        assert children.count("edge.model") == 1
        # one update and one selection per frame, each its own call
        assert children.count("background.mixture_update") == 1
        assert children.count("background.select") == 1
    # the tables are built, and dumped, inside the frame's call and nowhere
    # else: one span of each per frame, each the child of that frame's span
    for name in ("likelihood.potentials", "edge.frame_edges", "edge.model", "likelihood.dump"):
        parents = [span[3] for span in tracer.spans if span[0] == name]
        assert sorted(parents) == frame_spans, name
    tracer.check_called(["cli.main", "pgmio.read", "pgmio.write", "background.bootstrap",
                         "edge.frame_edges", "optimizer.hcf", "likelihood.dump",
                         "background.mixture_update", "background.select"])
    assert len(os.listdir(tmp_path / "pots")) == n_frames
