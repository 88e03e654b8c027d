"""Command-line interface: segment, synth, eval.

`segment` labels a PGM sequence and writes one label map per processed
frame plus an optional per-frame diagnostics CSV. `synth` renders a
seeded synthetic scene with ground truth. `eval` compares predicted and
ground-truth label maps and emits a JSON report.

segment flags may also come from a plain key=value config file
(--config); explicit flags win over file entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys

from shadowseg.evaluate import evaluate
from shadowseg.likelihood import dump_potentials
from shadowseg.pgmio import PgmError, read_frame, read_labels, write_labels
from shadowseg.pipeline import EngineConfig, EngineState, detection_potentials, process_frame
from shadowseg.synth import generate_synthetic, scene_preset

# Not called here; bound so that bench/spans.py can trace them on this module.
from shadowseg.edge import frame_edges  # noqa: F401
from shadowseg.likelihood import build_potential_tables  # noqa: F401
from shadowseg.pipeline import pooled_variance  # noqa: F401

DIAG_HEADER = "k,F,n_bg,n_shadow,n_fg,a,c,visits"


def _frame_paths(source: str) -> list[str]:
    if os.path.isdir(source):
        paths = sorted(glob.glob(os.path.join(source, "*.pgm")))
    else:
        paths = sorted(glob.glob(source))
    if not paths:
        raise ValueError(f"no PGM frames match {source!r}")
    return paths


def _read_config_file(path) -> dict:
    types = _setting_types()
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            try:
                values[key] = types[key](value.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be {types[key].__name__}, "
                                 f"got {value.strip()!r}") from None
    return values


def _resolve_segment_settings(args) -> dict:
    settings = {"bg_init": 0}
    if args.config:
        settings.update(_read_config_file(args.config))
    for key in _setting_types():
        flag_value = getattr(args, key)
        if flag_value is not None:
            settings[key] = flag_value
    if not settings.get("input"):
        raise ValueError("no input sequence given (flag --input or config key input)")
    if not settings.get("out"):
        raise ValueError("no output directory given (flag --out or config key out)")
    return settings


def _cmd_segment(args) -> int:
    settings = _resolve_segment_settings(args)
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    config = EngineConfig(**{key: value for key, value in settings.items() if key in fields})
    paths = _frame_paths(settings["input"])
    bg_init = settings["bg_init"]
    if bg_init < 0:
        raise ValueError(f"bg-init must be >= 0 (0: adaptive start), got {bg_init}")
    if bg_init >= len(paths):
        raise ValueError(f"bg-init {bg_init} leaves no frames to process "
                         f"(sequence has {len(paths)})")
    if bg_init > 0:
        boot = [read_frame(p) for p in paths[:bg_init]]
        state = EngineState.from_static(boot, config)
        remaining = paths[bg_init:]
    else:
        state = EngineState.from_first_frame(read_frame(paths[0]), config)
        remaining = paths

    os.makedirs(settings["out"], exist_ok=True)
    dump_dir = settings.get("dump_potentials")
    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)
    rows = []
    for path in remaining:
        frame = read_frame(path)
        if dump_dir:
            u1, u2 = detection_potentials(state, frame)
            dump_potentials(u1, u2, os.path.join(dump_dir,
                                                 f"potentials_{state.k + 1:04d}.f64"))
        labels, diag = process_frame(state, frame)
        write_labels(labels, os.path.join(settings["out"], f"labels_{diag.k:04d}.pgm"))
        rows.append(f"{diag.k},{diag.energy:.6f},{diag.n_background},{diag.n_shadow},"
                    f"{diag.n_foreground},{diag.gain:.6f},{diag.offset:.6f},{diag.visits}")
    if settings.get("diag"):
        with open(settings["diag"], "w") as fh:
            fh.write(DIAG_HEADER + "\n")
            fh.write("\n".join(rows) + "\n")
    print(f"segmented {len(remaining)} frames into {settings['out']} "
          f"(a={state.shadow.gain:.4f}, c={state.shadow.offset:.4f})")
    return 0


def _cmd_synth(args) -> int:
    scene = scene_preset(args.preset, n_frames=args.frames, gain=args.a,
                         offset=args.c, noise_sigma=args.noise)
    frame_paths, truth_paths = generate_synthetic(scene, args.out, seed=args.seed)
    print(f"wrote {len(frame_paths)} frames and ground truth under {args.out} "
          f"(preset {args.preset}, lead-in {scene.lead_in})")
    return 0


def _cmd_eval(args) -> int:
    pred_paths = _frame_paths(args.pred)
    truth_paths = _frame_paths(args.truth)
    predicted = [read_labels(p) for p in pred_paths]
    truth = [read_labels(p) for p in truth_paths]
    report = evaluate(predicted, truth)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _segment_arguments(seg: argparse.ArgumentParser) -> None:
    """The `segment` flags: the one list of setting names and types."""
    seg.add_argument("--input", help="frame directory or glob")
    seg.add_argument("--out", help="directory for label maps")
    seg.add_argument("--bg-init", dest="bg_init", type=int,
                     help="bootstrap from this many leading frames (default 0: adaptive)")
    seg.add_argument("--alpha", type=float, help="model learning rate")
    seg.add_argument("--lambda1", type=float, help="label-bias weight")
    seg.add_argument("--lambda2", type=float, help="smoothness weight")
    seg.add_argument("--diag", help="write per-frame diagnostics CSV here")
    seg.add_argument("--config", help="key=value settings file; flags override")
    seg.add_argument("--dump-potentials", dest="dump_potentials",
                     help="directory for raw per-frame potential tables")


def _setting_types() -> dict:
    """Setting name -> type, for every `segment` flag but --config."""
    seg = argparse.ArgumentParser(add_help=False)
    _segment_arguments(seg)
    return {action.dest: action.type or str for action in seg._actions
            if action.dest != "config"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shadowseg",
                                     description="Background / shadow / foreground "
                                                 "segmentation of grayscale sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="label a PGM frame sequence")
    _segment_arguments(seg)
    seg.set_defaults(func=_cmd_segment)

    syn = sub.add_parser("synth", help="render a synthetic sequence with ground truth")
    syn.add_argument("--preset", default="quality", help="scene preset (recovery, quality)")
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--frames", type=int, help="override frame count")
    syn.add_argument("--a", type=float, help="planted shadow gain")
    syn.add_argument("--c", type=float, help="planted shadow offset")
    syn.add_argument("--noise", type=float, help="noise sigma")
    syn.add_argument("--out", required=True, help="output directory")
    syn.set_defaults(func=_cmd_synth)

    ev = sub.add_parser("eval", help="score predicted labels against ground truth")
    ev.add_argument("--pred", required=True, help="predicted label dir or glob")
    ev.add_argument("--truth", required=True, help="ground-truth label dir or glob")
    ev.add_argument("--report", help="write the JSON report here instead of stdout")
    ev.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PgmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
