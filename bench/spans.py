"""Spans recorded from outside the library, around each layer's public calls.

`Tracer.install` replaces the functions that `shadowseg.pipeline` and
`shadowseg.cli` import, plus the `MixtureGrid` and `EngineState` methods
the engine calls, with wrappers that append one span per call:
`[name, start_ns, end_ns, parent, counts]`, where `parent` is the index
of the enclosing span (-1 at top level) and `counts` holds work counted
at the same boundary. The library source is never edited.

A name that is missing or no longer callable raises `TraceError` at
install time, and `check_called` raises if a layer the workload must
reach recorded no span, so a rename cannot silently turn a layer's time
into zero.
"""

from __future__ import annotations

import time


CALIBRATION = "bench.calibration"


class TraceError(RuntimeError):
    """A traced name is missing, or a layer that must run recorded nothing."""


def _hcf_counts(args, kwargs, result):
    return {"visits": result.visits, "relabels": result.relabels}


def _fit_counts(args, kwargs, result):
    observed = args[0] if args else kwargs["observed"]
    return {"pairs": len(observed), "accepted": int(result is not None)}


def _read_counts(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _write_counts(args, kwargs, result):
    labels = args[0] if args else kwargs["labels"]
    return {"bytes": int(labels.size)}


# (module attribute, span name, counter); every function the module imports
_PIPELINE_NAMES = (
    ("init_static", "background.init_static", None),
    ("background_edge_model", "edge.model", None),
    ("frame_edges", "edge.frame_edges", None),
    ("initial_prior", "energy.initial_prior", None),
    ("update_label_bias", "energy.bias", None),
    ("build_potential_tables", "likelihood.potentials", None),
    ("hcf_minimize", "optimizer.hcf", _hcf_counts),
    ("fit_shadow", "shadow.fit", _fit_counts),
    ("initial_shadow_params", "shadow.initial", None),
    ("update_shadow", "shadow.update", None),
    ("process_frame", "pipeline.process_frame", None),
)
_CLI_NAMES = (
    ("main", "cli.main", None),
    ("frame_edges", "edge.frame_edges", None),
    ("evaluate", "evaluate.evaluate", None),
    ("build_potential_tables", "likelihood.potentials", None),
    ("dump_potentials", "likelihood.dump", None),
    ("read_frame", "pgmio.read", _read_counts),
    ("read_labels", "pgmio.read_labels", _read_counts),
    ("write_labels", "pgmio.write", _write_counts),
    ("pooled_variance", "pipeline.pooled_variance", None),
    ("process_frame", "pipeline.process_frame", None),
    ("generate_synthetic", "synth.generate", None),
    ("scene_preset", "synth.preset", None),
)
_METHODS = (
    ("MixtureGrid", "update", "background.mixture_update"),
    ("MixtureGrid", "select_background", "background.select"),
    ("EngineState", "from_static", "background.bootstrap"),
    ("EngineState", "from_first_frame", "background.bootstrap"),
)


def replace_attr(owner, attr: str, make):
    """Swap `owner.attr` for `make(original function)`; returns an undo.

    Raises TraceError when the attribute is missing or not callable.
    """
    label = f"{getattr(owner, '__name__', owner)}.{attr}"
    if attr not in vars(owner):
        raise TraceError(f"{label} is missing; update the benchmark's traced names")
    original = vars(owner)[attr]
    if isinstance(original, classmethod):
        replacement = classmethod(make(original.__func__))
    elif callable(original):
        replacement = make(original)
    else:
        raise TraceError(f"{label} is no longer callable")
    setattr(owner, attr, replacement)
    return lambda: setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, counter=None):
        """`fn` recording one span per call; `counter(args, kwargs, result)`
        gives the span's counts."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = clock()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, pipeline, cli) -> None:
        """Wrap every traced name in the `shadowseg.pipeline` and
        `shadowseg.cli` modules given."""
        owners = {"MixtureGrid": pipeline.MixtureGrid, "EngineState": pipeline.EngineState}
        for module, names in ((pipeline, _PIPELINE_NAMES), (cli, _CLI_NAMES)):
            for attr, name, counter in names:
                self._undo.append(replace_attr(
                    module, attr, lambda fn, n=name, c=counter: self.wrap(n, fn, c)))
        for owner, attr, name in _METHODS:
            self._undo.append(replace_attr(
                owners[owner], attr, lambda fn, n=name: self.wrap(n, fn)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def check_called(self, names) -> None:
        seen = {span[0] for span in self.spans}
        missing = sorted(set(names) - seen)
        if missing:
            raise TraceError(f"traced layers recorded no span: {', '.join(missing)}")


def layer_totals(spans) -> dict:
    """Per span name: total and self time in ns, call count, summed counts.

    Self time is a span's duration minus that of its direct children;
    calls are sequential, so children never overlap. Spans nested in a
    `background.bootstrap` span count only toward it, so per-frame layers
    are not charged for the bootstrap's calls. Calibration spans (the
    benchmark's speed samples, taken from a signal handler inside whatever
    call is running) are taken off every enclosing span.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    for index, (name, start, end, parent, _) in enumerate(spans):
        while name == CALIBRATION and parent >= 0:
            duration[parent] -= end - start
            parent = spans[parent][3]
    child_ns = [0] * len(spans)
    in_bootstrap = [False] * len(spans)
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0 and name != CALIBRATION:
            child_ns[parent] += duration[index]
            in_bootstrap[index] = (in_bootstrap[parent]
                                   or spans[parent][0] == "background.bootstrap")
    totals: dict = {}
    for index, (name, start, end, parent, counts) in enumerate(spans):
        if in_bootstrap[index] or name == CALIBRATION:
            continue
        entry = totals.setdefault(name, {"ns": 0, "self_ns": 0, "calls": 0})
        entry["ns"] += duration[index]
        entry["self_ns"] += duration[index] - child_ns[index]
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    for name, entry in totals.items():
        if entry["self_ns"] < 0:
            raise TraceError(f"negative self time for {name}: {entry['self_ns']} ns")
    return totals
