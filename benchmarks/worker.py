"""Runs one drgq benchmark workload in a fresh process and writes its raw
results (timings, outputs, spans) as JSON for ``run.py`` to check.

The process imports drgq from ``src/`` first, so the time from its spawn to
the end of the imports is one set-up sample.  ``--probe`` stops there.

Untraced rounds time the workload through drgq's public entry points.  In
traced mode the worker runs one untraced round, one round with spans around
the calls into each layer's public functions, and one round that takes peak
memory with ``tracemalloc`` inside five of those calls only.  Spans wrap the
functions where the pipeline looks them up (module attributes), so they come
in the order ``run_analysis`` and ``run_catalogue`` call them.
"""

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

import drgq
from drgq import catalogue, cli, connectivity, graph6, graphs, intersection, qpoly, report, spectral
from drgq.families import FamilySpec

IMPORTED_AT = time.perf_counter()

ANALYZE_SPECS = ("johnson:12,6", "hamming:8,2")
COMMON_FLAGS = ["--mode", "auto", "--seed", "0", "--jobs", "1"]
MIN_ROUNDS = 2

# (function, span name) for every layer entry point the traced round times.
LAYER_FUNCTIONS = (
    (graph6.load_graph6_file, "graph6.read"),
    (graphs.distance_data, "graphs.distance_data"),
    (graphs.connected_components, "graphs.components"),
    (graphs.are_isomorphic, "graphs.isomorphism"),
    (intersection.check_distance_regular, "intersection.check"),
    (intersection.classify, "intersection.classify"),
    (spectral.compute_spectral_data, "spectral.compute"),
    (spectral.inner_product_residual, "spectral.inner_product"),
    (qpoly.balanced_set_check, "qpoly.balanced"),
    (qpoly.qpoly_orderings, "qpoly.span"),
    (qpoly.krein_parameters, "qpoly.krein"),
    (qpoly.krein_orderings, "qpoly.krein"),
    (connectivity.sweep_last_two, "connectivity.last_two"),
    (connectivity.sweep_tail, "connectivity.tail"),
    (connectivity.odd_component_census, "connectivity.census"),
    (report.run_analysis, "report.run_analysis"),
    (report.to_json, "report.to_json"),
)
MEMORY_FUNCTIONS = (
    (graphs.distance_data, "graphs.distance_data"),
    (intersection.check_distance_regular, "intersection.check"),
    (spectral.compute_spectral_data, "spectral.compute"),
    (qpoly.balanced_set_check, "qpoly.balanced"),
    (qpoly.krein_parameters, "qpoly.krein"),
)
COUNTERS = {
    "intersection.check": lambda out: ("intersection.rejected", int(isinstance(out, intersection.NotDRG))),
    "qpoly.balanced": lambda out: ("qpoly.balanced_instances", out.instances),
    "connectivity.last_two": lambda out: ("connectivity.vertices_swept", len(out[1])),
    "connectivity.tail": lambda out: ("connectivity.vertices_swept", len(out[1])),
}


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    @contextlib.contextmanager
    def span(self, name):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self.stack[-1]["id"] if self.stack else None, "id": len(self.spans)}
        self.spans.append(rec)
        self.stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()

    def is_open(self, name):
        return any(rec["name"] == name for rec in self.stack)

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def traced(self, fn, name):
        """fn wrapped in a span; a call nested in a span of the same name is not split."""
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.is_open(name):
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter:
                self.count(*counter(out))
            return out
        return wrapper


class NoTracer:
    """Stands in for Tracer in untraced rounds."""

    def span(self, name):
        return contextlib.nullcontext()


class Patches:
    """Replaces functions at every drgq module attribute that holds them."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, fn, wrapper):
        for name, mod in list(sys.modules.items()):
            if name == "drgq" or name.startswith("drgq."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self.set(mod, attr, wrapper)

    def restore(self):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


def install_tracer(patches, tracer):
    for fn, name in LAYER_FUNCTIONS:
        patches.replace(fn, tracer.traced(fn, name))
    patches.set(FamilySpec, "build", tracer.traced(FamilySpec.build, "families.build"))
    patches.replace(connectivity.odd_graph, tracer.traced(connectivity.odd_graph, "families.build"))

    build_bundle = catalogue.build_bundle

    def build_and_force_qpoly(*args, **kwargs):
        # Bundle.qpoly is lazy; forcing it here keeps the check rows to their own work
        with tracer.span("catalogue.build_bundle"):
            bundle = build_bundle(*args, **kwargs)
        with tracer.span("catalogue.qpoly"):
            bundle.qpoly
        return bundle
    patches.replace(build_bundle, build_and_force_qpoly)

    def traced_check(check):
        def wrapper(bundle):
            with tracer.span("catalogue.check") as rec:
                row = check(bundle)
            rec["name"] = f"catalogue.check.{row.check}" if row is not None else None
            return row
        return wrapper
    patches.set(catalogue, "PER_GRAPH_CHECKS", tuple(traced_check(c) for c in catalogue.PER_GRAPH_CHECKS))


def install_memory_probes(patches, peaks):
    def probed(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0), peak)
        return wrapper
    for fn, name in MEMORY_FUNCTIONS:
        patches.replace(fn, probed(fn, name))


# ---------------------------------------------------------------------------
# Workload rounds.  Each returns (operations, per-graph seconds); every
# operation carries what run.py needs to check it.
# ---------------------------------------------------------------------------

def _quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a failed operation, reported and checked by run.py
            code = 1
            print(repr(exc), file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def round_catalogue(tracer, args):
    starts = []
    build_bundle = catalogue.build_bundle

    def marked(spec_text, *a, **k):
        starts.append((spec_text, time.perf_counter()))
        return build_bundle(spec_text, *a, **k)
    catalogue.build_bundle = marked
    try:
        with tracer.span("cli.main"):
            code, out, err = _quiet_main(["catalogue", "--json", *COMMON_FLAGS])
        end = time.perf_counter()
    finally:
        catalogue.build_bundle = build_bundle
    bounds = [t for _, t in starts] + [end]
    per_graph = {spec: bounds[i + 1] - bounds[i] for i, (spec, _) in enumerate(starts)}
    try:
        rows = json.loads(out)
    except ValueError:
        rows = []
    return [{"name": "catalogue", "exit": code, "rows": rows, "stderr": err[-500:]}], per_graph


def round_analyze(tracer, args):
    ops, per_graph = [], {}
    for spec in args.specs:
        path = os.path.join(args.out_dir, f"analyze-{spec.replace(':', '_').replace(',', '_')}.json")
        t0 = time.perf_counter()
        with tracer.span("cli.main"):
            code, _, err = _quiet_main(["analyze", spec, "--out", path, *COMMON_FLAGS])
        per_graph[spec] = time.perf_counter() - t0
        report_dict = None
        if code == 0:
            with open(path, encoding="utf-8") as fh:
                report_dict = json.load(fh)
        ops.append({"name": spec, "exit": code, "report": report_dict, "stderr": err[-500:]})
    return ops, per_graph


def round_screen(tracer, args):
    ops, per_graph = [], {}
    stream = graph6.load_graph6_file(args.input)
    for index, g in enumerate(stream):
        t0 = time.perf_counter()
        try:
            text = report.to_json(report.run_analysis(g, f"{args.input}:{index + 1}", jobs=1))
            op = {"name": index, "exit": 0, "report": json.loads(text)}
        except Exception as exc:  # a failed operation, reported and checked by run.py
            op = {"name": index, "exit": 1, "report": None, "stderr": repr(exc)}
        per_graph[index] = time.perf_counter() - t0
        ops.append(op)
    return ops, per_graph


ROUNDS = {"catalogue": round_catalogue, "analyze_large": round_analyze, "screen_g6": round_screen}


def timed_round(run_round, tracer, args):
    t0 = time.perf_counter()
    ops, per_graph = run_round(tracer, args)
    return {"wall_s": time.perf_counter() - t0, "per_graph_s": per_graph, "ops": ops}


def layer_summary(tracer):
    """Inclusive seconds per span name, and self seconds of the cli and report layers."""
    totals = {}
    child_time = {}
    for rec in tracer.spans:
        if rec["name"] is None:
            continue
        dur = rec["end"] - rec["start"]
        totals[rec["name"]] = totals.get(rec["name"], 0.0) + dur
        if rec["parent"] is not None:
            child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + dur
    for name in ("cli.main", "report.run_analysis"):
        totals[f"{name}_self"] = sum((rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0)
                                      for rec in tracer.spans if rec["name"] == name), 0.0)
    return totals


def blas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true", help="print the import-done time and exit")
    ap.add_argument("--workload", choices=sorted(ROUNDS))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--input", help="graph6 stream for screen_g6")
    ap.add_argument("--specs", nargs="+", default=ANALYZE_SPECS, help="family specs for analyze_large")
    ap.add_argument("--out-dir")
    ap.add_argument("--result")
    args = ap.parse_args(argv)
    if args.probe:
        print(repr(IMPORTED_AT))
        return 0

    run_round = ROUNDS[args.workload]
    result = {"imported_at": IMPORTED_AT, "numpy": np.__version__, "openblas": blas_version(),
              "drgq": drgq.__version__, "rounds": []}
    off = NoTracer()
    if args.trace:
        result["rounds"].append(timed_round(run_round, off, args))
        tracer, patches = Tracer(), Patches()
        install_tracer(patches, tracer)
        try:
            result["rounds"].append(timed_round(run_round, tracer, args))
        finally:
            patches.restore()
        peaks = {}
        install_memory_probes(patches, peaks)
        try:
            result["rounds"].append(timed_round(run_round, off, args))
        finally:
            patches.restore()
        result["layers"] = layer_summary(tracer)
        result["counts"] = tracer.counts
        result["peaks_mb"] = {name: peak / 2 ** 20 for name, peak in peaks.items()}
        result["spans"] = [rec for rec in tracer.spans if rec["name"] is not None]
    else:
        # whole rounds while the next one is expected to end within --seconds,
        # and at least MIN_ROUNDS so that the reported figures are medians
        rounds, start = result["rounds"], time.perf_counter()
        while True:
            rounds.append(timed_round(run_round, off, args))
            typical = statistics.median(r["wall_s"] for r in rounds)
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + typical > args.seconds:
                break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
