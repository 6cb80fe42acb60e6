"""drgq benchmark: runs one workload, checks every output, prints one JSON line.

    python3 benchmarks/run.py --workload catalogue --seed 1 --seconds 30 --trace 0

Run it from the repository root; drgq is imported from ``src/``.  Workloads:
``catalogue``, ``analyze_large`` and ``screen_g6`` (see benchmarks/README.md).
With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.  Full results, settings and spans go to
``benchmarks/out/``.
"""

import os

# Fixed settings: one OpenBLAS thread here and in every child process, since
# multithreaded warm-up varies from process to process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("catalogue", "analyze_large", "screen_g6")
SETUP_PROBES = 4          # set-up samples besides the worker's own
WORKER_TIMEOUT_S = 165
PROBE_TIMEOUT_S = 20

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_graph_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = (
    "families.build", "graph6.read", "graphs.distance_data", "graphs.components",
    "graphs.isomorphism", "intersection.check", "intersection.classify", "spectral.compute",
    "spectral.inner_product", "qpoly.balanced", "qpoly.span", "qpoly.krein",
    "connectivity.last_two", "connectivity.tail", "connectivity.census",
    "report.run_analysis_self", "report.to_json", "cli.main_self",
    "catalogue.build_bundle", "catalogue.qpoly",
) + tuple(f"catalogue.check.{name}" for name in (
    "last_two", "census", "inner_split", "sphere_valency", "folded_spheres",
    "inner_product", "qpoly_consistency", "idempotents", "tail", "dual_oracle"))
LAYER_COUNTS = ("intersection.rejected", "qpoly.balanced_instances", "connectivity.vertices_swept")
LAYER_PEAKS = ("graphs.distance_data", "intersection.check", "spectral.compute",
               "qpoly.balanced", "qpoly.krein")


def git_sha(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def probe_setup(env):
    """Seconds from spawning a fresh interpreter to the end of its drgq imports."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, WORKER, "--probe"], env=env, capture_output=True,
                         text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip()) - t0


def prepare_inputs(workload, seed, out_dir):
    """Inputs and worker arguments; reference computations are deferred."""
    if workload == "screen_g6":
        stream = checks.screen_stream(seed)
        path = os.path.join(out_dir, f"screen-seed{seed}.g6")
        checks.write_stream(path, stream)
        return stream, ["--input", path]
    if workload == "analyze_large":
        rng = np.random.default_rng(seed)
        return [checks.analyze_reference(spec, rng) for spec in checks.ANALYZE_SPECS], []
    return None, []


def layer_metrics(result, untraced_wall, traced_wall):
    layers, counts, peaks = result["layers"], result["counts"], result["peaks_mb"]
    metrics = {f"{name}_s": {"value": layers.get(name, 0.0), "unit": "s"} for name in LAYER_TIMES}
    metrics.update({name: {"value": counts.get(name, 0), "unit": "count"} for name in LAYER_COUNTS})
    metrics.update({f"{name}_peak_mb": {"value": peaks.get(name, 0.0), "unit": "MB"}
                    for name in LAYER_PEAKS})
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "drgq", "__init__.py")):
        print(f"error: no drgq sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, "benchmarks", "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, **THREAD_ENV)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(out_dir, f"worker-{tag}.json")

    refs, worker_args = prepare_inputs(args.workload, args.seed, out_dir)
    setup = [probe_setup(env) for _ in range(SETUP_PROBES)]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", args.workload, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out-dir", out_dir, "--result", result_path, *worker_args],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    setup.append(result["imported_at"] - spawned)

    # references are computed only now, so they never share the CPU with timed work
    if args.workload == "catalogue":
        refs = checks.expected_catalogue_rows()
    elif args.workload == "screen_g6":
        for item in refs:
            item.prepare()
    rounds = result["rounds"]
    failures = [bad for rnd in rounds for bad in checks.check_round(args.workload, rnd["ops"], refs)]
    attempted = sum(len(rnd["ops"]) for rnd in rounds)
    # an operation that ran to its end but gave a wrong answer makes the run incorrect
    wrong = [f for f in failures if not f[1].startswith(checks.EXIT_FAILURE)]

    walls = [rnd["wall_s"] for rnd in rounds]
    if args.trace:
        metrics = layer_metrics(result, walls[0], walls[1])
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "slowest_graph_s": statistics.median(max(rnd["per_graph_s"].values()) for rnd in rounds),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    settings = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds), "threads": THREAD_ENV, "jobs": 1, "drgq_mode": "auto", "drgq_seed": 0,
        "git_sha": git_sha(root), "numpy": result["numpy"], "openblas": result["openblas"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }
    record = {"settings": settings, "metrics": metrics, "setup_samples_s": setup,
              "round_walls_s": walls, "per_graph_s": [rnd["per_graph_s"] for rnd in rounds],
              "failures": failures[:50]}
    if args.trace:
        record["trace_overhead_s"] = walls[1] - walls[0]
        with open(os.path.join(out_dir, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(result["spans"], fh)
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"settings: {json.dumps(settings)}", file=sys.stderr)
    for name, failure in failures[:10]:
        print(f"FAILED {name}: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
