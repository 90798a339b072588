#!/usr/bin/env python3
"""motionseg benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload semi_rnn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one fresh process each

One workload runs in one process, as a closed loop with a single caller:

1. set-up, five times: generate the synthetic corpus from ``--seed``, save it,
   load it back (``setup_s`` adds the import time to the median of the five);
2. the workload's training job, two or three times (``job_s`` is the median;
   every run must give identical accuracies, which is the determinism check);
3. after the first job, every trained model saved and reloaded through
   ``modelio``, and the reloaded models checked against the in-memory ones;
4. after each job, a block of the inference sweep over the demos with the
   reloaded models, one whole demo per call. The blocks share the window of
   ``--seconds`` from the first job's start evenly, so latencies are sampled
   across it; the sweep makes at least 200 calls, so p90 has 20 samples
   beyond it.

With ``--trace 1`` the job runs once more, untraced first, the sweep is a
fixed 200 calls after the last job, and the per-layer metrics come from spans
recorded by wrapping public functions (see ``spans.py``). Tracing overhead is
the traced ``job_s`` minus the untraced one.

Every check that fails or raises counts in ``failed`` out of ``attempted``.
The last stdout line is one JSON object; a fuller record, with the run
environment and, for traced runs, the spans, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Fix the BLAS thread cap before numpy loads; one thread keeps timings steady
# and fits every machine (it never exceeds nproc).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("semi_rnn", "chain_labelers", "pose_imitate")
SETUP_REPEATS = 5
MIN_INFER_CALLS = 200
MODELIO_CHECK_DEMOS = 4


class Ops:
    """Counts checked operations; any exception or failed check is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, what, fn, *args):
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # every failure of the program is counted, not fatal
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return False, None


class Abort(Exception):
    """A step that later steps depend on failed; the run reports what it has."""


def run_environment(seed, np_module):
    try:
        deps = np_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np_module.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def per_layer_values(summary, counts, overhead_s, n_spans):
    """Per-layer metric values from merged spans, keyed as in BENCHMARK.json."""

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    values = {
        "trace.overhead_s": overhead_s,
        "trace.spans": n_spans,
        "embedding.sampler_calls": calls("embedding.sampler"),
        "hsmm.posteriors_calls": calls("hsmm.posteriors"),
        "crf.loglik_grad_calls": calls("crf.loglik_grad"),
        "numerics.optimizer_steps": calls("numerics.optimizer_step"),
        "crf.accept_ratio": (
            counts.get("crf.accepted_steps", 0) / calls("crf.loglik_grad")
            if calls("crf.loglik_grad") else 0.0
        ),
    }
    for name, row in summary.items():
        values[f"{name}_s"] = row["total_s"]
        layer_self = f"{name.split('.')[0]}.self_s"
        values[layer_self] = values.get(layer_self, 0.0) + row["self_s"]
    values.update(counts)
    return values


def merge_summaries(tracers):
    summary, counts = {}, {}
    for tracer in tracers:
        for name, row in tracer.summary().items():
            acc = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, n in tracer.counts.items():
            counts[key] = counts.get(key, 0) + n
    return summary, counts


class WorkloadRun:
    """One workload in this process: set-up, then jobs, modelio and the inference sweep."""

    def __init__(self, args, workloads, Tracer, import_s):
        self.args = args
        self.trace = bool(args.trace)
        self.workloads = workloads
        self.W = workloads.WORKLOADS[args.workload](args.scale)
        self.Tracer = Tracer
        self.import_s = import_s
        self.ops = Ops()
        self.work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
        self.values: dict[str, float] = {}
        self.record: dict = {}
        self.tracers: dict = {}  # phase -> Tracer whose spans feed the per-layer metrics

    def _new_tracer(self):
        return self.Tracer() if self.trace else None

    @contextmanager
    def _traced(self, tracer, span_name):
        if tracer is None:
            yield
            return
        with tracer.installed(), tracer.span(span_name):
            yield

    def measure(self):
        os.makedirs(self.work, exist_ok=True)
        try:
            dataset = self.setup()
            self.jobs_and_sweep(dataset)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def setup(self):
        """Generate, save and reload the corpus; the program only sees the reload."""
        data, seed = self.workloads.data, self.args.seed
        times, dataset = [], None
        for i in range(SETUP_REPEATS):
            tracer = self._new_tracer()
            out_dir = os.path.join(self.work, f"data{i}")

            def setup_once():
                t0 = perf_counter()
                generated = data.generate_synthetic(self.W.synthetic(seed))
                t1 = perf_counter()
                manifest = data.save_dataset(generated, out_dir)
                t2 = perf_counter()
                loaded = data.load_dataset(manifest)
                t3 = perf_counter()
                self.workloads.check_same_dataset(generated, loaded)
                return loaded, (t1 - t0, t2 - t1, t3 - t2)

            with self._traced(tracer, "bench.setup"):
                ok, out = self.ops.run("setup", setup_once)
            shutil.rmtree(out_dir, ignore_errors=True)
            if not ok:
                raise Abort("set-up failed")
            dataset, parts = out
            times.append(parts)
            self.tracers["setup"] = tracer
        self.values["setup_s"] = self.import_s + statistics.median(sum(p) for p in times)
        self.record["setup"] = {"import_s": self.import_s, "generate_save_load_s": times}
        return dataset

    def jobs_and_sweep(self, dataset):
        """The training job, repeated, with a block of the inference sweep after each.

        Every repeat must give the same results (the determinism check). The
        first job's models go through modelio, and the reloads are what the
        sweep calls. Untraced, the sweep blocks split the window evenly, so
        the latencies are sampled across the whole window, not only its end.
        """
        self.window_start = perf_counter()
        n_jobs = self.W.job_repeats + (1 if self.trace else 0)
        times, qualities, counts, latencies = [], [], [], []
        reloaded = state_maps = None
        for i in range(n_jobs):
            tracer = self._new_tracer() if i > 0 else None

            def job_once():
                out = self.W.job(dataset)
                self.workloads.check_quality(out.quality)
                return out

            result = None  # free the previous job's models before timing the next
            gc.collect()
            t0 = perf_counter()
            with self._traced(tracer, "bench.job"):
                ok, result = self.ops.run("job", job_once)
            times.append(perf_counter() - t0)
            if not ok:
                raise Abort("job failed")
            qualities.append(result.quality)
            if tracer is not None:
                counts.append(tracer.call_counts())
                self.tracers["job"] = tracer
            if i == 0:
                reloaded, state_maps = self.modelio(result, dataset), result.state_maps
            last = i == n_jobs - 1
            if self.trace:  # a fixed sweep after the last job; its latencies are not reported
                if last:
                    self.sweep_block(reloaded, state_maps, dataset, latencies, None)
            else:
                deadline = self.window_start + self.args.seconds * (i + 1) / n_jobs
                self.sweep_block(reloaded, state_maps, dataset, latencies, deadline, last)

        def determinism():
            if any(q != qualities[0] for q in qualities) or any(c != counts[0] for c in counts):
                raise self.workloads.CheckFailed("two jobs on the same corpus disagree")

        self.ops.run("determinism", determinism)
        self.record.update(job_s_runs=times, quality_runs=qualities, quality=qualities[-1])
        if self.trace:
            self.values["job_s"] = statistics.median(times[1:])
            self.record["job_s_untraced"] = times[0]
            self.record["trace_overhead_s"] = self.values["job_s"] - times[0]
        else:
            self.values["job_s"] = statistics.median(times)
        self.values["infer_ms_p50"] = 1e3 * percentile(latencies, 50)
        self.values["infer_ms_p90"] = 1e3 * percentile(latencies, 90)
        self.record["infer_calls"] = len(latencies)
        self.record["window_s"] = perf_counter() - self.window_start

    def modelio(self, result, dataset):
        """Save and reload every model; the reloads must match the in-memory models."""
        tail = self.tracers["tail"] = self._new_tracer()
        W, C = self.W, dataset.num_classes

        def round_trip():
            reloaded, nbytes = self.workloads.save_and_reload(result.models, self.work)
            for demo in dataset.demos[:MODELIO_CHECK_DEMOS]:
                a = W.infer(result.models, result.state_maps, demo, C)
                b = W.infer(reloaded, result.state_maps, demo, C)
                if not self.workloads.same_outputs(a, b):
                    raise self.workloads.CheckFailed(f"reloaded model disagrees on {demo.demo_id}")
            return reloaded, nbytes

        with self._traced(tail, "bench.modelio"):
            ok, out = self.ops.run("modelio", round_trip)
        if not ok:
            raise Abort("modelio round trip failed")
        reloaded, self.record["model_bytes"] = out
        return reloaded

    def sweep_block(self, reloaded, state_maps, dataset, latencies, deadline, last=True):
        """One caller labels (or pose-decodes) one whole demo per call.

        Runs until ``deadline``; the last block also runs until the sweep has
        made ``MIN_INFER_CALLS`` calls. Demos are taken in turn across blocks.
        """
        min_calls = MIN_INFER_CALLS if last else 0
        gc.collect()
        with self._traced(self.tracers["tail"], "bench.infer"):
            while len(latencies) < min_calls or (
                deadline is not None and perf_counter() < deadline
            ):
                demo = dataset.demos[len(latencies) % len(dataset.demos)]
                t0 = perf_counter()
                self.ops.run("infer", self.W.infer, reloaded, state_maps, demo,
                             dataset.num_classes)
                latencies.append(perf_counter() - t0)

    def per_layer(self, layer_specs):
        parts = [t for t in self.tracers.values() if t is not None]
        summary, counts = merge_summaries(parts)
        values = per_layer_values(summary, counts, self.record.get("trace_overhead_s", 0.0),
                                  sum(len(t.spans) for t in parts))
        values.update(self.record.get("quality", {}))
        self.record["spans_summary"] = summary
        return {s["name"]: values.get(s["name"], 0) for s in layer_specs}

    def write_spans(self):
        """Every recorded span, one JSON array per line: phase, name, start, end, parent."""
        path = os.path.join(OUT_DIR, f"{self.args.workload}-seed{self.args.seed}-spans.jsonl")
        with open(path, "w") as fh:
            for phase, tracer in self.tracers.items():
                for span in tracer.spans if tracer else ():
                    fh.write(json.dumps([phase, *span]) + "\n")


def run_workload(args) -> int:
    t_import = perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    try:
        import numpy as np
        import motionseg

        import workloads
        from spans import Tracer
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t_import
    if not os.path.abspath(motionseg.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"motionseg was imported from {motionseg.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {s["name"]: s["unit"] for s in spec["end_to_end"] + spec["per_layer"]}

    run = WorkloadRun(args, workloads, Tracer, import_s)
    run.record.update(workload=args.workload, scale=args.scale, trace=args.trace,
                      env=run_environment(args.seed, np))
    try:
        run.measure()
    except Abort as exc:
        run.record["aborted"] = str(exc)
    values = run.values
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace and "job" in run.tracers:
        values.update(run.per_layer(specs))
        run.write_spans()
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs if s["name"] in values}
    ops = run.ops
    correct = ops.failed == 0 and len(metrics) == len(specs)
    run.record.update(metrics=metrics, attempted=ops.attempted, failed=ops.failed,
                      errors=ops.errors, correct=correct)
    report(args, run.record, units)
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def report(args, record, units):
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=float)
    env = record["env"]
    print(f"# {args.workload} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} commit={env['commit']}")
    for name, m in record["metrics"].items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        for name, value in record.get("quality", {}).items():
            print(f"{name:28s} {value:14.6g} {units[name]}  (per-layer, from the job)")
    print(f"{'failed_ops':28s} {record['failed']:14d} count (of ops={record['attempted']})")
    if "infer_calls" in record:
        print(f"{'infer_calls':28s} {record['infer_calls']:14d} count (p50/p90 sample size)")
    if "spans_summary" in record:
        print(f"tracing overhead: {record['trace_overhead_s']:.4f} s on job_s "
              f"(untraced {record['job_s_untraced']:.4f} s)")
        print(f"{'span':30s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in sorted(record["spans_summary"].items()):
            print(f"{name:30s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    for err in record["errors"]:
        print(f"FAILED {err}")
    print(f"# full record: {os.path.relpath(path, ROOT)}")


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        status = status or proc.returncode
        rows.append((name, result))
    for name, result in rows:
        metrics = "  ".join(f"{k}={v['value']:.4g}{v['unit']}"
                            for k, v in result["metrics"].items())
        print(f"{name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {metrics}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="draws the synthetic corpus")
    parser.add_argument("--seconds", type=int, default=35,
                        help="length of the measured window: jobs and inference sweep")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy is the criterion-7 corpus shape, for smoke tests")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
