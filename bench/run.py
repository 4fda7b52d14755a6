"""treegibbs benchmark: one seeded workload, timed end to end or traced per module.

    python3 bench/run.py --workload {tail_cli,finite}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a treegibbs checkout; the package is imported from
``src/``.  Load model: a closed loop with one client.  One process runs the
workload's fixed op list back to back, one op at a time, in whole passes.
The pass count is fixed by ``--seconds`` and the workload's nominal pass
time, never by a time measured in the run, so every run uses the same
estimators.

Every timing is calibrated to a reference machine speed (``refspeed.py``):
the benchmark times a fixed kernel right before and after each op and
rescales the op's wall time by the kernel timings around it, so that the figures follow the program
rather than the load other tenants put on a shared host.  The uncalibrated
wall-time figures are printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a warm-up
pass, an untraced pass and a traced pass, reports per-module metrics of the
traced pass and the tracing overhead (traced against untraced wall time),
and writes the spans to ``.bench_out/<workload>/trace.json``.  All timing is
process-local (``time.perf_counter`` and ``getrusage`` of this process);
nothing traces the system.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import os
import sys

# pin BLAS/OpenMP pools before numpy is imported, so timings measure the
# program rather than the thread scheduler
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refspeed  # noqa: E402
import workloads  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3
TRACE_PASSES = 2  # untraced passes before the traced one: a warm-up, then the reference
# nominal seconds per pass at the seed commit; with --seconds they fix the pass
# count, which is never derived from a time measured in the run
NOMINAL_PASS_S = {"tail_cli": 9.0, "finite": 7.5}
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, how it is derived from the traced pass)
_BUSY = "busy"
_CALLS = "calls"
PER_LAYER = (
    ("gibbs.tail_green_solves", "count", (_CALLS, "gibbs.TailGreen")),
    ("gibbs.tail_green_s", "s", (_BUSY, "gibbs.TailGreen")),
    ("gibbs.tail_critical_value_s", "s", (_BUSY, "gibbs.tail_critical_value")),
    ("gibbs.critical_exponent_calls", "count", (_CALLS, "gibbs.critical_exponent")),
    ("gibbs.critical_exponent_s", "s", (_BUSY, "gibbs.critical_exponent")),
    ("gibbs.spectral_radius_calls", "count", (_CALLS, "gibbs.spectral_radius")),
    ("gibbs.spectral_radius_s", "s", (_BUSY, "gibbs.spectral_radius")),
    ("gibbs.shadow_vector_s", "s", (_BUSY, "gibbs.shadow_vector")),
    ("gibbs.compute_gibbs_s", "s", (_BUSY, "gibbs.compute_gibbs")),
    ("wsg.search_certificate_s", "s", (_BUSY, "wsg.search_certificate")),
    ("wsg.search_calls", "count", (_CALLS, "wsg.search_certificate")),
    ("wsg.gate_solves_per_search", "ratio", None),
    ("wsg.verify_certificate_calls", "count", (_CALLS, "wsg.verify_certificate")),
    ("wsg.verify_certificate_s", "s", (_BUSY, "wsg.verify_certificate")),
    ("wsg.degradation_probe_s", "s", (_BUSY, "wsg.degradation_probe")),
    ("wsg.lemma_bound_check_s", "s", (_BUSY, "wsg.lemma_bound_check")),
    ("wsg.tail_certificate_s", "s", (_BUSY, "wsg.tail_certificate")),
    ("chain.build_chain_s", "s", (_BUSY, "chain.build_chain")),
    ("chain.states_built", "count", None),
    ("chain.check_markov_property_s", "s", (_BUSY, "chain.check_markov_property")),
    ("chain.mixing_rate_estimate_s", "s", (_BUSY, "chain.mixing_rate_estimate")),
    ("chain.taboo_matrix_powers_s", "s", (_BUSY, "chain.taboo_matrix_powers")),
    ("counting.renewal_constant_s", "s", (_BUSY, "counting.renewal_constant")),
    ("counting.renewal_exact_attempts", "count", None),
    ("counting.renewal_exact_hit_ratio", "ratio", None),
    ("counting.orbit_oracle_s", "s", (_BUSY, "counting.orbit_oracle")),
    ("counting.error_decay_report_s", "s", (_BUSY, "counting.error_decay_report")),
    ("cover.cover_census_s", "s", (_BUSY, "cover.cover_census")),
    ("cover.census_vertices", "count", None),
    ("graph.materialize_calls", "count", (_CALLS, "graph.materialize")),
    ("graph.materialize_s", "s", (_BUSY, "graph.materialize")),
    ("cli.run_command_s", "s", (_BUSY, "cli.run_command")),
    ("cli.emit_report_s", "s", (_BUSY, "cli.emit_report")),
) + tuple((f"{m}.self_s", "s", None) for m in MODULES)


def _import_seconds(root, env):
    """``import treegibbs`` in a fresh interpreter, calibrated by the
    reference kernel run in that interpreter right after the import."""
    code = ("import time; t = time.perf_counter(); import treegibbs; "
            "t = time.perf_counter() - t; import refspeed; print(t, refspeed.kernel_seconds())")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    wall, kernel = map(float, out.stdout.split())
    return wall, wall * refspeed.NOMINAL_S / kernel


def _pass_count(workload, seconds, smoke):
    if smoke:
        return MIN_PASSES
    return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))


def _run_pass(ops, passdir, clock, tracer=None):
    """Run every op once; returns (clock span of each op or None, [(op, problem)])."""
    os.makedirs(passdir, exist_ok=True)
    state = {}
    spans, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
            tracer.enabled = True
        problem = span = None
        try:
            span, result = clock.time(lambda: op.run(passdir))
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            result, problem = None, f"raised {type(exc).__name__}: {exc}"
        spans.append(span)
        if tracer is not None:
            tracer.enabled = False
        if problem is None:
            try:
                problem = op.check(result, state)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append((op.name, problem))
    return spans, failures


def _tail(samples):
    """(value, percentile, samples beyond it): the highest nearest-rank
    percentile with TAIL_BEYOND samples above it; the maximum if too few."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def _timing_metrics(setups, per_op):
    """Timing metrics from set-up times and per-op samples (one per pass).

    Throughput sums each op's median over the passes; the percentiles are
    taken over every op sample, so that TAIL_BEYOND of them lie beyond the tail.
    """
    op_s = [statistics.median(samples) for samples in per_op if samples]
    every = [x for samples in per_op for x in samples]
    tail, pct, beyond = _tail(every)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(op_s) / sum(op_s),
        "op_p50_s": statistics.median(every),
        "op_tail_s": tail,
    }, f"p{pct:.1f} op time over n = {len(every)} op samples ({beyond} beyond it)"


def _layer_metrics(tracer):
    calls, busy = tracer.totals()
    self_s = tracer.self_times()
    searches = calls["wsg.search_certificate"]
    attempts = tracer.counts["counting.renewal_exact_attempts"]
    hits = tracer.counts["counting.renewal_exact_hits"]
    derived = {
        "wsg.gate_solves_per_search": (
            tracer.count_under("gibbs.spectral_radius", "wsg.search_certificate") / searches
            if searches else 0.0
        ),
        "chain.states_built": tracer.counts["chain.states_built"],
        "counting.renewal_exact_attempts": attempts,
        "counting.renewal_exact_hit_ratio": hits / attempts if attempts else 0.0,
        "cover.census_vertices": tracer.counts["cover.census_vertices"],
    }
    derived.update({f"{m}.self_s": self_s[m] for m in MODULES})
    out = {}
    for name, unit, how in PER_LAYER:
        if how is None:
            value = derived[name]
        elif how[0] == _CALLS:
            value = calls[how[1]]
        else:
            value = busy[how[1]]
        out[name] = {"value": value, "unit": unit}
    return out, f"{hits}/{attempts}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "treegibbs", "__init__.py")) or not os.path.isdir(
        os.path.join(root, "fixtures")
    ):
        print(f"error: {root} is not a treegibbs checkout (no src/treegibbs or fixtures/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
    import numpy
    import treegibbs as tg
    import treegibbs.cli  # noqa: F401  (the CLI ops call tg.cli.main)

    workdir = os.path.join(root, ".bench_out", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)

    clock = refspeed.Clock()
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(_import_seconds(root, env))
        span, ops = clock.time(lambda: workloads.build(
            args.workload, tg, args.seed, root, os.path.join(workdir, "setup"), smoke=args.smoke))
        builds.append(span)

    passes = TRACE_PASSES if args.trace else _pass_count(args.workload, args.seconds, args.smoke)
    op_spans = [[] for _ in ops]  # clock span of each op in each untraced pass
    failures, pass_spans = [], []
    tracer = None
    for k in range(passes):
        spans, f = _run_pass(ops, os.path.join(workdir, f"pass{k}"), clock)
        for samples, span in zip(op_spans, spans):
            samples.append(span)
        failures += [(k, name, problem) for name, problem in f]
        pass_spans.append(spans)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            spans, f = _run_pass(ops, os.path.join(workdir, "traced"), clock, tracer)
        finally:
            tracer.uninstall()
        failures += [("traced", name, problem) for name, problem in f]
        pass_spans.append(spans)

    def seconds(how, spans):
        return [how(span) for span in spans if span is not None]

    walls = [seconds(clock.wall, spans) for spans in op_spans]
    per_op = [seconds(clock.calibrated, spans) for spans in op_spans]
    setup_walls = [w + clock.wall(b) for (w, _), b in zip(imports, builds)]
    setups = [c + clock.calibrated(b) for (_, c), b in zip(imports, builds)]
    pass_times = [sum(seconds(clock.wall, spans)) for spans in pass_spans]
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump({"ops": [op.name for op in ops], "wall_s": walls, "calibrated_s": per_op,
                   "setup_wall_s": setup_walls, "setup_calibrated_s": setups}, fh)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(ops) * len(pass_times)
    failed = len(failures)
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops x {len(pass_times)} passes"
          + (" (the last one traced)" if args.trace else ""))
    print(f"environment: nproc {os.cpu_count()}, BLAS/OpenMP threads pinned to {BLAS_THREADS}, "
          f"python {platform.python_version()}, numpy {numpy.__version__}; timing is "
          "process-local (perf_counter, getrusage), no system-wide tracing")
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for k, name, problem in failures[:20]:
        print(f"  FAILED pass {k} {name}: {problem}")

    if args.trace:
        metrics, base = _layer_metrics(tracer)
        untraced, traced = pass_times[-2:]
        print(f"tracing overhead: traced pass {traced:.3f} s vs the warm untraced pass before it "
              f"{untraced:.3f} s (x{traced / untraced:.3f}), {len(tracer.spans)} spans")
        print(f"counting.renewal_exact_hit_ratio base: {base} hits/attempts")
        with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "ops": [op.name for op in ops],
                "untraced_pass_s": untraced,
                "traced_pass_s": traced,
                "columns": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [[n, a - tracer.spans[0][1], b - tracer.spans[0][1], p, o]
                          for n, a, b, p, o in tracer.spans] if tracer.spans else [],
            }, fh)
    else:
        values, tail_basis = _timing_metrics(setups, per_op)
        raw, _ = _timing_metrics(setup_walls, walls)
        values["ok_ratio"] = (attempted - failed) / attempted
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"op_tail_s is the {tail_basis}")
        print("timings are calibrated to reference speed (refspeed.py); uncalibrated wall: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
