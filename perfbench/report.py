"""The traced run: per-layer metrics, the attribution table and the overhead.

Untraced and traced jobs alternate for ``--seconds``, in the same process
and on the same inputs, so the difference between their medians is the
tracing overhead. Per-layer times and counts are per job (one fit, one
pass over the method tables, one schedule replay); ``crowd.simulate_s``
is per set-up.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from .layers import NONZERO_ON, REQUEST_PREFIXES, ZERO_ON, layer_of, traced
from .tracing import NAME, PARENT, Tracer, summarize

__all__ = ["traced_run", "layer_metrics", "split_violations"]


def layer_metrics(tracer: Tracer, setup_end: int, timed_roots, jobs: int, setups: int):
    """Per-job metrics of every span under a timed root, plus set-up spans.

    Returns the metrics and the :class:`~perfbench.tracing.SpanStats` of
    the timed spans.
    """
    spans = tracer.spans
    stats = summarize(spans, setup_end, roots=timed_roots)
    setup = summarize(spans, 0, setup_end, roots=("bench.setup",))
    metrics = {f"{name}_s": total / jobs for name, total in stats.total_s.items()}
    metrics["crowd.simulate_s"] = setup.total_s.get("crowd.simulate", 0.0) / setups
    metrics["baselines.epochs"] = stats.calls["baselines.train_epoch"] / jobs
    metrics["logic.chain_marginals_calls"] = stats.calls["logic.chain_marginals"] / jobs
    metrics["crowd.extend_calls"] = stats.calls["crowd.extend"] / jobs
    metrics["serving.state.bytes_written"] = (
        stats.values["serving.state.save_state"] + stats.values["serving.state.save_crowd"]
    ) / jobs

    def computes_result(index: int) -> bool:
        return any(
            spans[child][NAME] == "inference.streaming.result" or computes_result(child)
            for child in stats.children[index]
        )

    queries = [i for i in stats.kept if spans[i][NAME] == "serving.query" and spans[i][PARENT] < 0]
    if queries:
        hits = sum(1 for index in queries if not computes_result(index))
        metrics["serving.snapshot_hit_ratio"] = hits / len(queries)
    return metrics, stats


def split_violations(workload: str, metrics: dict) -> list[str]:
    """Where the traced numbers contradict the layer split of ``layers.py``."""
    violations = []
    for name, value in metrics.items():
        for prefix, workloads in ZERO_ON.items():
            if name.startswith(prefix) and workload in workloads and value != 0:
                violations.append(f"{name} = {value:g}, expected 0 on {workload}")
    for name, workloads in NONZERO_ON.items():
        if workload in workloads and not metrics.get(name, 0) > 0:
            violations.append(f"{name} = {metrics.get(name, 0):g}, expected > 0 on {workload}")
    return violations


def _print_table(stats, jobs_traced, workload_name) -> None:
    n = len(jobs_traced)
    job_s = sum(job.seconds for job in jobs_traced) / n
    by_layer = defaultdict(float)
    calls = defaultdict(int)
    for name, seconds in stats.self_s.items():
        by_layer[layer_of(name)] += seconds / n
        calls[layer_of(name)] += stats.calls[name]
    print(f"per-layer attribution, {workload_name}: self time per job over {n} traced job(s)")
    print(f"  {'layer':<24} {'self s':>10} {'share':>8} {'calls/job':>11}")
    for layer, seconds in sorted(by_layer.items(), key=lambda item: -item[1]):
        print(f"  {layer:<24} {seconds:>10.4f} {seconds / job_s:>8.1%} {calls[layer] / n:>11.1f}")
    outside = job_s - sum(by_layer.values())
    print(f"  {'client (outside spans)':<24} {outside:>10.4f} {outside / job_s:>8.1%}")
    print(f"  {'job total':<24} {job_s:>10.4f} {1:>8.1%}")
    print("  largest spans by self time:")
    for name, seconds in sorted(stats.self_s.items(), key=lambda item: -item[1])[:12]:
        print(f"    {name:<48} {seconds / n:>10.4f} s {seconds / n / job_s:>7.1%}")


def _shares(workload_name: str, metrics: dict, job_s: float) -> list[str]:
    """The traced shares the workload was chosen to show (printed, not gated)."""
    if workload_name == "serving-hotcold":
        state = sum(value for name, value in metrics.items()
                    if name.startswith("serving.state.") and name.endswith("_s"))
        resident = metrics.get("inference.streaming.partial_fit_s", 0.0)
        return [f"resident path (inference.streaming.partial_fit_s) {resident / job_s:.1%} of replay",
                f"checkpoint I/O (serving.state.*) {state / job_s:.1%} of replay"]
    vjps = {name: value for name, value in metrics.items() if name.startswith("autodiff.vjp.")}
    if vjps:
        largest = max(vjps, key=vjps.get)
        return [f"largest VJP: {largest} {vjps[largest] / job_s:.1%} of the job"]
    return []


def traced_run(run, args, import_s: float, catalog: dict, out_dir) -> dict:
    """Alternating untraced and traced jobs; returns every per-layer metric of the catalog."""
    from repro.autodiff.tensor import tape_node_count

    workload = run.workload
    setup_plain, inputs = run.setups(args.seed)
    workload.close(inputs)
    tracer = Tracer(REQUEST_PREFIXES)
    with traced(tracer):
        setup_traced, inputs = run.setups(args.seed, tracer)
    setup_end = tracer.mark()
    jobs_plain, jobs_traced, nodes = [], [], 0
    try:
        run.gate(inputs)
        deadline = time.perf_counter() + args.seconds
        while True:  # alternate, so a drift in machine speed hits both kinds alike
            done = len(jobs_plain) + len(jobs_traced)
            jobs_plain += run.jobs(inputs, 0)
            start = tape_node_count()
            with traced(tracer):
                jobs_traced += run.jobs(inputs, 0, tracer)
            nodes += tape_node_count() - start
            if len(jobs_plain) + len(jobs_traced) < done + 2 or time.perf_counter() >= deadline:
                break
    finally:
        workload.close(inputs)
    tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.tsv")
    if not jobs_plain or not jobs_traced:
        return {}

    metrics, stats = layer_metrics(
        tracer, setup_end, workload.timed_roots, len(jobs_traced), len(setup_traced)
    )
    metrics["autodiff.tape_nodes"] = nodes / len(jobs_traced)
    metrics.update(workload.layer_extras(jobs_plain))

    _print_table(stats, jobs_traced, workload.name)
    plain_job = statistics.median(job.seconds for job in jobs_plain)
    traced_job = statistics.median(job.seconds for job in jobs_traced)
    plain_setup = import_s + statistics.median(setup_plain)
    traced_setup = import_s + statistics.median(setup_traced)
    print(
        f"tracing overhead, {workload.name}: job_s {plain_job:.4f} -> {traced_job:.4f} s "
        f"({traced_job / plain_job - 1:+.1%}), setup_s {plain_setup:.4f} -> {traced_setup:.4f} s "
        f"({traced_setup / plain_setup - 1:+.1%}), {len(tracer.spans)} spans"
    )
    for line in _shares(workload.name, metrics, traced_job):
        print(f"share: {line}")
    violations = split_violations(workload.name, metrics)
    print("layer split: " + ("as predicted" if not violations else "; ".join(violations)))
    roots = {f"{root}_s" for root in workload.timed_roots}
    uncatalogued = sorted(name for name, value in metrics.items()
                          if value and name not in catalog["per_layer"] and name not in roots)
    if uncatalogued:
        print(f"measured but not in BENCHMARK.json: {', '.join(uncatalogued)}")
    return {name: metrics.get(name, 0.0) for name in catalog["per_layer"]}
