"""Self-test of the benchmark at tiny sizes.

Checks that every workload reports each metric ``BENCHMARK.json`` names,
with its unit; that traced spans nest; and that a traced run leaves every
wrapped attribute as the original object.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.layers import FUNCTIONS, METHODS, REQUEST_PREFIXES, traced
from perfbench.report import layer_metrics, split_violations
from perfbench.tracing import END, PARENT, REQUEST, START, Tracer, summarize
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture
def run_main(monkeypatch, tmp_path):
    """Call the benchmark's ``main`` in-process; returns (exit code, stdout, result)."""
    for variable in bench.BLAS_VARIABLES:
        monkeypatch.setenv(variable, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(bench, "OUT", tmp_path)

    def call(workload: str, trace: int):
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = bench.main([
                "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny",
            ])
        text = stdout.getvalue()
        return code, text, json.loads(text.strip().splitlines()[-1])

    return call


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME_PATTERN.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in SPEC["workloads"])
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(set(entry) == {"name", "unit", "better"} for entry in SPEC["per_layer"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(run_main, workload, trace):
    code, text, result = run_main(workload, trace)
    assert code == 0, text
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    catalog = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in catalog
    }
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        assert "tracing overhead" in text and "per-layer attribution" in text
        assert "layer split: as predicted" in text, text


def _wrappable_locations():
    """Every attribute and table entry a traced run may replace, with its object."""
    from repro.autodiff import vjps

    modules = [m for n, m in list(sys.modules.items()) if n == "repro" or n.startswith("repro.")]
    locations = {(id(vjps.VJP_TABLE), key): value for key, value in vjps.VJP_TABLE.items()}
    locations.update({(id(vjps.FUSED_TABLE), key): value for key, value in vjps.FUSED_TABLE.items()})
    for module in modules:
        locations.update(
            {(module.__name__, attr): value for attr, value in vars(module).items() if callable(value)}
        )
    for boundary in METHODS:
        owner_name, method = boundary.attr.split(".")
        owner = getattr(sys.modules[boundary.module], owner_name)
        locations[(boundary.module, boundary.attr)] = vars(owner)[method]
    return locations


def _check_nesting(spans):
    children = {}
    for index, span in enumerate(spans):
        assert span[START] <= span[END]
        parent = span[PARENT]
        if parent >= 0:
            assert parent < index
            assert spans[parent][START] <= span[START] and span[END] <= spans[parent][END]
            children.setdefault(parent, []).append(index)
    for siblings in children.values():
        for before, after in zip(siblings, siblings[1:]):
            assert spans[before][END] <= spans[after][START]
    for index, span in enumerate(spans):
        covered = sum(spans[c][END] - spans[c][START] for c in children.get(index, ()))
        assert span[END] - span[START] - covered >= -1e-9


@pytest.mark.parametrize("workload_name", ["lncl-ner", "serving-hotcold"])
def test_traced_job_nests_spans_and_restores_every_wrapper(tmp_path, workload_name):
    import repro.inference.dawid_skene as dawid_skene
    import repro.inference.streaming as streaming
    from repro.inference import primitives

    workload = WORKLOADS[workload_name](tiny=True, workdir=tmp_path)
    before = _wrappable_locations()
    kernel = primitives.confusion_counts
    tracer = Tracer(REQUEST_PREFIXES)
    inputs = None
    try:
        with traced(tracer) as patches:
            assert len(patches) > len(FUNCTIONS) + len(METHODS)
            assert dawid_skene.confusion_counts is not kernel
            assert streaming.confusion_counts is kernel
            inputs = tracer.wrap("bench.setup", workload.setup)(5)
            setup_end = tracer.mark()
            if workload.gated:
                assert workload.gate(inputs) == []
            job = workload.job(inputs, tracer)
    finally:
        if inputs is not None:
            workload.close(inputs)
    after = _wrappable_locations()
    assert job.failures == []
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    assert tracer.spans
    _check_nesting(tracer.spans)
    stats = summarize(tracer.spans, roots=workload.timed_roots)
    assert min(stats.self_s.values()) >= -1e-9
    metrics, _ = layer_metrics(tracer, setup_end, workload.timed_roots, 1, 1)
    metrics.update(workload.layer_extras([job]))
    assert split_violations(workload_name, metrics) == []
    assert len({span[REQUEST] for span in tracer.spans}) > 1


def test_an_error_inside_a_traced_block_still_restores_every_wrapper():
    before = _wrappable_locations()
    with pytest.raises(ZeroDivisionError):
        with traced(Tracer()):
            assert _wrappable_locations() != before
            1 / 0
    after = _wrappable_locations()
    assert [key for key, value in before.items() if after.get(key) is not value] == []


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "lncl-sentiment", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
