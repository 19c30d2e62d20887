"""CI wiring for the hot-path benchmark harness.

Runs ``benchmarks/bench_hotpaths.py --smoke`` in a subprocess (fresh
interpreter, exactly as CI would) and fails if it errors — so a change
that breaks any seed-vs-live equivalence check (fused GRU, vectorized
sequence EM, sparse DS EM, batched forward–backward, sparse GLAD/PM/CATD,
the width-loop conv1d step, the float32-vs-float64 dtype twins, the
streaming replay contract, the sharded batch-twin contract, the
multi-core sharded bit-identity gate, the serving recovery gate), or the
harness itself, fails the tier-1 suite. The
smoke run finishes in a few seconds; it measures tiny sizes and makes no
speedup assertions (wall clock on shared CI boxes is not a contract) —
the resource bounds asserted are the peak-memory orderings (sharded
out-of-core below in-memory batch; float32 epochs below float64), which
tracemalloc measures deterministically enough for CI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def test_bench_hotpaths_smoke_runs_and_writes_json(tmp_path):
    output = tmp_path / "BENCH_hotpaths.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "bench_hotpaths.py"),
            "--smoke",
            "--output",
            str(output),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, (
        f"bench_hotpaths --smoke failed\nstdout:\n{completed.stdout}\n"
        f"stderr:\n{completed.stderr}"
    )

    payload = json.loads(output.read_text())
    assert payload["smoke"] is True
    sections = (
        "gru", "sequence_em", "dawid_skene", "forward_backward",
        "glad", "pm_catd", "conv1d", "streaming", "sharded",
    )
    bounds = {
        # Equivalence is asserted inside the harness; re-check it landed.
        # conv1d's two BLAS paths split the width·D reduction differently,
        # so its bound is float64 round-off rather than the 1e-10 the
        # identical-order inference rewrites achieve; streaming is pinned
        # at its documented replay contract (atol 1e-8); sharded regroups
        # per-shard partial sums (atol 1e-9, documented in the bench).
        "conv1d": 1e-9,
        "streaming": 1e-8,
        "sharded": 1e-9,
    }
    for section in sections:
        entry = payload[section]
        assert entry["before_ms"] > 0 and entry["after_ms"] > 0
        assert entry["max_abs_diff"] < bounds.get(section, 1e-10)
    assert payload["conv1d"]["buffer_bytes_avoided"] > 0
    # The streaming section must carry the per-update scaling evidence
    # (timing *relationships* are asserted nowhere — CI boxes are noisy).
    for key in (
        "before_first_update_ms", "before_last_update_ms",
        "after_first_update_ms", "after_last_update_ms",
    ):
        assert payload["streaming"][key] > 0
    # One update's cost by stream length: the smoke run stops at 8 000.
    by_length = payload["streaming"]["by_length"]["lengths"]
    assert list(by_length) == ["800", "8000"]
    for entry in by_length.values():
        assert entry["partial_fit_ms"] > 0 and entry["result_ms"] > 0

    # The dtype section: float32 fast-path twins of the TextCNN and CRNN
    # training epochs. Asserted: contract keys present, the float32 run
    # peaks below the float64 run (tape + activations at half width — a
    # deterministic tracemalloc measurement, unlike wall clock, which is
    # asserted nowhere), and the same-seed twins agree at init (the bench
    # itself gates this at 1e-2 before timing) without being the same
    # computation: a zero difference would mean the float32 twin's logits
    # were taken before the trainer cast its weights.
    for network in ("text_cnn", "crnn"):
        entry = payload["dtype"][network]
        assert entry["before_ms"] > 0 and entry["after_ms"] > 0
        assert entry["speedup"] > 0
        assert entry["after_peak_bytes"] < entry["before_peak_bytes"]
        assert 0 < entry["max_abs_logit_diff"] < 1e-2

    # The sharded section's memory claim: out-of-core inference peaks
    # below the in-memory batch run at both scales, and the shard layout
    # really is smaller than the crowd.
    for entry in (payload["sharded"], payload["sharded"]["paper_scale"]):
        assert entry["max_abs_diff"] < 1e-9
        assert entry["after_peak_bytes"] < entry["before_peak_bytes"]
        assert entry["largest_shard_coo_bytes"] < entry["crowd_label_bytes"]
        assert entry["config"]["shards"] >= 2

    # The sharded_parallel section: shape/contract keys only. The smoke
    # config runs the process path with 2 workers, so a passing run proves
    # the pool + shard-handle + broadcast plumbing works end to end (the
    # bench itself asserts bit-identity to the serial sharded run before
    # timing). Deliberately NOT asserted: parallel wall clock beating the
    # serial one — CI boxes have arbitrary core counts, and the payload's
    # config.cpu_count is exactly how a reader contextualizes the numbers.
    entry = payload["sharded_parallel"]
    assert entry["batch_ms"] > 0 and entry["serial_sharded_ms"] > 0
    assert entry["max_abs_diff"] < 1e-9
    assert entry["config"]["cpu_count"] >= 1
    assert entry["config"]["shards"] >= 2
    assert entry["workers"], "worker sweep must not be empty"
    for count, run in entry["workers"].items():
        assert int(count) >= 1
        assert run["ms"] > 0
        assert run["speedup_vs_batch"] > 0
        assert run["speedup_vs_serial_sharded"] > 0

    # The serving section: contract keys only, no latency orderings. The
    # bench's own gate (crash + restart + tail replay vs uninterrupted
    # streams at 1e-10) ran before anything was timed; re-check the
    # recorded diff, that the schedule really interleaved updates with
    # queries, and that the resident budget forced eviction churn into
    # the measured path.
    entry = payload["serving"]
    assert entry["recovery_max_abs_diff"] < 1e-10
    assert entry["update_count"] > 0 and entry["query_count"] > 0
    assert entry["updates_per_sec"] > 0
    assert entry["query_p50_ms"] >= 0
    assert entry["query_p99_ms"] >= entry["query_p50_ms"]
    assert entry["config"]["max_resident"] < entry["config"]["datasets"]
    assert entry["evictions"] > 0
    assert entry["rehydrations"] > 0
    assert entry["checkpoints"] > 0
