"""Table III — CoNLL-2003 NER (MTurk): strict span P/R/F1.

Regenerates the paper's Table III rows on the simulated NER crowd:
MV-Classifier, AggNet, the CrowdLayer family (5 vs 1 pre-training epochs),
Logic-LNCL student/teacher, the sequence truth-inference block, and Gold.

Shape expectations: one-stage methods beat the two-stage MV-Classifier;
Logic-LNCL tops the F1 columns with teacher ≥ student; CL (MW, 1)
degrades sharply versus CL (MW, 5); sequential inference (HMM-Crowd,
BSC-seq) beats token MV.
"""

from __future__ import annotations

from conftest import fast_mode

from repro.experiments import (
    NER_INFERENCE_METHODS,
    NER_METHODS,
    PAPER_TABLE3,
    NERBenchConfig,
    Row,
    Table,
    aggregate_runs,
    bench_scale,
    build_ner_data,
    run_ner_inference_method,
    run_ner_method,
)


def _config() -> NERBenchConfig:
    if fast_mode():
        # Default model sizes and enough data for the taggers to leave the
        # all-O solution: at 120 sentences, 4 epochs and conv 32 / GRU 16
        # every trained row scored F1 0, so no row could show a regression.
        return NERBenchConfig(
            num_train=200, num_dev=50, num_test=50, num_annotators=10, epochs=6, seeds=(0,),
        )
    scale = bench_scale()
    return NERBenchConfig(
        num_train=int(500 * scale),
        num_dev=int(150 * scale),
        num_test=int(150 * scale),
        seeds=tuple(range(max(2, int(2 * scale)))),
    )


def _run_table3() -> Table:
    config = _config()
    table = Table(
        title="Table III — CoNLL-2003 NER (MTurk): strict span precision/recall/F1 (%)",
        metrics=["precision", "recall", "f1", "inf_precision", "inf_recall", "inf_f1"],
        notes=[
            f"simulated crowd: {config.num_train} train sentences / {config.num_annotators} "
            f"annotators; {len(config.seeds)} seeds x {config.epochs} epochs",
            "paper columns: 5,985 sentences / 47 annotators / 30 runs",
        ],
    )
    tasks = {seed: build_ner_data(seed, config) for seed in config.seeds}
    for name in NER_METHODS:
        runs = [run_ner_method(name, tasks[seed], config, seed) for seed in config.seeds]
        mean, std = aggregate_runs(runs)
        table.add(Row(name, mean, std, PAPER_TABLE3.get(name, {})))
    for name in NER_INFERENCE_METHODS:
        runs = [run_ner_inference_method(name, tasks[seed]) for seed in config.seeds]
        mean, std = aggregate_runs(runs)
        table.add(Row(name, mean, std, PAPER_TABLE3.get(name, {})))
    return table


def test_table3_ner(benchmark, archive):
    table = benchmark.pedantic(_run_table3, rounds=1, iterations=1)
    archive("table3_ner", table.render())

    for row in table.rows:
        for value in row.measured.values():
            assert 0.0 <= value <= 1.0
    if fast_mode():
        # The fast table must still show the trained rows learning.
        for name in ("Gold", "Logic-LNCL-student", "Logic-LNCL-teacher"):
            assert table.measured(name, "f1") > 0.0, name
    else:
        # Sequential aggregation must not lose to token-level MV.
        assert table.measured("HMM-Crowd", "inf_f1") >= table.measured("MV", "inf_f1") - 0.03
        # Logic-LNCL inference must improve on the MV initialization.
        assert (
            table.measured("Logic-LNCL-teacher", "inf_f1")
            >= table.measured("MV", "inf_f1") - 0.02
        )
