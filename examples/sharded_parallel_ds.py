"""Out-of-core, multi-core Dawid–Skene over on-disk shard handles.

Walks through the shard-and-merge pipeline end to end:

1. simulate a classification crowd too annotator-heavy to be trivial;
2. write it to disk once as a row-sorted shard file and describe it with
   row-range :class:`~repro.crowd.sharding.ShardHandle`\\ s — small
   picklable records, not data;
3. run sharded DS three ways — serial, and over a 2-worker process pool
   both via ``workers=2`` and via a caller-owned executor — where each
   worker memmaps the shard file itself and per-round model state is
   broadcast once per pass;
4. compare every run against in-memory batch DS (``DawidSkene().infer``,
   the same EM with the whole crowd as one shard): the sharded posteriors
   agree with batch to ~1e-15, and the three sharded runs are
   *bit-identical* to each other (deterministic tree reduce).

Run:  PYTHONPATH=src python examples/sharded_parallel_ds.py
"""

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.crowd import sample_annotator_pool, simulate_classification_crowd
from repro.crowd.sharding import save_shard_handles
from repro.inference import DawidSkene, run_sharded


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    print(f"  {label}: {(time.perf_counter() - start) * 1e3:7.1f} ms")
    return result


def main() -> None:
    rng = np.random.default_rng(11)

    # 1. A synthetic crowd: 5000 instances, 47 annotators, 9 classes.
    print("Simulating the crowd ...")
    pool = sample_annotator_pool(rng, num_annotators=47, num_classes=9)
    truth = rng.integers(0, 9, size=5000)
    crowd = simulate_classification_crowd(rng, truth, pool, mean_labels_per_instance=4)

    with tempfile.TemporaryDirectory() as tmp:
        # 2. One shard file on disk, four row-range handles over it. Only
        #    the handles (path + range + dims) ever cross a pickle
        #    boundary; workers open their own memmaps.
        handles = save_shard_handles(crowd, Path(tmp) / "crowd.npy", num_shards=4)
        print(f"Wrote {len(handles)} shard handles over one "
              f"{os.path.getsize(handles[0].path) / 1024:.0f} KiB file")

        # 3. Batch DS (whole crowd in memory, one shard) vs four shards.
        print(f"Running DS four ways ({os.cpu_count()} CPU core(s) here):")
        batch = timed("batch, in-memory      ",
                      lambda: DawidSkene().infer(crowd))
        serial = timed("sharded, serial       ",
                       lambda: run_sharded("DS", handles))
        workers = timed("sharded, workers=2    ",
                        lambda: run_sharded("DS", handles, workers=2))
        with ProcessPoolExecutor(max_workers=2) as pool_executor:
            shared = timed("sharded, own executor ",
                           lambda: run_sharded("DS", handles, executor=pool_executor))

    # 4. The contracts: sharded matches batch to float round-off, and the
    #    three sharded runs match each other bit for bit.
    diff = np.abs(serial.posterior - batch.posterior).max()
    print(f"sharded vs batch posterior:   max |diff| = {diff:.2e}")
    assert diff < 1e-10
    assert serial.extras["iterations"] == batch.extras["iterations"]
    for label, run in (("workers=2", workers), ("own executor", shared)):
        identical = np.array_equal(serial.posterior, run.posterior)
        print(f"sharded serial vs {label}: bit-identical = {identical}")
        assert identical
    print("All equivalence checks passed.")


if __name__ == "__main__":
    main()
