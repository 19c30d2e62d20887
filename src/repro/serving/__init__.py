"""Serving layer: long-lived, checkpointed truth inference over label streams.

* :mod:`repro.serving.service` — :class:`CrowdService`: per-dataset
  streaming state ownership, snapshot-consistent queries, one-commit
  checkpoints with a replay cursor (two slot pairs per dataset, the older
  overwritten in place), LRU eviction of cold datasets to disk.
* :mod:`repro.serving.state` — the checkpoint codec (checksummed
  one-read state records + :class:`~repro.crowd.sharding.SparseLabelShard`
  crowd files, each overwritten in place and fsynced).
* :mod:`repro.serving.workload` — bursty many-dataset schedules built
  from the streaming suite's generators, for benches and examples.
"""

from .service import CrowdService
from .state import load_crowd, load_stream_state, save_crowd, save_stream_state
from .workload import ServingEvent, ServingWorkload, build_serving_workload

__all__ = [
    "CrowdService",
    "ServingEvent",
    "ServingWorkload",
    "build_serving_workload",
    "save_stream_state",
    "load_stream_state",
    "save_crowd",
    "load_crowd",
]
