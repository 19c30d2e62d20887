"""End-to-end, per-layer benchmark of the Logic-LNCL pipelines and the
serving loop; ``perfbench/run.py`` is the command, ``README.md`` the guide."""
