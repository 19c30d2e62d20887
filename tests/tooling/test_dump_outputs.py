"""CI wiring for the bit-identity probe ``benchmarks/dump_outputs.py``.

The dump runs in a subprocess (a fresh interpreter, as the recipe in the
script's docstring runs it). Its ``compare`` must find a dump equal to
itself, and must report exactly the one key that changed in a copy:
an array moved by one ulp, or an integer array cast to float64 with its
values unchanged.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "dump_outputs.py"
PERTURBED = "classification/DS/binary-dense/posterior"
RECAST = "classification/DS/binary-dense/extras/iterations"


def _load_script():
    spec = importlib.util.spec_from_file_location("dump_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare_with_copy(script, dump, tmp_path, capsys, arrays, key, value) -> list[str]:
    """Lines ``compare`` prints for ``dump`` against a copy with ``key`` set to ``value``."""
    changed = tmp_path / "changed.npz"
    np.savez(changed, **{**arrays, key: value})
    capsys.readouterr()
    assert script.main(["compare", str(dump), str(changed)]) == 1
    return capsys.readouterr().out.splitlines()


def test_dump_compares_clean_with_itself_and_reports_a_changed_key(tmp_path, capsys):
    dump = tmp_path / "dump.npz"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), "dump", str(dump)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert completed.returncode == 0, (
        f"dump failed\nstdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
    )

    with np.load(dump) as archive:
        arrays = dict(archive)
    assert PERTURBED in arrays
    assert arrays[RECAST].dtype == np.int64
    prefixes = (
        "classification/", "sequence/", "sharded/", "streaming/", "em/", "crowd/",
        "report/", "statistics/", "noisy/", "lncl/",
    )
    for prefix in prefixes:
        assert any(key.startswith(prefix) for key in arrays), prefix

    script = _load_script()
    assert script.main(["compare", str(dump), str(dump)]) == 0

    moved = arrays[PERTURBED].copy()
    moved.flat[0] = np.nextafter(moved.flat[0], np.inf)
    lines = _compare_with_copy(script, dump, tmp_path, capsys, arrays, PERTURBED, moved)
    assert lines[:-1] == [f"differs: {PERTURBED}"]
    assert lines[-1] == f"{len(arrays) - 1} equal, 1 differing"

    recast = arrays[RECAST].astype(np.float64)
    assert np.array_equal(recast, arrays[RECAST])
    lines = _compare_with_copy(script, dump, tmp_path, capsys, arrays, RECAST, recast)
    assert lines[:-1] == [f"dtype: {RECAST}"]
    assert lines[-1] == f"{len(arrays) - 1} equal, 1 differing"
