"""The executable specifications stay independent of what they pin.

``tests/oracles.py`` is the one home of every spec the live code is
checked against. It is an independent anchor only while it shares no
code with ``repro``: these tests parse it and refuse any import outside
numpy/scipy, the result containers, and the live autodiff pieces that
``gru_reference_forward`` composes. They also check that the equivalence
harness really compares against those oracles, and that no spec creeps
back into ``src/``.
"""

import ast
import inspect
from pathlib import Path

from .. import oracles
from ..inference.equivalence_harness import REFERENCE_IMPLEMENTATIONS

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
ORACLES = REPO_ROOT / "tests" / "oracles.py"

ALLOWED_MODULES = {"__future__", "typing", "numpy", "scipy", "repro"}
ALLOWED_REPRO_NAMES = {
    ("repro.inference.base", "InferenceResult"),
    ("repro.inference.base", "SequenceInferenceResult"),
    ("repro.autodiff", "Tensor"),
    ("repro.autodiff", "functional"),
}
BATCH_KINDS = ("classification", "sequence")


def _imports(path: Path):
    """``(module, imported name or None)`` for every import in ``path``,
    function-local ones included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or "", alias.name


def test_oracles_import_only_numpy_scipy_and_result_containers():
    for module, name in _imports(ORACLES):
        assert module.split(".")[0] in ALLOWED_MODULES, (
            f"tests/oracles.py imports {module!r}: specs use numpy/scipy only"
        )
        if module.split(".")[0] == "repro":
            assert (module, name) in ALLOWED_REPRO_NAMES, (
                f"tests/oracles.py imports {name!r} from {module!r}: an oracle "
                "may share no kernel or container code with the code it pins"
            )


def test_every_batch_reference_is_an_oracle():
    for (kind, name), reference in REFERENCE_IMPLEMENTATIONS.items():
        if kind not in BATCH_KINDS:
            continue
        oracle = inspect.unwrap(reference)
        assert getattr(oracles, oracle.__name__, None) is oracle, (
            f"REFERENCE_IMPLEMENTATIONS[({kind!r}, {name!r})] neither is nor "
            "wraps a function defined in tests/oracles.py"
        )


def test_no_spec_is_defined_under_src():
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                assert not (
                    node.name.endswith("_reference") or node.name == "forward_backward"
                ), (
                    f"{path.relative_to(REPO_ROOT)} defines {node.name}: executable "
                    "specifications live in tests/oracles.py"
                )
