"""Precision policy for the autodiff engine (the *only* place dtypes are named).

The engine supports exactly two floating dtypes:

* ``float64`` — the **reference** path. Every equivalence contract in the
  repo (seed-vs-live benches at 1e-10, fused-vs-per-gate GRU at 1e-10,
  conv variant agreement at 1e-11, gradcheck vs central differences) is
  pinned on float64 and unchanged by the policy.
* ``float32`` — the **training fast path** (:data:`FAST_DTYPE`): ~2×
  memory bandwidth on every GEMM in the GRU/conv/MLP hot paths. The
  paper's pipelines train in it (``sentiment_paper_config`` and
  ``ner_paper_config`` take their ``dtype`` from the constant). Float32
  twins of the equivalence tests run at the bumped tolerance
  (:func:`equivalence_atol`).

Resolution rules (deterministic, applied everywhere):

* Explicit ``dtype=`` arguments always win.
* Arrays that are already float32/float64 keep their dtype when wrapped
  (:func:`coerce_array`; a float32 pretrained embedding matrix is *not*
  silently doubled to float64).
* Everything else — Python scalars, int arrays, lists, parameter
  initializers — takes the ambient default
  (:func:`get_default_dtype`, float64 unless changed via
  :func:`set_default_dtype` / the :class:`default_dtype` context manager).
* Mixed-dtype op inputs promote by NumPy's rules (float64 wins); the
  backward pass computes each primitive's VJP in the dtype of that
  primitive's *output* and accumulates into each parameter in the
  parameter's *own* dtype.

The ``dtype-literal`` rule of the contract linter (:mod:`repro.analysis`)
forbids raw ``np.float64`` / ``np.float32`` literals anywhere else in
``src/repro``, and holds ``repro.autodiff`` at zero findings, so the
policy cannot silently erode.

Above the layer library the one precision setting is
``TrainerConfig.dtype``: models are built without a dtype and the
trainer casts them (:meth:`repro.autodiff.nn.Module.cast`) before it
allocates optimizer state. Its default stays float64, the reference
path; the paper's Table I configs select the fast path through
:data:`FAST_DTYPE`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FAST_DTYPE",
    "canonical_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "resolve_dtype",
    "is_float_dtype",
    "coerce_array",
    "float_dtype_names",
    "equivalence_atol",
]

# The two dtypes the engine supports, keyed by canonical name.
_ALLOWED: dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

# Tolerance tiers for equivalence-style tests and benches: float64 keeps
# the repo-wide 1e-10 discipline; float32 twins run at a bumped 1e-4.
_EQUIVALENCE_ATOL: dict[str, float] = {"float64": 1e-10, "float32": 1e-4}

_DEFAULT = _ALLOWED["float64"]

# The training fast path, by canonical name: the precision the paper's
# Table I configs train in. The pseudo-E-step computes in float64 whatever
# dtype the network returns.
FAST_DTYPE = "float32"


def float_dtype_names() -> tuple[str, ...]:
    """Canonical names accepted by the policy (for config validation)."""
    return tuple(_ALLOWED)


def canonical_dtype(dtype) -> np.dtype:
    """Validate and normalize ``dtype`` (name, ``np.dtype`` or scalar type).

    Raises ``ValueError`` for anything that is not float32/float64 — the
    engine is a two-precision system by design.
    """
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(f"unrecognized dtype {dtype!r}") from exc
    canonical = _ALLOWED.get(resolved.name)
    if canonical is None:
        raise ValueError(
            f"dtype must be one of {float_dtype_names()}, got {resolved.name!r}"
        )
    return canonical


def get_default_dtype() -> np.dtype:
    """The ambient dtype used for scalars, int coercions and param init."""
    return _DEFAULT


def set_default_dtype(dtype) -> np.dtype:
    """Set the ambient default dtype; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = canonical_dtype(dtype)
    return previous


class default_dtype:
    """Context manager scoping :func:`set_default_dtype`.

    Trainers enter this with ``TrainerConfig.dtype`` so every scalar
    constant, loss coercion and freshly built parameter inside the
    training loop follows the configured precision.
    """

    def __init__(self, dtype) -> None:
        self._dtype = canonical_dtype(dtype)
        self._previous: np.dtype | None = None

    def __enter__(self) -> "default_dtype":
        self._previous = set_default_dtype(self._dtype)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_default_dtype(self._previous)


def resolve_dtype(dtype=None) -> np.dtype:
    """``dtype`` if given (validated), else the ambient default."""
    if dtype is None:
        return _DEFAULT
    return canonical_dtype(dtype)


def is_float_dtype(dtype) -> bool:
    """True for the two dtypes the engine computes in."""
    return getattr(dtype, "name", None) in _ALLOWED


def coerce_array(value, dtype=None, copy: bool = False) -> np.ndarray:
    """Coerce ``value`` to an engine array under the policy.

    Explicit ``dtype`` wins; a float32/float64 array keeps its own dtype;
    anything else (ints, lists, scalars) takes the ambient default.
    """
    if isinstance(value, np.ndarray):
        if dtype is None:
            target = value.dtype if is_float_dtype(value.dtype) else _DEFAULT
        else:
            target = canonical_dtype(dtype)
        if value.dtype != target:
            return value.astype(target)
        return np.array(value, copy=True) if copy else value
    return np.array(value, dtype=resolve_dtype(dtype), copy=True)


def equivalence_atol(dtype=None) -> float:
    """Tolerance tier for equivalence tests at ``dtype`` (default: ambient)."""
    return _EQUIVALENCE_ATOL[resolve_dtype(dtype).name]
