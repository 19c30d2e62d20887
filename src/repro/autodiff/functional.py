"""Neural-network functional operations on :class:`~repro.autodiff.Tensor`.

These are the composite operations the paper's two architectures require:

* ``embedding`` — static/trainable word-vector lookup;
* ``conv1d_seq`` — 1-D convolution over the time axis of an embedded
  sequence (Kim-CNN filter windows; the tagger's width-5 convolution),
  with an auto-selected im2col / width-loop execution variant (the latter
  never materializes the ``(B, T_out, width·D)`` window buffer);
* ``max_over_time`` — max pooling over the (optionally masked) time axis;
* ``softmax`` / ``log_softmax`` — numerically stable, any axis;
* ``dropout`` — inverted dropout driven by an explicit RNG;
* ``concat`` / ``stack`` — graph-aware joins used by multi-window CNNs
  and the per-gate reference GRU loop;
* ``gru_sequence`` — the GRU hot path: the entire layer (whole-sequence
  input projection + packed time loop) as a *single* tape node with a
  hand-derived BPTT rule (the fused sigmoid/tanh-with-grad path), vs ~12
  nodes per timestep for the per-gate cell;
* soft-target cross-entropy losses — the Logic-LNCL pseudo-M-step trains
  against *distributions* ``qf(t)`` (paper Eq. 8/10), not hard labels, so the
  losses accept a full target distribution and optional per-instance weights
  (the ``num(J(i))`` weighting of Eq. 10).

Each op here only computes the forward value and records a tape entry
naming its primitive plus the saved context; the matching gradient rules
live in the VJP registry (:mod:`repro.autodiff.vjps`). Ops compute in the
NumPy-promoted dtype of their inputs (scratch buffers included), so a
float32 model runs its whole forward *and* backward in float32; losses
coerce their constant targets/weights to the logits dtype.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .tensor import Tensor, _tracking

__all__ = [
    "embedding",
    "conv1d_seq",
    "max_over_time",
    "softmax",
    "log_softmax",
    "dropout",
    "concat",
    "stack",
    "gru_sequence",
    "cross_entropy_soft",
    "sequence_cross_entropy_soft",
]


def _cast(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``array`` at ``dtype``, without a copy when it already matches."""
    return array if array.dtype == dtype else array.astype(dtype)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` for integer ``indices``.

    Parameters
    ----------
    weight:
        ``(vocab, dim)`` embedding matrix.
    indices:
        Integer array of any shape; output shape is ``indices.shape + (dim,)``.
    """
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"embedding indices must be integers, got {idx.dtype}")
    out_data = weight.data[idx]
    return Tensor._make(out_data, (weight,), "embedding", (weight.data, idx))


def _sliding_windows(data: np.ndarray, width: int) -> np.ndarray:
    """Return ``(B, T - width + 1, width * D)`` windows of ``(B, T, D)`` data."""
    batch, time, dim = data.shape
    out_time = time - width + 1
    windows = np.lib.stride_tricks.sliding_window_view(data, (width,), axis=1)
    # sliding_window_view yields (B, out_time, D, width); reorder to
    # (B, out_time, width, D) then flatten the window.
    windows = windows.transpose(0, 1, 3, 2).reshape(batch, out_time, width * dim)
    return np.ascontiguousarray(windows)


# Above this many window elements (B · T_out · width · D, i.e. 8 MB of
# float64) the materialized im2col buffer stops paying for its single big
# GEMM and the width-loop variant takes over.
IM2COL_ELEMENT_BUDGET = 1 << 20

CONV1D_VARIANTS = ("auto", "im2col", "width_loop")


def _select_conv1d_variant(batch: int, out_time: int, width: int, dim: int) -> str:
    """Resolve ``variant="auto"``: im2col for small problems (one GEMM, no
    per-offset dispatch), width-loop once the ``(B, T_out, width·D)`` window
    buffer would exceed :data:`IM2COL_ELEMENT_BUDGET` elements."""
    if width <= 1:
        return "im2col"  # windows are the input itself; nothing to save
    if batch * out_time * width * dim > IM2COL_ELEMENT_BUDGET:
        return "width_loop"
    return "im2col"


def conv1d_seq(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    width: int,
    pad: str = "valid",
    variant: str = "auto",
) -> Tensor:
    """1-D convolution over the time axis of a ``(B, T, D)`` sequence.

    Two execution variants compute the same convolution (and expose the
    same single tape node with an unchanged backward contract):

    * ``"im2col"`` — materialize ``(B, T_out, width·D)`` windows, one big
      matmul. Fastest at small sizes, but the window buffer is ``width``×
      the input (~1500× the embedding dim at the tagger's width 5, D 300).
    * ``"width_loop"`` — accumulate ``width`` shifted ``(B, T_out, D) @
      (D, F)`` matmuls in place. Same O(width·B·T_out·D·F) flops, but peak
      extra memory is one input-sized block instead of the ``width``×
      window buffer — forward *and* backward never materialize
      ``(B, T_out, width·D)``.
    * ``"auto"`` (default) — :func:`_select_conv1d_variant` picks im2col
      below :data:`IM2COL_ELEMENT_BUDGET` window elements, width-loop
      above.

    The two variants agree to float64 round-off (~1e-13 at paper scale) but
    not bit-for-bit: splitting the shared ``width·D`` reduction into
    per-offset GEMMs changes BLAS's summation order. Equivalence is pinned
    by ``tests/autodiff/test_conv1d_paths.py``.

    Parameters
    ----------
    x:
        Input of shape ``(B, T, D)``.
    weight:
        Filter bank of shape ``(width * D, F)``.
    bias:
        Optional bias of shape ``(F,)``.
    width:
        Filter window length (paper: 3/4/5 for Kim-CNN, 5 for the tagger).
    pad:
        ``"valid"`` (output length ``T - width + 1``) or ``"same"``
        (zero-padded so output length equals ``T``; used by the tagger so a
        label is produced for every token).
    variant:
        ``"auto"``, ``"im2col"``, or ``"width_loop"``.
    """
    if x.data.ndim != 3:
        raise ValueError(f"conv1d_seq expects (B, T, D) input, got shape {x.shape}")
    if pad not in ("valid", "same"):
        raise ValueError(f"pad must be 'valid' or 'same', got {pad!r}")
    if variant not in CONV1D_VARIANTS:
        raise ValueError(f"variant must be one of {CONV1D_VARIANTS}, got {variant!r}")

    batch, time, dim = x.data.shape
    if weight.data.shape[0] != width * dim:
        raise ValueError(
            f"weight rows {weight.data.shape[0]} != width*dim = {width * dim}"
        )

    left = right = 0
    data = x.data
    if pad == "same":
        left = (width - 1) // 2
        right = width - 1 - left
        data = np.pad(data, ((0, 0), (left, right), (0, 0)))
    if data.shape[1] < width:
        raise ValueError(
            f"sequence length {time} shorter than filter width {width} with pad={pad!r}"
        )
    out_time = data.shape[1] - width + 1
    if variant == "auto":
        variant = _select_conv1d_variant(batch, out_time, width, dim)

    if variant == "im2col":
        cols = _sliding_windows(data, width)      # (B, T_out, width*D)
        out_data = cols @ weight.data             # (B, T_out, F)
        if bias is not None:
            out_data = out_data + bias.data
    else:
        feats = weight.data.shape[1]
        if bias is None:
            out_dtype = np.result_type(data, weight.data)
        else:
            out_dtype = np.result_type(data, weight.data, bias.data)
        out_data = np.zeros((batch, out_time, feats), dtype=out_dtype)
        for offset in range(width):
            block = weight.data[offset * dim : (offset + 1) * dim]
            out_data += data[:, offset : offset + out_time, :] @ block
        if bias is not None:
            out_data += bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _tracking(*parents):
        return Tensor(out_data)
    same = pad == "same"
    if variant == "im2col":
        ctx = (cols, weight.data, data.shape, width, dim, same, left, time)
        return Tensor._link(out_data, parents, "conv1d_im2col", ctx)
    ctx = (data, weight.data, width, dim, out_time, same, left, time)
    return Tensor._link(out_data, parents, "conv1d_width_loop", ctx)


def max_over_time(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Max-pool a ``(B, T, F)`` tensor over the time axis to ``(B, F)``.

    Parameters
    ----------
    mask:
        Optional boolean ``(B, T)`` validity mask; padded positions are
        excluded from the max. Every row must have at least one valid step.
    """
    data = x.data
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != data.shape[:2]:
            raise ValueError(f"mask shape {m.shape} does not match {data.shape[:2]}")
        if not m.any(axis=1).all():
            raise ValueError("max_over_time mask has a row with no valid positions")
        data = np.where(m[:, :, None], data, -np.inf)

    out_data = data.max(axis=1)
    if not _tracking(x):
        return Tensor(out_data)
    argmax_mask = data == data.max(axis=1, keepdims=True)
    first = np.cumsum(argmax_mask, axis=1) == 1
    argmax_mask = argmax_mask & first
    return Tensor._link(out_data, (x,), "max_over_time", (argmax_mask,))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)
    return Tensor._make(out_data, (x,), "softmax", (axis,))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    if not _tracking(x):
        return Tensor(out_data)
    soft = np.exp(out_data)
    return Tensor._link(out_data, (x,), "log_softmax", (soft, axis))


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-rate)``.

    The RNG is passed explicitly so training runs are reproducible end to
    end (DESIGN.md scaling policy). The keep mask is built in the input's
    dtype so a float32 activation stream stays float32.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.data.shape) < keep).astype(x.data.dtype)
    mask /= keep
    return Tensor._make(x.data * mask, (x,), "dropout", (mask,))


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (graph-aware)."""
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    return Tensor._make(out_data, tuple(tensors), "concat", (axis, offsets))


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new ``axis`` (graph-aware)."""
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(out_data, tuple(tensors), "stack", (axis,))


def _prefix_lengths(mask: np.ndarray) -> np.ndarray | None:
    """Return per-row valid lengths if ``mask`` is a prefix mask, else None.

    A prefix mask (ones then zeros in every row) is what padding to a
    common length produces; it allows the packed-sequence fast path.
    Fractional (soft) mask values disqualify the mask — they need the
    general m-weighted carry, not a run/freeze decision.
    """
    raw = np.asarray(mask)
    if raw.dtype != bool and not (((raw == 0) | (raw == 1)).all()):
        return None
    m = raw.astype(bool)
    lengths = m.sum(axis=1)
    positions = np.arange(m.shape[1])
    if np.array_equal(m, positions[None, :] < lengths[:, None]):
        return lengths.astype(np.int64)
    return None


def gru_sequence(
    gx: Tensor,
    h0: np.ndarray,
    w_h: Tensor,
    mask: np.ndarray | None = None,
    *,
    w_x: Tensor | None = None,
    bias: Tensor | None = None,
) -> Tensor:
    """Run a whole GRU layer (projection + time loop) as a *single* tape node.

    The math of the per-gate reference loop (``gru_reference_forward`` in
    ``tests/oracles.py``, over a :class:`~repro.autodiff.nn.GRUCell`: same
    gate equations, same padding-mask carry), but with the entire
    ``(B, T)`` unroll fused:

    * when ``w_x``/``bias`` are given, the input projection
      ``gx = x @ w_x + bias`` for the *whole sequence* runs inside the op
      as one flattened ``(B·T, D) @ (D, 3H)`` GEMM (and its backward as
      two GEMMs plus a sum), so the full GRU layer is one tape entry;
    * the forward loop writes gate activations into preallocated
      ``(T, B, *)`` buffers with in-place NumPy ops;
    * padding masks that are prefix masks (the output of padding ragged
      sentences to a common length) trigger the *packed-sequence* path:
      rows are sorted by length and each step runs on only the still-active
      prefix of the batch, so padded positions cost a row copy instead of
      full gate math — the classic cuDNN/pack_padded_sequence trick.
      Results are identical because a masked step is exactly a state copy;
    * the registered BPTT rule precomputes all time-independent derivative
      factors (``1 - n^2``, ``z(1-z)``, ``r(1-r)``, ...) as vectorized
      whole-sequence arrays and reduces the recurrent weight gradient to
      flattened-unroll GEMMs.

    The whole op — projection, loop buffers, saved activations, backward —
    runs in the NumPy-promoted dtype of its tensor inputs, so a float32
    GRU never touches float64 scratch memory.

    The tape cost of a ``T``-step unroll drops from ~12·T nodes to 1.

    Parameters
    ----------
    gx:
        ``(B, T, 3H)`` precomputed input projections ``x @ w_x + b`` (gate
        order ``[r | z | n]``) — or, when ``w_x`` is given, the raw
        ``(B, T, D)`` input sequence.
    h0:
        ``(B, H)`` initial hidden state, a constant array (no gradient
        flows to it; the tagger always starts at zeros).
    w_h:
        ``(H, 3H)`` fused recurrent weights.
    mask:
        Optional ``(B, T)`` validity mask; padded steps copy the previous
        state forward exactly, keeping outputs invariant to padding length.
    w_x, bias:
        Optional fused input projection ``(D, 3H)`` weights and ``(3H,)``
        bias, applied to ``gx`` inside the op (both or neither).
    """
    if (w_x is None) != (bias is None):
        raise ValueError("w_x and bias must be given together")
    x = gx
    in_dim = 0
    if w_x is not None:
        batch, time, in_dim = x.data.shape
        if w_x.data.shape[0] != in_dim:
            raise ValueError(f"w_x rows {w_x.data.shape[0]} != input dim {in_dim}")
        triple = w_x.data.shape[1]
    else:
        batch, time, triple = x.data.shape
    hidden = triple // 3
    if triple != 3 * hidden:
        raise ValueError(f"gx last axis {triple} is not divisible by 3")
    if h0.shape != (batch, hidden):
        raise ValueError(f"h0 shape {h0.shape} != ({batch}, {hidden})")
    if w_h.data.shape != (hidden, 3 * hidden):
        raise ValueError(f"w_h shape {w_h.data.shape} != ({hidden}, {3 * hidden})")

    two = 2 * hidden

    # Compute dtype: the NumPy promotion of every tensor input. All loop
    # buffers, saved activations and the backward scratch use it, and any
    # off-dtype operand is cast once up front (a no-op on uniform graphs).
    if w_x is None:
        compute_dtype = np.result_type(x.data, w_h.data)
    else:
        compute_dtype = np.result_type(x.data, w_h.data, w_x.data, bias.data)
    w_h_data = _cast(w_h.data, compute_dtype)
    h0 = _cast(np.asarray(h0), compute_dtype)

    # Packed-sequence fast path: sort rows by length (descending) so each
    # timestep operates on a contiguous "active" batch prefix.
    order = inverse_order = None
    active: np.ndarray | None = None
    mask_t_major = None
    valid_flat: np.ndarray | None = None  # (B*T,) valid positions, input order
    if mask is not None:
        lengths = _prefix_lengths(mask)
        if lengths is not None:
            order = np.argsort(-lengths, kind="stable")
            inverse_order = np.argsort(order, kind="stable")
            sorted_lengths = lengths[order]
            # active[t] = number of rows still running at step t.
            active = (sorted_lengths[None, :] > np.arange(time)[:, None]).sum(axis=1)
            if lengths.sum() < 0.9 * batch * time:
                # Sparse enough that compacting the flattened projection /
                # weight-gradient GEMMs to valid rows pays for the gathers.
                valid_flat = np.asarray(mask, dtype=bool).reshape(-1)
        else:  # general mask: fall back to the m-weighted carry
            mask_t_major = np.ascontiguousarray(
                np.asarray(mask, dtype=compute_dtype).T
            )

    x_flat = x_compact = None
    w_x_data = bias_data = None
    if w_x is not None:
        w_x_data = _cast(w_x.data, compute_dtype)
        bias_data = _cast(bias.data, compute_dtype)
        x_flat = _cast(x.data, compute_dtype).reshape(batch * time, in_dim)
        if valid_flat is not None:
            # Project only real tokens; padded gx rows are never read by
            # the packed loop (their states are frozen copies).
            x_compact = x_flat[valid_flat]
            projected = x_compact @ w_x_data
            projected += bias_data
            gx_flat = np.zeros((batch * time, triple), dtype=compute_dtype)
            gx_flat[valid_flat] = projected
        else:
            gx_flat = x_flat @ w_x_data
            gx_flat += bias_data
        gx_data = gx_flat.reshape(batch, time, triple)
    else:
        gx_data = _cast(x.data, compute_dtype)

    if order is not None:
        # Fancy-index the transposed view: one pass yields a contiguous
        # (T, B, 3H) array in sorted row order.
        gx_t_major = np.swapaxes(gx_data, 0, 1)[:, order]
        h_start = h0[order]
    else:
        gx_t_major = np.ascontiguousarray(np.swapaxes(gx_data, 0, 1))
        h_start = h0

    # Saved activations for backward; also serve as forward work buffers.
    # zeros (not empty): rows beyond the active prefix are never written
    # but do flow through the backward whole-array precomputes, and
    # uninitialized garbage there could overflow.
    gates_rz = np.zeros((time, batch, two), dtype=compute_dtype)       # sig(r), sig(z)
    candidate = np.zeros((time, batch, hidden), dtype=compute_dtype)   # tanh cand. n
    recur = np.zeros((time, batch, 3 * hidden), dtype=compute_dtype)   # h @ w_h
    states = np.empty((time, batch, hidden), dtype=compute_dtype)      # h_t (sorted)
    scratch = np.empty((batch, hidden), dtype=compute_dtype)

    h = h_start
    for t in range(time):
        a = batch if active is None else int(active[t])
        out_t = states[t]
        if a < batch:
            out_t[a:] = h[a:]  # finished rows: frozen state, no gate math
        if a == 0:
            h = out_t
            continue
        a_t = gx_t_major[t]
        gh = recur[t]
        np.matmul(h[:a], w_h_data, out=gh[:a])
        rz = gates_rz[t, :a]
        np.add(a_t[:a, :two], gh[:a, :two], out=rz)
        # In-place stable sigmoid: (1 + tanh(x/2)) / 2.
        rz *= 0.5
        np.tanh(rz, out=rz)
        rz += 1.0
        rz *= 0.5
        r = rz[:, :hidden]
        z = rz[:, hidden:]
        n = candidate[t, :a]
        np.multiply(r, gh[:a, two:], out=n)
        n += a_t[:a, two:]
        np.tanh(n, out=n)
        # h' = n + z * (h - n)  ==  (1 - z) * n + z * h
        np.subtract(h[:a], n, out=out_t[:a])
        out_t[:a] *= z
        out_t[:a] += n
        if mask_t_major is not None:
            m = mask_t_major[t][:, None]
            # out = h + m * (h' - h): padded rows (m = 0) copy h exactly.
            np.subtract(out_t, h, out=scratch)
            scratch *= m
            np.add(h, scratch, out=out_t)
        h = out_t

    if inverse_order is not None:
        out_data = np.swapaxes(states, 0, 1)[inverse_order]    # one-pass unsort
    else:
        out_data = np.ascontiguousarray(np.swapaxes(states, 0, 1))  # (B, T, H)

    parents: tuple[Tensor, ...] = (x, w_h) if w_x is None else (x, w_h, w_x, bias)
    if not _tracking(*parents):
        return Tensor(out_data)

    saved = SimpleNamespace(
        order=order,
        inverse_order=inverse_order,
        active=active,
        mask_t_major=mask_t_major,
        valid_flat=valid_flat,
        h_start=h_start,
        states=states,
        gates_rz=gates_rz,
        candidate=candidate,
        recur=recur,
        x_flat=x_flat,
        x_compact=x_compact,
        w_h=w_h_data,
        w_x=w_x_data,
        bias=bias_data,
        batch=batch,
        time=time,
        hidden=hidden,
        in_dim=in_dim,
    )
    return Tensor._link(out_data, parents, "gru_sequence", (saved,))


def cross_entropy_soft(
    logits: Tensor,
    target: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Soft-target cross-entropy ``-(1/B) sum_i w_i * <q_i, log p_i>``.

    This is the pseudo-M-step loss of the paper: Eq. 8 with uniform weights,
    Eq. 10 when ``weights`` carries ``num(J(i))`` (the number of annotators
    per instance). Targets and weights are constants from the pseudo-E-step
    and are coerced to the logits dtype (losses compute in the model's
    precision).
    """
    target = np.asarray(target, dtype=logits.data.dtype)
    if target.shape != logits.shape:
        raise ValueError(f"target shape {target.shape} != logits shape {logits.shape}")
    logp = log_softmax(logits, axis=-1)
    per_instance = -(Tensor(target) * logp).sum(axis=-1)
    if weights is not None:
        w = np.asarray(weights, dtype=logits.data.dtype)
        if w.shape != (logits.shape[0],):
            raise ValueError(f"weights shape {w.shape} != ({logits.shape[0]},)")
        per_instance = per_instance * Tensor(w)
    return per_instance.mean()


def sequence_cross_entropy_soft(
    logits: Tensor,
    target: np.ndarray,
    mask: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Soft-target cross-entropy for sequence tagging, averaged over valid tokens.

    Parameters
    ----------
    logits:
        ``(B, T, K)`` per-token scores.
    target:
        ``(B, T, K)`` per-token target distributions.
    mask:
        Boolean ``(B, T)``; padded tokens contribute nothing.
    weights:
        Optional ``(B, T)`` per-token weights (Eq. 10 for sequences: number
        of annotators who labeled the token).
    """
    target = np.asarray(target, dtype=logits.data.dtype)
    mask = np.asarray(mask, dtype=logits.data.dtype)
    if target.shape != logits.shape:
        raise ValueError(f"target shape {target.shape} != logits shape {logits.shape}")
    if mask.shape != logits.shape[:2]:
        raise ValueError(f"mask shape {mask.shape} != {logits.shape[:2]}")
    logp = log_softmax(logits, axis=-1)
    per_token = -(Tensor(target) * logp).sum(axis=-1)
    scale = mask
    if weights is not None:
        w = np.asarray(weights, dtype=logits.data.dtype)
        if w.shape != mask.shape:
            raise ValueError(f"weights shape {w.shape} != mask shape {mask.shape}")
        scale = mask * w
    total = (per_token * Tensor(scale)).sum()
    denom = max(float(mask.sum()), 1.0)
    return total * (1.0 / denom)
