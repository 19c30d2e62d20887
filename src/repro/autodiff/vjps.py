"""Per-primitive vector-Jacobian products: the registry the tape replays.

The tape engine (:mod:`repro.autodiff.tensor`) records, for every op, a
``(primitive, parents, ans, ctx)`` entry instead of a baked closure; this
module is the single place that says *how gradients flow* for each
primitive — the autograd-style split of "what ops exist" (Tensor methods
and :mod:`repro.autodiff.functional`) from "how to differentiate them".

Three registration forms cover every op in the engine:

* :func:`defvjp` — per-argument VJPs ``(g, ans, *ctx) -> grad_i``, one per
  parent (``None`` for non-differentiable arguments). Each entry carries an
  ``owned`` flag: ``True`` means the VJP returns a freshly allocated array
  (or a view of one referenced nowhere else) that the engine may store
  without a defensive copy; ``False`` means the result may alias the
  incoming gradient (e.g. broadcast-free ``add``, ``reshape``) and must be
  copied on first accumulation. Getting this wrong corrupts diamond-shaped
  graphs, so the flags mirror the pre-registry closures' use of
  ``_accumulate`` vs ``_accumulate_owned`` exactly.
* A VJP may also return an :class:`IndexedGrad` — a ``(index, grad)``
  sentinel accumulated in place into the parent's buffer slice. This is
  what keeps basic-slice ``__getitem__`` backward O(T) for the per-gate
  GRU time loop instead of one full-size scratch array per consumer.
* :func:`defvjp_fused` — a single joint VJP ``(g, ans, needs, *ctx) ->
  tuple_of_grads`` for primitives whose per-argument gradients share heavy
  intermediate work (the BPTT loop of ``gru_sequence``, variable-arity
  ``concat``/``stack``). ``needs`` mirrors
  ``parent._tracked`` per argument; entries may be ``None``. Fused results
  are always treated as owned, so they must never return a view of ``g``.

Engine contract: VJPs must **not** mutate ``g`` (several parents may read
it), and the incoming ``g`` always has the dtype of the primitive's output
(``ans``), because the engine accumulates every node's gradient buffer in
that node's own dtype. Under the float32 fast path this is what makes the
whole backward pass run in float32 without any per-op dtype plumbing.

The meta-test ``tests/autodiff/test_vjp_registry.py`` enforces that every
primitive registered here has a gradcheck case (numeric vs analytic at
float64), so new ops cannot land without gradient coverage.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "defvjp",
    "defvjp_fused",
    "registered_primitives",
    "IndexedGrad",
    "unbroadcast",
    "VJP_TABLE",
    "VJP_OWNED",
    "FUSED_TABLE",
]

# primitive name -> per-argument VJPs / ownership flags, or a fused VJP.
VJP_TABLE: dict[str, tuple[Callable | None, ...]] = {}
VJP_OWNED: dict[str, tuple[bool, ...]] = {}
FUSED_TABLE: dict[str, Callable] = {}


class IndexedGrad:
    """Sentinel VJP result: accumulate ``grad`` into ``parent.grad[index]``.

    Only valid for *basic* indices (no duplicated positions), where the
    in-place ``+=`` on the slice is exact.
    """

    __slots__ = ("index", "grad")

    def __init__(self, index, grad: np.ndarray) -> None:
        self.index = index
        self.grad = grad


def defvjp(
    primitive: str,
    *vjps: Callable | None,
    owned: Sequence[bool] | None = None,
) -> None:
    """Register per-argument VJPs for ``primitive``.

    ``owned[i]`` declares whether VJP ``i`` returns a freshly allocated
    array the engine may take ownership of (default: not owned, i.e. copy
    on first accumulation — always safe).
    """
    if primitive in VJP_TABLE or primitive in FUSED_TABLE:
        raise ValueError(f"primitive {primitive!r} already registered")
    if owned is None:
        owned = (False,) * len(vjps)
    if len(owned) != len(vjps):
        raise ValueError(
            f"{primitive!r}: owned flags ({len(owned)}) != vjps ({len(vjps)})"
        )
    VJP_TABLE[primitive] = tuple(vjps)
    VJP_OWNED[primitive] = tuple(bool(flag) for flag in owned)


def defvjp_fused(primitive: str, fn: Callable) -> None:
    """Register a joint VJP computing all argument gradients in one call."""
    if primitive in VJP_TABLE or primitive in FUSED_TABLE:
        raise ValueError(f"primitive {primitive!r} already registered")
    FUSED_TABLE[primitive] = fn


def registered_primitives() -> frozenset[str]:
    """Every primitive name the tape can replay."""
    return frozenset(VJP_TABLE) | frozenset(FUSED_TABLE)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcast op.

    NumPy broadcasting can prepend axes and stretch length-1 axes; the
    gradient of a broadcast is the sum over the broadcast axes. May return
    ``grad`` itself (or a view) when no reduction is needed — callers that
    register through :func:`defvjp` must mark such results not-owned.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


# --------------------------------------------------------------------- #
# Tensor arithmetic (ctx: operand data arrays unless noted)
# --------------------------------------------------------------------- #
defvjp(
    "add",
    lambda g, ans, x, y: unbroadcast(g, x.shape),
    lambda g, ans, x, y: unbroadcast(g, y.shape),
)

defvjp("neg", lambda g, ans: -g, owned=(True,))

defvjp(
    "sub",
    lambda g, ans, x, y: unbroadcast(g, x.shape),
    lambda g, ans, x, y: unbroadcast(-g, y.shape),
    owned=(False, True),
)

defvjp(
    "mul",
    lambda g, ans, x, y: unbroadcast(g * y, x.shape),
    lambda g, ans, x, y: unbroadcast(g * x, y.shape),
    owned=(True, True),
)

defvjp(
    "div",
    lambda g, ans, x, y: unbroadcast(g / y, x.shape),
    lambda g, ans, x, y: unbroadcast(-g * x / (y**2), y.shape),
    owned=(True, True),
)


def _pow_vjp(g: np.ndarray, ans: np.ndarray, x: np.ndarray, exponent) -> np.ndarray:
    if exponent == 2:
        # Hot case (squared losses): avoid the elementwise pow call.
        return g * 2.0 * x
    return g * exponent * x ** (exponent - 1)


defvjp("pow", _pow_vjp, owned=(True,))

defvjp(
    "matmul",
    lambda g, ans, x, y: unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape),
    lambda g, ans, x, y: unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape),
    owned=(True, True),
)

# --------------------------------------------------------------------- #
# Elementwise nonlinearities
# --------------------------------------------------------------------- #
defvjp("exp", lambda g, ans: g * ans, owned=(True,))
defvjp("log", lambda g, ans, x: g / x, owned=(True,))
defvjp("tanh", lambda g, ans: g * (1.0 - ans**2), owned=(True,))
defvjp("sigmoid", lambda g, ans: g * ans * (1.0 - ans), owned=(True,))
defvjp("relu", lambda g, ans, mask: g * mask, owned=(True,))
defvjp("clip", lambda g, ans, mask: g * mask, owned=(True,))

# --------------------------------------------------------------------- #
# Reductions (ctx: input shape / routing mask plus the reduce arguments)
# --------------------------------------------------------------------- #


def _sum_vjp(g, ans, shape, axis, keepdims):
    if axis is not None and not keepdims:
        axes = (axis,) if isinstance(axis, int) else axis
        ndim = len(shape)
        for ax in sorted(a % ndim for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape).copy()


defvjp("sum", _sum_vjp, owned=(True,))


def _max_vjp(g, ans, mask, axis, keepdims):
    # ``mask`` routes the gradient to the first argmax entry along ``axis``.
    g = g if keepdims else np.expand_dims(g, axis)
    return mask * g


defvjp("max", _max_vjp, owned=(True,))

# --------------------------------------------------------------------- #
# Shape manipulation and indexing
# --------------------------------------------------------------------- #
defvjp("reshape", lambda g, ans, shape: g.reshape(shape))
defvjp("transpose", lambda g, ans, inverse: g.transpose(inverse))

# Basic slices select each element at most once: accumulate in place.
defvjp("getitem", lambda g, ans, index: IndexedGrad(index, g))


def _getitem_fancy_vjp(g, ans, x, index):
    full = np.zeros_like(x)
    np.add.at(full, index, g)
    return full


defvjp("getitem_fancy", _getitem_fancy_vjp, owned=(True,))

# --------------------------------------------------------------------- #
# functional.py composites
# --------------------------------------------------------------------- #


def _embedding_vjp(g, ans, w, idx):
    full = np.zeros_like(w)
    np.add.at(full, idx.reshape(-1), g.reshape(-1, w.shape[1]))
    return full


defvjp("embedding", _embedding_vjp, owned=(True,))


# conv1d ctx layouts are produced by functional.conv1d_seq:
#   im2col:     (cols, w, padded_shape, width, dim, same, left, time)
#   width_loop: (data, w, width, dim, out_time, same, left, time)
# Parents are (x, weight[, bias]); zip truncation drops the bias VJP when
# the layer has no bias.


def _conv1d_im2col_vjp_x(g, ans, cols, w, padded_shape, width, dim, same, left, time):
    batch = padded_shape[0]
    gcols = g @ w.T                                   # (B, T_out, width*D)
    gcols = gcols.reshape(batch, -1, width, dim)
    xgrad = np.zeros(padded_shape, dtype=gcols.dtype)
    for offset in range(width):
        xgrad[:, offset : offset + gcols.shape[1], :] += gcols[:, :, offset, :]
    if same:
        xgrad = xgrad[:, left : left + time, :]
    return xgrad


def _conv1d_im2col_vjp_w(g, ans, cols, w, padded_shape, width, dim, same, left, time):
    # (width*D, F) = sum_b cols_b^T @ grad_b, as one GEMM over the
    # flattened (B*T_out) rows.
    return cols.reshape(-1, cols.shape[-1]).T @ g.reshape(-1, g.shape[-1])


defvjp(
    "conv1d_im2col",
    _conv1d_im2col_vjp_x,
    _conv1d_im2col_vjp_w,
    lambda g, ans, *ctx: g.sum(axis=(0, 1)),
    owned=(True, True, True),
)


def _conv1d_width_loop_vjp_x(g, ans, data, w, width, dim, out_time, same, left, time):
    xgrad = np.zeros(data.shape, dtype=np.result_type(w, g))
    for offset in range(width):
        block = w[offset * dim : (offset + 1) * dim]
        xgrad[:, offset : offset + out_time, :] += g @ block.T
    if same:
        xgrad = xgrad[:, left : left + time, :]
    return xgrad


def _conv1d_width_loop_vjp_w(g, ans, data, w, width, dim, out_time, same, left, time):
    # Per-offset (D, F) GEMMs into the fused weight gradient; peak extra
    # memory is one contiguous input-sized block, never the
    # (B, T_out, width*D) window expansion.
    batch = data.shape[0]
    wgrad = np.empty(w.shape, dtype=np.result_type(data, g))
    grad_flat = g.reshape(batch * out_time, -1)
    for offset in range(width):
        block = np.ascontiguousarray(
            data[:, offset : offset + out_time, :]
        ).reshape(batch * out_time, dim)
        np.matmul(block.T, grad_flat, out=wgrad[offset * dim : (offset + 1) * dim])
    return wgrad


defvjp(
    "conv1d_width_loop",
    _conv1d_width_loop_vjp_x,
    _conv1d_width_loop_vjp_w,
    lambda g, ans, *ctx: g.sum(axis=(0, 1)),
    owned=(True, True, True),
)

defvjp(
    "max_over_time",
    lambda g, ans, argmax_mask: argmax_mask * g[:, None, :],
    owned=(True,),
)


def _softmax_vjp(g, ans, axis):
    dot = (g * ans).sum(axis=axis, keepdims=True)
    return ans * (g - dot)


defvjp("softmax", _softmax_vjp, owned=(True,))

defvjp(
    "log_softmax",
    lambda g, ans, soft, axis: g - soft * g.sum(axis=axis, keepdims=True),
    owned=(True,),
)

defvjp("dropout", lambda g, ans, mask: g * mask, owned=(True,))


def _concat_fused(g, ans, needs, axis, offsets):
    grads = []
    for need, start, stop in zip(needs, offsets[:-1], offsets[1:]):
        if not need:
            grads.append(None)
            continue
        index = [slice(None)] * g.ndim
        index[axis] = slice(start, stop)
        # Copy: fused results are owned, and a slice of g must not be
        # stored by reference (g is shared across every parent).
        grads.append(np.array(g[tuple(index)], copy=True))
    return grads


defvjp_fused("concat", _concat_fused)


def _stack_fused(g, ans, needs, axis):
    slices = np.moveaxis(g, axis, 0)
    return [
        np.array(piece, copy=True) if need else None
        for need, piece in zip(needs, slices)
    ]


defvjp_fused("stack", _stack_fused)


# --------------------------------------------------------------------- #
# Fused GRU op (hand-derived BPTT; parents share the heavy intermediates,
# so it registers as a joint VJP — per-argument entries would recompute
# the whole time loop once per parent).
# --------------------------------------------------------------------- #


def _gru_sequence_fused(g, ans, needs, saved):
    """BPTT for the whole-layer fused GRU node.

    ``saved`` is the namespace functional.gru_sequence builds at forward
    time: packed-sort bookkeeping (order/inverse_order/active/valid_flat),
    the general-mask carry (mask_t_major), the saved activation buffers
    (gates_rz/candidate/recur/states, all in the op's compute dtype), the
    flattened input (x_flat/x_compact) and the weight arrays. Parents are
    (x, w_h) or (x, w_h, w_x, bias); ``needs`` is aligned with them.
    """
    order = saved.order
    inverse_order = saved.inverse_order
    active = saved.active
    mask_t_major = saved.mask_t_major
    valid_flat = saved.valid_flat
    h_start = saved.h_start
    states = saved.states
    gates_rz = saved.gates_rz
    candidate = saved.candidate
    recur = saved.recur
    batch, time, hidden = saved.batch, saved.time, saved.hidden
    two = 2 * hidden
    dtype = states.dtype
    has_projection = saved.w_x is not None

    if order is not None:
        g = g[order]
    grad_t_major = np.swapaxes(g, 0, 1)  # (T, B, H) view
    h_prev_seq = np.concatenate([h_start[None], states[:-1]], axis=0)
    r_seq = gates_rz[:, :, :hidden]
    z_seq = gates_rz[:, :, hidden:]
    # Whole-sequence derivative factors (no per-step transcendentals).
    dn_da = 1.0 - candidate * candidate                       # tanh'
    dz_chain = (h_prev_seq - candidate) * (z_seq * (1.0 - z_seq))
    dr_chain = recur[:, :, two:] * (r_seq * (1.0 - r_seq))
    # d_gates is laid out as the *input* gradient [da_r | da_z | da_n];
    # the recurrent side only differs in the n-columns (da_n * r), kept
    # in d_recur_n. Both GEMMs below are split accordingly, which lets
    # the input gradient be handed to gx with a single permute pass.
    d_gates = np.zeros((time, batch, 3 * hidden), dtype=dtype)
    d_recur_n = np.zeros((time, batch, hidden), dtype=dtype)
    w_h_t = np.ascontiguousarray(saved.w_h.T)
    w_h_t_rz = w_h_t[:two]
    w_h_t_n = w_h_t[two:]

    total = np.empty((batch, hidden), dtype=dtype)
    d_new = np.empty((batch, hidden), dtype=dtype)
    d_keep = np.empty((batch, hidden), dtype=dtype)
    dnz = np.empty((batch, hidden), dtype=dtype)
    dn = np.empty((batch, hidden), dtype=dtype)
    rec = np.empty((batch, hidden), dtype=dtype)
    rec_n = np.empty((batch, hidden), dtype=dtype)
    d_prev = np.zeros((batch, hidden), dtype=dtype)

    for t in range(time - 1, -1, -1):
        a = batch if active is None else int(active[t])
        if a < batch:
            d_prev[a:] += grad_t_major[t][a:]  # frozen rows just carry
        if a == 0:
            continue
        tot = total[:a]
        np.add(grad_t_major[t][:a], d_prev[:a], out=tot)
        if mask_t_major is not None:
            m = mask_t_major[t][:, None]
            np.multiply(tot, m, out=d_new[:a])
            np.subtract(tot, d_new[:a], out=d_keep[:a])  # (1 - m) carry
            dnw = d_new[:a]
        else:
            dnw = tot
        np.multiply(dnw, z_seq[t, :a], out=dnz[:a])
        np.subtract(dnw, dnz[:a], out=dn[:a])            # d_new * (1 - z)
        dg = d_gates[t, :a]
        da_n = dg[:, two:]
        np.multiply(dn[:a], dn_da[t, :a], out=da_n)
        np.multiply(da_n, dr_chain[t, :a], out=dg[:, :hidden])       # da_r
        np.multiply(dnw, dz_chain[t, :a], out=dg[:, hidden:two])     # da_z
        dgh_n = d_recur_n[t, :a]
        np.multiply(da_n, r_seq[t, :a], out=dgh_n)
        np.matmul(dg[:, :two], w_h_t_rz, out=rec[:a])
        np.matmul(dgh_n, w_h_t_n, out=rec_n[:a])
        rec[:a] += rec_n[:a]
        np.add(rec[:a], dnz[:a], out=d_prev[:a])
        if mask_t_major is not None:
            d_prev[:a] += d_keep[:a]

    x_grad = w_x_grad = bias_grad = None
    needs_input_grad = (
        needs[0] if not has_projection else (needs[0] or needs[2] or needs[3])
    )
    if needs_input_grad:
        d_inputs = np.swapaxes(d_gates, 0, 1)  # (B, T, 3H) view
        if inverse_order is not None:
            d_inputs = d_inputs[inverse_order]  # one-pass unsort (fresh)
        if not has_projection:
            # d_gates is local to this call, so handing over the (possibly
            # non-contiguous) view is safe — the engine owns fused results.
            x_grad = d_inputs
        else:
            dg_flat = np.ascontiguousarray(d_inputs).reshape(
                batch * time, 3 * hidden
            )
            if valid_flat is not None:
                # Padded rows of dg_flat are exactly zero — compact the
                # projection-gradient GEMMs to real tokens only.
                dg_compact = dg_flat[valid_flat]
                if needs[3]:
                    bias_grad = dg_compact.sum(axis=0)
                if needs[2]:
                    w_x_grad = saved.x_compact.T @ dg_compact
                if needs[0]:
                    dx_flat = np.zeros((batch * time, saved.in_dim), dtype=dtype)
                    dx_flat[valid_flat] = dg_compact @ saved.w_x.T
                    x_grad = dx_flat.reshape(batch, time, saved.in_dim)
            else:
                if needs[3]:
                    bias_grad = dg_flat.sum(axis=0)
                if needs[2]:
                    w_x_grad = saved.x_flat.T @ dg_flat
                if needs[0]:
                    x_grad = (dg_flat @ saved.w_x.T).reshape(
                        batch, time, saved.in_dim
                    )
    w_h_grad = None
    if needs[1]:
        # Σ_t h_prev[t].T @ dgh[t] as flattened-unroll GEMMs (the n
        # columns use d_recur_n, the r/z columns d_gates directly).
        flat_prev = h_prev_seq.reshape(time * batch, hidden)
        flat_gates = d_gates.reshape(time * batch, 3 * hidden)
        flat_recur_n = d_recur_n.reshape(time * batch, hidden)
        if active is not None and valid_flat is not None:
            # Same compaction in the sorted layout: only the staircase
            # of still-active rows carries nonzero gate gradients.
            stair = (np.arange(batch)[None, :] < active[:, None]).reshape(-1)
            flat_prev = flat_prev[stair]
            flat_gates = flat_gates[stair]
            flat_recur_n = flat_recur_n[stair]
        w_h_grad = np.empty(saved.w_h.shape, dtype=dtype)
        np.matmul(flat_prev.T, flat_gates[:, :two], out=w_h_grad[:, :two])
        np.matmul(flat_prev.T, flat_recur_n, out=w_h_grad[:, two:])

    if not has_projection:
        return (x_grad, w_h_grad)
    return (x_grad, w_h_grad, w_x_grad, bias_grad)


defvjp_fused("gru_sequence", _gru_sequence_fused)
