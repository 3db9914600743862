"""Dense-layer MLP with hand-derived forward and backward passes.

Two gradient routes coexist on purpose:

* :func:`layer_local_grad` differentiates a single layer's parameters given
  per-unit loss coefficients, with no chain rule through other layers. It
  takes the layer's activities from the forward pass that produced the
  coefficients, whose ReLU mask ``act > 0`` is bit for bit that of the
  pre-activation, so the layer's matmul is not repeated.
* :func:`full_backprop_grad` runs the exact chain rule through the whole
  stack, including the inter-layer L2 row normalization, for the
  backpropagation baselines. It reads everything it needs of the forward
  pass from the trace: the inputs, the linked labels, the activities whose
  masks gate each layer, and the normalized rows that the normalization's
  backward pass (:func:`l2_row_normalize_vjp`) reuses.

Both turn a layer's pre-activation gradient into its parameter gradients
through one helper, which for a first layer over linked inputs takes the
label-factored form: each sample's pixels once plus the label of every
linked row. Both are checked against central finite differences in the
test suite.
:func:`forward_pass` computes the first layer's pre-activation and hands it
to :func:`forward_from_pre`, the one layer loop. Given ``linked_labels`` it
takes the same label-factored form as :func:`layer_local_grad`, so a
training batch's pixel product runs once per sample
(:func:`first_layer_factors`), and it records the labels in the trace;
label-factored inference enters the loop directly. From layer 2 on, the
loop adds the bias and applies the ReLU inside the array the layer's matmul
returns, and it normalizes every computed layer but the last, whose
normalized rows no layer reads.
:func:`adam_step` updates a parameter array and its moments in place,
block by block, so a :class:`DenseLayer` keeps its arrays across training
and an update allocates only two cache-sized scratch blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import N_LABELS, one_hot, split_linked_weights
from .errors import ConfigError, ShapeError
from .linalg import NORM_EPSILON, as_matrix, l2_row_normalize, relu

# Elements per block of adam_step. A block's four arrays and two scratch
# arrays (768 KB) stay in a core's L2 while the update's operations pass
# over them, instead of streaming whole parameter arrays once per operation.
ADAM_BLOCK = 16384

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class DenseLayer:
    weights: np.ndarray  # (in_dim, out_dim)
    biases: np.ndarray   # (1, out_dim)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.biases.copy())


@dataclass
class MlpNetwork:
    layers: list[DenseLayer]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def layer_dims(self) -> list[int]:
        return [self.layers[0].in_dim] + [lay.out_dim for lay in self.layers]

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    def copy(self) -> "MlpNetwork":
        return MlpNetwork([lay.copy() for lay in self.layers])


def init_network(layer_dims, rng: np.random.Generator) -> MlpNetwork:
    """Glorot-uniform weights, zero biases.

    ``layer_dims`` lists unit counts from input to output, so a value of
    [794, 500, 500, 500] builds three dense layers.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise ConfigError(f"need at least two layer dims, got {dims}")
    if any(d <= 0 for d in dims):
        raise ConfigError(f"layer dims must be positive, got {dims}")
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        biases = np.zeros((1, fan_out))
        layers.append(DenseLayer(weights, biases))
    return MlpNetwork(layers)


@dataclass
class ForwardTrace:
    """Per-layer intermediates of one forward pass.

    ``act`` holds post-ReLU activities (what goodness is measured on), one
    per computed layer; a ``final_linear`` output layer's entry is its
    logits. ``normed[i]`` holds what layer ``i + 1`` consumes, so it covers
    every computed layer but the last. With normalization disabled it is
    ``act[i]`` itself. ``inputs`` is None for a pass started from a
    first-layer pre-activation (:func:`forward_from_pre`). ``linked_labels``
    is the label of every row of a label-factored pass, else None.
    ``final_linear`` is the flag the pass ran with.
    """

    inputs: np.ndarray | None
    act: list[np.ndarray] = field(default_factory=list)
    normed: list[np.ndarray] = field(default_factory=list)
    linked_labels: np.ndarray | None = None
    final_linear: bool = False

    @property
    def depth(self) -> int:
        return len(self.act)

    def layer_input(self, layer: int) -> np.ndarray:
        return self.inputs if layer == 0 else self.normed[layer - 1]


def forward_pass(
    net: MlpNetwork,
    batch,
    upto: int | None = None,
    normalize: bool = True,
    final_linear: bool = False,
    linked_labels=None,
) -> ForwardTrace:
    """Run the first ``upto`` layers (all by default).

    ``final_linear`` leaves the last layer of the network un-rectified and
    un-normalized; that is the classifier-head mode used by the classic
    backprop baseline. Hidden layers are always ReLU, and are L2
    row-normalized when ``normalize`` is set.

    With ``linked_labels``, ``batch`` holds ``m`` samples' pixels once and
    row ``r`` of the trace is sample ``r % m`` linked with
    ``linked_labels[r]`` (:class:`~ffnet.data.LinkedBatch`): each linked
    row adds its label's offset row to the sample's one pixel product.
    """
    batch = as_matrix(batch)
    factored = linked_labels is not None
    width = batch.shape[1] + (N_LABELS if factored else 0)
    if width != net.input_dim:
        raise ShapeError(f"batch has {width} columns, network expects {net.input_dim}")
    if factored:
        copies = _linked_copies(len(linked_labels), batch.shape[0])
        pixel_rows, offsets = first_layer_factors(net, batch.shape[1])
        pixel_pre = batch @ pixel_rows
        first_pre = offsets[linked_labels]
        by_copy = first_pre.reshape(copies, *pixel_pre.shape)
        by_copy += pixel_pre
    else:
        first = net.layers[0]
        first_pre = batch @ first.weights + first.biases
    trace = forward_from_pre(net, first_pre, upto, normalize, final_linear, inputs=batch)
    trace.linked_labels = linked_labels
    return trace


def first_layer_factors(net: MlpNetwork, n_pixels: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel rows of the first layer's weights and one offset row per label.

    The first-layer pre-activation of ``n_pixels`` pixels ``x`` linked with
    label ``y`` is ``x @ pixel_rows + offsets[y]``, where ``offsets[y]`` is
    the label's weight row plus the bias.
    """
    first = net.layers[0]
    pixel_rows, label_rows = split_linked_weights(first.weights, n_pixels)
    return pixel_rows, label_rows + first.biases


def _linked_copies(rows: int, samples: int) -> int:
    """Linked rows per sample of a label-factored batch."""
    if samples == 0 or rows % samples:
        raise ShapeError(f"{rows} linked rows are not a multiple of {samples} samples")
    return rows // samples


def forward_from_pre(
    net: MlpNetwork,
    first_pre,
    upto: int | None = None,
    normalize: bool = True,
    final_linear: bool = False,
    inputs: np.ndarray | None = None,
) -> ForwardTrace:
    """:func:`forward_pass` from the first layer's pre-activation ``first_pre``.

    The flags mean what they do there. ``first_pre`` is never written.
    ``inputs`` is stored as the trace's first-layer input; leave it None when
    no caller reads it.
    """
    first_pre = as_matrix(first_pre)
    depth = net.depth
    if first_pre.shape[1] != net.layers[0].out_dim:
        raise ShapeError(
            f"first pre-activation has {first_pre.shape[1]} columns, "
            f"layer 1 has {net.layers[0].out_dim} units"
        )
    if upto is None:
        upto = depth
    if not 1 <= upto <= depth:
        raise ShapeError(f"upto={upto} outside 1..{depth}")

    trace = ForwardTrace(inputs=inputs, final_linear=final_linear)
    for i in range(upto):
        is_linear_output = final_linear and i == depth - 1
        if i == 0:
            # Out of place, so the caller's first_pre is never written.
            act = first_pre if is_linear_output else relu(first_pre)
        else:
            layer = net.layers[i]
            act = trace.normed[i - 1] @ layer.weights
            act += layer.biases
            if not is_linear_output:
                np.maximum(act, 0.0, out=act)
        trace.act.append(act)
        if i < upto - 1:
            trace.normed.append(l2_row_normalize(act) if normalize else act)
    return trace


def layer_local_grad(
    layer: DenseLayer, layer_input, act, activity_coeffs, linked_labels=None
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of a scalar loss w.r.t. one layer's parameters.

    ``act`` is the layer's activity ``relu(layer_input @ W + b)`` from the
    forward pass (``trace.act[i]``); its ReLU mask ``act > 0``, bit for bit
    that of the pre-activation, gates the coefficients, so the matmul is not
    recomputed. ``activity_coeffs[s, u]`` must be the derivative of the
    scalar loss with respect to the post-ReLU activity of unit ``u`` on
    sample ``s``. Nothing is propagated to earlier layers.

    With ``linked_labels``, the layer is a first layer over linked inputs in
    label-factored form (:class:`~ffnet.data.LinkedBatch`): ``layer_input``
    holds the ``m`` samples' pixels once, and row ``r`` of ``act`` and of the
    coefficients is sample ``r % m`` linked with ``linked_labels[r]``. The
    pixel rows of the gradient are ``X^T`` times the coefficients summed over
    a sample's copies; the label rows are ``onehot(linked_labels)^T`` times
    them.
    """
    layer_input = as_matrix(layer_input)
    coeffs = as_matrix(activity_coeffs)
    act = as_matrix(act)
    factored = linked_labels is not None
    n_pixels = layer_input.shape[1]
    width = n_pixels + N_LABELS if factored else n_pixels
    if width != layer.in_dim:
        raise ShapeError(
            f"layer input has {width} columns, layer expects {layer.in_dim}"
        )
    m = layer_input.shape[0]
    rows = len(linked_labels) if factored else m
    if coeffs.shape != (rows, layer.out_dim):
        raise ShapeError(
            f"coefficients shape {coeffs.shape} does not match "
            f"({rows}, {layer.out_dim})"
        )
    if act.shape != coeffs.shape:
        raise ShapeError(
            f"activity shape {act.shape} does not match coefficients {coeffs.shape}"
        )
    return _param_grads(layer_input, coeffs * (act > 0.0), linked_labels)


def _param_grads(layer_input, d_pre, linked_labels=None) -> tuple[np.ndarray, np.ndarray]:
    """(grad_w, grad_b) of a layer from ``d_pre``, the loss gradient w.r.t. its
    pre-activation; label-factored when ``linked_labels`` is given (see
    :func:`layer_local_grad`)."""
    grad_b = d_pre.sum(axis=0, keepdims=True)
    if linked_labels is None:
        return layer_input.T @ d_pre, grad_b
    m, n_pixels = layer_input.shape
    copies = _linked_copies(len(linked_labels), m)
    grad_w = np.empty((n_pixels + N_LABELS, d_pre.shape[1]))
    pixel_rows, label_rows = split_linked_weights(grad_w, n_pixels)
    per_sample = d_pre.reshape(copies, m, d_pre.shape[1]).sum(axis=0)
    np.matmul(layer_input.T, per_sample, out=pixel_rows)
    np.matmul(one_hot(linked_labels).T, d_pre, out=label_rows)
    return grad_w, grad_b


def l2_row_normalize_vjp(act, normed, grad_out, epsilon: float = NORM_EPSILON) -> np.ndarray:
    """Backward pass of ``n = a / (||a|| + eps)`` applied row-wise.

    ``normed`` is the forward pass's output ``n`` for the rows ``act``.
    Exact Jacobian-transpose product: for s = ||a||,
    grad_a = g/(s+eps) - n * (n . g)/s, with the second term vanishing on
    all-zero rows (where n is zero and the map is linear with slope 1/eps).
    """
    act = as_matrix(act)
    normed = as_matrix(normed)
    grad_out = as_matrix(grad_out)
    norms = np.linalg.norm(act, axis=1, keepdims=True)
    denom = norms + epsilon
    safe_denom = np.where(denom > 0.0, denom, 1.0)
    dot = np.einsum("ij,ij->i", normed, grad_out)[:, None]
    safe_norms = np.where(norms > 0.0, norms, 1.0)
    return grad_out / safe_denom - normed * dot / safe_norms


def full_backprop_grad(
    net: MlpNetwork,
    batch,
    output_grad,
    normalize: bool = True,
    final_linear: bool = False,
    *,
    trace: ForwardTrace,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact chain-rule gradients for every layer, from the forward ``trace``.

    ``trace`` is :func:`forward_pass` of ``batch`` through the whole network
    with the same ``normalize`` and ``final_linear`` flags; a trace of any
    other input or mode is rejected. ``output_grad`` is the loss derivative
    w.r.t. the last layer's activities (its logits in ``final_linear`` mode).
    Returns one (grad_w, grad_b) pair per layer, first layer first. Each
    layer's ReLU mask is ``act > 0`` on the trace's activities, as in
    :func:`layer_local_grad`, and the normalization's backward pass reads the
    trace's activities and normalized rows. A label-factored trace gives
    layer 1's gradient in the label-factored form of
    :func:`layer_local_grad`, over its ``linked_labels``.
    """
    batch = as_matrix(batch)
    if not (batch is trace.inputs or np.array_equal(batch, trace.inputs)):
        raise ShapeError("batch is not the input of the given trace")
    depth = net.depth
    if trace.depth != depth:
        raise ShapeError(f"trace depth {trace.depth} != network depth {depth}")
    if trace.final_linear != final_linear:
        raise ShapeError(
            f"trace ran with final_linear={trace.final_linear}, not {final_linear}"
        )
    # An un-normalized pass hands each layer the previous layer's activities.
    if depth > 1 and (trace.normed[0] is not trace.act[0]) != normalize:
        raise ShapeError(f"trace ran with normalize={not normalize}, not {normalize}")
    output_grad = as_matrix(output_grad)
    if output_grad.shape != trace.act[-1].shape:
        raise ShapeError(
            f"output_grad shape {output_grad.shape} does not match "
            f"final activities {trace.act[-1].shape}"
        )

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * depth  # type: ignore[list-item]
    d_act = output_grad
    for i in reversed(range(depth)):
        if final_linear and i == depth - 1:
            d_pre = d_act
        else:
            d_pre = d_act * (trace.act[i] > 0.0)
        grads[i] = _param_grads(
            trace.layer_input(i), d_pre, trace.linked_labels if i == 0 else None
        )
        if i > 0:
            d_act = d_pre @ net.layers[i].weights.T
            if normalize:
                d_act = l2_row_normalize_vjp(trace.act[i - 1], trace.normed[i - 1], d_act)
    return grads


@dataclass
class AdamState:
    """Adam accumulators for one parameter array."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 0.001

    @classmethod
    def for_param(cls, param: np.ndarray, learning_rate: float = 0.001) -> "AdamState":
        return cls(
            first_moment=np.zeros_like(param),
            second_moment=np.zeros_like(param),
            learning_rate=learning_rate,
        )

    def copy(self) -> "AdamState":
        return replace(
            self, first_moment=self.first_moment.copy(),
            second_moment=self.second_moment.copy(),
        )


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update of ``param``, in place; returns ``param``.

    ``param``, ``state.first_moment`` and ``state.second_moment`` are updated
    in place, in blocks of leading-axis rows of about :data:`ADAM_BLOCK`
    elements each, so a block's arrays stay in cache; two block-sized scratch
    arrays are the only allocations. Each operation rounds exactly as in

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        param - (lr*(m/c1)) / (sqrt(v/c2) + eps)

    with b1, b2, eps = :data:`ADAM_BETA1`, :data:`ADAM_BETA2`, :data:`ADAM_EPSILON`,
    c1 = 1 - b1**t and c2 = 1 - b2**t, so the result is bitwise that of the
    allocating form. All shapes are checked before any state changes.
    """
    m, v = state.first_moment, state.second_moment
    if not param.shape == grad.shape == m.shape == v.shape:
        raise ShapeError(
            f"adam shapes disagree: param {param.shape}, grad {grad.shape}, "
            f"moments {m.shape} and {v.shape}"
        )
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    row_size = int(np.prod(param.shape[1:]))
    block_rows = max(1, ADAM_BLOCK // max(row_size, 1))
    scratch = np.empty((block_rows, *param.shape[1:]))
    step = np.empty_like(scratch)
    for start in range(0, len(param), block_rows):
        rows = slice(start, start + block_rows)
        p_rows, g, m_rows, v_rows = param[rows], grad[rows], m[rows], v[rows]
        denom, upd = scratch[: len(g)], step[: len(g)]
        np.multiply(g, 1.0 - b1, out=denom)
        m_rows *= b1
        m_rows += denom
        np.multiply(g, 1.0 - b2, out=denom)
        denom *= g
        v_rows *= b2
        v_rows += denom
        np.divide(v_rows, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPSILON
        np.divide(m_rows, c1, out=upd)
        upd *= state.learning_rate
        upd /= denom
        p_rows -= upd
    return param


def make_adam_states(
    net: MlpNetwork, learning_rate: float
) -> list[tuple[AdamState, AdamState]]:
    """One (weights, biases) state pair per layer."""
    return [
        (
            AdamState.for_param(lay.weights, learning_rate),
            AdamState.for_param(lay.biases, learning_rate),
        )
        for lay in net.layers
    ]


def apply_adam_update(
    net: MlpNetwork,
    layer: int,
    grad_w: np.ndarray,
    grad_b: np.ndarray,
    states: list[tuple[AdamState, AdamState]],
) -> None:
    """Adam step on one layer's weights and biases, in place."""
    lay = net.layers[layer]
    state_w, state_b = states[layer]
    adam_step(lay.weights, grad_w, state_w)
    adam_step(lay.biases, grad_b, state_b)


__all__ = [
    "AdamState",
    "DenseLayer",
    "ForwardTrace",
    "MlpNetwork",
    "adam_step",
    "apply_adam_update",
    "first_layer_factors",
    "forward_from_pre",
    "forward_pass",
    "full_backprop_grad",
    "init_network",
    "l2_row_normalize_vjp",
    "layer_local_grad",
    "make_adam_states",
]
