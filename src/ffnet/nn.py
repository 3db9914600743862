"""Dense-layer MLP with hand-derived forward and backward passes.

A forward pass runs a goodness net (every layer ReLU, L2 row-normalized
between layers) or, with ``classic``, the classic baseline's MLP (ReLU
hidden layers, no normalization, a linear last layer of label logits).

Every gradient a caller hands to this module is the loss gradient with
respect to a layer's pre-activation, so no function here applies a ReLU
mask to what it is given. :func:`layer_local_grad` is the one function that
turns such a gradient into a layer's parameter gradients; for a first
layer over linked inputs it takes the label-factored form: each sample's
pixels once plus the label of every linked row. Two routes feed it:

* a layer-local trainer (``ff.train``) hands it each layer's own gradient,
  with no chain rule through other layers; ``ff.activity_coeffs`` is zero
  wherever the ReLU is off, so it already is that pre-activation gradient.
* :func:`backprop_updates` runs the exact chain rule through the whole
  stack, including a goodness net's inter-layer L2 row normalization, for
  the backpropagation baselines. It reads everything it needs of the
  forward pass from the trace: the inputs, the linked labels, the network
  kind, the activities whose masks gate each layer below the top, and the
  normalized rows that the normalization's backward pass
  (:func:`l2_row_normalize_vjp`) reuses. It is a generator that yields one
  layer's update at a time, last layer first, so a trainer can step each
  layer in place as soon as its gradient exists while the trace is released
  layer by layer. :func:`full_backprop_grad` takes the same arguments and
  collects the updates into a list, first layer first.

Both are checked against central finite differences in the test suite.
:func:`forward_pass` computes the first layer's pre-activation and hands it
to :func:`forward_from_pre`, the one layer loop. Given ``linked_labels`` it
takes the same label-factored form as :func:`layer_local_grad`, so a
training batch's pixel product runs once per sample
(:func:`first_layer_factors`), and it records the labels in the trace;
label-factored inference enters the loop directly. From layer 2 on, the
loop adds the bias and applies the ReLU inside the array the layer's matmul
returns, and a goodness net normalizes every computed layer but the last,
whose normalized rows no layer reads. It records each layer's goodness as the
layer is computed, the one place goodness is computed, and it holds the
activities and normalized input of only the layers its caller will take a
gradient of (``keep``); scoring keeps none.
:func:`adam_step` updates a parameter array and its moments in place,
block by block, so a :class:`DenseLayer` keeps its arrays across training
and an update allocates only two cache-sized scratch blocks.
:func:`apply_adam_update` steps one layer with its pair of
:class:`AdamState` values, looked up by layer index; the caller owns the
pairs (``ff.fit`` makes a layer's pair at its first update in a stage and
drops the stage's pairs when the stage ends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import N_LABELS, linked_copies, one_hot, split_linked_weights
from .errors import ConfigError, ShapeError
from .linalg import NORM_EPSILON, as_matrix, l2_row_normalize, relu, row_sumsq

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


def check_layer_dims(layer_dims) -> tuple[int, ...]:
    """``layer_dims`` as ints; rejects fewer than two entries or a non-positive one."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or min(dims) <= 0:
        raise ConfigError(
            f"layer_dims needs at least 2 entries, all positive, got {list(dims)}"
        )
    return dims


def init_network(layer_dims, rng: np.random.Generator) -> MlpNetwork:
    """Glorot-uniform weights, zero biases.

    ``layer_dims`` lists unit counts from input to output, so a value of
    [794, 500, 500, 500] builds three dense layers.
    """
    dims = check_layer_dims(layer_dims)
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

    ``goodness[i]`` is computed layer ``i``'s goodness, ``row_sumsq`` of its
    post-ReLU activities, recorded as the layer is computed; a classic net's
    linear output layer's is that of its logits. ``act`` has one entry per
    computed layer: the activities of a layer the pass keeps (a classic
    net's logits), None for any other. ``normed[i]`` is what layer ``i + 1``
    consumes, so it covers every computed layer but the last; it is held
    while layer ``i + 1`` is kept, else None. In a classic net it is
    ``act[i]`` itself. ``inputs`` is None for a pass started from a
    first-layer pre-activation (:func:`forward_from_pre`). ``linked_labels``
    is the label of every row of a label-factored pass, else None.
    ``classic`` is the kind of network the pass ran.
    """

    inputs: np.ndarray | None
    act: list[np.ndarray | None] = field(default_factory=list)
    normed: list[np.ndarray | None] = field(default_factory=list)
    goodness: list[np.ndarray] = field(default_factory=list)
    linked_labels: np.ndarray | None = None
    classic: bool = False

    @property
    def depth(self) -> int:
        return len(self.goodness)

    def layer_input(self, layer: int) -> np.ndarray | None:
        return self.inputs if layer == 0 else self.normed[layer - 1]


def forward_pass(
    net: MlpNetwork,
    batch,
    upto: int | None = None,
    classic: bool = False,
    linked_labels=None,
    keep=None,
) -> ForwardTrace:
    """Run the first ``upto`` layers (all by default), holding the arrays of the
    ``keep`` layers (all by default; see :func:`forward_from_pre`).

    ``classic`` runs the classic baseline's MLP instead of a goodness net
    (see the module docstring).

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
    # Made in a call of its own, so that only the layer loop holds the
    # pre-activation and drops it once layer 1's activities exist.
    trace = forward_from_pre(
        net, _first_pre(net, batch, linked_labels), upto, classic, keep
    )
    trace.inputs, trace.linked_labels = batch, linked_labels
    return trace


def _first_pre(net: MlpNetwork, batch: np.ndarray, linked_labels) -> np.ndarray:
    """The first layer's pre-activation of :func:`forward_pass`'s ``batch``."""
    if linked_labels is None:
        first = net.layers[0]
        return batch @ first.weights + first.biases
    copies = linked_copies(len(linked_labels), batch.shape[0])
    pixel_pre, offsets = first_layer_factors(net, batch)
    first_pre = offsets[linked_labels]
    by_copy = first_pre.reshape(copies, *pixel_pre.shape)
    by_copy += pixel_pre
    return first_pre


def first_layer_factors(net: MlpNetwork, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pixel product of ``batch`` and one offset row per label.

    ``batch`` holds pixels only. The first-layer pre-activation of its row
    ``r`` linked with label ``y`` is ``pixel_pre[r] + offsets[y]``, where
    ``pixel_pre`` is ``batch`` times the pixel rows of the first layer's
    weights and ``offsets[y]`` is the label's weight row plus the bias.
    """
    first = net.layers[0]
    pixel_rows, label_rows = split_linked_weights(first.weights, batch.shape[1])
    return batch @ pixel_rows, label_rows + first.biases


def forward_from_pre(
    net: MlpNetwork,
    first_pre,
    upto: int | None = None,
    classic: bool = False,
    keep=None,
) -> ForwardTrace:
    """:func:`forward_pass` from the first layer's pre-activation ``first_pre``.

    ``classic`` means what it does there, and the trace records it.
    ``first_pre`` is never written, and the trace has no ``inputs``.

    ``keep`` names the layers whose gradient the caller will take: every
    computed layer by default, which the backprop baselines need. The trace
    records every computed layer's goodness as the layer is computed, but
    holds only a kept layer's activities and its normalized input. The loop
    drops any other activity once its goodness and normalized rows exist,
    and any other normalized input once the next layer's matmul has read
    it, so a pass that keeps no layer holds about one layer's arrays at a
    time.
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
    keep = range(upto) if keep is None else set(keep)

    trace = ForwardTrace(inputs=None, classic=classic)
    for i in range(upto):
        is_linear_output = classic and i == depth - 1
        if i == 0:
            # Out of place, so the caller's first_pre is never written.
            act = first_pre if is_linear_output else relu(first_pre)
            del first_pre
        else:
            layer = net.layers[i]
            act = layer_in @ layer.weights
            del layer_in
            act += layer.biases
            if not is_linear_output:
                np.maximum(act, 0.0, out=act)
        trace.goodness.append(row_sumsq(act))
        trace.act.append(act if i in keep else None)
        if i < upto - 1:
            layer_in = act if classic else l2_row_normalize(act)
            trace.normed.append(layer_in if i + 1 in keep else None)
        del act
    return trace


def layer_local_grad(
    layer: DenseLayer, layer_input, d_pre, linked_labels=None
) -> tuple[np.ndarray, np.ndarray]:
    """(grad_w, grad_b) of a scalar loss w.r.t. one layer's parameters.

    ``d_pre[s, u]`` is the derivative of the loss with respect to the
    pre-activation of unit ``u`` on sample ``s``, and ``layer_input`` is
    what the layer consumed. Nothing is propagated to earlier layers, and
    ``d_pre`` is never written.

    With ``linked_labels``, the layer is a first layer over linked inputs in
    label-factored form (:class:`~ffnet.data.LinkedBatch`): ``layer_input``
    holds the ``m`` samples' pixels once, and row ``r`` of ``d_pre`` is
    sample ``r % m`` linked with ``linked_labels[r]``. The pixel rows of the
    gradient are ``X^T`` times ``d_pre`` summed over a sample's copies; the
    label rows are ``onehot(linked_labels)^T`` times it.
    """
    layer_input = as_matrix(layer_input)
    d_pre = as_matrix(d_pre)
    factored = linked_labels is not None
    m, n_pixels = layer_input.shape
    width = n_pixels + N_LABELS if factored else n_pixels
    if width != layer.in_dim:
        raise ShapeError(
            f"layer input has {width} columns, layer expects {layer.in_dim}"
        )
    rows = len(linked_labels) if factored else m
    if d_pre.shape != (rows, layer.out_dim):
        raise ShapeError(
            f"pre-activation gradient shape {d_pre.shape} does not match "
            f"({rows}, {layer.out_dim})"
        )
    grad_b = d_pre.sum(axis=0, keepdims=True)
    if not factored:
        return layer_input.T @ d_pre, grad_b
    copies = linked_copies(rows, m)
    grad_w = np.empty((n_pixels + N_LABELS, layer.out_dim))
    pixel_rows, label_rows = split_linked_weights(grad_w, n_pixels)
    per_sample = d_pre.reshape(copies, m, layer.out_dim).sum(axis=0)
    np.matmul(layer_input.T, per_sample, out=pixel_rows)
    np.matmul(one_hot(linked_labels).T, d_pre, out=label_rows)
    return grad_w, grad_b


def l2_row_normalize_vjp(act, normed, grad_out, epsilon: float = NORM_EPSILON) -> np.ndarray:
    """Backward pass of ``n = a / (||a|| + eps)`` applied row-wise.

    ``normed`` is the forward pass's output ``n`` for the rows ``act``.
    Exact Jacobian-transpose product: for s = ||a||,
    grad_a = g/(s+eps) - n * (n . g)/s, with the second term vanishing on
    all-zero rows (where n is zero and the map is linear with slope 1/eps).
    The result and one scratch array are its only full-size allocations;
    each operation rounds as in that formula. ``grad_out`` is never written.
    """
    act = as_matrix(act)
    normed = as_matrix(normed)
    grad_out = as_matrix(grad_out)
    norms = np.linalg.norm(act, axis=1, keepdims=True)
    denom = norms + epsilon
    safe_denom = np.where(denom > 0.0, denom, 1.0)
    dot = np.einsum("ij,ij->i", normed, grad_out)[:, None]
    safe_norms = np.where(norms > 0.0, norms, 1.0)
    grad_act = grad_out / safe_denom
    projected = normed * dot
    projected /= safe_norms
    grad_act -= projected
    return grad_act


def backprop_updates(net: MlpNetwork, trace: ForwardTrace, output_grad):
    """Exact chain-rule gradients of every layer, as ``(layer, grad_w, grad_b)``
    updates, last layer first.

    ``trace`` is a :func:`forward_pass` through the whole network, and the
    backward pass runs through the kind of network it records.
    ``output_grad`` is the loss derivative w.r.t. the last layer's
    pre-activation (a classic net's logits); it is never written.
    Every layer's update is :func:`layer_local_grad` of the gradient that
    reaches its pre-activation. Below the top, that gradient is gated by
    the layer's ReLU mask ``act > 0`` on the trace's activities, and a
    goodness net's normalization backward pass (:func:`l2_row_normalize_vjp`)
    reads the trace's activities and normalized rows. A label-factored
    trace gives layer 1's gradient in the label-factored form, over its
    ``linked_labels``.

    A generator, so the shapes are checked at the first ``next()``. Before
    it yields layer ``i``, it has computed the gradient that flows into layer
    ``i - 1`` from layer ``i``'s weights, so the consumer may step layer
    ``i`` in place before drawing the next update; every update is that of
    the parameters the trace was made with. It keeps its own lists of the
    trace's arrays and drops each once no lower layer reads it, so a trace
    that only the generator references is released layer by layer.
    """
    depth = net.depth
    if trace.depth != depth:
        raise ShapeError(f"trace depth {trace.depth} != network depth {depth}")
    if any(a is None for a in trace.act + trace.normed):
        raise ShapeError("backprop needs a trace that keeps every layer")
    d_pre = as_matrix(output_grad)
    if d_pre.shape != trace.act[-1].shape:
        raise ShapeError(
            f"output_grad shape {d_pre.shape} does not match "
            f"final activities {trace.act[-1].shape}"
        )
    act, normed = trace.act[:-1], list(trace.normed)
    inputs, linked_labels, classic = trace.inputs, trace.linked_labels, trace.classic
    del trace, output_grad
    for i in reversed(range(depth)):
        layer = net.layers[i]
        layer_input = normed.pop() if i else inputs
        grad_w, grad_b = layer_local_grad(
            layer, layer_input, d_pre, None if i else linked_labels
        )
        if i:
            d_pre = d_pre @ layer.weights.T
            below = act.pop()
            if not classic:
                d_pre = l2_row_normalize_vjp(below, layer_input, d_pre)
            d_pre *= below > 0.0
            del below
        del layer_input
        yield i, grad_w, grad_b
        del grad_w, grad_b


def full_backprop_grad(
    net: MlpNetwork, trace: ForwardTrace, output_grad
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`backprop_updates` of ``trace``, as one (grad_w, grad_b) pair per
    layer, first layer first."""
    updates = list(backprop_updates(net, trace, output_grad))
    return [(grad_w, grad_b) for _, grad_w, grad_b in reversed(updates)]


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
    row_size = math.prod(param.shape[1:])
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


def apply_adam_update(
    net: MlpNetwork,
    layer: int,
    grad_w: np.ndarray,
    grad_b: np.ndarray,
    states: dict[int, tuple[AdamState, AdamState]],
) -> None:
    """Adam step on one layer's weights and biases, in place, with the
    layer's (weights, biases) state pair ``states[layer]``."""
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
    "backprop_updates",
    "check_layer_dims",
    "first_layer_factors",
    "forward_from_pre",
    "forward_pass",
    "full_backprop_grad",
    "init_network",
    "l2_row_normalize_vjp",
    "layer_local_grad",
]
