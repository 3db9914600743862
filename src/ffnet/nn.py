"""Dense-layer MLP with hand-derived forward and backward passes.

Two gradient routes coexist on purpose:

* :func:`layer_local_grad` differentiates a single layer's parameters given
  per-unit loss coefficients, with no chain rule through other layers.
* :func:`full_backprop_grad` runs the exact chain rule through the whole
  stack, including the inter-layer L2 row normalization, for the
  backpropagation baselines.

Both are checked against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .linalg import NORM_EPSILON, as_matrix, l2_row_normalize, relu


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

    ``act`` holds post-ReLU activities (what goodness is measured on);
    ``normed`` holds what the next layer consumes. With normalization
    disabled the two coincide.
    """

    inputs: np.ndarray
    pre: list[np.ndarray] = field(default_factory=list)
    act: list[np.ndarray] = field(default_factory=list)
    normed: list[np.ndarray] = field(default_factory=list)

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
    epsilon: float = NORM_EPSILON,
) -> ForwardTrace:
    """Run the first ``upto`` layers (all by default).

    ``final_linear`` leaves the last layer of the network un-rectified and
    un-normalized; that is the classifier-head mode used by the classic
    backprop baseline. Hidden layers are always ReLU, and are L2
    row-normalized when ``normalize`` is set.
    """
    batch = as_matrix(batch)
    if batch.shape[1] != net.input_dim:
        raise ShapeError(
            f"batch has {batch.shape[1]} columns, network expects {net.input_dim}"
        )
    depth = net.depth
    if upto is None:
        upto = depth
    if not 1 <= upto <= depth:
        raise ShapeError(f"upto={upto} outside 1..{depth}")

    trace = ForwardTrace(inputs=batch)
    carry = batch
    for i in range(upto):
        layer = net.layers[i]
        pre = carry @ layer.weights + layer.biases
        is_linear_output = final_linear and i == depth - 1
        act = pre if is_linear_output else relu(pre)
        if normalize and not is_linear_output:
            normed = l2_row_normalize(act, epsilon)
        else:
            normed = act
        trace.pre.append(pre)
        trace.act.append(act)
        trace.normed.append(normed)
        carry = normed
    return trace


def layer_local_grad(
    layer: DenseLayer, layer_input, activity_coeffs
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of a scalar loss w.r.t. one layer's parameters.

    ``activity_coeffs[s, u]`` must be the derivative of the scalar loss with
    respect to the post-ReLU activity of unit ``u`` on sample ``s``. The ReLU
    mask is applied here from the recomputed pre-activations, and nothing is
    propagated to earlier layers.
    """
    layer_input = as_matrix(layer_input)
    coeffs = as_matrix(activity_coeffs)
    if layer_input.shape[1] != layer.in_dim:
        raise ShapeError(
            f"layer input has {layer_input.shape[1]} columns, layer expects {layer.in_dim}"
        )
    if coeffs.shape != (layer_input.shape[0], layer.out_dim):
        raise ShapeError(
            f"coefficients shape {coeffs.shape} does not match "
            f"({layer_input.shape[0]}, {layer.out_dim})"
        )
    pre = layer_input @ layer.weights + layer.biases
    d_pre = coeffs * (pre > 0.0)
    grad_w = layer_input.T @ d_pre
    grad_b = d_pre.sum(axis=0, keepdims=True)
    return grad_w, grad_b


def l2_row_normalize_vjp(act, grad_out, epsilon: float = NORM_EPSILON) -> np.ndarray:
    """Backward pass of ``n = a / (||a|| + eps)`` applied row-wise.

    Exact Jacobian-transpose product: for s = ||a|| and n the normalized row,
    grad_a = g/(s+eps) - n * (n . g)/s, with the second term vanishing on
    all-zero rows (where the map is linear with slope 1/eps).
    """
    act = as_matrix(act)
    grad_out = as_matrix(grad_out)
    norms = np.linalg.norm(act, axis=1, keepdims=True)
    denom = norms + epsilon
    safe_denom = np.where(denom > 0.0, denom, 1.0)
    normed = act / safe_denom
    dot = np.einsum("ij,ij->i", normed, grad_out)[:, None]
    safe_norms = np.where(norms > 0.0, norms, 1.0)
    correction = np.where(norms > 0.0, normed * dot / safe_norms, 0.0)
    return grad_out / safe_denom - correction


def full_backprop_grad(
    net: MlpNetwork,
    batch,
    output_grad,
    normalize: bool = True,
    final_linear: bool = False,
    trace: ForwardTrace | None = None,
    epsilon: float = NORM_EPSILON,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact chain-rule gradients for every layer.

    ``output_grad`` is the loss derivative w.r.t. the last layer's activities
    (its logits in ``final_linear`` mode). Returns one (grad_w, grad_b) pair
    per layer, first layer first. Pass a precomputed ``trace`` from
    :func:`forward_pass` with matching flags to skip the forward recompute.
    """
    batch = as_matrix(batch)
    if trace is None:
        trace = forward_pass(
            net, batch, normalize=normalize, final_linear=final_linear, epsilon=epsilon
        )
    depth = net.depth
    if trace.depth != depth:
        raise ShapeError(f"trace depth {trace.depth} != network depth {depth}")
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
            d_pre = d_act * (trace.pre[i] > 0.0)
        layer_input = trace.layer_input(i)
        grads[i] = (layer_input.T @ d_pre, d_pre.sum(axis=0, keepdims=True))
        if i > 0:
            d_carry = d_pre @ net.layers[i].weights.T
            if normalize:
                d_act = l2_row_normalize_vjp(trace.act[i - 1], d_carry, epsilon)
            else:
                d_act = d_carry
    return grads


@dataclass
class AdamState:
    """Adam accumulators for one parameter array."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_param(cls, param: np.ndarray, learning_rate: float = 0.001) -> "AdamState":
        return cls(
            first_moment=np.zeros_like(param),
            second_moment=np.zeros_like(param),
            learning_rate=learning_rate,
        )

    def copy(self) -> "AdamState":
        return AdamState(
            self.first_moment.copy(),
            self.second_moment.copy(),
            self.step_count,
            self.learning_rate,
            self.beta1,
            self.beta2,
            self.epsilon,
        )


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update. Mutates ``state``, returns new params."""
    if param.shape != grad.shape or param.shape != state.first_moment.shape:
        raise ShapeError(
            f"adam shapes disagree: param {param.shape}, grad {grad.shape}, "
            f"moments {state.first_moment.shape}"
        )
    state.step_count += 1
    t = state.step_count
    state.first_moment = state.beta1 * state.first_moment + (1.0 - state.beta1) * grad
    state.second_moment = (
        state.beta2 * state.second_moment + (1.0 - state.beta2) * grad * grad
    )
    m_hat = state.first_moment / (1.0 - state.beta1**t)
    v_hat = state.second_moment / (1.0 - state.beta2**t)
    return param - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)


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
    lay = net.layers[layer]
    state_w, state_b = states[layer]
    lay.weights = adam_step(lay.weights, grad_w, state_w)
    lay.biases = adam_step(lay.biases, grad_b, state_b)


__all__ = [
    "AdamState",
    "DenseLayer",
    "ForwardTrace",
    "MlpNetwork",
    "adam_step",
    "apply_adam_update",
    "forward_pass",
    "full_backprop_grad",
    "init_network",
    "l2_row_normalize_vjp",
    "layer_local_grad",
    "make_adam_states",
]
