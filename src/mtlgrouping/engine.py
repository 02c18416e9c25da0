"""Shared-encoder multi-task models trained by minibatch SGD with momentum.

The model is a tanh MLP encoder shared by every task in the training group
plus one linear head per task; an empty hidden_dims makes the encoder the
identity, leaving a purely linear (convex) per-task model. Joint training
moves the shared parameters along the mean of the per-task gradients and
each head along its own task's gradient. A traced run records, per step,
every task's loss, its gradient with respect to the shared parameters, and
the velocity entering the step; downstream affinity scoring consumes exactly
those signals, so it costs no extra passes.

One training step handles every task of the group at once, over a leading
task axis. Each reduction and matrix product in it works on per-task slices
of the shapes the one-task reference ``_loss_and_grads`` uses, so numpy runs
the same summation and the same BLAS call per task, and the batched step
reproduces the per-task loop bit for bit.

All randomness (initialization, batch order) is drawn from streams keyed by
the config seed alone, shared across tasks. Sharing the head-init and batch
streams between tasks makes training of a single-task group reproduce
single-task training bit for bit, and makes tasks with identical data follow
identical trajectories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .seeding import stream

# stream purposes
_INIT_ENCODER = 20
_INIT_HEAD = 21
_BATCHES = 22

_LOSSES = ("squared", "logistic")


class TrainingDiverged(RuntimeError):
    """A loss became non-finite during training."""

    def __init__(self, step: int, task: int):
        super().__init__(f"non-finite loss for task {task} at step {step}")
        self.step = step
        self.task = task


@dataclass(frozen=True)
class Architecture:
    """Shapes and loss kind; parameters themselves live in flat vectors."""

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    loss: str = "squared"

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be >= 1")
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {_LOSSES}")

    # pure metadata of the frozen fields, computed once per instance
    @cached_property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        dims = (self.input_dim,) + tuple(self.hidden_dims)
        return tuple((dims[i + 1], dims[i]) for i in range(len(self.hidden_dims)))

    @cached_property
    def rep_dim(self) -> int:
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dim

    @cached_property
    def shared_size(self) -> int:
        return sum(o * i + o for o, i in self.layer_shapes)

    @property
    def head_size(self) -> int:
        return self.rep_dim + 1

    def unpack_shared(self, shared: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views of the (weight, bias) pairs along the last axis of ``shared``.

        Leading axes are kept, so a ``(T, shared_size)`` array of per-task
        vectors unpacks into ``(T, out, in)`` weights and ``(T, out)`` biases.
        """
        if shared.shape[-1] != self.shared_size:
            raise ValueError(f"shared vector must have length {self.shared_size}")
        lead = shared.shape[:-1]
        layers = []
        pos = 0
        for out_dim, in_dim in self.layer_shapes:
            w = shared[..., pos: pos + out_dim * in_dim].reshape(lead + (out_dim, in_dim))
            pos += out_dim * in_dim
            b = shared[..., pos: pos + out_dim]
            pos += out_dim
            layers.append((w, b))
        return layers

    def pack_shared(self, layers) -> np.ndarray:
        parts = []
        for w, b in layers:
            parts.append(np.asarray(w, dtype=float).ravel())
            parts.append(np.asarray(b, dtype=float).ravel())
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)


@dataclass
class ModelParams:
    """Flat shared-encoder vector plus one flat head vector per task."""

    arch: Architecture
    shared: np.ndarray
    heads: dict[int, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(
            arch=self.arch,
            shared=self.shared.copy(),
            heads={t: h.copy() for t, h in self.heads.items()},
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 1
    batch_size: int = 32
    hidden_dims: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be >= 1")


@dataclass(frozen=True)
class StepTrace:
    """Signals captured before the parameter update of one optimizer step."""

    step: int
    losses: dict[int, float]
    gradients: dict[int, np.ndarray]
    velocity_in: np.ndarray


@dataclass(frozen=True)
class TrainedModel:
    params: ModelParams
    group: tuple[int, ...]
    losses: dict[str, dict[int, float]]  # split -> task -> mean loss
    trace: tuple[StepTrace, ...] | None = None


def init_params(arch: Architecture, seed: int, tasks) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init; all heads start identical."""
    rng_enc = stream(seed, _INIT_ENCODER)
    layers = []
    for out_dim, in_dim in arch.layer_shapes:
        bound = 1.0 / np.sqrt(in_dim)
        w = rng_enc.uniform(-bound, bound, size=(out_dim, in_dim))
        b = rng_enc.uniform(-bound, bound, size=out_dim)
        layers.append((w, b))
    shared = arch.pack_shared(layers)
    bound = 1.0 / np.sqrt(arch.rep_dim)
    head = stream(seed, _INIT_HEAD).uniform(-bound, bound, size=arch.head_size)
    return ModelParams(arch=arch, shared=shared, heads={t: head.copy() for t in tasks})


def _encode(layers, X: np.ndarray):
    """Forward through the encoder, keeping activations for backprop.

    X may carry a leading task axis, ``(T, n, d)``; the layers are shared.
    """
    activations = [X]
    a = X
    for w, b in layers:
        a = np.tanh(a @ w.T + b)
        activations.append(a)
    return a, activations


def _head_out(head: np.ndarray, rep: np.ndarray) -> np.ndarray:
    return rep @ head[:-1] + head[-1]


def _mean_loss(arch: Architecture, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batch-mean loss over the last axis."""
    if arch.loss == "squared":
        return np.mean((yhat - y) ** 2, axis=-1)
    # binary cross-entropy on logits: log(1 + e^yhat) - y * yhat
    return np.mean(np.logaddexp(0.0, yhat) - y * yhat, axis=-1)


def _dloss_dyhat(arch: Architecture, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = y.shape[-1]
    if arch.loss == "squared":
        return 2.0 * (yhat - y) / n
    return (1.0 / (1.0 + np.exp(-yhat)) - y) / n


def _check_batch(arch: Architecture, batch):
    X, y = batch
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise ValueError(f"batch features must have shape (n, {arch.input_dim})")
    if X.shape[0] != y.size or y.size == 0:
        raise ValueError("batch features and targets must align and be non-empty")
    return X, y


def forward_loss(params: ModelParams, task: int, batch) -> float:
    """Mean loss of one task's head on a batch."""
    X, y = _check_batch(params.arch, batch)
    rep, _ = _encode(params.arch.unpack_shared(params.shared), X)
    yhat = _head_out(params.heads[task], rep)
    return float(_mean_loss(params.arch, yhat, y))


def _loss_and_grads(params: ModelParams, task: int, batch):
    """Loss plus analytic gradients of the batch-mean loss (shared, head).

    The one-task reference that ``_batched_step`` reproduces bit for bit.
    """
    arch = params.arch
    X, y = _check_batch(arch, batch)
    layers = arch.unpack_shared(params.shared)
    rep, activations = _encode(layers, X)
    head = params.heads[task]
    yhat = _head_out(head, rep)
    loss = float(_mean_loss(arch, yhat, y))

    dyhat = _dloss_dyhat(arch, yhat, y)
    head_grad = np.concatenate([rep.T @ dyhat, [dyhat.sum()]])

    delta = np.outer(dyhat, head[:-1])  # dL/d(encoder output)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        ds = delta * (1.0 - activations[i + 1] ** 2)  # tanh'
        grads[i] = (ds.T @ activations[i], ds.sum(axis=0))
        delta = ds @ w
    shared_grad = arch.pack_shared(grads) if grads else np.zeros(0)
    return loss, shared_grad, head_grad


def _batched_step(arch: Architecture, layers, heads: np.ndarray, X: np.ndarray,
                  y: np.ndarray, grads: np.ndarray, head_grads: np.ndarray) -> np.ndarray:
    """Losses and gradients of all tasks of a group for one batch.

    X is ``(T, n, d)``, y ``(T, n)`` and heads ``(T, head_size)``, one slice
    per task; ``layers`` are the unpacked shared parameters. Fills ``grads``
    ``(T, shared_size)`` and ``head_grads`` ``(T, head_size)`` in place and
    returns the ``(T,)`` batch-mean losses. Every product multiplies per-task
    2-D slices and every sum runs over the batch axis, exactly as
    ``_loss_and_grads`` does for one task, so each slice matches it bit for bit.
    """
    rep, activations = _encode(layers, X)
    yhat = (rep @ heads[:, :-1, None])[..., 0] + heads[:, -1:]
    losses = _mean_loss(arch, yhat, y)

    dyhat = _dloss_dyhat(arch, yhat, y)
    head_grads[:, :-1] = (rep.transpose(0, 2, 1) @ dyhat[..., None])[..., 0]
    head_grads[:, -1] = dyhat.sum(axis=-1)

    delta = dyhat[..., None] * heads[:, None, :-1]  # dL/d(encoder output)
    grad_layers = arch.unpack_shared(grads)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        g_w, g_b = grad_layers[i]
        ds = delta * (1.0 - activations[i + 1] ** 2)  # tanh'
        g_w[...] = ds.transpose(0, 2, 1) @ activations[i]
        g_b[...] = ds.sum(axis=1)
        delta = ds @ w
    return losses


def shared_gradient(params: ModelParams, task: int, batch) -> np.ndarray:
    """Gradient of the batch-mean loss w.r.t. the shared parameters only."""
    return _loss_and_grads(params, task, batch)[1]


def sgd_momentum_step(theta: np.ndarray, velocity: np.ndarray, gradient: np.ndarray,
                      learning_rate: float, momentum: float):
    """v' = momentum * v - learning_rate * g; theta' = theta + v'."""
    if not (theta.shape == velocity.shape == gradient.shape):
        raise ValueError("theta, velocity and gradient shapes must agree")
    new_velocity = momentum * velocity - learning_rate * gradient
    return theta + new_velocity, new_velocity


def _eval_losses(params: ModelParams, group, datasets) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {}
    for split in ("train", "val", "test"):
        per_task = {}
        for t in group:
            X, y = datasets[t].rows(split)
            if y.size == 0:
                continue
            per_task[t] = forward_loss(params, t, (X, y))
        out[split] = per_task
    return out


def train_mtl(group, datasets, config: TrainConfig, capture_trace: bool = False) -> TrainedModel:
    """Jointly train one model for a group of tasks.

    Each step draws the same row permutation slice from every task's train
    split, so tasks contribute one batch per step. The shared parameters are
    updated with the gradient of the mean task loss; each head with its own
    task's gradient.
    """
    group = tuple(sorted(set(int(t) for t in group)))
    if len(group) < 1:
        raise ValueError("group must contain at least one task")
    first = datasets[group[0]]
    input_dim = first.input_dim
    task_type = first.task_type
    train = [datasets[t].rows("train") for t in group]
    n_train = train[0][1].size
    for t, (_, y) in zip(group, train):
        ds = datasets[t]
        if ds.input_dim != input_dim or ds.task_type != task_type:
            raise ValueError("all tasks in a group must share input dim and task type")
        if y.size != n_train:
            raise ValueError("all tasks in a group must have equally sized train splits")
    if n_train == 0:
        raise ValueError("empty train split")

    loss_kind = "squared" if task_type == "regression" else "logistic"
    arch = Architecture(input_dim=input_dim, hidden_dims=tuple(config.hidden_dims), loss=loss_kind)
    params = init_params(arch, config.seed, group)

    X_all = np.stack([X for X, _ in train]).astype(float, copy=False)  # (T, n, d)
    y_all = np.stack([y for _, y in train]).astype(float, copy=False)  # (T, n)
    heads = np.stack([params.heads[t] for t in group])
    v_shared = np.zeros(arch.shared_size)
    v_heads = np.zeros_like(heads)
    grads = np.empty((len(group), arch.shared_size))
    head_grads = np.empty_like(heads)
    rng_batches = stream(config.seed, _BATCHES)
    eta, beta = config.learning_rate, config.momentum

    trace: list[StepTrace] = []
    step = 0
    for _ in range(config.epochs):
        order = rng_batches.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            rows = order[start: start + config.batch_size]
            losses = _batched_step(arch, arch.unpack_shared(params.shared), heads,
                                   X_all[:, rows], y_all[:, rows], grads, head_grads)
            finite = np.isfinite(losses)
            if not finite.all():
                raise TrainingDiverged(step, group[int(np.argmin(finite))])
            if capture_trace:
                trace.append(StepTrace(
                    step=step,
                    losses=dict(zip(group, losses.tolist())),
                    gradients={t: g.copy() for t, g in zip(group, grads)},
                    velocity_in=v_shared.copy(),
                ))
            params.shared, v_shared = sgd_momentum_step(
                params.shared, v_shared, np.mean(grads, axis=0), eta, beta)
            heads, v_heads = sgd_momentum_step(heads, v_heads, head_grads, eta, beta)
            step += 1
    params.heads = dict(zip(group, heads))

    losses = _eval_losses(params, group, datasets)
    for split_losses in losses.values():
        for t, value in split_losses.items():
            if not np.isfinite(value):
                raise TrainingDiverged(step - 1, t)
    return TrainedModel(
        params=params,
        group=group,
        losses=losses,
        trace=tuple(trace) if capture_trace else None,
    )


def train_stl(task: int, dataset, config: TrainConfig) -> TrainedModel:
    """Train a single-task model; identical trajectory to a one-task group."""
    return train_mtl((task,), {int(task): dataset}, config, capture_trace=False)


def save_trace(trace, path) -> None:
    """One JSON object per step: losses, shared gradients, incoming velocity."""
    path = Path(path)
    with open(path, "w") as fh:
        for st in trace:
            record = {
                "step": st.step,
                "losses": {str(t): float(v) for t, v in sorted(st.losses.items())},
                "gradients": {
                    str(t): [float(v) for v in g] for t, g in sorted(st.gradients.items())
                },
                "velocity_in": [float(v) for v in st.velocity_in],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_trace(path) -> tuple[StepTrace, ...]:
    steps = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            steps.append(StepTrace(
                step=int(rec["step"]),
                losses={int(t): float(v) for t, v in rec["losses"].items()},
                gradients={
                    int(t): np.asarray(g, dtype=float) for t, g in rec["gradients"].items()
                },
                velocity_in=np.asarray(rec["velocity_in"], dtype=float),
            ))
    return tuple(steps)
