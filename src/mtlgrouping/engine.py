"""Shared-encoder multi-task models trained by minibatch SGD with momentum.

The model is a tanh MLP encoder shared by every task in the training group
plus one linear head per task; an empty hidden_dims makes the encoder the
identity, leaving a purely linear (convex) per-task model. Joint training
moves the shared parameters along the mean of the per-task gradients and
each head along its own task's gradient. A traced run records, per step,
every task's loss, its gradient with respect to the shared parameters, and
the velocity entering the step, into the three preallocated arrays of a
``Trace``; downstream affinity scoring consumes exactly those signals, so it
costs no extra passes. ``save_trace`` writes them as ``trace.jsonl``, one
JSON object per step, and ``load_trace`` reads each line with the typed
reader back into the arrays.

One training step handles every task of every stacked group at once, over
a leading group axis and a task axis; it runs inline in the training loop,
on top of ``_forward``. Each reduction and matrix product in it works on
per-task slices of the shapes the one-task reference ``_loss_and_grads``
uses, so numpy runs the same summation and the same BLAS call per task, and
the step reproduces the per-task loop bit for bit. A finished model is
scored by the same ``_forward``, one pass per split over the ``(T, n, d)``
rows of its group, and each loss equals ``forward_loss`` on that task and
split exactly.

``train_groups`` trains many groups: it checks each one, buckets them by
size, architecture and train length, and trains each bucket in one loop,
with no padding, since every group of a config starts from the same
parameters and reads the same batch rows. A bucket's loop stacks its
members' train rows when it starts, task by task, so a call holds one
bucket's rows at a time, never a copy of every group's; scoring reads each
split's rows the same way. ``train_mtl`` is the one-group case of that
loop, and the only one that captures a trace. Report trains its candidates
this way; the oracle still calls ``train_mtl`` once per group, because
perfbench counts the oracle's training at those calls (see ``gains``).

Every parameter vector and gradient the engine builds has one layout: each
encoder layer's weight (row-major, out by in) and then its bias, in one flat
shared vector, read and written only through ``Architecture.unpack_shared``
views. ``init_params`` draws into them and ``_loss_and_grads`` writes its
gradient into them. The loop allocates no parameter state per step: each
group is one row ``[shared | heads row-major]`` of a flat buffer, and the
velocity and the update (the mean shared gradient, then the head gradients)
share its layout. The step writes its gradients into views of
these buffers, and the momentum update is four in-place operations over the
whole buffer that match ``sgd_momentum_step`` element for element. Each
epoch gathers its shuffled rows once into a buffer; a step then reads a
contiguous slice of it, a view built once per call. The squared loss forms its residual
``yhat - y`` once, sums its square and turns it into dL/dyhat in place, and
the backward pass computes tanh' in place on each activation after its last
read. None of this changes what is computed: the products and sums still
run on the same per-task slices, which is what keeps the step bit-exact.

Each step writes its per-task loss sums into one row of a ``(steps per
epoch, G, T)`` buffer, and divergence is checked once per epoch on the whole
buffer. A sum is finite exactly when its mean is, so a group's first
non-finite row names the same ``(step, task)`` a check after every step
would have raised ``TrainingDiverged`` with. A diverged group's row is
zeroed and left out of the results; the other groups train on unchanged.

All randomness (initialization, batch order) is drawn from streams keyed by
the config seed alone, shared across tasks. Sharing the head-init and batch
streams between tasks makes training of a single-task group reproduce
single-task training bit for bit, and makes tasks with identical data follow
identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .affinity import is_task_id
from .artifacts import load_lines, write_jsonl
from .seeding import stream
from .suite import SPLITS

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

    def __reduce__(self):  # pickled with its own arguments, so it survives a worker
        return type(self), (self.step, self.task)


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
    learning_rate: float
    momentum: float
    epochs: int
    batch_size: int
    hidden_dims: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be > 0 and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be >= 1")


@dataclass(frozen=True)
class Trace:
    """Signals captured before the parameter update of every optimizer step.

    Row ``s`` of each array is step ``s`` and task axis ``j`` is task
    ``tasks[j]``: ``losses`` ``(S, T)`` holds each task's mean batch loss,
    ``gradients`` ``(S, T, P)`` its gradient with respect to the shared
    parameters, and ``velocity_in`` ``(S, P)`` the shared velocity entering
    the step (zeros at step 0).
    """

    tasks: tuple[int, ...]
    losses: np.ndarray
    gradients: np.ndarray
    velocity_in: np.ndarray

    def __post_init__(self):
        s, t = len(self.losses), len(self.tasks)
        p = self.velocity_in.shape[-1]
        if (self.losses.shape, self.gradients.shape, self.velocity_in.shape) != (
                (s, t), (s, t, p), (s, p)):
            raise ValueError("trace arrays must have shapes (S, T), (S, T, P) and (S, P)")


@dataclass(frozen=True)
class _TraceLine:
    """The JSON layout of one line of ``trace.jsonl``: one step's signals, keyed by task."""

    step: int
    losses: dict[int, float]
    gradients: dict[int, np.ndarray]
    velocity_in: np.ndarray


@dataclass(frozen=True)
class TrainedModel:
    params: ModelParams
    group: tuple[int, ...]
    losses: dict[str, dict[int, float]]  # split -> task -> mean loss
    trace: Trace | None = None


def init_params(arch: Architecture, seed: int, tasks) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init; all heads start identical."""
    rng_enc = stream(seed, _INIT_ENCODER)
    shared = np.empty(arch.shared_size)
    for w, b in arch.unpack_shared(shared):  # each layer's weight, then its bias
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng_enc.uniform(-bound, bound, size=w.shape)
        b[...] = rng_enc.uniform(-bound, bound, size=b.shape)
    bound = 1.0 / np.sqrt(arch.rep_dim)
    head = stream(seed, _INIT_HEAD).uniform(-bound, bound, size=arch.head_size)
    return ModelParams(arch=arch, shared=shared, heads={t: head.copy() for t in tasks})


def _encode(layers, X: np.ndarray):
    """Forward through the encoder, keeping activations for backprop.

    ``layers`` holds ``(weight transposed to (in, out), bias)`` pairs. X may
    carry leading axes, ``(G, T, n, d)`` in training, broadcast against the
    layers' own.
    """
    activations = [X]
    a = X
    for w_t, b in layers:
        a = a @ w_t
        a += b
        np.tanh(a, out=a)
        activations.append(a)
    return a, activations


def _head_out(head: np.ndarray, rep: np.ndarray) -> np.ndarray:
    return rep @ head[:-1] + head[-1]


def _forward(layers, head_w: np.ndarray, head_b: np.ndarray, X: np.ndarray):
    """Every task's head outputs on its own rows, with the encoder's activations.

    X is ``([G,] T, n, d)``, ``head_w`` the ``([G,] T, H, 1)`` head weights
    and ``head_b`` the ``([G,] T, 1)`` biases; the outputs are ``([G,] T,
    n)``, each task's from per-task 2-D products as ``_head_out`` forms them.
    The last activation is the encoder's output.
    """
    rep, activations = _encode(layers, X)
    return (rep @ head_w)[..., 0] + head_b, activations


def _loss_terms(arch: Architecture, yhat: np.ndarray, y: np.ndarray, out=None):
    """Loss summed over the last axis, and dL/dyhat of the batch-mean loss.

    The one definition of each loss. The sum goes into ``out`` when given;
    the mean is the sum divided by the batch size, which is what ``np.mean``
    computes. On the squared loss the residual ``yhat - y`` is formed once:
    its square is summed, then it becomes ``2 * r / n`` in place, the same
    operations as ``2.0 * (yhat - y) / n``.
    """
    n = y.shape[-1]
    if arch.loss == "squared":
        dyhat = yhat - y
        total = np.add.reduce(dyhat * dyhat, axis=-1, out=out)
        dyhat *= 2.0
        dyhat /= n
    else:
        # binary cross-entropy on logits: log(1 + e^yhat) - y * yhat
        total = np.add.reduce(np.logaddexp(0.0, yhat) - y * yhat, axis=-1, out=out)
        dyhat = (1.0 / (1.0 + np.exp(-yhat)) - y) / n
    return total, dyhat


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
    rep, _ = _encode([(w.T, b) for w, b in params.arch.unpack_shared(params.shared)], X)
    total, _ = _loss_terms(params.arch, _head_out(params.heads[task], rep), y)
    return float(total / y.size)


def _loss_and_grads(params: ModelParams, task: int, batch):
    """Loss plus analytic gradients of the batch-mean loss (shared, head).

    The public one-task reference: ``train_mtl`` never calls it, but the
    step inside its loop reproduces it bit for bit on every task slice, and
    the replay tests hold the two to that.
    """
    arch = params.arch
    X, y = _check_batch(arch, batch)
    layers = arch.unpack_shared(params.shared)
    rep, activations = _encode([(w.T, b) for w, b in layers], X)
    head = params.heads[task]
    total, dyhat = _loss_terms(arch, _head_out(head, rep), y)
    loss = float(total / y.size)
    head_grad = np.concatenate([rep.T @ dyhat, [dyhat.sum()]])

    delta = np.outer(dyhat, head[:-1])  # dL/d(encoder output)
    shared_grad = np.empty(arch.shared_size)
    grads = arch.unpack_shared(shared_grad)
    for i in range(len(layers) - 1, -1, -1):
        ds = delta * (1.0 - activations[i + 1] ** 2)  # tanh'
        g_w, g_b = grads[i]
        g_w[...] = ds.T @ activations[i]
        g_b[...] = ds.sum(axis=0)
        delta = ds @ layers[i][0]
    return loss, shared_grad, head_grad


def shared_gradient(params: ModelParams, task: int, batch) -> np.ndarray:
    """Gradient of the batch-mean loss w.r.t. the shared parameters only."""
    return _loss_and_grads(params, task, batch)[1]


def sgd_momentum_step(theta: np.ndarray, velocity: np.ndarray, gradient: np.ndarray,
                      learning_rate: float, momentum: float):
    """v' = momentum * v - learning_rate * g; theta' = theta + v'.

    The public reference update: ``train_mtl`` applies the same operations
    in place on its flat parameter vector, bit for bit.
    """
    if not (theta.shape == velocity.shape == gradient.shape):
        raise ValueError("theta, velocity and gradient shapes must agree")
    new_velocity = momentum * velocity - learning_rate * gradient
    return theta + new_velocity, new_velocity


def _group_rows(group, datasets, config: TrainConfig):
    """The sorted group and its architecture, once the group is checked.

    Raises ``ValueError`` for a group that cannot be trained jointly: among
    other reasons, when its tasks' splits differ in size, split by split.
    It reads no rows: ``_train_stack`` stacks them when it starts.
    """
    ids = tuple(group)
    for t in ids:
        if not is_task_id(t):
            raise ValueError(f"task id {t!r} is not an integer")
    group = tuple(sorted(set(map(int, ids))))
    if len(group) < 1:
        raise ValueError("group must contain at least one task")
    try:
        members = [datasets[t] for t in group]
    except KeyError as exc:
        raise ValueError(f"task {exc.args[0]} is not in the suite") from None
    input_dim = members[0].input_dim
    task_type = members[0].task_type
    for ds in members:
        if ds.input_dim != input_dim or ds.task_type != task_type:
            raise ValueError("all tasks in a group must share input dim and task type")
    for split in SPLITS:
        if len({ds.split_size(split) for ds in members}) > 1:
            raise ValueError(f"all tasks in a group must have equally sized {split} splits")
    if members[0].split_size("train") == 0:
        raise ValueError("empty train split")
    loss_kind = "squared" if task_type == "regression" else "logistic"
    arch = Architecture(input_dim=input_dim, hidden_dims=tuple(config.hidden_dims), loss=loss_kind)
    return group, arch


def _stacked_rows(groups, datasets, split: str, input_dim: int):
    """The ``([G,] T, n, d)`` features and ``([G,] T, n)`` targets of one split.

    Row ``[g, j]`` is task ``groups[g][j]``; the group axis is there only for
    two or more groups, as in ``_train_stack``'s state. The stack is filled
    task by task, so one task's fresh rows are alive at a time.
    """
    y = np.empty((len(groups), len(groups[0]), datasets[groups[0][0]].split_size(split)))
    X = np.empty(y.shape + (input_dim,))
    for g, j in np.ndindex(y.shape[:2]):
        X[g, j], y[g, j] = datasets[groups[g][j]].rows(split)
    return (X, y) if len(groups) > 1 else (X[0], y[0])


def _train_stack(arch: Architecture, groups, datasets, config: TrainConfig,
                 capture_trace: bool = False) -> list[TrainedModel | TrainingDiverged]:
    """Train groups of one size, architecture and train length in one loop.

    The stack reads its train rows from ``datasets`` when it starts. Every
    group starts from the same parameters and reads the same batch rows,
    both drawn from the config seed alone, so the stack shares one
    initialization and one permutation per epoch. Returns, per group, its
    model or the ``TrainingDiverged`` it stopped at; a diverging group
    neither stops nor changes the others. Only a lone group, the one
    ``train_mtl`` trains, can capture its trace.
    """
    n_groups, n_tasks = len(groups), len(groups[0])
    # the state carries a leading group axis only for two or more groups:
    # every axis adds to numpy's cost per call, and a lone group (train_mtl)
    # is what train-affinity and the oracle train
    stack = (n_groups,) if n_groups > 1 else ()
    X_all, y_all = _stacked_rows(groups, datasets, "train", arch.input_dim)
    n_train = y_all.shape[-1]
    # theta = [shared | heads row-major], one row per group; velocity and
    # update share the layout
    init = init_params(arch, config.seed, groups[0])
    n_shared = arch.shared_size
    theta = np.tile(np.concatenate([init.shared, *init.heads.values()]), stack + (1,))
    velocity = np.zeros_like(theta)
    update = np.empty_like(theta)  # [mean shared gradient | head gradients]
    head_shape = stack + (n_tasks, arch.head_size)
    shared, heads = theta[..., :n_shared], theta[..., n_shared:].reshape(head_shape)
    mean_grad, head_grads = update[..., :n_shared], update[..., n_shared:].reshape(head_shape)
    grads = np.empty(stack + (n_tasks, n_shared))
    # the shared layers broadcast over the task axis, after a stack's group axis
    lift = (slice(None), None) if stack else ()
    unpacked = arch.unpack_shared(shared)
    layers = [(w.swapaxes(-1, -2)[lift], b[lift][..., None, :]) for w, b in unpacked]
    weights = [w[lift] for w, _ in unpacked]
    grad_layers = arch.unpack_shared(grads)
    head_w, head_b, head_rows = heads[..., :-1, None], heads[..., -1:], heads[..., None, :-1]
    grad_w, grad_b = head_grads[..., :-1, None], head_grads[..., -1]
    # each epoch gathers its shuffled rows into one buffer; a step reads
    # contiguous views of it, built once, and writes its loss sums into one
    # row of a (steps per epoch, [G,] T) buffer
    X_epoch, y_epoch = np.empty_like(X_all), np.empty_like(y_all)
    starts = range(0, n_train, config.batch_size)
    loss_sums = np.empty((len(starts),) + stack + (n_tasks,))
    batches = [(X_epoch[..., start:start + config.batch_size, :],
                y_epoch[..., start:start + config.batch_size], loss_sum)
               for start, loss_sum in zip(starts, loss_sums)]
    # the state one group per row, with or without its group axis
    group_theta, group_velocity = theta.reshape(n_groups, -1), velocity.reshape(n_groups, -1)
    group_loss_sums = loss_sums.reshape(len(starts), n_groups, n_tasks)
    rng_batches = stream(config.seed, _BATCHES)
    eta, beta = config.learning_rate, config.momentum
    n_steps = config.epochs * len(batches)
    trace = None
    if capture_trace:
        trace = Trace(groups[0], np.empty((n_steps, n_tasks)),
                      np.empty((n_steps, n_tasks, n_shared)), np.empty((n_steps, n_shared)))
    outcomes: list = [None] * n_groups

    for epoch in range(config.epochs):
        order = rng_batches.permutation(n_train)
        X_all.take(order, axis=-2, out=X_epoch)
        y_all.take(order, axis=-1, out=y_epoch)
        for k, (X, y, loss_sum) in enumerate(batches):
            # every product multiplies per-task 2-D slices and every sum runs
            # over the batch axis, as _loss_and_grads does for one task
            yhat, activations = _forward(layers, head_w, head_b, X)
            _, dyhat = _loss_terms(arch, yhat, y, out=loss_sum)
            dyhat_col = dyhat[..., None]
            np.matmul(activations[-1].swapaxes(-1, -2), dyhat_col, out=grad_w)
            np.add.reduce(dyhat, axis=-1, out=grad_b)
            delta = dyhat_col * head_rows if layers else None  # dL/d(encoder output)
            for i in range(len(layers) - 1, -1, -1):
                # tanh' = 1 - a^2 in place: a was last read by the head or the layer above
                a = activations[i + 1]
                a *= a
                np.subtract(1.0, a, out=a)
                delta *= a
                g_w, g_b = grad_layers[i]
                np.matmul(delta.swapaxes(-1, -2), activations[i], out=g_w)
                np.add.reduce(delta, axis=-2, out=g_b)
                if i:  # the input layer's delta is never read
                    delta = delta @ weights[i]
            if trace is not None:
                step = epoch * len(batches) + k
                np.divide(loss_sum, y.shape[-1], out=trace.losses[step])
                trace.gradients[step] = grads
                trace.velocity_in[step] = velocity[:n_shared]
            # sgd_momentum_step on every group's whole vector, in place
            np.add.reduce(grads, axis=-2, out=mean_grad)
            mean_grad /= n_tasks
            update *= eta
            velocity *= beta
            velocity -= update
            theta += velocity
        # a sum is finite exactly when its mean is; a group's first bad row
        # is the step a per-step check would have stopped it at
        finite = np.isfinite(group_loss_sums)
        if not finite.all():
            for g in np.flatnonzero(~finite.all(axis=(0, 2))):
                if outcomes[g] is None:
                    k, j = np.argwhere(~finite[:, g])[0]
                    outcomes[g] = TrainingDiverged(epoch * len(batches) + int(k), groups[g][j])
                    # a zero row stays finite, so a dead group warns no more
                    group_theta[g] = group_velocity[g] = 0.0
            if all(outcomes):
                break

    # each surviving group is scored alone, one pass over its (T, n, d) rows
    # per split: a whole bucket's val and test rows at once would raise the
    # peak memory of a run
    for g, (group, row) in enumerate(zip(groups, group_theta)):
        if outcomes[g] is not None:
            continue
        heads = row[n_shared:].reshape(n_tasks, -1)
        params = ModelParams(arch=arch, shared=row[:n_shared].copy(),
                             heads={t: h.copy() for t, h in zip(group, heads)})
        layers = [(w.T, b) for w, b in arch.unpack_shared(params.shared)]
        losses = {split: {} for split in SPLITS}
        for split in SPLITS:
            X, y = _stacked_rows([group], datasets, split, arch.input_dim)
            if y.size:  # an empty split has no losses
                yhat, _ = _forward(layers, heads[:, :-1, None], heads[:, -1:], X)
                total, _ = _loss_terms(arch, yhat, y)
                losses[split] = dict(zip(group, (total / y.shape[-1]).tolist()))
        bad = [t for split_losses in losses.values()
               for t, value in split_losses.items() if not np.isfinite(value)]
        outcomes[g] = (TrainingDiverged(n_steps - 1, bad[0]) if bad else TrainedModel(
            params=params, group=group, losses=losses, trace=trace))
    return outcomes


def train_mtl(group, datasets, config: TrainConfig, capture_trace: bool = False) -> TrainedModel:
    """Jointly train one model for a group of tasks.

    Each step draws the same row permutation slice from every task's train
    split, so tasks contribute one batch per step. The shared parameters are
    updated with the gradient of the mean task loss; each head with its own
    task's gradient. This is the one-group case of ``train_groups``.
    """
    group, arch = _group_rows(group, datasets, config)
    (outcome,) = _train_stack(arch, [group], datasets, config, capture_trace)
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome


def train_groups(groups, datasets, config: TrainConfig) -> list[TrainedModel | Exception]:
    """Jointly train one model per group, each as ``train_mtl`` would, bit for bit.

    Groups of one size (and architecture and train length) train stacked in
    one loop, with no padding. The result is in input order: each group's
    ``TrainedModel``, or in its place the ``ValueError`` or
    ``TrainingDiverged`` that ``train_mtl`` raises for it. A group that
    fails neither stops the others nor changes their bits.
    """
    outcomes: list = [None] * len(groups)
    buckets: dict = {}
    for i, group in enumerate(groups):
        try:
            group, arch = _group_rows(group, datasets, config)
        except ValueError as exc:
            outcomes[i] = exc
            continue
        size = datasets[group[0]].split_size("train")
        buckets.setdefault((len(group), arch, size), []).append((i, group))
    for (_, arch, _), members in buckets.items():
        index, stack = zip(*members)
        for i, outcome in zip(index, _train_stack(arch, stack, datasets, config)):
            outcomes[i] = outcome
    return outcomes


def train_stl(task: int, dataset, config: TrainConfig) -> TrainedModel:
    """Train a single-task model; identical trajectory to a one-task group."""
    return train_mtl((task,), {task: dataset}, config, capture_trace=False)


def save_trace(trace: Trace, path) -> None:
    """One JSON object per step: losses, shared gradients, incoming velocity.

    Each line is ``json.dumps`` of one dict built from the arrays' ``tolist()``
    rows, keys sorted, with the task ids as string keys.
    """
    keys = [str(t) for t in trace.tasks]
    write_jsonl(path, (
        {"gradients": dict(zip(keys, grads)), "losses": dict(zip(keys, losses)),
         "step": step, "velocity_in": velocity_in}
        for step, (losses, grads, velocity_in) in enumerate(zip(
            trace.losses.tolist(), trace.gradients.tolist(), trace.velocity_in.tolist()))))


def load_trace(path) -> Trace:
    """Read ``trace.jsonl`` back into a ``Trace``, each line through the typed reader.

    Lines must hold steps 0, 1, ... in order, every step the same tasks, and
    every gradient the length of the velocity.
    """
    lines = load_lines(path, _TraceLine)
    tasks = tuple(sorted(lines[0].losses)) if lines else ()
    size = lines[0].velocity_in.size if lines else 0
    trace = Trace(tasks, np.empty((len(lines), len(tasks))),
                  np.empty((len(lines), len(tasks), size)), np.empty((len(lines), size)))
    for step, line in enumerate(lines):
        if line.step != step:
            raise ValueError(f"{path} holds step {line.step} where step {step} belongs")
        if sorted(line.losses) != list(tasks) or sorted(line.gradients) != list(tasks):
            raise ValueError(f"{path}: step {step} does not cover the tasks {list(tasks)}")
        if line.velocity_in.size != size or any(g.size != size for g in line.gradients.values()):
            raise ValueError(f"{path}: step {step} has gradients or a velocity of a length "
                             f"other than {size}")
        trace.losses[step] = [line.losses[t] for t in tasks]
        trace.gradients[step] = [line.gradients[t] for t in tasks]
        trace.velocity_in[step] = line.velocity_in
    return trace
