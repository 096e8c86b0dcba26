"""Small MLP generator trained against the square-root weighted-MMD objective.

The discriminator side is not a network: each iteration draws a weighted
bootstrap measure from the current minibatch (flat-prior posterior) and the
generator descends the square root of the weighted squared MMD between that
measure and its own output batch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import discrepancy
from .discrepancy import mmd2_and_grad, mmd2_empirical
from .dp import DiscreteMeasure, sample_dp_posterior, stopping_rule_N
from .errors import InvalidInputError, InvalidParameterError, as_rows, as_sample
from .kernels import KernelSpec, gaussian_mixture, resolve_median

# Training calls mmd2_and_grad; these two stay bound because perfbench/spans.py
# wraps gan.mmd2_weighted and gan.grad_mmd2_atoms by name.
mmd2_weighted, grad_mmd2_atoms = discrepancy.mmd2_weighted, discrepancy.grad_mmd2_atoms


@dataclass
class GeneratorNet:
    """Fully connected generator: rectified-linear hidden layers, logistic output.

    ``layer_dims`` runs [noise_dim, hidden..., data_dim]; outputs therefore
    live in (0, 1) per coordinate.  Generators conventionally use a noise
    dimension below the data dimension, but the structure does not require it.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        _check_layer_dims(self.layer_dims)
        shapes = list(zip(self.layer_dims[:-1], self.layer_dims[1:]))
        if ([np.shape(w) for w in self.weights] != shapes
                or [np.shape(b) for b in self.biases] != [(d,) for _, d in shapes]):
            raise InvalidParameterError("weights and biases do not match layer_dims "
                                        f"{self.layer_dims}: want weight shapes {shapes}")

    @classmethod
    def initialize(cls, layer_dims: list[int], rng: np.random.Generator) -> "GeneratorNet":
        """He-scaled random weights, zero biases; the dims are checked before any draw."""
        dims = [int(d) for d in layer_dims]
        _check_layer_dims(dims)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
            biases.append(np.zeros(fan_out))
        return cls(dims, weights, biases)

    @property
    def noise_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def data_dim(self) -> int:
        return self.layer_dims[-1]

    def to_dict(self) -> dict:
        return {
            "layer_dims": list(self.layer_dims),
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GeneratorNet":
        dims = [int(d) for d in payload["layer_dims"]]
        flat = [np.array(w, dtype=float) for w in payload["weights"]]
        shapes = list(zip(dims[:-1], dims[1:]))
        if [w.size for w in flat] != [fan_in * fan_out for fan_in, fan_out in shapes]:
            raise InvalidParameterError(f"payload weights do not match layer_dims {dims}: "
                                        f"want weight shapes {shapes}")
        weights = [w.reshape(shape) for w, shape in zip(flat, shapes)]
        biases = [np.array(b, dtype=float) for b in payload["biases"]]
        return cls(dims, weights, biases)


def _check_layer_dims(dims: list[int]) -> None:
    if len(dims) < 2 or min(dims) < 1:
        raise InvalidParameterError(f"need input and output layers of positive dimensions, got {dims}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def generator_forward(net: GeneratorNet, U: np.ndarray) -> np.ndarray:
    """Map a (b, noise_dim) batch through the network into (0, 1)^data_dim."""
    Y, _ = _forward_cached(net, U)
    return Y


def _forward_cached(net: GeneratorNet, U: np.ndarray):
    U = as_rows(U, "noise batch", net.noise_dim)
    activations = [U]
    a = U
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        a = _sigmoid(z) if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return a, activations


def _backprop_params(net: GeneratorNet, activations: list[np.ndarray],
                     dY: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Parameter gradients given dLoss/dOutput, reusing forward activations."""
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    out = activations[-1]
    delta = dY * out * (1.0 - out)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (activations[i] > 0.0)
    return grads_w, grads_b


# Fixed settings of every training run.
MAX_TERMS = 4096  # cap on the per-iteration truncation level
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
SQRT_FLOOR = 1e-12  # MMD^2 floor under the square root
MMDS_BATCH = 128  # checkpoint score: subset size
MMDS_DRAWS = 16  # checkpoint score: subset pairs
# divergence guard, see :func:`train`
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 100


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``concentration`` is the prior mass on the base measure; the default 0
    makes each iteration's measure a pure weighted bootstrap of the
    minibatch.  The truncation level is redrawn every iteration and also
    sets the generated batch size.
    """

    minibatch: int = 256
    iterations: int = 2000
    concentration: float = 0.0
    truncation_epsilon: float = 1e-3
    kernel: KernelSpec = field(default_factory=gaussian_mixture)
    step_size: float = 1e-3
    final_step_fraction: float = 1.0
    base_sampler: object | None = None
    checkpoint_every: int = 200

    def __post_init__(self):
        if self.minibatch < 1 or self.iterations < 1:
            raise InvalidParameterError("minibatch and iterations must be positive")
        if not 0.0 < self.final_step_fraction <= 1.0:
            raise InvalidParameterError("final_step_fraction must lie in (0, 1]")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise InvalidParameterError(f"step_size must be finite and positive, got {self.step_size}")
        # checked here: the truncation rule sees concentration + minibatch, not the given value
        if not 0.0 <= self.concentration < np.inf:
            raise InvalidParameterError("concentration must be finite and non-negative, "
                                        f"got {self.concentration}")
        if not 0.0 < self.truncation_epsilon < 1.0:
            raise InvalidParameterError("truncation_epsilon must lie in (0, 1), "
                                        f"got {self.truncation_epsilon}")
        if self.checkpoint_every < 0:
            raise InvalidParameterError("checkpoint_every must be >= 0 (0 disables checkpoints)")


@dataclass
class TrainHistory:
    """Per-iteration loss and gradient norm, plus periodic matching-score checkpoints."""

    loss: np.ndarray
    grad_norm: np.ndarray
    mmds_iters: list[int]
    mmds_values: list[float]
    diverged: bool = False
    clamped_steps: int = 0


def _loss_and_param_grads(net: GeneratorNet, measure: DiscreteMeasure, U: np.ndarray,
                          spec: KernelSpec, sqrt_floor: float, X_mb: np.ndarray | None = None):
    """Square-root weighted-MMD loss and its parameter gradients, for fixed draws.

    A median bandwidth is resolved against the minibatch ``X_mb`` and the
    generator output.  An output holding NaN or inf has no median; it gets
    the NaN loss and gradients that any fixed bandwidth gives it.
    """
    Y, activations = _forward_cached(net, U)
    if spec.needs_median:
        if not np.isfinite(Y).all():
            return np.nan, [w * np.nan for w in net.weights], [b * np.nan for b in net.biases], False
        spec = resolve_median(spec, X_mb, Y)
    mmd2, grad = mmd2_and_grad(measure, Y, spec)
    clamped = mmd2 < sqrt_floor
    loss = float(np.sqrt(max(mmd2, sqrt_floor)))
    scale = 1.0 / (2.0 * loss)
    dY = scale * grad
    grads_w, grads_b = _backprop_params(net, activations, dY)
    return loss, grads_w, grads_b, clamped


def loss_and_grad(net: GeneratorNet, X_mb: np.ndarray, cfg: TrainConfig,
                  rng: np.random.Generator):
    """One stochastic evaluation of the training objective and its gradients.

    Draws the bootstrap measure from the minibatch, a uniform(-1, 1) noise
    batch sized by the truncation level, and differentiates
    sqrt(max(MMD^2, floor)) through the network.

    Returns:
        (loss, grads_w, grads_b, clamped)
    """
    X_mb = as_rows(X_mb, "minibatch", net.data_dim)
    n_terms = stopping_rule_N(cfg.concentration + X_mb.shape[0], cfg.truncation_epsilon,
                              MAX_TERMS, rng).n_terms
    measure = sample_dp_posterior(cfg.concentration, X_mb, cfg.base_sampler, n_terms, rng)
    U = rng.uniform(-1.0, 1.0, size=(n_terms, net.noise_dim))
    return _loss_and_param_grads(net, measure, U, cfg.kernel, SQRT_FLOOR, X_mb)


def train(net: GeneratorNet, dataset: np.ndarray, cfg: TrainConfig,
          rng: np.random.Generator) -> tuple[GeneratorNet, TrainHistory]:
    """Adam-driven minimization of the square-root weighted-MMD objective.

    Each iteration: sample a minibatch, draw the bootstrap measure and a
    noise batch, backpropagate, update.  Aborts with ``diverged=True`` at
    the first non-finite loss, or after ``DIVERGENCE_PATIENCE`` consecutive
    iterations above ``DIVERGENCE_FACTOR`` times the initial loss.
    """
    dataset = as_sample(dataset, "training dataset")
    n = dataset.shape[0]
    if cfg.minibatch > n:
        raise InvalidParameterError(f"minibatch {cfg.minibatch} exceeds dataset size {n}")
    if dataset.shape[1] != net.data_dim:
        raise InvalidInputError(f"dataset dimension {dataset.shape[1]} != net output {net.data_dim}")

    # Adam moments of every parameter, weights then biases, as flat vectors.
    # Each step works in place on preallocated vectors: temporaries the size
    # of the whole net cost more to allocate than the arithmetic on them.
    params = net.weights + net.biases
    ends = np.cumsum([p.size for p in params])
    slices = [slice(end - p.size, end) for p, end in zip(params, ends)]
    adam_m, adam_v, grad, grad_sq, work = (np.zeros(ends[-1]) for _ in range(5))

    losses = np.zeros(cfg.iterations)
    grad_norms = np.zeros(cfg.iterations)
    history = TrainHistory(loss=losses, grad_norm=grad_norms,
                           mmds_iters=[], mmds_values=[])
    initial_loss = None
    over_budget = 0

    for it in range(cfg.iterations):
        idx = rng.choice(n, size=cfg.minibatch, replace=False)
        loss, grads_w, grads_b, clamped = loss_and_grad(net, dataset[idx], cfg, rng)
        history.clamped_steps += int(clamped)
        np.concatenate([x.ravel() for x in grads_w + grads_b], out=grad)
        t = it + 1
        # linear step decay from step_size down to final_step_fraction * step_size
        frac = 1.0 - (1.0 - cfg.final_step_fraction) * it / max(cfg.iterations - 1, 1)
        step = cfg.step_size * frac
        np.multiply(grad, grad, out=grad_sq)
        sq_norm = 0.0
        for sl in slices:  # per parameter: one sum over the flat vector rounds differently
            sq_norm += float(np.sum(grad_sq[sl]))
        np.subtract(grad, adam_m, out=work)
        adam_m += np.multiply(work, 1.0 - ADAM_BETA1, out=work)
        np.subtract(grad_sq, adam_v, out=work)
        adam_v += np.multiply(work, 1.0 - ADAM_BETA2, out=work)
        v_hat = np.divide(adam_v, 1.0 - ADAM_BETA2**t, out=grad_sq)
        denom = np.add(np.sqrt(v_hat, out=v_hat), ADAM_EPS, out=v_hat)
        m_hat = np.divide(adam_m, 1.0 - ADAM_BETA1**t, out=work)
        update = np.divide(np.multiply(step, m_hat, out=m_hat), denom, out=m_hat)
        for p, sl in zip(params, slices):
            p -= update[sl].reshape(p.shape)
        losses[it] = loss
        grad_norms[it] = np.sqrt(sq_norm)

        if cfg.checkpoint_every and it % cfg.checkpoint_every == 0:
            size = min(MMDS_BATCH * 2, n)
            real = dataset[rng.choice(n, size=size, replace=False)]
            fake = generator_forward(net, rng.uniform(-1.0, 1.0, size=(size, net.noise_dim)))
            score = mmds_score(real, fake, min(MMDS_BATCH, size), MMDS_DRAWS,
                               cfg.kernel, rng)
            history.mmds_iters.append(it)
            history.mmds_values.append(score)

        if initial_loss is None:
            initial_loss = loss
        # NaN never compares above the budget, so a non-finite loss stops the run itself
        diverged = not np.isfinite(loss)
        if loss > DIVERGENCE_FACTOR * initial_loss:
            over_budget += 1
            diverged |= over_budget >= DIVERGENCE_PATIENCE
        else:
            over_budget = 0
        if diverged:
            history.diverged = True
            history.loss = losses[: it + 1]
            history.grad_norm = grad_norms[: it + 1]
            break
    return net, history


def mmds_score(real: np.ndarray, generated: np.ndarray, n_mb: int, r_mb: int,
               spec: KernelSpec, rng: np.random.Generator) -> float:
    """Matching score: the worst (largest) empirical squared MMD over random
    same-size subset pairs of the real and generated data (NaN if any pair's is NaN,
    and under a median bandwidth if the generated data hold NaN or inf)."""
    real = as_rows(real, "real")
    generated = as_rows(generated, "generated", real.shape[1])
    if not 1 <= n_mb <= min(real.shape[0], generated.shape[0]):
        raise InvalidParameterError(f"subset size must be from 1 to the smaller dataset size, got {n_mb}")
    if r_mb < 1:
        raise InvalidParameterError("need at least one subset draw")
    if spec.needs_median and not np.isfinite(generated).all():
        return float("nan")
    spec = resolve_median(spec, real, generated)
    values = []
    for _ in range(r_mb):
        i = rng.choice(real.shape[0], size=n_mb, replace=False)
        j = rng.choice(generated.shape[0], size=n_mb, replace=False)
        values.append(mmd2_empirical(real[i], generated[j], spec))
    return float(np.max(values))


def eight_gaussian_ring(n: int, rng: np.random.Generator) -> np.ndarray:
    """Toy dataset: eight Gaussian blobs (sd 0.02) on a circle of radius 0.32
    centered at (0.40, 0.60), inside the unit square.

    The ring sits off the square's center so that a flat uniform-noise cloud
    (whose mean is always the center) stays distinguishable from the data.
    """
    angles = 2.0 * np.pi * rng.integers(0, 8, size=n) / 8
    centers = np.column_stack([0.40 + 0.32 * np.cos(angles),
                               0.60 + 0.32 * np.sin(angles)])
    points = centers + 0.02 * rng.standard_normal((n, 2))
    return np.clip(points, 1e-3, 1.0 - 1e-3)
