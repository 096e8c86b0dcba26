"""Small MLP generator trained against the square-root weighted-MMD objective.

The discriminator side is not a network: each iteration draws a weighted
bootstrap measure from the current minibatch (flat-prior posterior) and the
generator descends the square root of the weighted squared MMD between that
measure and its own output batch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discrepancy import grad_mmd2_atoms, mmd2_empirical, mmd2_weighted
from .dp import DiscreteMeasure, sample_dp_posterior, stopping_rule_N
from .errors import InvalidInputError, InvalidParameterError
from .kernels import KernelSpec, gaussian_mixture, resolve_median


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
        if len(self.layer_dims) < 2:
            raise InvalidParameterError("need at least input and output layers")
        if any(d < 1 for d in self.layer_dims):
            raise InvalidParameterError("layer dimensions must be positive")

    @classmethod
    def initialize(cls, layer_dims: list[int], rng: np.random.Generator) -> "GeneratorNet":
        """He-scaled random weights, zero biases."""
        dims = [int(d) for d in layer_dims]
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
        weights = [np.array(w, dtype=float).reshape(fan_in, fan_out)
                   for w, fan_in, fan_out in zip(payload["weights"], dims[:-1], dims[1:])]
        biases = [np.array(b, dtype=float) for b in payload["biases"]]
        return cls(dims, weights, biases)


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
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[1] != net.noise_dim:
        raise InvalidInputError(f"noise batch has {U.shape[1]} columns, net expects {net.noise_dim}")
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


def _draw_iteration_randomness(X_mb: np.ndarray, cfg: TrainConfig,
                               rng: np.random.Generator) -> tuple[DiscreteMeasure, int]:
    """Truncation level and bootstrap measure for one step."""
    n_terms = stopping_rule_N(cfg.concentration + X_mb.shape[0], cfg.truncation_epsilon,
                              MAX_TERMS, rng).n_terms
    measure = sample_dp_posterior(cfg.concentration, X_mb, cfg.base_sampler, n_terms, rng)
    return measure, n_terms


def _loss_and_param_grads(net: GeneratorNet, measure: DiscreteMeasure, U: np.ndarray,
                          spec: KernelSpec, sqrt_floor: float):
    """Square-root weighted-MMD loss and its parameter gradients, for fixed draws."""
    Y, activations = _forward_cached(net, U)
    mmd2 = mmd2_weighted(measure, Y, spec)
    clamped = mmd2 < sqrt_floor
    loss = float(np.sqrt(max(mmd2, sqrt_floor)))
    scale = 1.0 / (2.0 * loss)
    dY = scale * grad_mmd2_atoms(measure, Y, spec)
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
    X_mb = np.atleast_2d(np.asarray(X_mb, dtype=float))
    measure, n_terms = _draw_iteration_randomness(X_mb, cfg, rng)
    U = rng.uniform(-1.0, 1.0, size=(n_terms, net.noise_dim))
    spec = cfg.kernel
    if spec.needs_median:
        spec = resolve_median(spec, X_mb, generator_forward(net, U))
    return _loss_and_param_grads(net, measure, U, spec, SQRT_FLOOR)


def train(net: GeneratorNet, dataset: np.ndarray, cfg: TrainConfig,
          rng: np.random.Generator) -> tuple[GeneratorNet, TrainHistory]:
    """Adam-driven minimization of the square-root weighted-MMD objective.

    Each iteration: sample a minibatch, draw the bootstrap measure and a
    noise batch, backpropagate, update.  Aborts with ``diverged=True`` at
    the first non-finite loss, or after ``DIVERGENCE_PATIENCE`` consecutive
    iterations above ``DIVERGENCE_FACTOR`` times the initial loss.
    """
    dataset = np.atleast_2d(np.asarray(dataset, dtype=float))
    n = dataset.shape[0]
    if cfg.minibatch > n:
        raise InvalidParameterError(f"minibatch {cfg.minibatch} exceeds dataset size {n}")
    if dataset.shape[1] != net.data_dim:
        raise InvalidInputError(f"dataset dimension {dataset.shape[1]} != net output {net.data_dim}")
    if not np.isfinite(dataset).all():
        raise InvalidInputError("training dataset contains non-finite values (NaN or inf)")

    adam_m = [np.zeros_like(w) for w in net.weights] + [np.zeros_like(b) for b in net.biases]
    adam_v = [np.zeros_like(p) for p in adam_m]

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
        flat = grads_w + grads_b
        params = net.weights + net.biases
        t = it + 1
        # linear step decay from step_size down to final_step_fraction * step_size
        frac = 1.0 - (1.0 - cfg.final_step_fraction) * it / max(cfg.iterations - 1, 1)
        step = cfg.step_size * frac
        sq_norm = 0.0
        for p, g, m_state, v_state in zip(params, flat, adam_m, adam_v):
            sq_norm += float(np.sum(g * g))
            m_state += (1.0 - ADAM_BETA1) * (g - m_state)
            v_state += (1.0 - ADAM_BETA2) * (g * g - v_state)
            m_hat = m_state / (1.0 - ADAM_BETA1**t)
            v_hat = v_state / (1.0 - ADAM_BETA2**t)
            p -= step * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
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
    same-size subset pairs of the real and generated data (NaN if any pair's is NaN)."""
    real = np.atleast_2d(np.asarray(real, dtype=float))
    generated = np.atleast_2d(np.asarray(generated, dtype=float))
    if n_mb > real.shape[0] or n_mb > generated.shape[0]:
        raise InvalidParameterError("subset size exceeds a dataset size")
    if r_mb < 1:
        raise InvalidParameterError("need at least one subset draw")
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
