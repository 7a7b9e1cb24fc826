"""Closed-form kernels and drift fields of the chemotaxis model.

All functions are pure and vectorized: `x` is an array of shape (..., 2)
and `t` a scalar or an array broadcastable against the leading dimensions.
Exponential arguments are clamped at 700 before exponentiation, so deep
Gaussian tails flush to zero instead of raising overflow warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .constants import c0_const

EXP_CLAMP = 700.0


@dataclass(frozen=True)
class KernelParams:
    """Physical and regularization parameters of one model instance.

    theta: ratio between the diffusion time scales (> 0)
    lam:   death rate of the chemo-attractant (>= 0)
    chi:   chemotactic sensitivity (> 0)
    epsilon: kernel smoothing parameter (>= 0; 0 means unsmoothed)
    p:     integrability exponent of the initial concentration (> 2)
    """

    theta: float
    lam: float = 0.0
    chi: float = 1.0
    epsilon: float = 0.0
    p: float = 4.0

    def __post_init__(self) -> None:
        # `not 0 < x < inf` also rejects NaN
        if not 0 < self.theta < math.inf:
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0 <= self.chi < math.inf:
            raise ValueError(f"chi must be finite and >= 0, got {self.chi}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 2 < self.p < math.inf:
            raise ValueError(f"p must be finite and > 2, got {self.p}")


def _sqnorm(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError(f"expected trailing dimension 2, got shape {x.shape}")
    return np.einsum("...i,...i->...", x, x)


def _clamped_exp(arg: np.ndarray) -> np.ndarray:
    return np.exp(-np.minimum(arg, EXP_CLAMP))


def heat_kernel(t, x, params: KernelParams):
    """Gaussian heat kernel with diffusivity 2/theta: (theta/4 pi t) e^(-theta|x|^2/4t)."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):   # also rejects NaN
        raise ValueError("heat_kernel requires t > 0")
    arg = params.theta * _sqnorm(x) / (4.0 * t)
    return params.theta / (4.0 * math.pi * t) * _clamped_exp(arg)


def chemo_kernel(t, x, params: KernelParams):
    """Chemo-attractant kernel (1/theta) e^(-lam t/theta) g_t(x)."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError("chemo_kernel requires t > 0")
    decay = np.exp(-params.lam * t / params.theta)
    return decay / params.theta * heat_kernel(t, x, params)


def chemo_kernel_grad(t, x, params: KernelParams):
    """Gradient of the chemo-attractant kernel: smoothed_grad at epsilon = 0.

    -(theta / 8 pi t^2) e^(-lam t/theta) e^(-theta|x|^2/4t) x; odd in x and
    undefined at t <= 0 (the smoothed variant owns the t = 0 extension).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError("chemo_kernel_grad requires t > 0")
    return smoothed_grad(t, x, replace(params, epsilon=0.0))


def smoothed_grad(t, x, params: KernelParams):
    """Smoothed interaction kernel t^2/(t+eps)^2 * grad of the chemo kernel.

    Equals -(theta / 8 pi (t+eps)^2) e^(-lam t/theta) e^(-theta|x|^2/4t) x.
    At t = 0 (with eps > 0) the continuous extension is the zero vector:
    the Gaussian factor kills every x != 0 and the x factor kills x = 0.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):   # also rejects NaN
        raise ValueError("smoothed_grad requires t >= 0")
    if params.epsilon == 0 and np.any(t == 0):
        raise ValueError("smoothed_grad at t = 0 requires epsilon > 0")
    x = np.asarray(x, dtype=float)
    sq = _sqnorm(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = params.theta * sq / (4.0 * t)
    gauss = np.where(t > 0, _clamped_exp(np.where(t > 0, arg, 0.0)), 0.0)
    coef = -smoothed_weight(t, params) * gauss
    return coef[..., None] * x


def smoothed_weight(t, params: KernelParams):
    """Time factor theta/(8 pi (t+eps)^2) e^(-lam t/theta) of smoothed_grad.

    |smoothed_grad(t, x)| is this weight times e^(-theta|x|^2/4t) |x|; the
    simulator's history convolution uses it as its lag weight.
    """
    return (params.theta / (8.0 * math.pi * (t + params.epsilon) ** 2)
            * np.exp(-params.lam * t / params.theta))


def grad_envelope(t, x, alpha: float, params: KernelParams):
    """Pointwise envelope of |smoothed_grad|.

    sqrt(theta) C0(4 alpha/theta) / (4 pi (t + eps + alpha |x|^2)^(3/2)),
    valid for every t >= 0 and every alpha > 0; with eps = 0 it also
    dominates the unsmoothed |chemo_kernel_grad|.
    """
    if not 0 < alpha < math.inf:   # also rejects NaN
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("grad_envelope requires t >= 0")
    c0 = c0_const(4.0 * alpha / params.theta)
    base = t + params.epsilon + alpha * _sqnorm(x)
    with np.errstate(divide="ignore"):
        return math.sqrt(params.theta) * c0 / (4.0 * math.pi * base ** 1.5)


@dataclass(frozen=True)
class SourceSpec:
    """Initial chemo-attractant as a finite Gaussian mixture.

    Each component is (weight, center, variance) with weight > 0 and
    variance > 0 (isotropic, per-coordinate). An empty tuple means the
    source is identically zero. Mixtures keep the background field and its
    gradient in closed form.
    """

    components: tuple[tuple[float, tuple[float, float], float], ...] = ()

    def __post_init__(self) -> None:
        for w, center, var in self.components:
            if not 0 < w < math.inf:
                raise ValueError(f"component weight must be finite and > 0, got {w}")
            if not 0 < var < math.inf:
                raise ValueError(f"component variance must be finite and > 0, got {var}")
            if len(center) != 2 or not all(map(math.isfinite, center)):
                raise ValueError(f"component center must be a finite 2-vector, got {center}")

    @property
    def is_zero(self) -> bool:
        return not self.components

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weights (K,), centers (K, 2) and variances (K,) as arrays."""
        w, center, var = zip(*self.components) if self.components else ((), (), ())
        return (np.array(w, dtype=float),
                np.array(center, dtype=float).reshape(-1, 2),
                np.array(var, dtype=float))


def _mixture_terms(t, x, source: SourceSpec, params: KernelParams):
    """Every component's term of the background concentration and of its
    gradient at (t, x): the mixture formula, written once, in one pass
    over a leading component axis. Returns (b_k, grad b_k) of shapes
    (K, ...) and (K, ..., 2), in the order of `source.components`, for
    arrays t and x that the caller has checked; the caller adds them to
    zeros of the shape of t and x broadcast, one component at a time. A
    single time is taken as a float, so that the factors of t alone
    (decay, variance, normalisation) are float operations instead of array
    ones: each term has the IEEE operations, and so the bits, of its
    component formed alone."""
    if t.size == 1:
        t = t.item()
    # components first, then the leading axes of t and x broadcast
    axes = (-1,) + (1,) * max(np.ndim(t), x.ndim - 1)
    w, center, var = source._arrays
    decay = np.exp(-params.lam * t / params.theta)
    v_t = var.reshape(axes) + 2.0 * t / params.theta
    d = x - center.reshape(axes + (2,))
    b_k = decay * (w.reshape(axes) / (2.0 * math.pi * v_t)
                   * _clamped_exp(_sqnorm(d) / (2.0 * v_t)))
    return b_k, (-(b_k / v_t))[..., None] * d


def background_grad(t, x, source: SourceSpec, params: KernelParams):
    """The gradient grad b of the background concentration at (t, x).

    For a Gaussian-mixture source the heat convolution is again a mixture
    with per-component variance var + 2t/theta, times the death-rate decay;
    the gradient is exact. The components' terms (`_mixture_terms`) are
    added to zeros one at a time, in order; the drift of every Euler step
    calls it. Shape (..., 2); an empty source yields zeros.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError("background_grad requires t > 0")
    x = np.asarray(x, dtype=float)
    grad = np.zeros(np.broadcast_shapes(t.shape, x.shape[:-1]) + (2,))
    for grad_k in _mixture_terms(t, x, source, params)[1]:
        grad += grad_k
    return grad
