"""Separator hypersurfaces and probability heads on r=1 layers.

A separator is the zero set of h(Y) = alpha e^{-Y1} + <w, Y2>
+ beta e^{Y1} (1 + |Y2|^2 / 4); when |w|^2 - alpha beta > 0 this is a
totally geodesic hypersurface, and the signed geodesic distance to it is
exactly arcsinh(h / (2 sqrt(|w|^2 - alpha beta))).  The signed distances
are the class scores of one softmax head: K separators give K scores d,
and the binary head's one separator gives (0, d), whose softmax is
sigmoid(d); a regression network's output is the d of its one
separator.  One batched kernel evaluates all K separators at once from
their parameters stacked as a head {alpha (K,), beta (K,), w (K, s)},
and the one likelihood gradient reuses its intermediates.  The norms
2 sqrt(|w|^2 - alpha beta) and the admissibility check read the head
apart from h (:func:`_norm`), so training can take h from the head turned
by the last layer's rotation while the norms stay the head's own.  The
kernel
reads the points in the chart (T, Y2), T = e^{-Y1}, the stage chain of
``net`` hands it, where h = alpha T + <w, Y2> + beta (1 + |Y2|^2 / 4) / T
needs no exp; the public functions take coordinates and convert them at
their ends.  It computes on the columns (d, B) of the points, one row per
separator, and returns (..., K) as views of those rows.  All functions
propagate complex inputs analytically, so complex-step differentiation,
the gradient tests' oracle, is exact.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import spaces

__all__ = [
    "DegenerateSeparatorError",
    "Separator",
    "SeparatorBank",
    "signed_distance",
    "softmax_probs",
    "multiclass_nll",
]


class DegenerateSeparatorError(ValueError):
    """The separator's normalization or admissibility bound fails."""


@dataclasses.dataclass(frozen=True)
class Separator:
    """Separator parameters (alpha, beta, w) on a layer with subPaint
    dimension len(w); admissible when |w|^2 - alpha beta > 0."""

    alpha: float
    beta: float
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w))

    @property
    def admissible(self) -> bool:
        return float(np.real(_margin(self.alpha, self.beta, self.w))) > 0.0


@dataclasses.dataclass(frozen=True)
class SeparatorBank:
    """K separators on a shared layer.  Their parameters are stacked once,
    as ``head`` = {alpha (K,), beta (K,), w (K, s)}, the form the head
    kernel reads and the one a network's separator head is stored in.
    A parameter that is not finite raises DegenerateSeparatorError here,
    where alpha beta = inf * 0 would leave the head a NaN margin."""

    separators: tuple
    head: dict = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seps = tuple(self.separators)
        if len(seps) < 1:
            raise ValueError("bank must contain at least one separator")
        object.__setattr__(self, "separators", seps)
        object.__setattr__(self, "head", {
            "alpha": np.array([s.alpha for s in seps]),
            "beta": np.array([s.beta for s in seps]),
            "w": np.stack([s.w for s in seps])})
        if not all(np.isfinite(v).all() for v in self.head.values()):
            raise DegenerateSeparatorError(
                "separator parameters must be finite")

    def __len__(self):
        return len(self.separators)


def _norm2(w):
    """|w|^2 (...,) of normals w (..., s), the one form every reader of
    the margin uses, so all of them agree to the last bit."""
    return (w[..., None, :] @ w[..., :, None])[..., 0, 0]


def _margin(alpha, beta, w):
    """Margins |w|^2 - alpha beta of separators stacked as alpha, beta
    (...,) and w (..., s)."""
    return _norm2(w) - alpha * beta


def _h_stack(alpha, beta, w, t):
    """h (..., K) of K separators stacked as alpha, beta (K,) and w (K, s)
    at a point or batch t of the chart (T, Y2), with the parts (Y2, T,
    1 / T, up = (1 + |Y2|^2 / 4) / T) it was built from, all as columns."""
    cols = spaces._columns(t)
    T, y2 = cols[0], cols[1:]
    if len(y2) != w.shape[-1]:
        raise ValueError("separator normal has the wrong dimension")
    inv = 1.0 / T
    up = (1.0 + 0.25 * spaces._sum_squares(y2)) * inv
    h = (np.multiply.outer(alpha, T) + w @ y2
         + np.multiply.outer(beta, up))
    return h.T, (y2, T, inv, up)


def _norm(head):
    """The norms 2 sqrt(|w|^2 - alpha beta) (K,) of a head {alpha (K,),
    beta (K,), w (K, s)}.  Raises :class:`DegenerateSeparatorError`
    unless every separator is admissible."""
    norm2 = _margin(head["alpha"], head["beta"], head["w"])
    if not (np.real(norm2) > 0.0).all():  # NaN fails the test too
        raise DegenerateSeparatorError(
            "separator admissibility |w|^2 - alpha*beta must be positive")
    return 2.0 * np.sqrt(norm2)


def _head(head, t):
    """The separator head kernel: u = h / norm (..., K) for all K
    separators of a head {alpha (K,), beta (K,), w (K, s)} at once, at
    rows t of the chart (T, Y2), so that arcsinh(u) are the signed
    distances, with the norms of :func:`_norm`.  Also returns what
    :func:`_scaled_h_vjp` reuses.  Raises
    :class:`DegenerateSeparatorError` unless every separator is
    admissible."""
    return _scaled_h(head, _norm(head), t)


def _scaled_h(coefs, norm, t):
    """u = h / norm (..., K) for h of the separators stacked in ``coefs``
    {alpha (K,), beta (K,), w (K, s)} at rows t of the chart (T, Y2), over
    the norms (K,) of :func:`_norm`: a head's own, or, for the head turned
    by a layer's rotation (``isometry._turn_head``), those of the head
    before the turn.  Also returns what :func:`_scaled_h_vjp` reuses:
    (coefs, Y2, T, 1 / T, up, norm)."""
    h, parts = _h_stack(coefs["alpha"], coefs["beta"], coefs["w"], t)
    return h / norm, (coefs,) + parts + (norm,)


def _scaled_h_vjp(u, saved, g_d):
    """Gradients of sum(g_d * d) over the (B, K) signed distances
    d = arcsinh(u) that :func:`_scaled_h` computed at real rows t (B, d),
    with respect to t, to its coefficients (a dict shaped like them) and
    to the margins |w|^2 - alpha beta (K,) its norms came from."""
    coefs, y2, T, inv, up, norm = saved
    u, g_d = u.T, g_d.T
    g_h = g_d / (norm[:, None] * np.sqrt(1.0 + u * u))
    g_n2 = -2.0 * np.sum(g_h * u, axis=1) / norm
    g_beta_h = coefs["beta"] @ g_h
    g_t = np.concatenate(
        [(coefs["alpha"] @ g_h - g_beta_h * up * inv)[None],
         coefs["w"].T @ g_h + 0.5 * g_beta_h * inv * y2])
    return g_t.T, {"alpha": g_h @ T, "beta": g_h @ up,
                   "w": g_h @ y2.T}, g_n2


def _margin_vjp(head, g_n2, grads):
    """Adds to ``grads``, a dict shaped like the head, in place, the
    gradient of its margins |w|^2 - alpha beta for their cotangent g_n2
    (K,), and returns it."""
    grads["alpha"] -= head["beta"] * g_n2
    grads["beta"] -= head["alpha"] * g_n2
    grads["w"] += 2.0 * g_n2[:, None] * head["w"]
    return grads


def signed_distance(sep: Separator, p):
    """Signed geodesic distance to the separator:
    arcsinh(h / (2 sqrt(|w|^2 - alpha beta))).  Odd in h, zero exactly on
    the surface, and equal (up to sign) to the infimum of the geodesic
    distance over the surface."""
    return np.arcsinh(_head(SeparatorBank((sep,)).head,
                            spaces._to_t_chart(p))[0][..., 0])


def _logsumexp(d):
    """log sum_k e^{d_k} over the last axis (the rows of d.T), shifted by
    the (constant) maximum of the real parts so that it neither overflows
    nor underflows and stays complex-analytic."""
    d = d.T
    shift = np.max(np.real(d), axis=0)
    return shift + np.log(np.sum(np.exp(d - shift), axis=0))


def _softmax(d):
    """Softmax over the last axis: e / sum(e), e = e^{d - max real part}."""
    e = d.T
    e = np.exp(e - np.max(np.real(e), axis=0))
    return (e / np.sum(e, axis=0)).T


def _checked_labels(labels, classes):
    """Labels as an int array; refuses with ValueError an empty batch and
    any label that is not an integer in 0..classes-1."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty data")
    if not (labels.min() >= 0 and labels.max() < classes
            and np.all(labels % 1 == 0)):
        raise ValueError(f"labels must be integers in 0..{classes - 1}")
    return labels.astype(int)


def _batch_labels(labels, shape):
    """Labels as an array, refused with ValueError unless of ``shape``,
    one per point of the batch."""
    labels = np.asarray(labels)
    if labels.shape != shape:
        raise ValueError(f"expected labels of shape {shape}, "
                         f"got {labels.shape}")
    return labels


def _n_classes(separators: int) -> int:
    """Classes of a head of K separators: K, or 2 for one separator."""
    return max(separators, 2)


def _class_scores(head, t):
    """Class scores (..., C) at rows t of the chart (T, Y2) from one run
    of :func:`_head` on the K separators of a head (:func:`_scores`).
    Also returns u and what :func:`_scaled_h_vjp` reuses."""
    u, saved = _head(head, t)
    return _scores(u), u, saved


def _scores(u):
    """Class scores (..., C) of the K separators' u = h / norm (..., K),
    C = :func:`_n_classes` (K): their signed distances d = arcsinh(u), or
    (0, d) when one separator splits two classes (the binary head:
    sigmoid(d) is the softmax over (0, d))."""
    d = np.arcsinh(u)
    if _n_classes(u.shape[-1]) > u.shape[-1]:
        d = np.stack([np.zeros_like(d[..., 0]), d[..., 0]]).T
    return d


def _nll(scores, labels):
    """Negative log likelihood of labels in 0..C-1 under the softmax over
    the class scores (B, C): the sum of logsumexp(scores) - scores_y."""
    labels = _checked_labels(_batch_labels(labels, scores.shape[:-1]),
                             scores.shape[-1])
    picked = np.take_along_axis(scores.T, labels[None], axis=0)[0]
    return np.sum(_logsumexp(scores) - picked)


def _nll_grad(scores, labels, separators):
    """Gradient of :func:`_nll` with respect to the signed distances
    (B, K) of the ``separators`` K that gave the class scores (B, C), for
    int labels in 0..C-1, checked where the data entered:
    dNLL/dscore_c = softmax_c - [c = y], with the binary head's constant
    zero score dropped."""
    g = _softmax(scores)
    g.T[labels, np.arange(len(labels))] -= 1.0
    return g[:, g.shape[-1] - separators:]


def softmax_probs(bank: SeparatorBank, p):
    """Class probabilities (..., C): the softmax over :func:`_class_scores`;
    for a bank of one, column 1 is sigmoid(d), above 1/2 exactly where
    h > 0."""
    return _softmax(_class_scores(bank.head, spaces._to_t_chart(p))[0])


def multiclass_nll(points, labels, bank: SeparatorBank):
    """Negative log likelihood of labels in 0..C-1 under the softmax over
    :func:`_class_scores`: the sum of logsumexp(scores) - scores_y, for a
    bank of one that of softplus(d) - y d over 0/1 labels."""
    return _nll(_class_scores(bank.head, spaces._to_t_chart(points))[0],
                labels)
