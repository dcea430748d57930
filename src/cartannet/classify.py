"""Separator hypersurfaces and probability heads on r=1 layers.

A separator is the zero set of h(Y) = alpha e^{-Y1} + <w, Y2>
+ beta e^{Y1} (1 + |Y2|^2 / 4); when |w|^2 - alpha beta > 0 this is a
totally geodesic hypersurface, and the signed geodesic distance to it is
exactly arcsinh(h / (2 sqrt(|w|^2 - alpha beta))).  h is the eta-pairing
<n, v> of the spacelike normal n = (-alpha, sqrt2 w, beta) with the
hyperboloid vector v = (e^{Y1} (1 + |Y2|^2 / 4), Y2 / sqrt2, -e^{-Y1}), and
the margin |w|^2 - alpha beta is <n, n> / 2.  The signed distances are the
class scores of one softmax head: K separators give K scores d, and the
binary head's one separator gives (0, d), whose softmax is sigmoid(d); a
regression network's output is the d of its one separator.

The head kernel reads the points in the chart (T, Y2), T = e^{-Y1}, the
stage chain of ``net`` hands it, as their lift Phi = (T, Y2, up),
up = (1 + |Y2|^2 / 4) / T, and each separator as its covector
C = (alpha, w, beta) on it: h = C Phi needs no exp, and the K separators,
stacked as the rows of C (K, d+1), give h at B points as one matrix
product (K, d+1) @ (d+1, B).  Its pullback is g_C = g_h Phi^T and
g_Phi = C^T g_h.  A map that acts linearly on v acts linearly on Phi, so
a layer's fiber rotation turns the covectors instead of the points
(``isometry._turn_head``).  The norms 2 sqrt(|w|^2 - alpha beta) and the
admissibility check read the margins apart from h (:func:`_norms`), so
training can take h from the turned head while the norms stay the head's
own.  A :class:`SeparatorBank` builds its covectors and margins once; a
network's head {alpha (K,), beta (K,), w (K, s)} is stacked into C
(:func:`_coefs`) where it is read.  The public functions take coordinates
and build the lift from them with one copy, T = e^{-Y1} taken in place
(:func:`_bank_head`).  The kernels compute on columns: Phi is (d+1, B), h
and u are (K, B), one row per separator, and the class scores,
probabilities and their gradients (C, B), so every reduction over the
separators or classes runs down the rows; each kernel returns the
(B, K) or (B, C) transpose of its block, a view, and reads its inputs
back through the same transpose, with no copy.  Those reductions are
``np.add.reduce`` and ``np.maximum.reduce``, the calls ``np.sum`` and
``np.max`` make, in the same order: at a training batch the head's
arithmetic is smaller than numpy's per-call dispatch.  All functions
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
    as ``head`` = {alpha (K,), beta (K,), w (K, s)}, the form a network's
    separator head is stored in, and read once into what the head kernel
    reads: their covectors ``coefs`` = (alpha, w, beta) (K, s+2)
    (:func:`_coefs`) and their margins |w|^2 - alpha beta (K,), all
    read-only.  A parameter that is not finite raises
    DegenerateSeparatorError here, where alpha beta = inf * 0 would leave
    the head a NaN margin; an inadmissible separator raises where the head
    reads the margins (:func:`_norms`)."""

    separators: tuple
    head: dict = dataclasses.field(init=False, repr=False, compare=False)
    coefs: np.ndarray = dataclasses.field(init=False, repr=False,
                                          compare=False)
    margins: np.ndarray = dataclasses.field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        seps = tuple(self.separators)
        if len(seps) < 1:
            raise ValueError("bank must contain at least one separator")
        head = {"alpha": np.array([s.alpha for s in seps]),
                "beta": np.array([s.beta for s in seps]),
                "w": np.stack([s.w for s in seps])}
        if not all(np.isfinite(v).all() for v in head.values()):
            raise DegenerateSeparatorError(
                "separator parameters must be finite")
        coefs = _coefs(head)
        margins = _margin(head["alpha"], head["beta"], head["w"])
        spaces._read_only(coefs, margins, *head.values())
        for name, value in (("separators", seps), ("head", head),
                            ("coefs", coefs), ("margins", margins)):
            object.__setattr__(self, name, value)

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


def _coefs(head):
    """The covectors C = (alpha, w, beta) (K, s+2) of the separators of a
    head {alpha (K,), beta (K,), w (K, s)}, one per row."""
    w = head["w"]
    coefs = np.empty((len(w), w.shape[-1] + 2),
                     np.result_type(head["alpha"], head["beta"], w))
    coefs[:, 0], coefs[:, 1:-1], coefs[:, -1] = (head["alpha"], w,
                                                 head["beta"])
    return coefs


def _head_of(coefs):
    """The head {alpha (K,), beta (K,), w (K, s)} of covectors C (K, s+2),
    as views of C: the inverse of :func:`_coefs`."""
    return {"alpha": coefs[:, 0], "beta": coefs[:, -1], "w": coefs[:, 1:-1]}


def _stack(rows):
    """Columns (d+1, ...), of at least float type, that hold rows (..., d)
    in their first d rows, copied once with the transpose; the last row is
    left for :func:`_lift`."""
    rows = np.asarray(rows)
    phi = np.empty((rows.shape[-1] + 1,) + rows.shape[-2::-1],
                   np.result_type(rows, float))
    phi[:-1] = rows.T
    return phi


def _lift(phi):
    """Completes, in place, the lift Phi = (T, Y2, up) (d+1, ...) of
    columns whose first d rows hold (T, Y2) (:func:`_stack`):
    up = (1 + |Y2|^2 / 4) / T goes in the last row, so that h = C Phi."""
    phi[-1] = (1.0 + 0.25 * spaces._sum_squares(phi[1:-1])) / phi[0]
    return phi


def _norms(margins):
    """The norms 2 sqrt(margins) (K,) of K separators' margins
    |w|^2 - alpha beta.  Raises :class:`DegenerateSeparatorError` unless
    every separator is admissible."""
    if not (margins.real > 0.0).all():  # NaN fails the test too
        raise DegenerateSeparatorError(
            "separator admissibility |w|^2 - alpha*beta must be positive")
    return 2.0 * np.sqrt(margins)


def _norm(head):
    """The norms (:func:`_norms`) of a head {alpha (K,), beta (K,),
    w (K, s)}, from its margins."""
    return _norms(_margin(head["alpha"], head["beta"], head["w"]))


def _head(head, t):
    """The separator head kernel on a head {alpha (K,), beta (K,),
    w (K, s)}: u = h / norm (..., K) for all K separators at once, at rows
    t of the chart (T, Y2), so that arcsinh(u) are the signed distances,
    with the norms of :func:`_norm`.  Also returns what
    :func:`_scaled_h_vjp` reuses.  Raises
    :class:`DegenerateSeparatorError` unless every separator is
    admissible."""
    return _scaled_h(_coefs(head), _norm(head), t)


def _bank_head(bank: SeparatorBank, p):
    """:func:`_head` of a bank at coordinate rows p (..., d), from the
    covectors and margins it holds.  The lift is built from the
    coordinate rows with one copy, T = e^{-Y1} taken in its row in place
    (``spaces._to_t_columns``)."""
    phi = spaces._to_t_columns(_stack(
        p.values if isinstance(p, spaces.SolvCoords) else p))
    return _covector_h(bank.coefs, _norms(bank.margins), _lift(phi))


def _scaled_h(coefs, norm, t):
    """u = h / norm (..., K) for h = C Phi of the separators whose
    covectors are the rows of ``coefs`` C (K, d+1), at the lift Phi
    (:func:`_lift`) of rows t (..., d) of the chart (T, Y2), over the norms
    (K,) of :func:`_norms`: a head's own, or, for the head turned by a
    layer's rotation (``isometry._turn_head``), those of the head before
    the turn.  Also returns what :func:`_scaled_h_vjp` reuses:
    (C, Phi, norm)."""
    return _covector_h(coefs, norm, _lift(_stack(t)))


def _covector_h(coefs, norm, phi):
    """:func:`_scaled_h` at the lift Phi (d+1, ...) itself."""
    if len(phi) != coefs.shape[-1]:
        raise ValueError("separator normal has the wrong dimension")
    return (coefs @ phi).T / norm, (coefs, phi, norm)


def _scaled_h_vjp(u, saved, g_d):
    """Gradients of sum(g_d * d) over the (B, K) signed distances
    d = arcsinh(u) that :func:`_scaled_h` computed at real rows t (B, d),
    with respect to t, to its covectors C (K, d+1) and to the margins
    |w|^2 - alpha beta (K,) its norms came from: g_C = g_h Phi^T, and t
    gets g_Phi = C^T g_h through up = (1 + |Y2|^2 / 4) / T."""
    coefs, phi, norm = saved
    u, g_d = u.T, g_d.T
    g_h = g_d / (norm[:, None] * np.sqrt(1.0 + u * u))
    g_n2 = -2.0 * np.add.reduce(g_h * u, axis=1) / norm
    g_phi = coefs.T @ g_h
    g_up = g_phi[-1] / phi[0]
    g_t = g_phi[:-1]
    g_t[0] -= g_up * phi[-1]
    g_t[1:] += (0.5 * g_up) * phi[1:-1]
    return g_t.T, g_h @ phi.T, g_n2


def _margin_vjp(coefs, g_n2, g_coefs):
    """Adds to ``g_coefs``, a gradient of the covectors C (K, s+2), in
    place, the gradient of their margins |w|^2 - alpha beta for the
    cotangent g_n2 (K,), and returns it."""
    g_alpha, g_w, g_beta = g_coefs[:, 0], g_coefs[:, 1:-1], g_coefs[:, -1]
    g_alpha -= coefs[:, -1] * g_n2
    g_beta -= coefs[:, 0] * g_n2
    g_w += 2.0 * g_n2[:, None] * coefs[:, 1:-1]
    return g_coefs


def signed_distance(sep: Separator, p):
    """Signed geodesic distance to the separator:
    arcsinh(h / (2 sqrt(|w|^2 - alpha beta))).  Odd in h, zero exactly on
    the surface, and equal (up to sign) to the infimum of the geodesic
    distance over the surface."""
    return np.arcsinh(_bank_head(SeparatorBank((sep,)), p)[0][..., 0])


def _logsumexp(d):
    """log sum_k e^{d_k} over the last axis (the rows of d.T), shifted by
    the (constant) maximum of the real parts so that it neither overflows
    nor underflows and stays complex-analytic."""
    d = d.T
    shift = np.maximum.reduce(d.real, axis=0)
    return shift + np.log(np.add.reduce(np.exp(d - shift), axis=0))


def _softmax(d):
    """Softmax over the last axis: e / sum(e), e = e^{d - max real part}."""
    e = d.T
    e = np.exp(e - np.maximum.reduce(e.real, axis=0))
    return (e / np.add.reduce(e, axis=0)).T


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
    if u.shape[-1] == 1:  # _n_classes(1) == 2
        pair = np.zeros((2,) + d.shape[:-1], d.dtype)
        pair[1] = d[..., 0]
        d = pair.T
    return d


def _nll(scores, labels):
    """Negative log likelihood of labels in 0..C-1 under the softmax over
    the class scores (B, C): the sum of logsumexp(scores) - scores_y."""
    labels = _checked_labels(_batch_labels(labels, scores.shape[:-1]),
                             scores.shape[-1])
    picked = np.take_along_axis(scores.T, labels[None], axis=0)[0]
    return np.add.reduce(_logsumexp(scores) - picked, axis=None)


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
    """Class probabilities (..., C): the softmax over the class scores
    (:func:`_scores`) of the bank's head at coordinate rows p; for a bank
    of one, column 1 is sigmoid(d), above 1/2 exactly where h > 0."""
    return _softmax(_scores(_bank_head(bank, p)[0]))


def multiclass_nll(points, labels, bank: SeparatorBank):
    """Negative log likelihood of labels in 0..C-1 under the softmax over
    the class scores (:func:`_scores`) of the bank's head at coordinate
    rows ``points``: the sum of logsumexp(scores) - scores_y, for a
    bank of one that of softplus(d) - y d over 0/1 labels."""
    return _nll(_scores(_bank_head(bank, points)[0]), labels)
