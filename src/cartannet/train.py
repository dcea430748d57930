"""Losses, gradients, SGD training, and synthetic data generation.

Every task has one separator head, read by one route (:func:`_head`): at
the rows the last layer's fiber stage reads, unrotated, by the head's
covectors turned by that stage's rotation (``isometry._turn_head``).  The
rotation is an isometry, so the turned head gives there the scores the
head gives at the rotated rows, with the norms and the admissibility
check of the unturned head.  The scores are the K signed distances d, or
(0, d) for a head of one separator, and the tasks differ only in their
loss: the softmax NLL for classification (for one separator, softmax over
(0, d) is sigmoid(d)), and for regression the mean squared error of d.
The gradient, the epoch records and :func:`evaluate` all read the head
so; only :func:`loss_flat`, the oracle the tests differentiate by complex
step and central differences, rotates the batch through the last layer.

The gradient is reverse mode: one forward pass through ``net.stages``
that keeps each layer's output and fiber tape, then one hand-written
pullback per stage in reverse order: the head's (:func:`_head_vjp`), the
homomorphism's, the fiber stage's and the injection's.  An epoch record
takes the train rows and the test rows through the chain together, once.
Data is checked where it enters (``Dataset``, :func:`check_data`):
:func:`gradient` checks its batch's labels, and :func:`train_loop` its
dataset once, so its steps do not.  A run trains in place: one parameter
vector and one gradient vector, each unpacked once into views; a step
writes the pullbacks into the gradient's views, subtracts the gradient
from the parameters and projects the separators in ``params.head``."""

from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np

from . import classify, homo, isometry, net, spaces
from .spaces import CARTAN_BOUND, CartanBoundError

__all__ = [
    "Dataset",
    "TrainConfig",
    "DivergenceError",
    "check_labels",
    "check_data",
    "check_dataset",
    "loss_flat",
    "gradient",
    "train_loop",
    "evaluate",
    "gen_synthetic",
    "save_csv",
    "load_csv",
]

DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Training loss became non-finite or exceeded the divergence guard."""


@dataclasses.dataclass
class Dataset:
    """Feature matrix, labels, and a train/test split tag."""

    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray  # entries "train" / "test"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        self.split = np.asarray(self.split)
        if not (len(self.features) == len(self.labels) == len(self.split)):
            raise ValueError("features, labels and split must align")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")
        if not np.all(np.isfinite(self.labels)):
            raise ValueError("non-finite labels")

    def subset(self, tag: str) -> "Dataset":
        m = self.split == tag
        return Dataset(self.features[m], self.labels[m], self.split[m])

    def __len__(self):
        return len(self.labels)


@dataclasses.dataclass
class TrainConfig:
    """SGD hyperparameters."""

    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ValueError("learning rate must be positive and finite")
        if not all(map(spaces._is_integer,
                       (self.epochs, self.batch_size, self.seed))):
            raise ValueError("epochs, batch_size and seed must be integers")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def check_labels(config: net.NetworkConfig, labels):
    """Labels as the loss reads them: for classification, refuses with
    ValueError anything but integers in 0..K-1 (0/1 for the binary head)
    and returns them as ints; regression targets, the signed distances the
    head should give, are returned as floats.  Refuses an empty batch."""
    if config.task == "regression":
        labels = np.asarray(labels, dtype=float)
        if labels.size == 0:
            raise ValueError("empty data")
        return labels
    return classify._checked_labels(
        labels, classify._n_classes(config.n_separators))


def check_data(config: net.NetworkConfig, dataset: Dataset):
    """Refuses with ValueError a dataset the network cannot read: rows
    that are not ``config.input_dim`` features wide, or labels the head
    cannot read (:func:`check_labels`)."""
    net._check_width(config, dataset.features)
    check_labels(config, dataset.labels)


def check_dataset(config: net.NetworkConfig, dataset: Dataset):
    """Refuses with ValueError a dataset :func:`train_loop` cannot train
    on: one without training rows, or one the network cannot read
    (:func:`check_data`)."""
    if not np.any(dataset.split == "train"):
        raise ValueError("dataset has no training split")
    check_data(config, dataset)


def _head(params: net.ParamSet, stage: net.Stage):
    """The one reading of the separator head: u = h / norm (B, K) of its
    covectors turned by the rotation of the last layer's fiber stage, at
    the rows ``stage.rows`` that stage reads, whose Cartan bound it checks
    as the stage would, over the unturned head's norms.  Also returns what
    :func:`_head_vjp` reuses: the head kernel's saved arrays, the turn's
    tape and the unturned covectors."""
    spaces._check_t_bound(stage.rows.T[0])
    coefs, margins = classify._read_head(params.head)
    turned, turn = isometry._turn_head(coefs, stage.angles)
    u, saved = classify._scaled_h(turned, classify._norms(margins),
                                  stage.rows)
    return u, (saved, turn, coefs)


def _head_loss(config: net.NetworkConfig, u, labels):
    """Loss of the head's u = h / norm (B, K), and the accuracy of its
    class scores' argmax: for regression the mean squared error of the
    last score, the signed distance d, and no accuracy, else the NLL."""
    scores = classify._scores(u)
    if config.task == "regression":
        labels = classify._batch_labels(labels, scores.shape[:-1])
        resid = scores[:, -1] - labels
        return np.add.reduce(resid * resid, axis=None) / len(labels), None
    value = classify._nll(scores, labels)
    return value, float(np.mean(np.argmax(scores.real, axis=-1) == labels))


def loss_flat(config: net.NetworkConfig, vector, features, labels):
    """Task loss of a batch as a function of the flat parameter vector
    (any dtype): the separator head's NLL, or its MSE for regression.  The
    gradient's oracle, so it takes its own route: it rotates the batch
    through the last layer's fiber stage and reads the unturned head."""
    params = net.unflatten(config, np.asarray(vector))
    for stage in net.stages(config, params, features):
        pass
    coefs, margins = classify._read_head(params.head)
    u = classify._scaled_h(coefs, classify._norms(margins),
                           stage.rotated[0])[0]
    return _head_loss(config, u, labels)[0]


def _head_vjp(config: net.NetworkConfig, params: net.ParamSet,
              stage: net.Stage, labels):
    """Gradient of the loss of :func:`_head` at the last layer's
    :class:`net.Stage` with respect to the rows its fiber stage reads,
    ``stage.rows``, to the head parameters (a dict shaped like
    ``params.head``) and to that stage's angles, at labels checked by
    :func:`check_labels`."""
    u, (saved, turn, coefs) = _head(params, stage)
    if config.task == "regression":
        g_d = 2.0 * (np.arcsinh(u) - labels[:, None]) / len(labels)
    else:
        g_d = classify._nll_grad(classify._scores(u), labels, u.shape[-1])
    g_t, g_turned, g_n2 = classify._scaled_h_vjp(u, saved, g_d)
    g_coefs, g_angles = isometry._turn_head_pullback(turn, g_turned)
    return g_t, classify._head_of(
        classify._margin_vjp(coefs, g_n2, g_coefs)), g_angles


def gradient(config: net.NetworkConfig, flat: net.FlatParams,
             features, labels) -> np.ndarray:
    """Gradient of the batch loss with respect to the flat parameters;
    DivergenceError if it is not finite.  Refuses with ValueError labels
    that are not one per row of ``features`` or that the head cannot read
    (:func:`check_labels`)."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    labels = check_labels(config, classify._batch_labels(labels, (len(X),)))
    vector = np.empty(np.shape(getattr(flat, "vector", flat)))
    _gradient(config, net.unflatten(config, flat), X, labels,
              net.unflatten(config, vector))
    if not np.all(np.isfinite(vector)):
        raise DivergenceError("non-finite gradient")
    return vector


def _gradient(config: net.NetworkConfig, params: net.ParamSet,
              X, labels, grads: net.ParamSet):
    """:func:`gradient` at float rows X (B, n) and labels already
    checked, as ints for a separator head, written into ``grads``, views
    of a gradient vector (:func:`net.unflatten`), in the chart (T, Y2) of
    the chain.  The injection's own pullback turns g_T into
    g_Y1 = -T g_T."""
    chain = list(net.stages(config, params, X))
    g_angles = [grads.lam, *grads.psis]
    g, head, g_angles[-1][...] = _head_vjp(config, params, chain[-1],
                                           labels)
    for name, value in head.items():
        grads.head[name][...] = value
    for i in reversed(range(len(chain) - 1)):
        out, tape = chain[i].rotated
        g, grads.Ws[i][...], grads.bs[i][...] = homo._homomorphism_pullback(
            params.Ws[i], params.bs[i], out, g)
        g, g_angles[i][...] = isometry._fiber_pullback(tape, g)
    g = spaces._cotangent_from_t_chart(chain[0].rows, g)
    np.matmul(g.T, X, out=grads.Q)


_ADMISSIBLE_SLACK = 1e-6
_RELATIVE_SLACK = 2.0 ** -40


def _margins(head) -> np.ndarray:
    """Margins |w|^2 - alpha beta (K,) of a head {alpha (K,), beta (K,),
    w (K, s)}."""
    return classify._margin(head["alpha"], head["beta"], head["w"])


def _project(head) -> int:
    """Project separator parameters back into the admissible region
    |w|^2 - alpha*beta > 0 when an SGD step leaves a margin not above
    ``_ADMISSIBLE_SLACK``, and count the separators moved.  A crossing
    separator with |w|^2 <= 2 ``_ADMISSIBLE_SLACK`` restarts as w = e_0,
    alpha = beta = 0; any other has alpha beta > 0, and alpha, beta shrink
    once to the margin slack = max(2 ``_ADMISSIBLE_SLACK``, 2^-40 |w|^2),
    which the rounding (a few ulps of |w|^2) keeps positive at every
    finite |w|.  Edits exactly the crossing separators, in place in the
    views of ``head`` {alpha (K,), beta (K,), w (K, s)}, and returns their
    count."""
    crossing = (~(_margins(head) > _ADMISSIBLE_SLACK)).nonzero()[0]
    if not len(crossing):
        return 0
    alpha, beta, w = head["alpha"], head["beta"], head["w"]
    for k in crossing:
        w2 = float(classify._norm2(w[k]))
        if w2 <= 2.0 * _ADMISSIBLE_SLACK:
            w[k] = 0.0
            w[k, 0] = 1.0
            alpha[k] = beta[k] = 0.0
            continue
        slack = max(2.0 * _ADMISSIBLE_SLACK, w2 * _RELATIVE_SLACK)
        c = np.sqrt((w2 - slack) / (alpha[k] * beta[k]))
        alpha[k], beta[k] = alpha[k] * c, beta[k] * c
    return len(crossing)


# ---------------------------------------------------------------------------
# Training loop and evaluation
# ---------------------------------------------------------------------------


def _scores(config: net.NetworkConfig, params: net.ParamSet,
            features, labels) -> tuple:
    """Loss and accuracy (None for regression) from one forward pass to
    the last layer's stage and one reading of the head (:func:`_head`)."""
    for stage in net.stages(config, params, features):
        pass
    value, accuracy = _head_loss(config, _head(params, stage)[0], labels)
    return float(value.real), accuracy


def train_loop(tc: TrainConfig, config: net.NetworkConfig, dataset: Dataset,
               init: net.ParamSet | None = None):
    """Seeded mini-batch SGD; returns (params, history).

    A run steps a private copy of ``init``'s vector in place by the
    gradient :func:`_gradient` fills, and returns its views.  History
    holds one JSON-serializable record per epoch: ``train_loss``; the
    largest 2-norm of a batch gradient (``grad_norm``); the number of
    separators :func:`_project` moved (``projected``); per layer, the
    largest |Y1| over the train split of the rows its fiber stage reads,
    as a fraction of ``CARTAN_BOUND`` (``cartan_fraction``, what the
    bound's guards check); the smallest margin |w|^2 - alpha beta after
    the epoch (``min_margin``); and, when the dataset has test rows,
    ``test_loss`` and ``accuracy`` (none for regression), read as
    :func:`evaluate` reads them.  A record runs the chain once, on the
    train rows followed by the test rows, and reads the head once.  The
    loop stops early, and restores the parameters from the start of the
    failing epoch, when a step is not finite or its squares overflow, the
    loss diverges, a stage input, of a train or a test row, leaves the
    Cartan bound, or a separator is evaluated outside admissibility.
    Every step ends in :func:`_project`, so only an inadmissible ``init``
    reaches the last case.  A dataset the network cannot read, or without
    training rows, is refused (:func:`check_dataset`) before the first
    step."""
    check_dataset(config, dataset)
    train = dataset.subset("train")
    test = dataset.subset("test")
    n = len(train)
    labels = (train.labels if config.task == "regression"
              else train.labels.astype(int))
    # the rows of the epoch records' one pass: the train split, then the
    # test split
    scored = np.concatenate((train.features, test.features))
    vector = net.flatten(config, init if init is not None
                         else net.init_params(config, seed=tc.seed)).vector
    gradient = np.empty_like(vector)
    params, grads = (net.unflatten(config, v) for v in (vector, gradient))
    rng = np.random.default_rng(tc.seed)
    history = []
    for epoch in range(tc.epochs):
        order = rng.permutation(n)
        last_good = vector.copy()
        grad_norm, projected = 0.0, 0
        try:
            for start in range(0, n, tc.batch_size):
                idx = order[start : start + tc.batch_size]
                _gradient(config, params, train.features[idx], labels[idx],
                          grads)
                with np.errstate(over="ignore", invalid="ignore"):
                    # the 2-norm as np.linalg.norm takes it
                    grad_norm = max(grad_norm,
                                    math.sqrt(gradient.dot(gradient)))
                    vector -= tc.learning_rate * gradient
                    # a non-finite gradient or step, or a step to squares
                    # that overflow, as |w|^2 in the margins would
                    if not math.isfinite(vector.dot(vector)):
                        raise DivergenceError("non-finite step")
                projected += _project(params.head)
            starts = []
            for stage in net.stages(config, params, scored):
                starts.append(stage.rows[:n, 0])
            u = _head(params, stage)[0]
            # max |Y1| = max |log T| of each stage's input, from the
            # extremes of T, read once every bound is checked
            cartan_fraction = [float(max(
                np.log(np.maximum.reduce(t)), -np.log(np.minimum.reduce(t))))
                / CARTAN_BOUND for t in starts]
            train_loss = float(_head_loss(config, u[:n],
                                          train.labels)[0].real)
            if not np.isfinite(train_loss) or train_loss > DIVERGENCE_LIMIT:
                raise DivergenceError(f"loss diverged at epoch {epoch}")
            if len(test):
                value, accuracy = _head_loss(config, u[n:], test.labels)
        except (DivergenceError, CartanBoundError,
                classify.DegenerateSeparatorError):
            vector[:] = last_good
            break
        record = {"epoch": epoch, "train_loss": train_loss,
                  "grad_norm": grad_norm, "projected": projected,
                  "cartan_fraction": cartan_fraction,
                  "min_margin": float(np.min(_margins(params.head)))}
        if len(test):
            record["test_loss"] = float(value.real)
            if accuracy is not None:
                record["accuracy"] = accuracy
        history.append(record)
    return params, history


def evaluate(config: net.NetworkConfig, params: net.ParamSet,
             dataset: Dataset) -> dict:
    """Accuracy and mean NLL (or MSE) over the dataset's test split, or
    the whole dataset when no split tags are present."""
    test = dataset.subset("test")
    if len(test) == 0:
        test = dataset
    value, accuracy = _scores(config, params, test.features, test.labels)
    if config.task == "regression":
        return {"n": len(test), "mse": value}
    return {"n": len(test), "nll": value / len(test), "accuracy": accuracy}


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def gen_synthetic(kind: str, n: int, dim: int, seed: int = 0,
                  classes: int = 2, spread: float = 0.6) -> Dataset:
    """Seeded synthetic classification data with balanced classes and a
    deterministic 80/20 train/test split.  ``"arcs"`` makes two classes
    and takes no other ``classes``.  ``spread``, the standard deviation of
    a blob around its mean, must be finite and >= 0, and a spread whose
    blob features overflow to infinity is refused too (ValueError)."""
    if n < 2 or dim < 2:
        raise ValueError("need n >= 2 and dim >= 2")
    if not 0.0 <= spread < np.inf:
        raise ValueError(f"need a finite spread >= 0, got {spread!r}")
    if classes < 2 or (kind == "arcs" and classes != 2):
        raise ValueError(
            f"need classes >= 2, exactly 2 for arcs; got {classes}")
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        means = rng.normal(size=(classes, dim))
        means *= 3.0 / np.linalg.norm(means, axis=1, keepdims=True)
        counts = [n // classes + (1 if k < n % classes else 0)
                  for k in range(classes)]
        feats, labels = [], []
        with np.errstate(over="ignore"):
            for k, ck in enumerate(counts):
                feats.append(means[k] + spread * rng.normal(size=(ck, dim)))
                labels.append(np.full(ck, k, dtype=int))
        X = np.concatenate(feats)
        if not np.isfinite(X).all():
            raise ValueError(f"spread {spread!r} overflows the features")
        y = np.concatenate(labels)
    elif kind == "arcs":
        half = n // 2
        t1 = rng.uniform(0.0, np.pi, size=half)
        t2 = rng.uniform(0.0, np.pi, size=n - half)
        a1 = np.stack([np.cos(t1), np.sin(t1)], axis=1)
        a2 = np.stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)], axis=1)
        X = np.zeros((n, dim))
        X[:half, :2] = a1
        X[half:, :2] = a2
        X += 0.1 * rng.normal(size=(n, dim))
        y = np.r_[np.zeros(half, dtype=int), np.ones(n - half, dtype=int)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    order = rng.permutation(n)
    X, y = X[order], y[order]
    return Dataset(X, y, _split_tags(n))


def _split_tags(n: int) -> np.ndarray:
    """The deterministic 80/20 split tags (n,) of n rows: every fifth
    row, from the first, is "test", the others "train"."""
    return np.where(np.arange(n) % 5, "train", "test")


def _label_token(y) -> str:
    """The token of one label of ``labels.tolist()``: an int as an integer,
    anything else (a bool included) with ``repr(float)``."""
    return str(y) if type(y) is int else repr(float(y))


def save_csv(path, dataset: Dataset):
    """Write features and labels as CSV with header f0,...,f{d-1},label.
    Integer labels are written as integers, others with ``repr(float)``.
    No token needs quoting, so each row is one join, ended by the CRLF
    that ``csv.writer`` writes."""
    d = dataset.features.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"f{j}" for j in range(d)] + ["label"]) + "\r\n")
        fh.writelines(
            ",".join([*map(repr, x), _label_token(y)]) + "\r\n"
            for x, y in zip(dataset.features.tolist(),
                            dataset.labels.tolist()))


def _parse_label(token: str):
    try:
        return int(token)
    except ValueError:
        return float(token)


def _malformed_row(path, fields: int) -> str:
    """Names the first data line of the CSV at ``path`` that is not
    ``fields`` numbers as ``np.loadtxt`` reads them."""
    with open(path, newline="") as fh:
        for number, line in enumerate(fh, start=1):
            if number == 1 or not line.strip():
                continue
            try:
                row = np.loadtxt([line], delimiter=",", comments=None,
                                 ndmin=2)
            except ValueError:
                return f"line {number}: not a row of numbers: {line.strip()!r}"
            if row.shape[1] != fields:
                return (f"line {number}: {row.shape[1]} fields where the "
                        f"header names {fields}")
    return "malformed rows"


def load_csv(path) -> Dataset:
    """Read a dataset CSV (no split tags: deterministic 80/20 assignment).
    One ``np.loadtxt`` call parses every row, its label included, so a
    row with more or fewer fields than the header, or with a field that is
    not a number (a ``#`` line too: nothing is a comment), is a ValueError
    that names its line.  A label token that is an integer is read as an
    int, else as a float: all tokens at once as ints, and one at a time
    only when one of them is not an integer."""
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]))
        if header[-1] != "label" or not header[0].startswith("f"):
            raise ValueError("unexpected CSV header")
        lines = [line for line in fh if line.strip()]
    d = len(header) - 1
    try:
        table = (np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
                 if lines else np.empty((0, d + 1)))
    except ValueError:
        table = None
    if table is None or table.shape[1] != d + 1:
        raise ValueError(_malformed_row(path, d + 1))
    tokens = [line.rsplit(",", 1)[1] for line in lines]
    try:
        y = np.array(list(map(int, tokens)))
    except ValueError:  # a token that is not an integer
        y = np.array(list(map(_parse_label, tokens)))
    return Dataset(np.ascontiguousarray(table[:, :d]), y,
                   _split_tags(len(lines)))
