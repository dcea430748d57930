"""Activation-free Cartan networks on r=1 solvable layers.

A network is a chain of hyperbolic layers: a linear injection of the input
features into the solvable coordinates of the first layer, followed per
transition by the closed-form group homomorphism (matrix W and translation
b) and a product of compact fiber rotations.  There is no pointwise
activation; all nonlinearity comes from the group structure.

One chain, :func:`stages`, runs a batch layer by layer, in the chart
(T, Y2) with T = e^{-Y1}, where both stages have closed forms: the
homomorphism ``homo._homomorphism_forward`` is affine,
(T, Y2) -> (T, W Y2 + (1 - T) b), and a layer's fiber rotations
``isometry._fiber_forward`` act on its hyperboloid vector as one rotation
matrix, built from the angles alone and applied to the batch by one
matrix product.  Each fiber stage checks the Cartan bound of its input.
The chain rotates a layer's rows only when the next layer or the caller
reads them: :func:`forward_batch` rotates the last layer's and returns
coordinates, and ``train`` reads the last layer's rows unrotated and
turns the separator head instead.  The injection takes the one exp,
T = e^{-(Q x)_0}, and :func:`forward_batch` the one log, Y1 = -log T, of
a forward pass.  A batch travels the chain as contiguous columns (d, B)
from the injection ``Q @ X.T`` on; every stage takes and returns rows
that are views of them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import numpy as np

from . import homo, isometry, spaces
from .spaces import SpaceId

__all__ = [
    "LayerSpec",
    "NetworkConfig",
    "ParamSet",
    "FlatParams",
    "layout_for",
    "init_params",
    "flatten",
    "unflatten",
    "Stage",
    "stages",
    "forward_batch",
    "save_model",
    "load_model",
]

#: Version tag of every persisted document (models and CLI JSON output).
FORMAT_VERSION = "v1"


@dataclasses.dataclass(frozen=True)
class LayerSpec:
    """One hidden layer: an r=1 symmetric space."""

    space: SpaceId

    def __post_init__(self):
        self.space._require_r1()


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """Architecture: input width, ordered layers, and task head.  Refuses
    (ValueError) an ``input_dim`` or ``K`` that is not an integer (bools
    included), a ``K`` for a task other than multiclass, and a last layer
    H^1, whose separators would have no normal w."""

    input_dim: int
    layers: tuple
    task: str = "binary"
    K: int | None = None

    def __post_init__(self):
        if not (spaces._is_integer(self.input_dim)
                and (self.K is None or spaces._is_integer(self.K))):
            raise ValueError("input_dim and K must be integers")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if len(self.layers) < 1:
            raise ValueError("need at least one layer")
        layers = tuple(
            l if isinstance(l, LayerSpec) else LayerSpec(l) for l in self.layers
        )
        object.__setattr__(self, "layers", layers)
        if self.task not in ("binary", "multiclass", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "multiclass" and (self.K is None or self.K < 2):
            raise ValueError("multiclass requires K >= 2")
        if self.task != "multiclass" and self.K is not None:
            raise ValueError(f"the {self.task} task takes no K")
        if self.last_space.subpaint_dim < 1:
            raise ValueError("the last layer must be H^2 or higher: the "
                             "separators of H^1 have no normal w")

    @property
    def last_space(self) -> SpaceId:
        return self.layers[-1].space

    @property
    def n_separators(self) -> int:
        return self.K if self.task == "multiclass" else 1


@dataclasses.dataclass
class ParamSet:
    """All trainable parameters.

    ``Q`` injects features into layer-1 coordinates, ``lam`` holds the
    injection fiber angles, and per transition i the triple
    (``Ws[i]``, ``bs[i]``, ``psis[i]``) parameterizes the homomorphism and
    the post-homomorphism fiber rotations.  ``head`` holds the separator
    head every task reads: arrays ``alpha``/``beta`` (length K) and ``w``
    (K x s), with K = 1 for the binary and the regression task."""

    Q: np.ndarray
    lam: np.ndarray
    Ws: list
    bs: list
    psis: list
    head: dict


@dataclasses.dataclass(frozen=True)
class FlatParams:
    """Contiguous parameter vector plus the (name, shape) layout."""

    vector: np.ndarray
    layout: tuple


@functools.lru_cache(maxsize=64)
def layout_for(config: NetworkConfig) -> tuple:
    """Stable parameter layout derived from the architecture alone; the
    config is frozen, so each one's layout is built once."""
    spaces_ = [l.space for l in config.layers]
    s1 = spaces_[0].subpaint_dim
    layout = [
        ("Q", (spaces_[0].dim, config.input_dim)),
        ("lam", (max(s1 - 1, 0),)),
    ]
    for i in range(len(spaces_) - 1):
        si, so = spaces_[i].subpaint_dim, spaces_[i + 1].subpaint_dim
        layout.append((f"W{i}", (so, si)))
        layout.append((f"b{i}", (so,)))
        layout.append((f"psi{i}", (max(so - 1, 0),)))
    k = config.n_separators
    layout.append(("alpha", (k,)))
    layout.append(("beta", (k,)))
    layout.append(("w", (k, spaces_[-1].subpaint_dim)))
    return tuple(layout)


def init_params(config: NetworkConfig, seed: int = 0) -> ParamSet:
    """Seeded initialization keeping Cartan coordinates small: uniform
    injection and homomorphism matrices, zero translations and angles.
    The draws fill views of one zeroed vector laid out by
    :func:`layout_for`."""
    rng = np.random.default_rng(seed)
    size = sum(math.prod(shape) for _, shape in layout_for(config))
    params = unflatten(config, np.zeros(size))
    s = 1.0 / np.sqrt(config.input_dim)
    params.Q[:] = rng.uniform(-s, s, size=params.Q.shape)
    for W in params.Ws:
        sw = 1.0 / np.sqrt(max(W.shape[1], 1))  # H^1 inputs: W is empty
        W[:] = rng.uniform(-sw, sw, size=W.shape)
    w = params.head["w"]
    w[:] = rng.uniform(-1.0, 1.0, size=w.shape)
    # keep separators admissible: unit-normalize the normal vectors
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return params


def flatten(config: NetworkConfig, params: ParamSet) -> FlatParams:
    """Pack a ParamSet into a contiguous vector under the stable layout."""
    layout = layout_for(config)
    blocks = _named_blocks(params)
    parts = []
    for name, shape in layout:
        arr = np.asarray(blocks[name])
        if arr.shape != tuple(shape):
            raise ValueError(f"block {name}: expected shape {shape}, got {arr.shape}")
        parts.append(arr.reshape(-1))
    return FlatParams(vector=np.concatenate(parts), layout=layout)


def unflatten(config: NetworkConfig, flat) -> ParamSet:
    """Inverse of flatten; accepts a bare vector, or a FlatParams of this
    config's layout (ValueError for another: two layouts of one length
    would read each other's blocks)."""
    layout = layout_for(config)
    if isinstance(flat, FlatParams) and flat.layout != layout:
        raise ValueError("parameter layout does not match the config")
    vec = flat.vector if isinstance(flat, FlatParams) else np.asarray(flat)
    total = sum(math.prod(s) for _, s in layout)
    if vec.shape != (total,):
        raise ValueError(f"expected parameter vector of length {total}")
    blocks, pos = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        blocks[name] = vec[pos : pos + size].reshape(shape)
        pos += size
    n_trans = len(config.layers) - 1
    return ParamSet(
        Q=blocks["Q"],
        lam=blocks["lam"],
        Ws=[blocks[f"W{i}"] for i in range(n_trans)],
        bs=[blocks[f"b{i}"] for i in range(n_trans)],
        psis=[blocks[f"psi{i}"] for i in range(n_trans)],
        head={k: blocks[k] for k in ("alpha", "beta", "w")},
    )


def _named_blocks(params: ParamSet) -> dict:
    blocks = {"Q": params.Q, "lam": params.lam}
    for i, (W, b, p) in enumerate(zip(params.Ws, params.bs, params.psis)):
        blocks[f"W{i}"] = W
        blocks[f"b{i}"] = b
        blocks[f"psi{i}"] = p
    blocks.update(params.head)
    return blocks


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------


class Stage:
    """One layer of a batch's pass through the chain: the rows (B, d) its
    fiber stage reads, in the chart (T, Y2), and that stage's space and
    angles.  ``rotated`` runs the fiber stage on first use and keeps its
    output rows and tape (read by ``isometry._fiber_pullback``)."""

    __slots__ = ("space", "rows", "angles", "_rotated")

    def __init__(self, space: SpaceId, rows: np.ndarray, angles: np.ndarray):
        self.space, self.rows, self.angles = space, rows, angles
        self._rotated = None

    @property
    def rotated(self) -> tuple:
        if self._rotated is None:
            self._rotated = isometry._fiber_forward(self.space, self.rows,
                                                    self.angles)
        return self._rotated


def stages(config: NetworkConfig, params: ParamSet, X: np.ndarray):
    """Yield, per layer, its :class:`Stage` for a batch of inputs.  The
    last layer's fiber stage runs only when its ``rotated`` is read.  The
    chain lets go of each stage before the next layer's homomorphism
    runs, so a caller that does too, as :func:`forward_batch` does, frees
    the stage's input and tape there.  Complex inputs propagate
    analytically, for complex step."""
    X = np.asarray(X)
    if not np.isfinite(X.real).all():
        raise ValueError("non-finite network input")
    if X.ndim == 1:
        X = X[None, :]
    rows = spaces._to_t_columns(params.Q @ X.T).T
    for i, layer in enumerate(config.layers):
        if i:
            rows = stage.rotated[0]
            del stage
            rows = homo._homomorphism_forward(params.Ws[i - 1],
                                              params.bs[i - 1], rows)
        stage = Stage(layer.space, rows,
                      params.psis[i - 1] if i else params.lam)
        yield stage


def forward_batch(config: NetworkConfig, params: ParamSet, X: np.ndarray) -> np.ndarray:
    """Coordinates of the last hidden layer for a batch of inputs."""
    for stage in stages(config, params, X):
        rows = stage.rotated[0]
        del stage
    return spaces._from_t_chart(rows)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _config_doc(config: NetworkConfig) -> dict:
    return {
        "input_dim": config.input_dim,
        "layers": [{"r": l.space.r, "q": l.space.q} for l in config.layers],
        "task": config.task,
        "K": config.K,
    }


def _config_from_doc(doc: dict) -> NetworkConfig:
    layers = tuple(LayerSpec(SpaceId.so(l["r"], l["q"])) for l in doc["layers"])
    return NetworkConfig(
        input_dim=doc["input_dim"], layers=layers, task=doc["task"], K=doc["K"]
    )


def save_model(path, config: NetworkConfig, params: ParamSet):
    """Write the model as a versioned JSON document."""
    flat = flatten(config, params)
    doc = {
        "config": _config_doc(config),
        "flat_params": [float(v) for v in flat.vector],
        "layout": [[name, list(shape)] for name, shape in flat.layout],
        "format_version": FORMAT_VERSION,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path):
    """Read a model JSON document; returns (config, params).  Refuses
    (ValueError) another format version, a layout that does not match the
    config and parameters that are not finite (JSON NaN or Infinity)."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported model format version")
    config = _config_from_doc(doc["config"])
    layout = tuple((name, tuple(shape)) for name, shape in doc["layout"])
    if layout != layout_for(config):
        raise ValueError("model layout inconsistent with its config")
    vector = np.asarray(doc["flat_params"], dtype=float)
    if not np.isfinite(vector).all():
        raise ValueError("model parameters must be finite")
    return config, unflatten(config, vector)
