"""Reference functions shared by the tests and called by nothing in the
package: the invariant metric of an r=1 space, the separator's defining
function h, a witness point on a separator, the logistic function, the
classification of an isometry-group element, the cotangent chart
change the pullbacks invert, the numeric block peel that the polynomial
table of sigma_inv is built from, a replay of the training loop, the
``csv.writer`` form of a dataset file, and the fancy-index forms of the
constraint kernels and of the Gauss-Newton step's gathers.
They call the package's private kernels, so what they check is the code
the package runs."""

import csv

import numpy as np

from cartannet import classify, homo, isometry, net, spaces, train
from cartannet.spaces import SQRT2, SolvCoords, SpaceId


def metric_at(coords: SolvCoords) -> np.ndarray:
    """Left-invariant metric G(w) for r=1:
    ds^2 = dw1^2 + sum_a (1/4)(w_{1+a} dw1 + dw_{1+a})^2."""
    space = coords.space
    space._require_r1()
    d = space.dim
    w = coords.values
    G = np.zeros((d, d))
    G[0, 0] = 1.0 + 0.25 * float(np.sum(w[1:] ** 2))
    for a in range(1, d):
        G[0, a] = G[a, 0] = 0.25 * w[a]
        G[a, a] = 0.25
    return G


def h_value(sep: classify.Separator, p):
    """Defining function of the separator; its sign is the side of p.
    Accepts a SolvCoords or a batch array of coordinate rows."""
    return classify._scaled_h(classify.SeparatorBank((sep,)).coefs, 1.0,
                              spaces._to_t_chart(p))[0][..., 0]


def head_kernel(head, t):
    """The head kernel on a head {alpha (K,), beta (K,), w (K, s)} at
    rows t of the chart (T, Y2), as training's loss reads it: u = h / norm
    (..., K) and what ``classify._scaled_h_vjp`` reuses."""
    coefs, margins = classify._read_head(head)
    return classify._scaled_h(coefs, classify._norms(margins), t)


def find_surface_point(sep: classify.Separator, space: SpaceId,
                       seed: int = 0) -> SolvCoords:
    """Produce a witness point on the {h = 0} surface.

    h = <n, v> in the eta form for the hyperboloid vector v = (e^{Y1}
    (1 + |Y2|^2 / 4), Y2 / sqrt2, -e^{-Y1}), <v, v> = -2, and n = (-alpha,
    sqrt2 w, beta), with <n, n> = 2 (|w|^2 - alpha beta) > 0 if admissible.
    So a seeded point's v, eta-projected off n and rescaled to <v, v> = -2,
    lies on the surface, on the same sheet (the segment stays timelike)."""
    space._require_r1()
    if not sep.admissible:
        raise classify.DegenerateSeparatorError(
            "separator admissibility |w|^2 - alpha*beta must be positive")
    eta = spaces.build_eta(space).entries
    y = np.random.default_rng(seed).uniform(-1.0, 1.0, size=space.dim)
    y1, y2 = y[0], y[1:]
    v = np.r_[np.exp(y1) * (1.0 + 0.25 * y2 @ y2), y2 / SQRT2, -np.exp(-y1)]
    n = np.real(np.r_[-sep.alpha, SQRT2 * sep.w, sep.beta]).astype(float)
    v = v - (n @ eta @ v) / (n @ eta @ n) * n
    v = v * np.sqrt(-2.0 / (v @ eta @ v))
    return SolvCoords(space, np.r_[-np.log(-v[-1]), SQRT2 * v[1:-1]])


def sigmoid(x):
    """Overflow-safe logistic function; satisfies s(-x) = 1 - s(x)."""
    x = np.asarray(x)
    pos = np.real(x) >= 0
    # evaluate both stable branches on shifted arguments to avoid overflow
    xp = np.where(pos, x, 0.0)
    xm = np.where(pos, 0.0, x)
    return np.where(pos, 1.0 / (1.0 + np.exp(-xp)),
                    np.exp(xm) / (1.0 + np.exp(xm)))


def _stabilizes_solvable(g: np.ndarray, space: SpaceId, tol=1e-10) -> bool:
    gens = spaces.solvable_generators(space).stack
    basis = gens.reshape(len(gens), -1).T
    ad = (g @ gens @ np.linalg.inv(g)).reshape(len(gens), -1).T
    coef = np.linalg.lstsq(basis, ad, rcond=None)[0]  # one solve, all T
    return not np.max(np.abs(basis @ coef - ad)) > tol


def classify_element(g: np.ndarray, space: SpaceId) -> isometry.GroupElement:
    """Tag a matrix as solvable / paint / grassmannian / external.  The
    isometric elements are the eta-orthogonal ones on so spaces and the
    orthogonal ones, of |det| 1, on sl spaces."""
    g = np.asarray(g, dtype=float)
    det = np.linalg.det(g)
    if abs(det) < 1e-300:
        raise ValueError("matrix must be invertible")
    upper = np.allclose(g, np.triu(g), atol=1e-12) and np.all(np.diag(g) > 0)
    if space.family == "so":
        isometric = isometry._eta_defect(g, space) <= 1e-10
        solvable = isometric and upper
    else:
        isometric = (np.allclose(g.T @ g, np.eye(space.N), atol=1e-10)
                     and abs(abs(det) - 1.0) <= 1e-10)
        solvable = not isometric and upper and abs(det - 1.0) < 1e-10
    if solvable:
        return isometry.GroupElement(space, g, "solvable")
    if isometric:
        return isometry.GroupElement(
            space, g, "paint" if _stabilizes_solvable(g, space)
            else "grassmannian")
    return isometry.GroupElement(
        space, g / np.sign(det) / abs(det) ** (1.0 / space.N), "external")


def _cotangent_to_t_chart(t, grad) -> np.ndarray:
    """A cotangent (..., d) of coordinates as one of the T chart at the
    rows t, in fresh columns: g_T = -g_Y1 / T, since dY1/dT = -1/T; the
    inverse of ``spaces._cotangent_from_t_chart``."""
    grad = np.asarray(grad)
    g = np.array(grad.T, dtype=np.result_type(grad, t, float), order="C")
    g[0] /= -t[..., 0]
    return g.T


def sigma_inv_peel(space: SpaceId, L) -> np.ndarray:
    """The numeric block peel ``spaces._sigma_inv_table`` runs once on
    polynomials: Cartans from the log-diagonal, then with R = diag(L)^{-1}
    L, block by block from the left, x_k = R[rows[k], cols[k]] inv[k] and
    R <- (I + X(-x)) R.  Batched (..., N, N) -> (..., d), no range test."""
    table = spaces._chart_table(space)
    L = np.asarray(L)
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    coords = [np.log(diag[..., table.cart_entry]) * table.cart_inv]
    R = L / diag[..., :, None]
    for terms, rows, cols, inv in table.blocks:
        x = R[..., rows, cols] * inv
        coords.append(x)
        R = R + (np.concatenate([-x, x * x], axis=-1) @ terms).reshape(
            L.shape) @ R
    return np.concatenate(coords, axis=-1)


def replay_train_loop(tc: train.TrainConfig, config, dataset):
    """``train.train_loop`` step by step from public pieces: the public
    ``train.gradient``, the pure step v - lr g and ``train._project`` on
    the new vector.  ``projected`` counts the separators whose alpha,
    beta or w the projection changed, and ``train_loss`` and
    ``cartan_fraction`` come from ``loss_flat`` and a pass of
    ``net.stages`` of their own.  Returns (params, history)."""
    tr, test = dataset.subset("train"), dataset.subset("test")
    v = net.flatten(config, net.init_params(config, seed=tc.seed)).vector
    layout = net.layout_for(config)
    rng = np.random.default_rng(tc.seed)
    history = []
    for epoch in range(tc.epochs):
        order = rng.permutation(len(tr))
        start_v = v
        grad_norm, projected = 0.0, 0
        try:
            for start in range(0, len(tr), tc.batch_size):
                idx = order[start : start + tc.batch_size]
                g = train.gradient(config, net.FlatParams(v, layout),
                                   tr.features[idx], tr.labels[idx])
                grad_norm = max(grad_norm, float(np.linalg.norm(g)))
                stepped = v - tc.learning_rate * g
                v = stepped.copy()
                train._project(net.unflatten(config, v).head)
                old, new = (net.unflatten(config, u).head
                            for u in (stepped, v))
                projected += sum(
                    not all(np.array_equal(old[key][k], new[key][k])
                            for key in ("alpha", "beta", "w"))
                    for k in range(config.n_separators))
            params = net.unflatten(config, v)
            fractions = [
                float(np.max(np.abs(np.log(stage.rotated[0][:, 0]))))
                / spaces.CARTAN_BOUND
                for stage in net.stages(config, params, tr.features)]
            train_loss = float(np.real(
                train.loss_flat(config, v, tr.features, tr.labels)))
            if not train_loss <= train.DIVERGENCE_LIMIT:
                raise train.DivergenceError(f"loss diverged at {epoch}")
        except (train.DivergenceError, spaces.CartanBoundError,
                classify.DegenerateSeparatorError):
            v = start_v
            break
        record = {"epoch": epoch, "train_loss": train_loss,
                  "grad_norm": grad_norm, "projected": projected,
                  "cartan_fraction": fractions,
                  "min_margin": float(np.min(classify._margin(
                      params.head["alpha"], params.head["beta"],
                      params.head["w"])))}
        if len(test):
            record["test_loss"], accuracy = train._scores(
                config, params, test.features, test.labels)
            if accuracy is not None:
                record["accuracy"] = accuracy
        history.append(record)
    return net.unflatten(config, v), history


def save_csv_writer(path, dataset: train.Dataset):
    """``train.save_csv`` row by row through ``csv.writer``: features with
    ``repr(float)``, integer labels (numpy's included) as integers and
    every other label, a numpy bool included, with ``repr(float)``."""
    d = dataset.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(d)] + ["label"])
        for x, y in zip(dataset.features, dataset.labels):
            token = (str(int(y)) if isinstance(y, (int, np.integer))
                     else repr(float(y)))
            writer.writerow([repr(float(v)) for v in x] + [token])


def reference_residual_stack(system: homo.ConstraintSystem, W) -> np.ndarray:
    """``residual_stack`` by fancy indexing of the full residual tensors at
    the pairs b < c."""
    W = system._stack(W)
    iu0, iu1 = system._pairs
    R = system._tensor_stack(W)[:, :, iu0, iu1]
    return R.reshape(len(W), system.target.d * len(iu0))


def reference_jacobian_stack(system: homo.ConstraintSystem, W) -> np.ndarray:
    """``jacobian_stack`` by subtracting T1 and T2 from the linear part
    through 5-D advanced indexing at the pair indices."""
    W = system._stack(W)
    d2, d1 = system.shape
    iu0, iu1 = system._pairs
    npairs = len(iu0)
    T1 = (system.target.f.reshape(d2 * d2, d2) @ W).reshape(-1, d2, d2, d1)
    T2 = system._first_factor(W)
    J = np.empty((len(W), *system._linear_jacobian.shape), dtype=W.dtype)
    J[:] = system._linear_jacobian
    J5 = J.reshape(len(W), d2, npairs, d2, d1)
    p = np.arange(npairs)
    J5[:, :, p, :, iu0] -= np.moveaxis(T1[..., iu1], -1, 0)
    J5[:, :, p, :, iu1] -= np.moveaxis(T2[:, iu0], 1, 0)
    return J


def reference_steps(system: homo.ConstraintSystem, X, R, masks,
                    group) -> np.ndarray:
    """``homo._steps`` on the reference Jacobian, gathering each group's
    rows, live rows and free columns with ``np.ix_`` broadcasts."""
    J = reference_jacobian_stack(system, X.reshape(len(X), *system.shape))
    nonzero = J != 0
    dX = np.zeros_like(X)
    for g in np.unique(group):
        rows, free = np.flatnonzero(group == g), masks[g]
        live = np.flatnonzero(nonzero[rows][:, :, free].any(axis=(0, 2)))
        dX[np.ix_(rows, free)] = homo._min_norm_steps(
            J[np.ix_(rows, live, free)], R[np.ix_(rows, live)], J.shape[1])
    return dX
