"""Dense vector arithmetic and angular geometry for client updates.

Gradients are 1-D float64 numpy arrays. Angles are radians in [0, pi].
All functions are pure; nothing here holds state.
"""

import numpy as np

from .errors import DegenerateGradient, DimensionMismatch

# Below this L2 norm a gradient carries no usable direction.
NORM_FLOOR = 1e-12


def as_vector(u) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, raising on bad input."""
    arr = np.asarray(u, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateGradient("vector contains NaN or Inf entries")
    return arr


def angle_between(u, v) -> float:
    """Angle in radians between two non-degenerate vectors of equal dimension.

    The cosine is clamped to [-1, 1] before arccos so nearly parallel
    vectors cannot produce NaN from floating-point drift.
    """
    u = as_vector(u)
    v = as_vector(v)
    if u.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"dimensions differ: {u.shape[0]} vs {v.shape[0]}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu <= NORM_FLOOR or nv <= NORM_FLOOR:
        raise DegenerateGradient(f"norms ({nu:.3e}, {nv:.3e}) below floor {NORM_FLOOR}")
    cos = float(np.dot(u, v)) / (nu * nv)
    return float(np.arccos(min(1.0, max(-1.0, cos))))


def unit_rows(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a checked matrix divided by their L2 norms, and the
    norms. A row with norm <= NORM_FLOOR is returned as it is; a row whose
    norm overflows to inf becomes all zeros. Row j depends only on G[j]."""
    norms = np.sqrt(np.einsum("jk,jk->j", G, G))
    return G / np.where(norms <= NORM_FLOOR, 1.0, norms)[:, None], norms


def angles_to(U: np.ndarray, bad: np.ndarray, u: np.ndarray, u_bad: bool) -> np.ndarray:
    """Angle from the unit row `u` to each unit row of `U` (see `unit_rows`);
    a pair with a degenerate row (`bad`, `u_bad`: norm <= NORM_FLOOR) is at
    pi. Entry j depends only on U[j] and u, and products commute, so it is
    bitwise the same whichever of the two is `u` and wherever U[j] sits in
    U; a cache of these rows equals a full recompute."""
    theta = np.arccos(np.clip(np.einsum("jk,k->j", U, u), -1.0, 1.0))
    theta[bad | u_bad] = np.pi
    return theta


def pairwise_angles(grads) -> np.ndarray:
    """Symmetric zero-diagonal matrix of angles between all gradient pairs
    (`_angle_block` of their unit rows).

    A gradient with norm <= NORM_FLOOR has no direction: it sits at angle
    pi to every other gradient, the most deviant an angle can be.
    """
    G = _as_matrix(grads)
    if G.shape[0] < 2:
        raise DimensionMismatch(f"need at least 2 gradients, got {G.shape[0]}")
    U, norms = unit_rows(G)
    return _angle_block(U, norms <= NORM_FLOOR)


def _angle_block(U: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """The symmetric zero-diagonal angles between the unit rows `U`, with a
    degenerate row (`bad`) at pi to every other row: entry (i, j) is
    bitwise `angles_to(U, bad, U[i], bad[i])[j]`, its dot product summed
    by the same einsum reduction."""
    theta = np.arccos(np.clip(np.einsum("ik,jk->ij", U, U), -1.0, 1.0))
    theta[bad] = theta[:, bad] = np.pi
    np.fill_diagonal(theta, 0.0)
    return theta


def sq_distances_to(G: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from `g` to each row of a matrix the
    caller has already checked (see `_as_matrix`), in O(n*d) memory.

    Entry j depends only on G[j] and g, and (a-b)**2 == (b-a)**2, so it is
    bitwise the same whichever of the two is the row and wherever G[j]
    sits in G; a cache of these rows equals a full recompute.
    """
    D = G - g
    return np.einsum("jk,jk->j", D, D)


def pairwise_sq_distances(G: np.ndarray) -> np.ndarray:
    """(n, n) squared Euclidean distances between the rows of a checked
    matrix, one `sq_distances_to` row at a time."""
    d2 = np.empty((G.shape[0], G.shape[0]))
    for i in range(G.shape[0]):
        d2[i] = sq_distances_to(G, G[i])
    return d2


def _as_matrix(grads) -> np.ndarray:
    """Stack a gradient collection into a finite (n, d) float64 matrix."""
    try:
        G = np.asarray(grads, dtype=np.float64)
    except ValueError:
        raise DimensionMismatch("gradients have mismatched dimensions") from None
    if G.ndim != 2:
        raise DimensionMismatch(f"expected a stack of 1-D vectors, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        bad = np.nonzero(~np.all(np.isfinite(G), axis=1))[0]
        raise DegenerateGradient(f"gradient {int(bad[0])} contains NaN or Inf entries")
    return G
