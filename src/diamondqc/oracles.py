"""Brute-force reference searches that validate every closed form.

Three independently coded minimizations:

* ``minimize_conditional_entropy`` -- deterministic grid plus shrinking local
  refinement over rank-1 projective measurements on the first qubit; this is
  the authoritative minimum behind quantum discord.
  ``minimize_axial_conditional_entropy`` is the same search with the azimuth
  dropped, for Bloch data symmetric about z, where the azimuth does not
  matter.  It searches a batch of such states at once, each row on its own,
  and gives the same results; the clamps it drops never act.
* ``gmqd_variational`` -- squared Hilbert-Schmidt distance to the nearest
  classical-quantum state.  For a fixed measurement axis the closest state is
  the dephased (measured) state, so only the axis is searched.
* ``gqd_1norm_variational`` -- minimum over the measurement axis of the trace
  distance to the dephased state; an upper bound, exact on Bell-diagonal
  states.

The entropy searches return (bits, unit measurement axis), the distance
searches a float.  Only ``minimize_conditional_entropy`` takes a ``GridSpec``;
the two distance searches run fixed configurations.  The 2-D searches build
the coarse grid of a ``GridSpec`` once (a cached, read-only axis stack) and
evaluate the objective on it a slice at a time, which bounds the
temporaries.  ``_refine`` then moves all of a search's starts in lockstep,
one objective call per round, each start on its own; every round halves its
step.  ``measured_state`` dephases term by term, a sum of broadcast
products built in place in the output layout.  Both distances are still
taken between 4x4 operators, never through the Bloch closed forms.

Everything is seedless and deterministic: identical inputs give bit-identical
outputs.  Ties are broken toward the lowest polar angle, then lowest azimuth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import IDENTITY_2, PAULIS, bloch_decompose


@dataclass(frozen=True)
class GridSpec:
    """Search discretization: polar steps over [0, pi/2], azimuthal steps over
    [0, pi) evaluated under both antipodal labelings, then ``refine_iters``
    local refinements, each halving the step."""

    theta_steps: int = 64
    phi_steps: int = 128
    refine_iters: int = 40

    def __post_init__(self):
        if self.theta_steps < 8 or self.phi_steps < 8:
            raise ValueError("grid needs at least 8 steps per angle")


_PAULI_STACK = np.stack(PAULIS)
_REFINE_OFFSETS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
_AXIAL_THETAS = np.linspace(0.0, math.pi / 2.0, GridSpec().theta_steps)
# outcome signs +1 and -1 on a leading axis, ahead of the (N, m) angle axes
_OUTCOME_SIGNS = np.array([1.0, -1.0])[:, None, None]
# the theta offsets of each refinement round: the step halves every round
# (exactly, by a power of two), starting from the grid spacing
_AXIAL_REFINE_STEPS = ((_AXIAL_THETAS[1] - _AXIAL_THETAS[0])
                       * 0.5 ** np.arange(GridSpec().refine_iters))[:, None] * _REFINE_OFFSETS


def _projector_pairs(axes):
    """(..., 2, 2, 2) projector pairs (I +- n.sigma)/2 for a (..., 3) axis stack."""
    axes = np.asarray(axes, dtype=float)
    vectors = np.stack([axes, -axes], axis=-2)
    return (IDENTITY_2 + np.tensordot(vectors, _PAULI_STACK, axes=(-1, 0))) / 2.0


def _axis_vectors(theta, phi):
    """Unit vectors for broadcastable angle arrays."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _binary_entropy_bits(q):
    q = np.clip(q, 0.0, 1.0)
    out = np.zeros_like(q)
    for p in (q, 1.0 - q):
        mask = p > 0.0
        out = out - np.where(mask, p * np.log2(np.where(mask, p, 1.0)), 0.0)
    return out


def _conditional_entropy(dec, axes):
    """Average post-measurement entropy of the second qubit when the first is
    measured along each row of ``axes``; fully closed-form in the Bloch data."""
    proj = axes @ dec.x
    m = axes @ dec.r  # row i holds n_i^T R
    ce = np.zeros(axes.shape[0])
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * proj)
        num = dec.yvec[None, :] + sign * m
        safe_p = np.where(p > 1e-15, p, 1.0)
        bloch_norm = np.linalg.norm(num, axis=1) / (2.0 * safe_p)
        bloch_norm = np.clip(bloch_norm, 0.0, 1.0)
        term = p * _binary_entropy_bits(0.5 * (1.0 + bloch_norm))
        ce += np.where(p > 1e-15, term, 0.0)
    return ce


def _axial_conditional_entropy(xz, yz, rxx, rzz, theta):
    """``_conditional_entropy`` along the axes (sin theta, 0, cos theta), for
    N states with Bloch data x = (0, 0, xz), yvec = (0, 0, yz) and
    R = diag(rxx, rxx, rzz).  The four data are (N, 1) columns and theta is
    broadcastable to (N, m); returns (N, m).

    Every element takes the same float operations as in the general kernel,
    whose matrix products and norm only add exact zeros here, with the same
    guards and the same binary entropy, so the results are the same; the
    clamps it drops never act.  The norm is >= 0 and finite, so its lower
    clip does nothing; q then lies in [0.5, 1], so its second clip and the
    q > 0 mask do nothing; and r log2(r) with r = 0 replaced by 1 in the
    logarithm is already 0 at r = 0.
    """
    ct = np.cos(theta)
    p = 0.5 * (1.0 + _OUTCOME_SIGNS * (ct * xz))
    n0 = np.sin(theta) * rxx  # enters squared, so the outcome sign drops out
    n2 = yz + _OUTCOME_SIGNS * (ct * rzz)
    live = p > 1e-15
    bloch_norm = np.sqrt(n0 * n0 + n2 * n2) / (2.0 * np.where(live, p, 1.0))
    q = 0.5 * (1.0 + np.minimum(bloch_norm, 1.0))
    r = 1.0 - q
    entropy = 0.0 - q * np.log2(q) - r * np.log2(np.where(r > 0.0, r, 1.0))
    term = np.where(live, p * entropy, 0.0)
    return 0.0 + term[0] + term[1]


def minimize_axial_conditional_entropy(decs):
    """Minimum of ``_axial_conditional_entropy`` over theta in [0, pi/2] for
    each of N Bloch decompositions: the polar grid and the refinement rounds
    of the default ``GridSpec``, at phi = 0, run on all N states at once.

    For Bloch data symmetric about z the conditional entropy does not depend
    on the azimuth, so this is ``minimize_conditional_entropy`` with its phi
    axis dropped.  Interior optima are searched like endpoints.  Each row
    takes its own argmin and acceptance, so a state gets the same result in
    any batch.  Returns ((N,) bits, (N, 3) unit axes).
    """
    data = np.array([(d.x[2], d.yvec[2], d.r[0, 0], d.r[2, 2]) for d in decs])
    cols = np.hsplit(data, 4)
    values = _axial_conditional_entropy(*cols, _AXIAL_THETAS)
    value, theta = values.min(axis=1), _AXIAL_THETAS[values.argmin(axis=1)]
    # flat index of each row's first element in an (N, 5) array
    starts = np.arange(len(data)) * _REFINE_OFFSETS.size
    for steps in _AXIAL_REFINE_STEPS:
        local = np.minimum(np.maximum(theta[:, None] + steps, 0.0), math.pi / 2.0)
        vals = _axial_conditional_entropy(*cols, local)
        k = starts + vals.argmin(axis=1)
        best = vals.take(k)
        # a row moves only to a strictly lower value: a tie keeps its theta
        np.copyto(theta, local.take(k), where=best < value)
        value = np.minimum(best, value)
    return value, _axis_vectors(theta, 0.0)


@functools.lru_cache(maxsize=4)
def _coarse_grid(spec):
    """Flattened (theta-major) polar and azimuthal angles of the coarse grid
    of a GridSpec, their (n, 3) axis stack, and the two grid spacings.  Built
    once per GridSpec; the arrays are read-only because every caller shares
    them."""
    thetas = np.linspace(0.0, math.pi / 2.0, spec.theta_steps)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * spec.phi_steps, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    flat_t, flat_p = tt.ravel(), pp.ravel()
    axes = _axis_vectors(flat_t, flat_p)
    for array in (flat_t, flat_p, axes):
        array.flags.writeable = False
    return flat_t, flat_p, axes, thetas[1] - thetas[0], phis[1] - phis[0]


# the coarse grid is evaluated this many slices at a time, bounding the
# temporaries of an objective to a slice of the grid
_GRID_SLICES = 8


def _coarse_values(objective, spec):
    """The objective on the coarse grid of a GridSpec, a slice at a time,
    with the grid's flattened angles and spacings."""
    flat_t, flat_p, axes, dt, dp = _coarse_grid(spec)
    values = np.concatenate([objective(part) for part in np.array_split(axes, _GRID_SLICES)])
    return values, flat_t, flat_p, dt, dp


# the 5x5 refinement stencil, flattened theta-major: theta varies slowest
_STENCIL_THETA = np.repeat(_REFINE_OFFSETS, _REFINE_OFFSETS.size)
_STENCIL_PHI = np.tile(_REFINE_OFFSETS, _REFINE_OFFSETS.size)


def _refine(objective, value, theta, phi, dt, dp, rounds):
    """Shrinking 5x5 local search around each of k starts (theta[i], phi[i])
    with start values value[i], ``rounds`` rounds with the spacings halved
    after each.  The k starts run in lockstep, one objective call per round,
    but each on its own: a start moves only to a strictly lower value of its
    own stencil, ties going to the lowest theta, then the lowest phi.
    Returns the improved (value, theta, phi) as (k,) arrays."""
    value, theta, phi = (np.array(a, dtype=float, ndmin=1) for a in (value, theta, phi))
    rows = np.arange(value.size)
    for _ in range(rounds):
        lt = np.clip(theta[:, None] + dt * _STENCIL_THETA, 0.0, math.pi / 2.0)
        lp = phi[:, None] + dp * _STENCIL_PHI
        vals = objective(_axis_vectors(lt.ravel(), lp.ravel())).reshape(lt.shape)
        k = vals.argmin(axis=1)
        best = vals[rows, k]
        better = best < value
        value = np.where(better, best, value)
        theta = np.where(better, lt[rows, k], theta)
        phi = np.where(better, lp[rows, k], phi)
        dt *= 0.5
        dp *= 0.5
    return value, theta, phi


def _grid_then_refine(objective, grid: GridSpec):
    """Minimize objective(axes) on the coarse grid, then locally refine.

    objective maps an (n, 3) axis stack to an (n,) value array, each row on
    its own.  Returns (value, theta, phi).  np.argmin on the (theta-major)
    flattened grid breaks ties toward the lowest theta, then the lowest phi.
    """
    values, flat_t, flat_p, dt, dp = _coarse_values(objective, grid)
    k = int(np.argmin(values))
    value, theta, phi = _refine(objective, values[k], flat_t[k], flat_p[k],
                                dt, dp, grid.refine_iters)
    return float(value[0]), float(theta[0]), float(phi[0])


def minimize_conditional_entropy(rho: np.ndarray, grid: GridSpec | None = None):
    """Minimum of sum_k p_k S(rho_{B|k}) over projective measurements on the
    first qubit.  Returns (bits, unit axis of the measurement)."""
    grid = grid or GridSpec()
    dec = bloch_decompose(rho)
    value, theta, phi = _grid_then_refine(lambda a: _conditional_entropy(dec, a), grid)
    return value, _axis_vectors(theta, phi % (2.0 * math.pi))


def measured_state(rho: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Dephase the first qubit along a measurement axis, or along each row of
    an (n, 3) axis stack: sum_s P_s x Tr_1[(P_s x I) rho]."""
    rho = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    projectors = _projector_pairs(axis)  # (..., s, a, e)
    # Tr_1[(P_s x I) rho]: the unnormalized second-qubit state after outcome s,
    # blocks[..., s, b, d] = sum_{a, e} P_s[a, e] rho[(e, b), (a, d)]
    blocks = projectors[..., 0, 0, None, None] * rho[0, :, 0, :]
    for a, e in ((0, 1), (1, 0), (1, 1)):
        blocks += projectors[..., a, e, None, None] * rho[e, :, a, :]
    # out[..., a, b, c, d] = sum_s P_s[a, c] blocks_s[b, d], rows (a, b), columns (c, d)
    out = projectors[..., 0, :, None, :, None] * blocks[..., 0, None, :, None, :]
    out += projectors[..., 1, :, None, :, None] * blocks[..., 1, None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def gmqd_variational(rho: np.ndarray) -> float:
    """Minimal squared Hilbert-Schmidt distance to a classical-quantum state.

    For a fixed axis the optimal classical-quantum state is the dephased
    state, so the search runs over the measurement axis only, on the
    default ``GridSpec``.
    """
    rho = np.asarray(rho, dtype=complex)

    def objective(axes):
        delta = rho[None, :, :] - measured_state(rho, axes)
        return np.sum(np.abs(delta) ** 2, axis=(1, 2)).real

    value, _, _ = _grid_then_refine(objective, GridSpec())
    return float(value)


# The trace-norm search: a coarse axis grid, then one refinement from each of
# its best few axes and from the three coordinate axes.
_ONE_NORM_GRID = GridSpec(13, 24, 30)
_TOP_AXES = 4


def gqd_1norm_variational(rho: np.ndarray) -> float:
    """Upper-bound estimate of the trace-norm distance to the nearest
    classical-quantum state: the minimum over the measurement axis of
    ||rho - measured_state(rho, axis)||_1, exact on Bell-diagonal states."""
    rho = np.asarray(rho, dtype=complex)

    def objective(axes):
        return np.sum(np.abs(np.linalg.eigvalsh(rho - measured_state(rho, axes))), axis=-1)

    coarse, flat_t, flat_p, dt, dp = _coarse_values(objective, _ONE_NORM_GRID)
    order = np.argsort(coarse, kind="stable")[:_TOP_AXES]
    # canonical axes keep the Bell-diagonal optimum in reach regardless of grid
    thetas = np.concatenate([flat_t[order], [math.pi / 2.0, math.pi / 2.0, 0.0]])
    phis = np.concatenate([flat_p[order], [0.0, math.pi / 2.0, 0.0]])
    value, _, _ = _refine(objective, objective(_axis_vectors(thetas, phis)), thetas, phis,
                          dt, dp, _ONE_NORM_GRID.refine_iters)
    return float(value.min())
