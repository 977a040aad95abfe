"""Thermal two-qubit state of one diamond-chain cluster.

One cluster couples a quantum Heisenberg spin pair (coupling ``j2``) to two
classical Ising spins mu_k, mu_{k+1} = +-1/2 (coupling ``j``, next-nearest
Ising coupling ``jm``) in a longitudinal field ``h`` at temperature ``t``
(k_B = 1).  The spin-pair state has two constructions:

* ``thermal_state_exact`` -- trace the Boltzmann operator over the four Ising
  configurations: ``cluster_hamiltonian`` stacks their four Hamiltonians and
  one spectral decomposition of the stack gives every Boltzmann operator.
  This is the source of truth for all correlation measures.
* ``boltzmann_elements`` -- the closed-form weights u, v, w, y of the
  X-shaped state; the v weight also exists in a ``verbatim`` variant that
  carries a spurious exchange term and disagrees with the exact construction
  whenever j != 0.  ``validate_constructions`` compares both variants with
  the exact state element by element.

All Boltzmann sums are evaluated relative to their largest exponent, so
temperatures down to ~1e-6 at unit couplings are usable without overflow.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotBellDiagonal, PositivityViolation, TemperatureTooLow

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# S1.S2 for two spin-1/2 operators S = sigma/2, product basis |00>,|01>,|10>,|11>
_EXCHANGE = 0.25 * np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 2.0, 0.0],
        [0.0, 2.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)
_SZ_TOTAL = np.diag([1.0, 0.0, 0.0, -1.0])

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class ChainParams:
    """One thermodynamic point: couplings j (Ising-Heisenberg), j2 (Heisenberg
    dimer), jm (next-nearest Ising), field h and temperature t, all in the
    same energy units."""

    j: float
    j2: float
    jm: float
    h: float
    t: float

    def __post_init__(self):
        values = (self.j, self.j2, self.jm, self.h, self.t)
        if not all(math.isfinite(x) for x in values):
            raise ValueError(f"non-finite chain parameters: {values}")
        if self.t <= 0.0:
            raise TemperatureTooLow(
                f"temperature must be strictly positive, got t={self.t}"
            )

    def replace(self, **kwargs) -> "ChainParams":
        return dataclasses.replace(self, **kwargs)


# (mu_k, mu_k1) of the four classical Ising configurations, each spin +-1/2
_ISING_SPINS = np.array([[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]])


def cluster_hamiltonian(params: ChainParams) -> np.ndarray:
    """(4, 4, 4) stack of the real-symmetric cluster Hamiltonians, one per
    Ising configuration (mu_k, mu_k1) in the order (1/2, 1/2), (1/2, -1/2),
    (-1/2, 1/2), (-1/2, -1/2).

    H = j2 S1.S2 + j (mu_k + mu_k1)(S1z + S2z) + jm mu_k mu_k1
        - h (S1z + S2z + (mu_k + mu_k1)/2)
    """
    m = _ISING_SPINS.sum(axis=1)[:, None, None]
    prod = _ISING_SPINS.prod(axis=1)[:, None, None]
    return (
        params.j2 * _EXCHANGE
        + (params.j * m - params.h) * _SZ_TOTAL
        + (params.jm * prod - params.h * m / 2.0) * np.eye(4)
    )


def validate_density(rho: np.ndarray, context: str = "density matrix") -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix.

    Eigenvalues in [PSD_FLOOR, 0) are tolerated (clipped later by entropy
    code); anything below PSD_FLOOR raises PositivityViolation.
    """
    rho = np.asarray(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{context}: not square, shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"{context}: not Hermitian (max asymmetry {herm:.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{context}: trace {tr} differs from 1")
    lam_min = float(np.linalg.eigvalsh(rho)[0])
    if lam_min < PSD_FLOOR:
        raise PositivityViolation(
            f"{context}: eigenvalue {lam_min:.3e} below floor {PSD_FLOOR:.0e}"
        )
    return rho


def thermal_state_exact(params: ChainParams) -> np.ndarray:
    """Thermal reduced state (1/Z) sum_config exp(-H(config)/t).

    One spectral decomposition of the Hamiltonian stack gives every
    fixed-configuration Boltzmann operator; all exponents are shifted by the
    global ground energy before exponentiation, and the four operators are
    summed in configuration order.
    """
    evals, vecs = np.linalg.eigh(cluster_hamiltonian(params))
    with np.errstate(over="ignore"):  # the guard below reports the overflow
        shifted = -(evals - evals.min()) / params.t
    if not np.all(np.isfinite(shifted)):
        raise TemperatureTooLow(
            f"Boltzmann exponents not finite at t={params.t} even after shifting"
        )
    rho = ((vecs * np.exp(shifted)[:, None, :]) @ vecs.transpose(0, 2, 1)).sum(axis=0)
    z = float(np.trace(rho))
    if not math.isfinite(z) or z <= 0.0:
        raise TemperatureTooLow(f"degenerate partition sum at t={params.t}")
    rho /= z
    return validate_density(rho, "exact thermal state")


@dataclass(frozen=True)
class ClusterElements:
    """Closed-form Boltzmann weights u, v, w, y and partition function z.

    Values share a common factor exp(largest exponent) that has been divided
    out for overflow safety; every downstream formula (concurrence, theta) is
    homogeneous of degree zero in (u, v, w, y, z), so the scale never matters.
    """

    u: float
    v: float
    w: float
    y: float
    z: float

    def __post_init__(self):
        # strictly positive in exact arithmetic; at extreme gap/temperature
        # ratios the smallest weight flushes to +0.0, which downstream
        # formulas handle (they are continuous at zero weight)
        if self.u < 0.0 or self.v < 0.0 or self.w < 0.0 or self.z <= 0.0:
            raise ValueError(f"weights must be non-negative: u={self.u} v={self.v} w={self.w}")
        if abs(self.z - (self.u + self.v + 2.0 * self.w)) > 1e-12 * self.z:
            raise ValueError("partition function does not equal u + v + 2w")


def _element_terms(params: ChainParams, verbatim_v: bool):
    """(coefficient, exponent) lists for u, v, w, y before the overflow shift."""
    j, j2, jm, h, t = params.j, params.j2, params.jm, params.h, params.t
    q = 1.0 / (4.0 * t)

    u_terms = [
        (2.0, (4.0 * h + jm - j2) * q),
        (1.0, (2.0 * h - jm + 4.0 * j - j2) * q),
        (1.0, (6.0 * h - jm - 4.0 * j - j2) * q),
    ]
    if verbatim_v:
        # keeps the spurious -4j+2j = -2j exchange term in the mixed-Ising part
        b0 = -(6.0 * h + jm + j2 + 4.0 * j) * q
        v_terms = [
            (2.0, b0 + (h + jm - 2.0 * j) / (2.0 * t)),
            (1.0, b0 + (h + 2.0 * j) / t),
            (1.0, b0),
        ]
    else:
        # Hamiltonian-derived v is the field mirror of u
        v_terms = [
            (2.0, (-4.0 * h + jm - j2) * q),
            (1.0, (-2.0 * h - jm + 4.0 * j - j2) * q),
            (1.0, (-6.0 * h - jm - 4.0 * j - j2) * q),
        ]

    g_a = (jm - j2) * q
    g_b = (2.0 * h - jm - j2) * q
    g_c = (-2.0 * h - jm - j2) * q
    e2 = j2 / t
    w_terms = [
        (1.0, g_a + e2), (1.0, g_a),
        (0.5, g_b + e2), (0.5, g_b),
        (0.5, g_c + e2), (0.5, g_c),
    ]
    y_terms = [
        (-1.0, g_a + e2), (1.0, g_a),
        (-0.5, g_b + e2), (0.5, g_b),
        (-0.5, g_c + e2), (0.5, g_c),
    ]
    return u_terms, v_terms, w_terms, y_terms


def boltzmann_elements(params: ChainParams, verbatim_v: bool = False) -> ClusterElements:
    """Evaluate the closed-form cluster weights with shift-and-sum exponentials."""
    u_terms, v_terms, w_terms, y_terms = _element_terms(params, verbatim_v)
    exponents = [a for _, a in u_terms + v_terms + w_terms]
    if not all(math.isfinite(a) for a in exponents):
        raise TemperatureTooLow(f"Boltzmann exponents overflow at t={params.t}")
    shift = max(exponents)

    def total(terms):
        return math.fsum(c * math.exp(a - shift) for c, a in terms)

    u, v, w, y = total(u_terms), total(v_terms), total(w_terms), total(y_terms)
    return ClusterElements(u=u, v=v, w=w, y=y, z=u + v + 2.0 * w)


def _max_deviation(els: ClusterElements, rho_exact: np.ndarray) -> float:
    z = els.z
    return float(max(
        abs(els.u / z - rho_exact[0, 0].real),
        abs(els.w / z - rho_exact[1, 1].real),
        abs(els.y / z - rho_exact[1, 2].real),
        abs(els.v / z - rho_exact[3, 3].real),
    ))


def validate_constructions(params: ChainParams) -> tuple[float, float]:
    """Largest deviation of the closed-form weights (u, w, y, v) from the exact
    state, as (corrected v, verbatim v).

    Deviations are measured on the normalized scale (weights divided by Z
    against density-matrix entries), since the raw weights grow like
    exp(energy/t) and an absolute comparison there would be meaningless.
    """
    rho_exact = thermal_state_exact(params)
    return (_max_deviation(boltzmann_elements(params, verbatim_v=False), rho_exact),
            _max_deviation(boltzmann_elements(params, verbatim_v=True), rho_exact))


def reduced_state(rho: np.ndarray, which: str = "first") -> np.ndarray:
    """Partial trace of a two-qubit state onto one qubit."""
    r = np.asarray(rho).reshape(2, 2, 2, 2)
    if which == "first":
        return np.einsum("abcb->ac", r)
    if which == "second":
        return np.einsum("abad->bd", r)
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")


@dataclass(frozen=True)
class BlochDecomposition:
    """Local Bloch vectors x, yvec and 3x3 correlation matrix r of a two-qubit state."""

    x: np.ndarray
    yvec: np.ndarray
    r: np.ndarray


# sigma_a x sigma_b at index 4a + b, with sigma_0 = I
_PAULI_PRODUCTS = np.array([np.kron(a, b) for a in (IDENTITY_2,) + PAULIS
                            for b in (IDENTITY_2,) + PAULIS])


def bloch_decompose(rho: np.ndarray) -> BlochDecomposition:
    """Pauli expansion coefficients x_i = <sigma_i x I>, y_i = <I x sigma_i>,
    r_ij = <sigma_i x sigma_j>."""
    rho = np.asarray(rho, dtype=complex)
    c = np.trace(rho @ _PAULI_PRODUCTS, axis1=1, axis2=2).real.reshape(4, 4)
    return BlochDecomposition(x=c[1:, 0], yvec=c[0, 1:], r=c[1:, 1:])


def bloch_reconstruct(dec: BlochDecomposition) -> np.ndarray:
    """Rebuild the density matrix from its Pauli expansion (inverse of bloch_decompose)."""
    c = np.block([[np.ones((1, 1)), dec.yvec[None, :]], [dec.x[:, None], dec.r]])
    return np.tensordot(c.ravel(), _PAULI_PRODUCTS, axes=1) / 4.0


@dataclass(frozen=True)
class BellCoeffs:
    """Correlation triple (c1, c2, c3) of a Bell-diagonal state."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for c in (self.c1, self.c2, self.c3):
            if abs(c) > 1.0 + 1e-9:
                raise ValueError(f"Bell coefficient out of range: {c}")

    def as_tuple(self):
        return (self.c1, self.c2, self.c3)


def bell_diagonal_coeffs(rho: np.ndarray, tol: float = 1e-10) -> BellCoeffs:
    """Extract (c1, c2, c3) when the state is Bell diagonal.

    Requires vanishing local Bloch vectors and a diagonal correlation matrix;
    raises NotBellDiagonal otherwise (e.g. for the cluster state at h != 0,
    where the closed trace-norm formula does not apply).
    """
    dec = bloch_decompose(rho)
    off = dec.r - np.diag(np.diag(dec.r))
    residual = max(
        float(np.max(np.abs(dec.x))),
        float(np.max(np.abs(dec.yvec))),
        float(np.max(np.abs(off))),
    )
    if residual > tol:
        raise NotBellDiagonal(
            f"local vectors / off-diagonal correlations reach {residual:.3e} (tol {tol:.0e})"
        )
    return BellCoeffs(float(dec.r[0, 0]), float(dec.r[1, 1]), float(dec.r[2, 2]))
