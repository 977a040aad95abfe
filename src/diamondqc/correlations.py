"""Correlation measures of the cluster state.

All entropies are in bits (log base 2, 0 log 0 = 0).  Quantum discord here is
always the definitional value: the measurement minimization is delegated to
the deterministic search in :mod:`diamondqc.oracles`.  ``discord_parts``
returns the three entropies and that minimum together; quantum discord,
classical correlation and mutual information are read off it.  The closed binary
entropy shortcut ``min_conditional_entropy_closed`` is exposed as a labeled
fast path only; whenever it exceeds the searched minimum the difference is a
documented deviation of the shortcut, never adopted silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityViolation
from .model import (PSD_FLOOR, BellCoeffs, BlochDecomposition, ClusterElements, SIGMA_Y,
                    bloch_decompose, reduced_state)
from .oracles import minimize_axial_conditional_entropy, minimize_conditional_entropy


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum lambda log2 lambda over the spectrum clipped at zero; an eigenvalue
    below PSD_FLOOR raises PositivityViolation."""
    vals = np.linalg.eigvalsh(np.asarray(rho))
    if float(vals[0]) < PSD_FLOOR:
        raise PositivityViolation(
            f"eigenvalue {vals[0]:.3e} below clipping floor {PSD_FLOOR:.0e}"
        )
    vals = np.clip(vals, 0.0, None)[::-1]
    nz = vals[vals > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def binary_entropy(q: float) -> float:
    total = 0.0
    for p in (q, 1.0 - q):
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def concurrence_closed_form(els: ClusterElements) -> float:
    """(2/Z) max(|y| - sqrt(u v), 0) for the X-shaped cluster state."""
    return max(0.0, 2.0 * (abs(els.y) - math.sqrt(els.u) * math.sqrt(els.v)) / els.z)


_Y4 = np.real(np.kron(SIGMA_Y, SIGMA_Y))  # antidiag(-1, 1, 1, -1)


def concurrence_wootters(rho: np.ndarray) -> float:
    """Spin-flip concurrence max(0, l1 - l2 - l3 - l4) from the spectrum of
    rho (sy x sy) rho* (sy x sy).

    The flipped product is the square of the conjugate-linear map
    v -> (rho.(sy x sy)) conj(v), whose real 8x8 representation has the
    square-rooted eigenvalues directly as +-paired magnitudes.  Reading them
    off the unsquared map keeps absolute accuracy at machine level instead of
    the sqrt-of-roundoff floor that diagonalizing the squared product imposes.
    """
    a = np.asarray(rho, dtype=complex) @ _Y4
    re, im = a.real, a.imag
    t = np.block([[re, im], [im, -re]])
    mags = np.sort(np.abs(np.linalg.eigvals(t)))[::-1]
    lams = mags[::2]  # the conjugate-linear spectrum comes in +- pairs
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def theta_fast(els: ClusterElements) -> float:
    """Shortcut measurement parameter (1/Z) max(|u - w|, |y|)."""
    return max(abs(els.u - els.w), abs(els.y)) / els.z


def min_conditional_entropy_closed(els: ClusterElements) -> float:
    """FAST PATH: binary entropy at the shortcut theta.

    Cross-check against ``oracles.minimize_conditional_entropy`` before
    trusting it: on Bell-diagonal states the searched minimum sits at twice
    this theta, so the shortcut overestimates the conditional entropy there.
    """
    return binary_entropy(0.5 * (1.0 + theta_fast(els)))


@dataclass(frozen=True)
class DiscordParts:
    """Entropies and the minimized conditional entropy at one state."""

    s_joint: float
    s_first: float
    s_second: float
    min_conditional: float
    axis: np.ndarray

    @property
    def mutual_information(self) -> float:
        return self.s_first + self.s_second - self.s_joint

    @property
    def classical_correlation(self) -> float:
        return self.s_second - self.min_conditional

    @property
    def quantum_discord(self) -> float:
        return self.s_first - self.s_joint + self.min_conditional


def is_axially_symmetric(dec: BlochDecomposition) -> bool:
    """Bloch data symmetric about z, exactly: x and yvec along z and
    R = diag(a, a, b).  Every cluster state is of this form (an X state with
    real coherence)."""
    r = dec.r
    return (dec.x[0] == dec.x[1] == dec.yvec[0] == dec.yvec[1] == 0.0
            and np.array_equal(r, np.diag([r[0, 0], r[0, 0], r[2, 2]])))


def discord_parts_batch(rhos) -> list[DiscordParts]:
    """``discord_parts`` of each state in a sequence, in order.

    Each state is decomposed once.  The axially symmetric states share one
    polar-angle search, whose rows are independent, so every state gets the
    value it would get alone; any other state runs the full search of
    ``minimize_conditional_entropy``.
    """
    decs = [bloch_decompose(rho) for rho in rhos]
    axial = [k for k, dec in enumerate(decs) if is_axially_symmetric(dec)]
    searched = [None] * len(decs)
    if axial:
        values, axes = minimize_axial_conditional_entropy([decs[k] for k in axial])
        for k, value, axis in zip(axial, values, axes):
            searched[k] = float(value), axis
    parts = []
    for rho, found in zip(rhos, searched):
        ce, axis = found or minimize_conditional_entropy(rho)
        parts.append(DiscordParts(
            s_joint=von_neumann_entropy(rho),
            s_first=von_neumann_entropy(reduced_state(rho, "first")),
            s_second=von_neumann_entropy(reduced_state(rho, "second")),
            min_conditional=ce,
            axis=axis,
        ))
    return parts


def discord_parts(rho: np.ndarray) -> DiscordParts:
    """Measurement on the first qubit, conditional entropy of the second.

    An axially symmetric state is searched over the polar angle only (its
    axis has phi = 0); any other state runs the full search of
    ``minimize_conditional_entropy``.  The batch of one of
    ``discord_parts_batch``.
    """
    return discord_parts_batch([rho])[0]


def gmqd(rho: np.ndarray) -> float:
    """Closed two-qubit geometric discord (squared Hilbert-Schmidt distance):
    (1/4)(|x|^2 + |R|^2 - k_max), k_max the top eigenvalue of x x^T + R R^T."""
    dec = bloch_decompose(rho)
    k = np.outer(dec.x, dec.x) + dec.r @ dec.r.T
    value = 0.25 * (dec.x @ dec.x + np.sum(dec.r * dec.r) - np.linalg.eigvalsh(k)[-1])
    return float(max(0.0, value))


def gqd_1norm_bell(coeffs: BellCoeffs) -> float:
    """Trace-norm geometric discord of a Bell-diagonal state: the intermediate
    of (|c1|, |c2|, |c3|)."""
    return sorted(abs(c) for c in coeffs.as_tuple())[1]
