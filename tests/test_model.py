import math

import numpy as np
import pytest

from diamondqc import (
    ChainParams,
    NotBellDiagonal,
    PositivityViolation,
    TemperatureTooLow,
    bell_diagonal_coeffs,
    bloch_decompose,
    bloch_reconstruct,
    boltzmann_elements,
    cluster_hamiltonian,
    reduced_state,
    thermal_state_exact,
    validate_constructions,
    validate_density,
)
from diamondqc.model import SIGMA_X, SIGMA_Y, SIGMA_Z
from conftest import point


# stack index of each Ising configuration (mu_k, mu_k1)
CONFIG_INDEX = {(0.5, 0.5): 0, (0.5, -0.5): 1, (-0.5, 0.5): 2, (-0.5, -0.5): 3}

# S1.S2 and S1z + S2z in the product basis |00>,|01>,|10>,|11>
EXCHANGE = 0.25 * np.array([[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 2.0, 0.0],
                            [0.0, 2.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
SZ_TOTAL = np.diag([1.0, 0.0, 0.0, -1.0])


def reference_hamiltonian(p, mu_k, mu_k1):
    """The docstring formula for one Ising configuration, written out."""
    m = mu_k + mu_k1
    return (p.j2 * EXCHANGE + (p.j * m - p.h) * SZ_TOTAL
            + (p.jm * (mu_k * mu_k1) - p.h * m / 2.0) * np.eye(4))


def reference_thermal_state(p):
    """Per-configuration trace-out: four eigh calls, accumulated in stack order."""
    spectra = [np.linalg.eigh(reference_hamiltonian(p, *mu)) for mu in CONFIG_INDEX]
    e_min = min(float(evals[0]) for evals, _ in spectra)
    rho = np.zeros((4, 4))
    for evals, vecs in spectra:
        rho += (vecs * np.exp(-(evals - e_min) / p.t)) @ vecs.T
    return rho / float(np.trace(rho))


class TestClusterHamiltonian:
    def test_all_couplings_off(self):
        h4 = cluster_hamiltonian(point(j=0, j2=0, jm=0, h=0))[CONFIG_INDEX[0.5, -0.5]]
        assert np.allclose(h4, 0.0)

    def test_isotropic_dimer_spectrum(self):
        # pure Heisenberg exchange: triplet at j2/4, singlet at -3 j2/4
        h4 = cluster_hamiltonian(point(j2=1.0))[CONFIG_INDEX[-0.5, 0.5]]
        evals = np.sort(np.linalg.eigvalsh(h4))
        assert np.allclose(evals, [-0.75, 0.25, 0.25, 0.25])

    def test_polarized_diagonal_entry(self):
        # hand evaluation term by term for the S^z-total = +1 entry
        h4 = cluster_hamiltonian(ChainParams(1.0, 1.0, 0.5, 0.2, 1.0))[CONFIG_INDEX[0.5, 0.5]]
        assert h4[0, 0] == pytest.approx(0.25 + 1.0 + 0.125 - 0.3, abs=1e-15)

    def test_real_symmetric(self):
        stack = cluster_hamiltonian(ChainParams(0.7, -1.2, 2.1, -0.4, 0.3))
        assert stack.shape == (4, 4, 4)
        for h4 in stack:
            assert np.allclose(h4, h4.T)
            assert np.isrealobj(h4)

    def test_stack_matches_per_configuration_reference(self, lattice):
        points = (lattice + [p.replace(h=0.0) for p in lattice]
                  + [p.replace(t=0.02) for p in lattice])
        for p in points:
            stack = cluster_hamiltonian(p)
            for mu, k in CONFIG_INDEX.items():
                assert np.array_equal(stack[k], reference_hamiltonian(p, *mu))
            assert np.array_equal(thermal_state_exact(p), reference_thermal_state(p))


class TestThermalState:
    def test_infinite_temperature_limit(self):
        rho = thermal_state_exact(point(j=1, j2=1, jm=1, h=1, t=1e6))
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-5

    def test_no_exchange_means_no_coherence(self):
        rho = thermal_state_exact(point(j=0.8, j2=0.0, jm=0.5, h=0.3, t=0.7))
        off = rho - np.diag(np.diag(rho))
        assert np.max(np.abs(off)) < 1e-15

    def test_x_sparsity_pattern(self):
        rho = thermal_state_exact(point(j=1.2, j2=-0.7, jm=1.1, h=0.9, t=0.4))
        mask = np.ones((4, 4), dtype=bool)
        for i, k in [(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)]:
            mask[i, k] = False
        assert np.max(np.abs(rho[mask])) < 1e-12

    def test_matches_closed_form(self):
        for p in (point(j=1, j2=1, t=0.5), ChainParams(1.0, 1.0, 0.5, 0.3, 0.7)):
            exact = thermal_state_exact(p)
            els = boltzmann_elements(p)
            closed = np.array([[els.u, 0.0, 0.0, 0.0],
                               [0.0, els.w, els.y, 0.0],
                               [0.0, els.y, els.w, 0.0],
                               [0.0, 0.0, 0.0, els.v]]) / els.z
            validate_density(closed, "closed-form thermal state")
            assert np.max(np.abs(exact - closed)) < 1e-12

    def test_temperature_guard(self):
        with pytest.raises(TemperatureTooLow):
            ChainParams(1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(TemperatureTooLow):
            ChainParams(1.0, 1.0, 0.0, 0.0, -0.2)

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError):
            ChainParams(math.inf, 1.0, 0.0, 0.0, 1.0)

    def test_density_validation(self):
        bad = np.diag([0.6, 0.5, 0.0, -0.1])
        with pytest.raises(PositivityViolation):
            validate_density(bad)
        with pytest.raises(ValueError):
            validate_density(np.diag([0.7, 0.3, 0.0, 0.1]))  # trace 1.1


class TestBoltzmannElements:
    def test_no_exchange_kills_y(self):
        els = boltzmann_elements(point(j=1.0, j2=0.0, jm=0.4, h=0.2, t=0.9))
        assert els.y == 0.0

    def test_field_free_symmetry(self):
        els = boltzmann_elements(point(j=0.0, j2=1.0, t=1.0))
        assert els.u == pytest.approx(els.v, rel=1e-14)
        assert els.z == pytest.approx(els.u + els.v + 2 * els.w, rel=1e-14)

    def test_y_sign_follows_exchange(self):
        assert boltzmann_elements(point(j2=1.0)).y < 0.0
        assert boltzmann_elements(point(j2=-1.0)).y > 0.0
        assert boltzmann_elements(point(j2=0.0)).y == 0.0

    def test_elements_match_exact_traceout(self):
        p = ChainParams(1.0, 1.0, 0.5, 0.3, 0.7)
        els = boltzmann_elements(p)
        rho = thermal_state_exact(p)
        assert abs(els.u / els.z - rho[0, 0]) < 1e-12
        assert abs(els.w / els.z - rho[1, 1]) < 1e-12
        assert abs(els.y / els.z - rho[1, 2]) < 1e-12

    def test_overflow_safe_at_tiny_temperature(self):
        els = boltzmann_elements(point(j=1.0, j2=1.0, t=1e-6))
        assert math.isfinite(els.z) and els.z > 0.0

    def test_denormal_temperature_rejected(self):
        p = point(j=1.0, j2=1.0, t=5e-324)  # exponents overflow to inf
        with pytest.raises(TemperatureTooLow):
            boltzmann_elements(p)
        with pytest.raises(TemperatureTooLow):
            thermal_state_exact(p)


class TestConstructionCheck:
    def test_both_variants_agree_at_j_zero(self):
        corrected, verbatim = validate_constructions(ChainParams(0.0, 1.3, 0.8, -0.9, 0.4))
        assert corrected <= 1e-12 and verbatim <= 1e-12

    def test_verbatim_misprint_detected(self):
        p = ChainParams(1.0, 1.0, 0.0, 0.5, 0.5)
        corrected, verbatim = validate_constructions(p)
        assert corrected <= 1e-12
        assert verbatim > 1e-12
        assert verbatim > 1e-6
        els = boltzmann_elements(p, verbatim_v=True)
        assert abs(els.v / els.z - thermal_state_exact(p)[3, 3]) > 0.0

    def test_high_temperature_all_agree_loosely(self):
        corrected, verbatim = validate_constructions(ChainParams(1.0, 1.0, 0.5, 0.5, 1e6))
        assert corrected < 1e-5
        assert verbatim < 1e-5


class TestReducedState:
    def test_maximally_mixed(self, maximally_mixed):
        assert np.allclose(reduced_state(maximally_mixed, "first"), np.eye(2) / 2)
        assert np.allclose(reduced_state(maximally_mixed, "second"), np.eye(2) / 2)

    def test_pure_product(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        expected = np.diag([1.0, 0.0])
        assert np.allclose(reduced_state(rho, "first"), expected)
        assert np.allclose(reduced_state(rho, "second"), expected)

    def test_field_free_marginals_are_maximally_mixed(self):
        rho = thermal_state_exact(point(j=1.4, j2=0.8, jm=1.7, t=0.3))
        for which in ("first", "second"):
            assert np.max(np.abs(reduced_state(rho, which) - np.eye(2) / 2)) < 1e-12

    def test_bad_subsystem_name(self, maximally_mixed):
        with pytest.raises(ValueError):
            reduced_state(maximally_mixed, "third")


class TestBlochDecomposition:
    def test_maximally_mixed(self, maximally_mixed):
        dec = bloch_decompose(maximally_mixed)
        assert np.allclose(dec.x, 0) and np.allclose(dec.yvec, 0) and np.allclose(dec.r, 0)

    def test_bell_state(self, bell_state):
        dec = bloch_decompose(bell_state)
        assert np.allclose(dec.x, 0) and np.allclose(dec.yvec, 0)
        assert np.allclose(dec.r, np.diag([1.0, -1.0, 1.0]))

    def test_field_free_cluster_matches_weights(self):
        p = point(j=0.7, j2=1.0, t=0.8)
        els = boltzmann_elements(p)
        dec = bloch_decompose(thermal_state_exact(p))
        c1 = 2.0 * els.y / els.z
        c3 = 1.0 - 4.0 * els.w / els.z
        assert np.allclose(dec.r, np.diag([c1, c1, c3]), atol=1e-12)

    def test_reconstruction_roundtrip(self, lattice):
        for p in lattice[:20]:
            rho = thermal_state_exact(p)
            dec = bloch_decompose(rho)
            assert np.max(np.abs(bloch_reconstruct(dec) - rho)) < 1e-12
            assert np.max(np.abs(dec.x)) <= 1.0 + 1e-12
            assert np.max(np.abs(dec.r)) <= 1.0 + 1e-12
        # every coefficient is bit-identical to its explicit Pauli trace
        paulis = (np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z)
        for p in lattice + [q.replace(h=0.0) for q in lattice]:
            rho = thermal_state_exact(p)
            dec = bloch_decompose(rho)
            full = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in paulis]
                             for si in paulis])
            assert np.array_equal(dec.x, full[1:, 0])
            assert np.array_equal(dec.yvec, full[0, 1:])
            assert np.array_equal(dec.r, full[1:, 1:])


class TestBellCoeffs:
    def test_field_free_succeeds_with_equal_transverse(self):
        c = bell_diagonal_coeffs(thermal_state_exact(point(j=1.0, j2=1.0, t=1.0)))
        assert c.c1 == pytest.approx(c.c2, abs=1e-12)

    def test_nonzero_field_rejected(self):
        rho = thermal_state_exact(point(j=1.0, j2=1.0, h=0.5, t=1.0))
        with pytest.raises(NotBellDiagonal):
            bell_diagonal_coeffs(rho)

    def test_maximally_mixed(self, maximally_mixed):
        c = bell_diagonal_coeffs(maximally_mixed)
        assert c.as_tuple() == (0.0, 0.0, 0.0)


class TestSymmetries:
    def test_swap_invariance(self, lattice):
        for p in lattice[:12]:
            rho = thermal_state_exact(p)
            swapped = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            assert np.max(np.abs(swapped - rho)) < 1e-12

    def test_j_sign_symmetry_field_free(self, lattice):
        for p in lattice[:12]:
            p0 = p.replace(h=0.0)
            a = thermal_state_exact(p0)
            b = thermal_state_exact(p0.replace(j=-p0.j))
            assert np.max(np.abs(a - b)) < 1e-12

    def test_construction_equivalence_on_lattice(self, lattice):
        worst_corr = 0.0
        worst_verb = 0.0
        for p in lattice[:40]:
            corrected, verbatim = validate_constructions(p)
            worst_corr = max(worst_corr, corrected)
            worst_verb = max(worst_verb, verbatim)
        assert worst_corr < 1e-12
        assert worst_verb > 1e-8  # the verbatim v misprint must be visible
