import math
import tracemalloc

import numpy as np
import pytest

from diamondqc import (
    ChainParams,
    GridSpec,
    bell_diagonal_coeffs,
    gmqd,
    gmqd_variational,
    gqd_1norm_bell,
    gqd_1norm_variational,
    measured_state,
    minimize_conditional_entropy,
    thermal_state_exact,
    validate_density,
)
from diamondqc.model import IDENTITY_2, PAULIS, bloch_decompose
from diamondqc.oracles import (
    _ONE_NORM_GRID,
    _REFINE_OFFSETS,
    _TOP_AXES,
    _axial_conditional_entropy,
    _axis_vectors,
    _coarse_grid,
    _conditional_entropy,
    _projector_pairs,
    _refine,
    minimize_axial_conditional_entropy,
)
from diamondqc.sweep import validation_lattice
from conftest import point

# measurement axes for the classical-quantum reference checks
AXES = [np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8]),
        np.array([1.0, 2.0, -2.0]) / 3.0]


def explicit_projectors(axis):
    ns = sum(n * s for n, s in zip(axis, PAULIS))
    return (IDENTITY_2 + ns) / 2.0, (IDENTITY_2 - ns) / 2.0


class TestGridSpec:
    def test_rejects_coarse_grids(self):
        with pytest.raises(ValueError):
            GridSpec(theta_steps=4)


class TestMeasurementBasis:
    def test_projectors_complete_and_idempotent(self):
        p, m = _projector_pairs(np.array([0.6, 0.0, 0.8]))
        assert np.allclose(p + m, np.eye(2))
        assert np.allclose(p @ p, p)
        assert np.allclose(m @ m, m)
        assert np.allclose(p @ m, 0.0)


class TestConditionalEntropySearch:
    def test_maximally_mixed_gives_one_bit(self, maximally_mixed):
        value, _ = minimize_conditional_entropy(maximally_mixed)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_bell_state_gives_zero(self, bell_state):
        value, _ = minimize_conditional_entropy(bell_state)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_grid_doubling_stability(self):
        rho = thermal_state_exact(point(j=1.0, j2=1.0, t=0.5))
        base, _ = minimize_conditional_entropy(rho, GridSpec())
        fine, _ = minimize_conditional_entropy(rho, GridSpec(128, 256))
        assert abs(base - fine) < 1e-8

    def test_monotone_refinement(self, lattice):
        for p in lattice[:6]:
            rho = thermal_state_exact(p)
            base, _ = minimize_conditional_entropy(rho, GridSpec(16, 32, 20))
            fine, _ = minimize_conditional_entropy(rho, GridSpec(32, 64, 20))
            assert fine <= base + 1e-12

    def test_deterministic(self):
        rho = thermal_state_exact(point(j=0.8, j2=1.1, h=0.6, t=0.4))
        a, axis_a = minimize_conditional_entropy(rho)
        b, axis_b = minimize_conditional_entropy(rho)
        assert a == b
        assert np.array_equal(axis_a, axis_b)


def axial_columns(decs):
    """(N, 1) columns x_z, y_z, R_xx, R_zz of a list of Bloch decompositions."""
    return np.hsplit(np.array([(d.x[2], d.yvec[2], d.r[0, 0], d.r[2, 2]) for d in decs]), 4)


class TestAxialConditionalEntropy:
    def test_bit_identical_to_general_kernel_at_phi_zero(self, lattice):
        thetas = np.concatenate([np.linspace(0.0, math.pi / 2.0, GridSpec().theta_steps),
                                 [1e-9, 0.0123, 0.4, 0.785, 1.1, 1.5707]])
        points = (lattice + [q.replace(h=0.0) for q in lattice]
                  + [q.replace(t=0.02) for q in lattice])
        decs = [bloch_decompose(thermal_state_exact(p)) for p in points]
        general = [_conditional_entropy(dec, _axis_vectors(thetas, 0.0)) for dec in decs]
        batch = _axial_conditional_entropy(*axial_columns(decs), thetas[None, :])
        assert batch.shape == (len(decs), thetas.size)
        for dec, row, expected in zip(decs, batch, general):
            assert np.array_equal(row, expected)
            (single,) = _axial_conditional_entropy(*axial_columns([dec]), thetas[None, :])
            assert np.array_equal(single, expected)

    def test_stacked_search_equals_searches_of_one(self, lattice):
        points = lattice + [q.replace(h=0.0) for q in lattice]
        decs = [bloch_decompose(thermal_state_exact(p)) for p in points]
        values, axes = minimize_axial_conditional_entropy(decs)
        assert values.shape == (len(decs),) and axes.shape == (len(decs), 3)
        for dec, value, axis in zip(decs, values, axes):
            (one,), (one_axis,) = minimize_axial_conditional_entropy([dec])
            assert one == value
            assert np.array_equal(one_axis, axis)

    def test_interior_optimum_of_a_cluster_state(self):
        # the endpoint shortcut (theta = 0 or pi/2 only) misses this minimum
        rho = thermal_state_exact(ChainParams(j=0.4695, j2=-1.839, jm=2.234,
                                              h=0.8015, t=0.3888))
        dec = bloch_decompose(rho)
        (value,), (axis,) = minimize_axial_conditional_entropy([dec])
        assert math.atan2(axis[0], axis[2]) == pytest.approx(0.4498, abs=1e-4)
        assert axis[1] == 0.0
        assert value == pytest.approx(0.367873635594, abs=1e-12)
        (ends,) = _axial_conditional_entropy(*axial_columns([dec]),
                                             np.array([[0.0, math.pi / 2.0]]))
        assert ends.min() - value == pytest.approx(6.44e-5, abs=5e-7)
        assert value == minimize_conditional_entropy(rho)[0]


class TestDephasing:
    def test_measured_state_is_idempotent_fixed_point(self):
        rho = thermal_state_exact(point(j=1.0, j2=1.0, h=0.3, t=0.6))
        axis = np.array([0.0, 0.0, 1.0])
        chi = measured_state(rho, axis)
        validate_density(chi, "dephased state")
        assert np.max(np.abs(measured_state(chi, axis) - chi)) < 1e-14

    def test_matches_explicit_kron_dephasing(self, lattice):
        for p in lattice:
            rho = thermal_state_exact(p)
            for axis in AXES:
                p4s = [np.kron(proj, IDENTITY_2) for proj in explicit_projectors(axis)]
                explicit = sum(p4 @ rho @ p4 for p4 in p4s)
                assert np.max(np.abs(measured_state(rho, axis) - explicit)) < 1e-15


class TestGmqdVariational:
    def test_maximally_mixed(self, maximally_mixed):
        assert gmqd_variational(maximally_mixed) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self, bell_state):
        assert gmqd_variational(bell_state) == pytest.approx(0.5, abs=1e-4)

    def test_matches_closed_form_on_cluster_states(self, lattice):
        for p in lattice[:10]:
            rho = thermal_state_exact(p)
            assert abs(gmqd_variational(rho) - gmqd(rho)) < 1e-4

    def test_variational_is_upper_bound(self, lattice):
        for p in lattice[:10]:
            rho = thermal_state_exact(p)
            assert gmqd_variational(rho) >= gmqd(rho) - 1e-6

    def test_deterministic(self):
        rho = thermal_state_exact(point(j=1.4, j2=0.6, h=0.2, t=0.8))
        assert gmqd_variational(rho) == gmqd_variational(rho)


class TestOneNormVariational:
    def test_classical_state(self, classical_correlated):
        assert gqd_1norm_variational(classical_correlated) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state(self, bell_state):
        assert gqd_1norm_variational(bell_state) == pytest.approx(1.0, abs=1e-3)

    def test_matches_median_above_transition(self):
        rho = thermal_state_exact(point(j=1.5, j2=1.0, t=1e-3))
        med = gqd_1norm_bell(bell_diagonal_coeffs(rho))
        assert abs(gqd_1norm_variational(rho) - med) < 1e-3

    def test_matches_median_on_field_free_lattice(self, lattice):
        for p in lattice[:6]:
            rho = thermal_state_exact(p.replace(h=0.0))
            med = gqd_1norm_bell(bell_diagonal_coeffs(rho))
            assert abs(gqd_1norm_variational(rho) - med) < 1e-3

    def test_deterministic(self):
        rho = thermal_state_exact(point(j=0.9, j2=1.2, t=0.7))
        assert gqd_1norm_variational(rho) == gqd_1norm_variational(rho)

    def test_matches_x_state_closed_form_in_a_field(self, lattice):
        # X states with R = diag(a, a, b), not Bell diagonal at H != 0: their
        # trace-norm discord is |a| (Ciccarello, Tufarelli and Giovannetti,
        # NJP 16, 013038, 2014)
        for p in lattice[:12] + [q.replace(t=0.02) for q in lattice[:8]]:
            assert p.h != 0.0
            rho = thermal_state_exact(p)
            assert abs(gqd_1norm_variational(rho) - abs(bloch_decompose(rho).r[0, 0])) < 1e-12


# Reference searches: the earlier einsum dephasing, the one-start meshgrid
# refinement and the whole-grid coarse stage, kept to pin the faster code.

def reference_measured_state(rho, axis):
    rho = np.asarray(rho, dtype=complex)
    projectors = _projector_pairs(axis)
    blocks = np.einsum("...sae,ebad->...sbd", projectors, rho.reshape(2, 2, 2, 2))
    out = np.einsum("...sac,...sbd->...abcd", projectors, blocks)
    return out.reshape(out.shape[:-4] + (4, 4))


def reference_coarse_grid(spec):
    thetas = np.linspace(0.0, math.pi / 2.0, spec.theta_steps)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * spec.phi_steps, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return tt.ravel(), pp.ravel(), thetas[1] - thetas[0], phis[1] - phis[0]


def reference_refine(objective, value, theta, phi, dt, dp, spec):
    for _ in range(spec.refine_iters):
        lt, lp = np.meshgrid(np.clip(theta + dt * _REFINE_OFFSETS, 0.0, math.pi / 2.0),
                             phi + dp * _REFINE_OFFSETS, indexing="ij")
        vals = objective(_axis_vectors(lt.ravel(), lp.ravel()))
        k = int(np.argmin(vals))
        if vals[k] < value:
            value, theta, phi = float(vals[k]), float(lt.ravel()[k]), float(lp.ravel()[k])
        dt *= 0.5
        dp *= 0.5
    return value, theta, phi


def reference_grid_then_refine(objective, grid):
    flat_t, flat_p, dt, dp = reference_coarse_grid(grid)
    values = objective(_axis_vectors(flat_t, flat_p))
    k = int(np.argmin(values))
    return reference_refine(objective, float(values[k]), float(flat_t[k]), float(flat_p[k]),
                            dt, dp, grid)


def reference_minimize_conditional_entropy(rho):
    dec = bloch_decompose(rho)
    value, theta, phi = reference_grid_then_refine(lambda a: _conditional_entropy(dec, a),
                                                   GridSpec())
    return value, _axis_vectors(theta, phi % (2.0 * math.pi))


def reference_gmqd_variational(rho):
    rho = np.asarray(rho, dtype=complex)

    def objective(axes):
        delta = rho[None, :, :] - reference_measured_state(rho, axes)
        return np.sum(np.abs(delta) ** 2, axis=(1, 2)).real

    return float(reference_grid_then_refine(objective, GridSpec())[0])


def one_norm_objective(rho, dephase):
    rho = np.asarray(rho, dtype=complex)
    return lambda axes: np.sum(np.abs(np.linalg.eigvalsh(rho - dephase(rho, axes))), axis=-1)


def reference_gqd_1norm_variational(rho):
    objective = one_norm_objective(rho, reference_measured_state)
    flat_t, flat_p, dt, dp = reference_coarse_grid(_ONE_NORM_GRID)
    coarse = objective(_axis_vectors(flat_t, flat_p))
    order = np.argsort(coarse, kind="stable")[:_TOP_AXES]
    candidates = [(float(flat_t[k]), float(flat_p[k])) for k in order]
    candidates += [(math.pi / 2.0, 0.0), (math.pi / 2.0, math.pi / 2.0), (0.0, 0.0)]
    return min(reference_refine(objective, float(objective(_axis_vectors(t0, p0))), t0, p0,
                                dt, dp, _ONE_NORM_GRID)[0]
               for t0, p0 in candidates)


@pytest.fixture(scope="module")
def pinned_states():
    """Thermal states of the first 60 lattice points and of their H = 0 and
    T = 0.02 copies."""
    base = validation_lattice(200)[:60]
    points = base + [q.replace(h=0.0) for q in base] + [q.replace(t=0.02) for q in base]
    return [thermal_state_exact(p) for p in points]


class TestPinnedToReferences:
    def test_conditional_entropy_search_is_bit_identical(self, pinned_states):
        for rho in pinned_states:
            value, axis = minimize_conditional_entropy(rho)
            ref_value, ref_axis = reference_minimize_conditional_entropy(rho)
            assert np.array_equal(value, ref_value)
            assert np.array_equal(axis, ref_axis)

    def test_gmqd_variational_matches(self, pinned_states):
        for rho in pinned_states:
            assert abs(gmqd_variational(rho) - reference_gmqd_variational(rho)) <= 1e-15

    def test_one_norm_variational_matches(self, pinned_states):
        # every third state: the three families in turn, 60 states in all
        for rho in pinned_states[::3]:
            assert abs(gqd_1norm_variational(rho)
                       - reference_gqd_1norm_variational(rho)) <= 1e-15

    def test_measured_state_stack_equals_single_axes(self, pinned_states):
        flat_t, flat_p, axes, _, _ = _coarse_grid(_ONE_NORM_GRID)
        for rho in pinned_states:
            stacked = measured_state(rho, axes)
            assert stacked.shape == (len(axes), 4, 4)
            assert np.max(np.abs(stacked - reference_measured_state(rho, axes))) <= 1e-15
            for axis, chi in zip(axes[::37], stacked[::37]):
                assert np.array_equal(measured_state(rho, axis), chi)

    def test_refine_of_k_starts_equals_k_refines_of_one(self, pinned_states):
        flat_t, flat_p, _, dt, dp = _coarse_grid(_ONE_NORM_GRID)
        picks = np.array([0, 5, 77, 300, 623])
        for rho in pinned_states[::3]:
            objective = one_norm_objective(rho, measured_state)
            starts = objective(_axis_vectors(flat_t[picks], flat_p[picks]))
            value, theta, phi = _refine(objective, starts, flat_t[picks], flat_p[picks],
                                        dt, dp, 12)
            for i, k in enumerate(picks):
                one = _refine(objective, starts[i], flat_t[k], flat_p[k], dt, dp, 12)
                assert (value[i], theta[i], phi[i]) == tuple(float(x[0]) for x in one)

    def test_coarse_grid_is_cached_and_read_only(self):
        grid = _coarse_grid(GridSpec())
        assert _coarse_grid(GridSpec()) is grid
        flat_t, flat_p, axes, dt, dp = grid
        ref_t, ref_p, ref_dt, ref_dp = reference_coarse_grid(GridSpec())
        assert np.array_equal(flat_t, ref_t) and np.array_equal(flat_p, ref_p)
        assert np.array_equal(axes, _axis_vectors(ref_t, ref_p))
        assert (dt, dp) == (ref_dt, ref_dp)
        for array in (flat_t, flat_p, axes):
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_gmqd_variational_peak_memory(lattice):
    rho = thermal_state_exact(lattice[3])
    gmqd_variational(rho)  # warm-up: builds the cached coarse grid
    tracemalloc.start()
    try:
        gmqd_variational(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
