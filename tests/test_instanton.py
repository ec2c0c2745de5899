import numpy as np
import pytest

from cos2phi.hamiltonians import UnsupportedBiasError, effective_params
from cos2phi.instanton import (
    ACTION_PLATEAU,
    DAMPING,
    DAMPING_FACTOR,
    _action_and_grad,
    _action_hessian,
    _block_solve,
    _normal_blocks,
    _normal_frames,
    _slow_unstable_direction,
    find_minima,
    mass_matrix,
    path_approx,
    potential,
    potential_gradient,
    minimize,
    potential_hessian,
    reduce_to_effective,
    solve_instanton,
)
from cos2phi.model import BiasPoint, CircuitParams


class TestPotential:
    def test_saddle_plugin(self, canonical, half_flux):
        # at the junction-difference origin with the loop phase at bias,
        # both quadratic terms vanish and the junction term hits cos(pi/2)
        assert potential(canonical, half_flux, (0.0, np.pi, 0.0)) == pytest.approx(0.0)

    def test_reflection_symmetry(self, canonical):
        rng = np.random.default_rng(3)
        for _ in range(20):
            bias = BiasPoint(rng.uniform(0, 4 * np.pi), rng.uniform(0, 1))
            q = rng.uniform(-3, 3, size=3)
            u1 = potential(canonical, bias, q)
            u2 = potential(canonical, bias, (-q[0], q[1], -q[2]))
            assert u1 == pytest.approx(u2, rel=1e-12, abs=1e-12)

    def test_gradient_matches_finite_difference(self, canonical):
        bias = BiasPoint(0.93 * np.pi, 0.0)
        p = canonical.replace(delta_L=0.2, delta_J=0.1)
        rng = np.random.default_rng(5)
        q = np.vstack([[0.3, 2.0, -0.4], rng.uniform(-3, 3, size=(15, 3))])
        g = potential_gradient(p, bias, q)
        h = 1e-6
        for i in range(3):
            dq = np.zeros(3)
            dq[i] = h
            fd = (potential(p, bias, q + dq) - potential(p, bias, q - dq)) / (2 * h)
            assert np.allclose(g[:, i], fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("disorder", [{}, {"delta_L": 0.4, "delta_J": 0.15}])
    def test_batch_matches_scalar_calls(self, canonical, disorder):
        p = canonical.replace(**disorder)
        bias = BiasPoint(0.93 * np.pi, 0.0)
        q = np.random.default_rng(11).uniform(-4, 4, size=(40, 3))
        u = potential(p, bias, q)
        g = potential_gradient(p, bias, q)
        u_rows = [potential(p, bias, row) for row in q]
        g_rows = [potential_gradient(p, bias, row) for row in q]
        h = potential_hessian(p, bias, q)
        h_rows = [potential_hessian(p, bias, row) for row in q]
        assert all(type(v) is float for v in u_rows)
        assert all(v.shape == (3,) for v in g_rows)
        assert all(v.shape == (3, 3) for v in h_rows)
        assert u.shape == (40,) and g.shape == (40, 3) and h.shape == (40, 3, 3)
        assert np.allclose(u, u_rows, rtol=1e-13, atol=1e-13)
        assert np.allclose(g, np.stack(g_rows), rtol=1e-13, atol=1e-13)
        assert np.allclose(h, np.stack(h_rows), rtol=1e-13, atol=1e-13)
        # any leading shape
        assert potential(p, bias, q.reshape(4, 10, 3)).shape == (4, 10)
        assert potential_gradient(p, bias, q.reshape(4, 10, 3)).shape == (4, 10, 3)
        assert potential_hessian(p, bias, q.reshape(4, 10, 3)).shape == (4, 10, 3, 3)

    def test_hessian_matches_finite_difference(self, canonical):
        bias = BiasPoint(np.pi, 0.0)
        p = canonical.replace(delta_L=0.3)
        q = np.array([0.2, 1.5, 0.1])
        H = potential_hessian(p, bias, q)
        h = 1e-5
        for i in range(3):
            dq = np.zeros(3)
            dq[i] = h
            gfd = (
                potential_gradient(p, bias, q + dq)
                - potential_gradient(p, bias, q - dq)
            ) / (2 * h)
            assert np.allclose(H[:, i], gfd, rtol=1e-5, atol=1e-6)


def mirror(q):
    """The half-flux reflection R(vphi, phi, theta) = (pi - vphi, 2 pi - phi, -theta)."""
    q = np.asarray(q, dtype=float)
    return np.stack([np.pi - q[..., 0], 2 * np.pi - q[..., 1], -q[..., 2]], axis=-1)


DISORDER_SETS = [
    {},
    {"delta_J": 0.15},
    {"delta_C": 0.2},
    {"delta_A": 0.1},
    {"delta_L": 0.4},
    {"delta_J": 0.1, "delta_C": 0.2, "delta_L": 0.3},
]


@pytest.mark.parametrize("disorder", DISORDER_SETS)
def test_half_flux_mirror_invariance(canonical, half_flux, disorder):
    p = canonical.replace(**disorder)
    q = np.random.default_rng(7).uniform(-4, 8, size=(50, 3))
    u, u_r = potential(p, half_flux, q), potential(p, half_flux, mirror(q))
    assert np.allclose(u_r, u, rtol=1e-13, atol=1e-13 * p.eps_J)
    # dq . M dq is invariant under the Jacobian J of R, a constant matrix
    J = np.stack([mirror(e) - mirror(np.zeros(3)) for e in np.eye(3)], axis=1)
    M = mass_matrix(p)
    assert np.allclose(J.T @ M @ J, M, rtol=1e-13, atol=1e-13 * np.abs(M).max())


class TestMassMatrix:
    def test_symmetric_limit(self, canonical):
        M = mass_matrix(canonical)
        eC, x = canonical.eps_C, canonical.x
        expect = np.array(
            [
                [1 / (4 * eC) + 1 / (8 * x * eC), 0, 1 / (8 * x * eC)],
                [0, 1 / (16 * eC), 0],
                [1 / (8 * x * eC), 0, 1 / (8 * x * eC)],
            ]
        )
        assert np.allclose(M, expect, rtol=1e-12)

    def test_positive_definite_with_disorder(self, canonical):
        M = mass_matrix(canonical.replace(delta_C=0.5))
        assert np.all(np.linalg.eigvalsh(M) > 0)


class TestMinima:
    def test_half_flux_minima(self, canonical, half_flux):
        m1, m2 = find_minima(canonical, half_flux)
        z = canonical.z
        assert m1[0] == pytest.approx(0.0, abs=1e-8)
        assert m1[1] == pytest.approx(np.pi * z / (1 + z), abs=5e-4)
        assert m2[0] == pytest.approx(np.pi, abs=1e-8)
        assert m2[1] == pytest.approx(np.pi * (2 + z) / (1 + z), abs=5e-4)
        assert abs(m1[2]) < 1e-10 and abs(m2[2]) < 1e-10
        u1 = potential(canonical, half_flux, m1)
        u2 = potential(canonical, half_flux, m2)
        assert abs(u1 - u2) < 1e-9
        # well depth is the junction scale up to the inductive displacement
        assert abs(u1 + 2 * canonical.eps_J) < 4 * canonical.eps_L

    def test_detuning_splits_ridges_linearly(self, canonical):
        diffs = []
        for dphi in (0.05, 0.1):
            m1, m2 = find_minima(canonical, BiasPoint(np.pi - dphi, 0.0))
            u1 = potential(canonical, BiasPoint(np.pi - dphi, 0.0), m1)
            u2 = potential(canonical, BiasPoint(np.pi - dphi, 0.0), m2)
            diffs.append(u2 - u1)
        slope = diffs[1] / 0.1
        assert diffs[1] == pytest.approx(2 * diffs[0], rel=1e-3)
        # exact envelope result: the ridge energies split at eps_L pi/(1+z)
        # per radian; the single-harmonic coefficient overestimates this by
        # the neglected higher odd harmonics (~15%)
        z = canonical.z
        assert slope == pytest.approx(np.pi * canonical.eps_L / (1 + z), rel=1e-3)
        c1_slope = (32.0 / (3 * np.pi)) * canonical.eps_L
        assert slope == pytest.approx(c1_slope, rel=0.16)


class TestPathApprox:
    def test_plugins(self, canonical, half_flux):
        z = canonical.z
        assert path_approx(0.0, half_flux, z) == pytest.approx(np.pi * z / (1 + z))
        assert path_approx(np.pi, half_flux, z) == pytest.approx(
            np.pi * (2 + z) / (1 + z)
        )

    def test_periodicity(self, half_flux):
        z = 1 / 15
        v = np.linspace(-np.pi, np.pi, 41)
        assert np.allclose(
            path_approx(v, half_flux, z), path_approx(v + 2 * np.pi, half_flux, z)
        )


def dense_blocks(D, O):
    """The symmetric block-tridiagonal matrix of diagonal blocks ``D`` and
    blocks ``O`` coupling each to the next, as a dense array."""
    k, n = D.shape[1], len(D)
    A = np.zeros((k * n, k * n))
    for i in range(n):
        A[k * i:k * i + k, k * i:k * i + k] = D[i]
    for i in range(n - 1):
        A[k * i:k * i + k, k * i + k:k * i + 2 * k] = O[i]
        A[k * i + k:k * i + 2 * k, k * i:k * i + k] = O[i].T
    return A


@pytest.fixture(scope="module")
def quick_path(canonical, half_flux):
    return solve_instanton(canonical, half_flux, n_beads=129, max_outer=40)


@pytest.fixture(scope="module")
def plateau_path(canonical, half_flux):
    return solve_instanton(canonical, half_flux, n_beads=385, max_outer=20)


class TestSolveInstanton:

    def test_endpoints_match_minima(self, quick_path, canonical, half_flux):
        m1, m2 = find_minima(canonical, half_flux)
        eps_b = quick_path.endpoint_offset
        assert np.linalg.norm(quick_path.coords[0] - m1) <= eps_b * 1.001
        assert np.linalg.norm(quick_path.coords[-1] - m2) <= eps_b * 1.001

    def test_monotone_time_and_continuity(self, quick_path):
        tau = quick_path.tau
        assert np.all(np.diff(tau) > 0)
        steps = np.linalg.norm(np.diff(quick_path.coords, axis=0), axis=1)
        # beads are equidistributed in the mass metric, so coordinate steps
        # stay bounded by a few mesh units
        assert steps.max() < 0.35

    def test_residual_diagnostics_reported(self, quick_path):
        r = quick_path.residual
        assert {"eom_interior_max", "energy_span", "action_grad_norm", "horizon"} <= set(r)
        # the 129-bead string relaxes to its action plateau, where the
        # discrete action is stationary, and the reconstructed horizon is
        # meaningful
        assert r["action_stop"] is True
        assert r["action_grad_norm"] < 1e-3
        assert np.isfinite(r["eom_interior_max"])
        assert 5.0 < r["horizon"] < 50.0

    def test_action_is_that_of_returned_path(self, quick_path, canonical, half_flux):
        q = quick_path.coords
        U0 = min(potential(canonical, half_flux, m)
                 for m in find_minima(canonical, half_flux))
        dq = np.diff(q, axis=0)
        seg = np.sqrt(np.einsum("ij,jk,ik->i", dq, mass_matrix(canonical), dq))
        umid = potential(canonical, half_flux, 0.5 * (q[1:] + q[:-1]))
        quad = np.sum(np.sqrt(2.0 * np.maximum(umid - U0, 1e-15)) * seg)
        assert quick_path.action == pytest.approx(quad, rel=1e-12)

    def test_eom_defect_matches_pointwise_loop(self, quick_path, canonical, half_flux):
        # reference: the three-point second difference bead by bead
        M = mass_matrix(canonical)
        tau, q = quick_path.tau, quick_path.coords
        resid = np.full(len(tau), np.nan)
        for i in range(1, len(tau) - 1):
            h1, h2 = tau[i] - tau[i - 1], tau[i + 1] - tau[i]
            qdd = 2 * (h1 * q[i + 1] - (h1 + h2) * q[i] + h2 * q[i - 1]) / (
                h1 * h2 * (h1 + h2)
            )
            resid[i] = np.linalg.norm(
                M @ qdd - potential_gradient(canonical, half_flux, q[i])
            )
        interior = (q[:, 0] > 0.2) & (q[:, 0] < np.pi - 0.2)
        r = quick_path.residual
        assert r["eom_interior_max"] == pytest.approx(np.nanmax(resid[interior]), rel=1e-6)
        assert r["eom_median"] == pytest.approx(np.nanmedian(resid), rel=1e-6)

    def test_outer_iterations_reported(self, quick_path):
        r = quick_path.residual
        assert 1 <= r["outer_iterations"] <= 40
        # the loop ends on the relative-action stop or at the cap
        assert r["action_stop"] or r["outer_iterations"] == 40

    def test_action_history(self, quick_path, plateau_path):
        for path in (quick_path, plateau_path):
            r = path.residual
            assert len(r["action_history"]) == r["outer_iterations"]
            assert r["action_history"][-1] == path.action
        # at 385 beads the action settles within a few passes
        r = plateau_path.residual
        assert r["action_stop"] is True
        assert r["outer_iterations"] < 20
        a, b = r["action_history"][-2:]
        assert abs(b - a) <= ACTION_PLATEAU * abs(b)

    def test_outer_cap_reported(self, canonical, half_flux):
        r = solve_instanton(canonical, half_flux, n_beads=33, max_outer=3).residual
        assert r["outer_iterations"] == 3
        assert r["action_stop"] is False

    @pytest.mark.parametrize(
        "disorder", [{}, {"delta_J": 0.1, "delta_C": 0.2, "delta_L": 0.3}]
    )
    def test_string_hessian_matches_finite_difference(
        self, quick_path, canonical, half_flux, disorder
    ):
        # the block-tridiagonal Hessian against central differences of the
        # action gradient, on a perturbed string off the relaxed one
        p = canonical.replace(**disorder)
        M = mass_matrix(p)
        U0 = min(potential(p, half_flux, m) for m in find_minima(p, half_flux))
        q = quick_path.coords
        qa, qb = q[0], q[-1]
        X = q[8:-8:8] + np.random.default_rng(2).normal(scale=0.01, size=(15, 3))
        args = (qa, qb, M, U0, p, half_flux)
        diag, off = _action_hessian(X.ravel(), *args)
        assert diag.shape == (15, 3, 3) and off.shape == (14, 3, 3)
        H = dense_blocks(diag, off)
        h = 1e-6
        fd = np.zeros_like(H)
        for j in range(45):
            e = np.zeros(45)
            e[j] = h
            fd[:, j] = (
                _action_and_grad(X.ravel() + e, *args)[1]
                - _action_and_grad(X.ravel() - e, *args)[1]
            ) / (2 * h)
        assert np.abs(H).max() > 10.0
        assert np.abs(H - fd).max() < 1e-6
        # its projection on the two normal directions per bead, in 2x2 blocks
        N = _normal_frames(np.vstack([qa, X, qb]))
        assert np.allclose(np.einsum("iak,ial->ikl", N, N), np.eye(2), atol=1e-14)
        tan = np.vstack([X[1:], qb]) - np.vstack([qa, X[:-1]])
        assert np.abs(np.einsum("ia,iak->ik", tan, N)).max() < 1e-14
        Nb = np.zeros((45, 30))
        for i in range(15):
            Nb[3 * i:3 * i + 3, 2 * i:2 * i + 2] = N[i]
        A = dense_blocks(*_normal_blocks(diag, off, N))
        assert np.allclose(A, Nb.T @ H @ Nb, rtol=1e-12, atol=1e-12)

    def test_reversal_symmetry(self, quick_path, canonical, half_flux):
        # the action functional is parameterization-reversal invariant, so
        # the reversed bead chain carries the same action
        M = mass_matrix(canonical)
        full = quick_path.coords
        qa, qb = full[0], full[-1]
        U0 = min(
            potential(canonical, half_flux, find_minima(canonical, half_flux)[0]),
            potential(canonical, half_flux, find_minima(canonical, half_flux)[1]),
        )
        a_fwd, _ = _action_and_grad(full[1:-1].ravel(), qa, qb, M, U0, canonical, half_flux)
        a_rev, _ = _action_and_grad(
            full[1:-1][::-1].ravel(), qb, qa, M, U0, canonical, half_flux
        )
        assert a_fwd == pytest.approx(a_rev, rel=1e-12)

    @pytest.mark.parametrize("n_beads", [33, 34])
    def test_half_flux_path_is_mirror_symmetric(self, canonical, half_flux, n_beads):
        q = solve_instanton(canonical, half_flux, n_beads=n_beads, max_outer=3).coords
        assert q.shape == (n_beads + 2, 3)
        assert np.array_equal(q[-1], mirror(q[0]))
        assert np.abs(mirror(q[::-1]) - q).max() <= 1e-12

    @pytest.mark.parametrize(
        "phi_ext", [3 * np.pi, 5 * np.pi, -np.pi, -3 * np.pi, 0.9 * np.pi, 2.8]
    )
    def test_other_biases_rejected(self, canonical, quick_path, monkeypatch, phi_ext):
        # only phi_ext = pi has degenerate minima, mirror images under R; any
        # other bias, at half flux or not, is refused before any minimization
        def no_minimize(*args, **kwargs):
            raise AssertionError("minimization started for an unsupported bias")

        monkeypatch.setattr("cos2phi.instanton.find_minima", no_minimize)
        monkeypatch.setattr("cos2phi.instanton.minimize", no_minimize)
        bias = BiasPoint(phi_ext, 0.0)
        with pytest.raises(UnsupportedBiasError, match="phi_ext = pi"):
            solve_instanton(canonical, bias, n_beads=17, max_outer=2)
        with pytest.raises(UnsupportedBiasError, match="phi_ext = pi"):
            reduce_to_effective(canonical, bias, quick_path)

    def test_z_guard(self, half_flux):
        with pytest.warns(UserWarning):
            bad = CircuitParams(eps_J=2.0, eps_C=2.0, eps_L=1.0, x=0.02)
        with pytest.raises(ValueError):
            solve_instanton(bad, half_flux, n_beads=16, max_outer=2)

    @pytest.mark.parametrize("n_beads", [1, 0, -5])
    def test_no_free_bead_rejected(self, canonical, half_flux, n_beads):
        with pytest.raises(ValueError, match="n_beads must be at least 2"):
            solve_instanton(canonical, half_flux, n_beads=n_beads, max_outer=2)

    def test_two_beads_solved(self, canonical, half_flux):
        # the smallest string: one free bead and its mirror image
        path = solve_instanton(canonical, half_flux, n_beads=2, max_outer=5)
        assert path.coords.shape == (4, 3)
        assert np.isfinite(path.action) and path.action > 0


def _newton_system(path, p, bias, noise):
    """(D, O, rhs, args) of the Newton step on the beads of ``path``, each
    moved by Gaussian ``noise``, for the circuit ``p``."""
    M = mass_matrix(p)
    U0 = min(potential(p, bias, m) for m in find_minima(p, bias))
    q = path.coords
    qa, qb = q[0], q[-1]
    X = q[1:-1] + np.random.default_rng(2).normal(scale=noise, size=q[1:-1].shape)
    args = (qa, qb, M, U0, p, bias)
    _, grad = _action_and_grad(X.ravel(), *args)
    diag, off = _action_hessian(X.ravel(), *args)
    N = _normal_frames(np.vstack([qa, X, qb]))
    rhs = -np.einsum("iak,ia->ik", N, grad.reshape(-1, 3))
    return (*_normal_blocks(diag, off, N), rhs, X, args)


class TestNewtonKernel:
    @pytest.mark.parametrize(
        "disorder", [{}, {"delta_J": 0.1}, {"delta_C": 0.2}, {"delta_L": 0.3},
                     {"delta_J": 0.1, "delta_C": 0.2, "delta_L": 0.3}]
    )
    def test_block_solve_matches_dense(self, quick_path, canonical, half_flux,
                                       disorder):
        p = canonical.replace(**disorder)
        D, O, rhs, _, _ = _newton_system(quick_path, p, half_flux, 0.01)
        A = dense_blocks(D, O)
        # damped into the positive definite range the step is solved in
        damping = max(DAMPING, 1.0 - np.linalg.eigvalsh(A).min())
        y = _block_solve(D + damping * np.eye(2), O, rhs)
        ref = np.linalg.solve(A + damping * np.eye(len(A)), rhs.ravel())
        assert y.shape == rhs.shape
        assert np.abs(y.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_single_bead(self):
        D = np.array([[[4.0, 1.0], [1.0, 3.0]]])
        y = _block_solve(D, np.zeros((0, 2, 2)), np.array([[1.0, 2.0]]))
        assert np.allclose(y[0], np.linalg.solve(D[0], [1.0, 2.0]), rtol=1e-15)

    def test_indefinite_system_takes_damping_path(self, quick_path, canonical,
                                                  half_flux):
        # a string well off the relaxed one has negative normal curvature
        D, O, rhs, X, args = _newton_system(quick_path, canonical, half_flux, 0.1)
        lam = np.linalg.eigvalsh(dense_blocks(D, O)).min()
        assert lam < -DAMPING
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _block_solve(D + DAMPING * np.eye(2), O, rhs)
        # the pass damps past the negative curvature, then takes a step
        # that lowers the action
        X2, damping = minimize(X, *args, DAMPING)
        assert damping * DAMPING_FACTOR > -lam
        before, after = (_action_and_grad(Y.ravel(), *args)[0] for Y in (X, X2))
        assert after < before

    @pytest.mark.parametrize(
        "disorder", [{}, {"delta_J": 0.1, "delta_C": 0.2, "delta_L": 0.3}]
    )
    def test_slow_unstable_direction_matches_scipy(self, canonical, half_flux,
                                                   disorder):
        import scipy.linalg as sla

        p = canonical.replace(**disorder)
        for m in find_minima(p, half_flux):
            d = _slow_unstable_direction(p, half_flux, m)
            w2, V = sla.eigh(potential_hessian(p, half_flux, m), mass_matrix(p))
            ref = V[:, int(np.argmin(w2))]
            ref /= np.linalg.norm(ref)
            assert np.linalg.norm(d) == pytest.approx(1.0, rel=1e-15)
            assert min(np.abs(d - ref).max(), np.abs(d + ref).max()) <= 1e-12


class TestReduction:
    def test_odd_harmonics_vanish_at_half_flux(self, canonical, half_flux):
        ep = reduce_to_effective(canonical, half_flux, "approx")
        assert abs(ep.c1) <= 1e-10
        assert abs(ep.c3) <= 1e-10

    def test_c2_c4_match_printed_expansion(self, canonical, half_flux):
        ep = reduce_to_effective(canonical, half_flux, "approx")
        printed = effective_params(canonical, half_flux, "extended")
        assert ep.c2 == pytest.approx(printed.c2, rel=5e-3)
        assert ep.c4 == pytest.approx(printed.c4, rel=5e-2)

    def test_harmonic_decay_in_z(self, half_flux):
        for z in (0.03, 0.08, 0.12, 0.2):
            p = CircuitParams(eps_J=1.0 / z, eps_C=2.0, eps_L=1.0, x=0.02)
            ep = reduce_to_effective(p, half_flux, "approx")
            assert abs(ep.c4 / ep.c2) <= 3 * z

    def test_off_bias_single_harmonic(self, canonical):
        bias = BiasPoint(0.9 * np.pi, 0.0)
        ep = reduce_to_effective(canonical, bias, "approx")
        printed = effective_params(canonical, bias, "extended")
        assert ep.c1 == pytest.approx(printed.c1, rel=1e-2)
        assert ep.c3 == pytest.approx(printed.c3, rel=5e-2)
