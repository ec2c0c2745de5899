"""Output checks for the benchmark workloads.

Each check reads what one ``cos2phi`` invocation wrote and returns a list of
failure messages, empty when the output is right.  The references are
computed here, apart from the program: the golden-rule rate sums, the
acceptance windows around the paper's lifetimes, the classical action of the
tunneling path by midpoint quadrature, the half-flux reflection symmetry,
and a dense LAPACK diagonalization of the circuit Hamiltonian.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import yaml

T1_CHANNELS = ("capacitive", "inductive", "purcell", "quasiparticle")
TPHI_CHANNELS = ("charge", "critical_current", "flux", "shot")

#: relative tolerance for identities that hold up to floating-point rounding
REL_EXACT = 1e-12
#: factor-2 windows of the acceptance gate around the paper's values (ms)
CHARGE_TPHI_WINDOW = (74.0 / 2, 74.0 * 2)
PURCELL_T1_WINDOW = (380.0 / 2, 380.0 * 2)
#: stored Krylov energies against dense LAPACK eigenvalues (GHz)
DENSE_ENERGY_TOL = 1e-7
#: reported action against the quadrature of the written path (relative); the
#: program reports the action of the string before its last arc-length
#: redistribution, which moves it by about 5e-8
ACTION_REL_TOL = 1e-6
PATH_DEVIATION_MAX = 0.15  # rad, interior loop-phase deviation from the analytic path
INTERIOR_MARGIN = 0.3      # rad, interior means margin < vphi < pi - margin
SYMMETRY_TOL = 2e-3        # rad, half-flux reflection of the written path
C2_REL_TOL = 0.03          # Fourier c2 against the extended closed form
ODD_HARMONIC_MAX = 1e-3    # |c1|, |c3| relative to |c2|


# ---------------------------------------------------------------------------
# reading program output
# ---------------------------------------------------------------------------

def load_config(path: str | Path) -> dict:
    with open(path) as fh:
        return yaml.safe_load(fh)


def read_coherence_csv(path: str | Path) -> dict[tuple[str, str], float]:
    """``{(type, channel): time_ms}`` from a ``coherence.csv``."""
    rows: dict[tuple[str, str], float] = {}
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "type,channel,time_ms":
        raise ValueError(f"{path}: unexpected header {lines[:1]}")
    for ln in lines[1:]:
        kind, channel, value = ln.split(",")
        rows[(kind, channel)] = float(value)
    return rows


def read_path_csv(path: str | Path) -> np.ndarray:
    """Columns (tau, vphi, phi, theta) of an ``instanton_path.csv``."""
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    if lines[0].strip() != "tau,vphi,phi,theta":
        raise ValueError(f"{path}: unexpected header {lines[0].strip()!r}")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def stored_solutions(store: str | Path) -> list[np.ndarray]:
    """Energies of every diagonalization kept in a solution store."""
    out = []
    for f in sorted(Path(store).rglob("*.npz")):
        with np.load(f, allow_pickle=False) as data:
            out.append(np.asarray(data["energies"], dtype=float))
    return out


# ---------------------------------------------------------------------------
# coherence budget
# ---------------------------------------------------------------------------

def _rel_close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _combine(times) -> float:
    rate = sum(0.0 if math.isinf(t) else 1.0 / t for t in times)
    return math.inf if rate == 0.0 else 1.0 / rate


def check_budget(rows: dict) -> list[str]:
    """Every channel present, positive, and the totals their rate sums."""
    errors = []
    need = [("T1", c) for c in T1_CHANNELS] + [("Tphi", c) for c in TPHI_CHANNELS]
    need += [("T1", "total"), ("Tphi", "total"), ("T2", "total")]
    missing = [k for k in need if k not in rows]
    if missing:
        return [f"coherence.csv lacks rows {missing}"]
    for key, v in rows.items():
        if not v > 0:
            errors.append(f"{key} = {v} is not a positive time")
    t1 = _combine(rows[("T1", c)] for c in T1_CHANNELS)
    tphi = _combine(rows[("Tphi", c)] for c in TPHI_CHANNELS)
    rate2 = (0.0 if math.isinf(t1) else 0.5 / t1) + (
        0.0 if math.isinf(tphi) else 1.0 / tphi
    )
    t2 = math.inf if rate2 == 0.0 else 1.0 / rate2
    for name, ours in (("T1", t1), ("Tphi", tphi), ("T2", t2)):
        theirs = rows[(name, "total")]
        if not _rel_close(ours, theirs, REL_EXACT):
            errors.append(f"{name} total {theirs!r} != combined channels {ours!r}")
    return errors


def check_operated(rows: dict) -> list[str]:
    """Coherence budget at the operated point (delta_L = 0.6)."""
    errors = check_budget(rows)
    if errors:
        return errors
    qp = rows[("T1", "quasiparticle")]
    if not math.isinf(qp):
        errors.append(f"quasiparticle T1 = {qp} ms, parity protection makes it inf")
    lo, hi = CHARGE_TPHI_WINDOW
    charge = rows[("Tphi", "charge")]
    if not lo <= charge <= hi:
        errors.append(f"charge Tphi {charge} ms outside [{lo}, {hi}] around 74 ms")
    lo, hi = PURCELL_T1_WINDOW
    purcell = rows[("T1", "purcell")]
    if not lo <= purcell <= hi:
        errors.append(f"Purcell T1 {purcell} ms outside [{lo}, {hi}] around 380 ms")
    return errors


def check_runlog(runlog: dict) -> list[str]:
    """A cold run diagonalizes at least once."""
    n = runlog.get("diagonalizations")
    if not isinstance(n, int) or n < 1:
        return [f"cold run log counts {n!r} diagonalizations"]
    return []


# ---------------------------------------------------------------------------
# dense reference diagonalization
# ---------------------------------------------------------------------------

def charge_reflection_basis(N0: int) -> np.ndarray:
    """Unitary on the charge index mapping |N> to (|N> +- |-N>)/sqrt 2.

    Columns are |0>, then for N = 1..N0 the pair (|N> + |-N>)/sqrt 2 and
    i (|N> - |-N>)/sqrt 2.  These are invariant under charge reflection
    combined with complex conjugation, the antiunitary symmetry of the
    circuit at N_g = 0, so the Hamiltonian is real in this basis.
    """
    n = 2 * N0 + 1
    C = np.zeros((n, n), dtype=complex)
    C[N0, 0] = 1.0
    r = 1.0 / math.sqrt(2.0)
    for N in range(1, N0 + 1):
        C[N0 + N, 2 * N - 1] = C[N0 - N, 2 * N - 1] = r
        C[N0 + N, 2 * N] = 1j * r
        C[N0 - N, 2 * N] = -1j * r
    return C


def dense_lowest(H, N0: int, k: int) -> np.ndarray:
    """Lowest k eigenvalues of a sparse Hermitian H by dense LAPACK ``eigh``.

    H acts on |N p q> with the charge index outermost.  The diagonalization
    runs on the real matrix of H in the charge-reflection basis when that
    matrix is real to rounding, which is four times cheaper, and on the
    complex matrix otherwise.
    """
    import scipy.linalg as sla
    import scipy.sparse as sp

    rest = H.shape[0] // (2 * N0 + 1)
    U = sp.kron(sp.csr_matrix(charge_reflection_basis(N0)), sp.identity(rest),
                format="csr")
    Hr = (U.conj().T @ H @ U).toarray()
    if np.abs(Hr.imag).max() <= 1e-13 * np.abs(Hr).max():
        Hr = np.ascontiguousarray(Hr.real)
    return sla.eigh(Hr, eigvals_only=True, subset_by_index=[0, k - 1])


def check_stored_energies(stored: list[np.ndarray], reference: np.ndarray) -> list[str]:
    """The store holds the operating-point solve, equal to the dense one."""
    k = len(reference)
    matches = [e for e in stored if len(e) == k]
    if not matches:
        return [f"no stored solution with {k} energies"]
    errors = []
    for e in matches:
        dev = float(np.abs(e - reference).max())
        if dev > DENSE_ENERGY_TOL:
            errors.append(f"stored energies {e} differ from dense LAPACK "
                          f"{reference} by {dev:.2e} GHz")
    return errors


# ---------------------------------------------------------------------------
# instanton: classical mechanics of the circuit, written out independently
# ---------------------------------------------------------------------------

class Circuit:
    """Classical potential and mass matrix in (vphi, phi, theta).

    U = eL' [(phi - phi_ext)^2 / 4 + theta^2] + eL' dL (phi - phi_ext) theta
        - eJ cos(phi/2 + vphi) - eJ cos(phi/2 - vphi),  eL' = eL / (1 - dL^2);
    the mass matrix inverts the charging-energy Hessian in (N, n, eta).
    Junction and capacitive disorder are not covered.
    """

    def __init__(self, cfg: dict):
        c = cfg["circuit"]
        for key in ("delta_J", "delta_C", "delta_A"):
            if c.get(key, 0.0):
                raise ValueError(f"{key} is not covered by the reference mechanics")
        self.eJ, self.eC = float(c["eps_J"]), float(c["eps_C"])
        self.eL, self.x = float(c["eps_L"]), float(c["x"])
        self.dL = float(c.get("delta_L", 0.0))
        self.phi_ext = float(cfg["bias"]["phi_ext"])
        self.z = self.eL / self.eJ
        eC, xeC = self.eC, self.x * self.eC
        Hpp = np.array([[4 * eC, 0.0, -4 * eC],
                        [0.0, 16 * eC, 0.0],
                        [-4 * eC, 0.0, 4 * eC + 8 * xeC]])
        self.M = np.linalg.inv(Hpp)

    def potential(self, q: np.ndarray) -> np.ndarray:
        v, p, t = q[..., 0], q[..., 1], q[..., 2]
        eL = self.eL / (1.0 - self.dL**2)
        d = p - self.phi_ext
        return (eL * (0.25 * d**2 + t**2) + eL * self.dL * d * t
                - self.eJ * np.cos(0.5 * p + v) - self.eJ * np.cos(0.5 * p - v))

    def gradient(self, q: np.ndarray) -> np.ndarray:
        v, p, t = q[..., 0], q[..., 1], q[..., 2]
        eL = self.eL / (1.0 - self.dL**2)
        d = p - self.phi_ext
        s1, s2 = np.sin(0.5 * p + v), np.sin(0.5 * p - v)
        return np.stack([self.eJ * (s1 - s2),
                         0.5 * eL * d + eL * self.dL * t + 0.5 * self.eJ * (s1 + s2),
                         2.0 * eL * t + eL * self.dL * d], axis=-1)

    def action(self, q: np.ndarray, u0: float) -> float:
        """Midpoint quadrature of sum sqrt(2 (U - U0)) sqrt(dq . M dq)."""
        dq = np.diff(q, axis=0)
        mid = 0.5 * (q[1:] + q[:-1])
        seg = np.sqrt(np.einsum("ij,jk,ik->i", dq, self.M, dq))
        return float(np.sum(np.sqrt(2.0 * np.maximum(self.potential(mid) - u0, 1e-15))
                            * seg))

    def analytic_phi(self, vphi: np.ndarray) -> np.ndarray:
        """Piecewise-linear loop phase (2 |vphi| + z phi_ext) / (1 + z), folded."""
        fold = vphi - 2 * np.pi * np.round(vphi / (2 * np.pi))
        return (2.0 * np.abs(fold) + self.z * self.phi_ext) / (1.0 + self.z)

    def analytic_path(self, qa: np.ndarray, qb: np.ndarray, n: int) -> np.ndarray:
        """The piecewise path between two clamped ends: vphi and theta linear."""
        s = np.linspace(0.0, 1.0, n)
        v = qa[0] + (qb[0] - qa[0]) * s
        return np.stack([v, self.analytic_phi(v), qa[2] + (qb[2] - qa[2]) * s], axis=1)

    def c2_closed_form(self) -> float:
        """Extended closed-form cos(2 vphi) coefficient of the reduced model."""
        f = np.pi - abs(self.phi_ext - 4 * np.pi * round(self.phi_ext / (4 * np.pi)))
        z = self.z
        return -self.eJ * (1.0 - 1.25 * z + (81.0 - 2 * np.pi**2 - 6 * f**2) * z**2 / 48.0)


def check_instanton(circuit: Circuit, samples: np.ndarray, report: dict) -> list[str]:
    """Tunneling path and its reduction against the reference mechanics."""
    errors = []
    q = samples[:, 1:4]
    if q.shape[0] < 3 or not np.all(np.isfinite(q)):
        return [f"path has {q.shape[0]} rows or non-finite entries"]
    minima = [np.asarray(m, dtype=float) for m in report["endpoints"]]
    for m in minima:
        g = float(np.abs(circuit.gradient(m)).max())
        if g > 1e-6:
            errors.append(f"endpoint {m} is no potential minimum: |grad U| = {g:.1e}")
    u0 = float(min(circuit.potential(m) for m in minima))

    action = float(report["action"])
    ours = circuit.action(q, u0)
    if abs(ours - action) > ACTION_REL_TOL * abs(action):
        errors.append(f"reported action {action!r} != path quadrature {ours!r}")
    analytic = circuit.action(circuit.analytic_path(q[0], q[-1], q.shape[0]), u0)
    if not action < analytic:
        errors.append(f"action {action!r} not below the analytic path's {analytic!r}")

    v = q[:, 0]
    interior = (v > INTERIOR_MARGIN) & (v < np.pi - INTERIOR_MARGIN)
    if not interior.any():
        errors.append("path has no interior beads")
    else:
        dev = float(np.abs(q[interior, 1] - circuit.analytic_phi(v[interior])).max())
        if dev > PATH_DEVIATION_MAX:
            errors.append(f"interior deviation {dev:.4f} rad > {PATH_DEVIATION_MAX}")

    mirror = np.column_stack([np.pi - q[::-1, 0], 2 * np.pi - q[::-1, 1], -q[::-1, 2]])
    asym = float(np.abs(mirror - q).max())
    if asym > SYMMETRY_TOL:
        errors.append(f"path breaks the half-flux reflection by {asym:.2e} rad")

    c1, c2, c3, _ = (float(c) for c in report["fourier_numeric_path"])
    ref = circuit.c2_closed_form()
    if abs(c2 / ref - 1.0) > C2_REL_TOL:
        errors.append(f"Fourier c2 {c2} is {abs(c2 / ref - 1):.1%} from closed form {ref}")
    for name, c in (("c1", c1), ("c3", c3)):
        if abs(c) > ODD_HARMONIC_MAX * abs(c2):
            errors.append(f"Fourier {name} = {c} not negligible against c2 = {c2}")
    return errors


def read_json(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)
