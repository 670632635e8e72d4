"""Quantum model: Hermitian matrices ordered by positive semidefiniteness.

States are unit-trace positive semidefinite matrices, the inner product is
the trace of the product, and the order unit is the identity matrix.  On
the storage side everything is a real coordinate vector against a fixed
orthonormal Hermitian basis; this module owns the bridge between that
representation and complex matrix arithmetic.

Operations are completely positive maps given by Kraus operators, checked
via positive semidefiniteness of the Choi matrix.  Measurements come from
spectral decompositions: outcome probabilities are traces against spectral
projectors, conditioning is the projector sandwich, and closed-system
dynamics is unitary conjugation generated by a Hamiltonian, with fourth
order Runge-Kutta integrators for the corresponding differential equations
on densities and on amplitude vectors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    NotNormalizedError,
    NotProjectorError,
    UnsupportedSpaceError,
    ZeroProbabilityError,
    ZeroStateError,
)
from .hermitian import (
    choi_scratch,
    complex_coords,
    coords_to_matrix,
    kraus_matrix,
    matrix_to_coords,
    require_hermitian,
)
from .operational import EvolutionGroup, MeasurementSpec, OperationMap
from .spaces import DEFAULT_TOL, Element, ModelSpace, _Record, margin_passes, pairing_passes
from .spaces import scaled_tol

__all__ = [
    "ChoiReport",
    "KrausSet",
    "ObservableDecomposition",
    "StateVector",
    "apply_kraus",
    "born",
    "born_pure",
    "choi_cp_check",
    "from_matrix",
    "hamiltonian_evolution",
    "kraus_nonselective_check",
    "kraus_operation",
    "liouville_integrate",
    "luders",
    "luders_pure",
    "make_quantum_space",
    "pure_state",
    "schrodinger_integrate",
    "spectral_measurement",
    "to_matrix",
    "unitary_operation",
]


def make_quantum_space(d: int, space_id: str | None = None) -> ModelSpace:
    """Model space of ``d x d`` Hermitian matrices with the trace inner product.

    Storage coordinates are taken against an orthonormal Hermitian basis, so
    the metric is the identity and inner products of elements are traces of
    matrix products.  The order unit is the identity matrix; normalized
    states are exactly the unit-trace positive semidefinite matrices.
    """
    if d < 1:
        raise ValueError("matrix dimension must be positive")
    if space_id is None:
        space_id = f"quantum{d}"
    return ModelSpace(
        space_id=space_id,
        dim=d * d,
        metric=np.ones(d * d),
        cone_kind="psd",
        unit=matrix_to_coords(np.eye(d)),
        psd_dim=d,
    )


def _require_psd_space(space: ModelSpace) -> int:
    if space.cone_kind != "psd":
        raise UnsupportedSpaceError(
            f"space {space.space_id!r} does not hold Hermitian matrices"
        )
    return space.psd_dim


def from_matrix(space: ModelSpace, mat: np.ndarray) -> Element:
    """Element of a psd space holding the given Hermitian matrix."""
    d = _require_psd_space(space)
    mat = require_hermitian(mat)
    if mat.shape[0] != d:
        raise UnsupportedSpaceError(
            f"matrix size {mat.shape[0]} does not match the space's {d}"
        )
    return Element(space, np.real(complex_coords(mat)))


def to_matrix(x: Element) -> np.ndarray:
    """Hermitian matrix held by an element of a psd space."""
    _require_psd_space(x.space)
    return coords_to_matrix(x.coords)


class StateVector(_Record):
    """A normalized complex amplitude vector."""

    _fields = ("d", "amplitudes")

    def __init__(self, d: int, amplitudes: np.ndarray) -> None:
        amps = np.array(amplitudes, dtype=complex)
        if amps.shape != (d,):
            raise ValueError(f"expected {d} amplitudes, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails
            raise NotNormalizedError(f"amplitude norm is {norm!r}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "amplitudes", amps)


def _amplitudes(psi) -> np.ndarray:
    if isinstance(psi, StateVector):
        return psi.amplitudes
    return np.asarray(psi, dtype=complex)


def pure_state(psi) -> np.ndarray:
    """Density matrix of an amplitude vector (normalized internally)."""
    amps = _amplitudes(psi)
    norm = float(np.linalg.norm(amps))
    if not 1e-12 < norm < np.inf:  # zero, NaN or inf
        raise ZeroStateError(f"amplitude vector of norm {norm!r} has no associated state")
    amps = amps / norm
    return np.outer(amps, amps.conj())


# ---------------------------------------------------------------------------
# Kraus operations and complete positivity
# ---------------------------------------------------------------------------

class KrausSet(_Record):
    """A nonempty family of equally sized complex matrices."""

    _fields = ("operators",)

    def __init__(self, operators: tuple) -> None:
        ops = tuple(np.array(k, dtype=complex) for k in operators)
        if not ops:
            raise ValueError("a Kraus set needs at least one operator")
        d = ops[0].shape[0] if ops[0].ndim == 2 else 0
        for k in ops:
            if k.ndim != 2 or k.shape != (d, d):
                raise ValueError("Kraus operators must be square and equally sized")
            k.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    @property
    def d(self) -> int:
        return self.operators[0].shape[0]


def apply_kraus(kraus: KrausSet, b: Element) -> Element:
    """Image ``sum_i K_i b K_i^dagger`` of a state element."""
    mat = to_matrix(b)
    if mat.shape[0] != kraus.d:
        raise UnsupportedSpaceError(
            f"matrix size {mat.shape[0]} does not match Kraus size {kraus.d}"
        )
    ops = np.stack(kraus.operators)
    image = np.einsum("rij,jk,rlk->il", ops, mat, ops.conj())
    return Element(b.space, np.real(complex_coords(image)))


def kraus_nonselective_check(kraus: KrausSet) -> bool:
    """Whether the Kraus operators resolve the identity, within ``1e-10``.

    The operator identity ``sum_i K_i^dagger K_i = 1`` is exactly the
    condition for the induced map to preserve traces, hence the pairing
    with the order unit.
    """
    ops = np.stack(kraus.operators)
    total = np.einsum("rji,rjk->ik", ops.conj(), ops)
    return bool(np.abs(total - np.eye(kraus.d)).max() <= 1e-10)


def kraus_operation(
    space: ModelSpace,
    kraus: KrausSet,
    selectivity: str | None = None,
) -> OperationMap:
    """Operation map acting on storage coordinates by the Kraus sandwich.

    With ``selectivity=None`` the flag is set from
    :func:`kraus_nonselective_check`.
    """
    d = _require_psd_space(space)
    if kraus.d != d:
        raise UnsupportedSpaceError(
            f"Kraus size {kraus.d} does not match the space's {d}"
        )
    if selectivity is None:
        selectivity = (
            "nonselective" if kraus_nonselective_check(kraus) else "selective"
        )
    # the map keeps the array kraus_matrix returns: one d**4 copy per map
    return OperationMap._taking(space, kraus_matrix(np.stack(kraus.operators)), selectivity)


class ChoiReport(NamedTuple):
    choi: np.ndarray
    is_cp: bool
    min_eigenvalue: float


def choi_cp_check(op: OperationMap, tol: float = DEFAULT_TOL) -> ChoiReport:
    """Complete positivity via the block matrix of images of matrix units.

    The map on real coordinates extends complex-linearly to all matrices;
    the Choi matrix collects the images of the matrix units into one
    ``d**2 x d**2`` Hermitian block matrix, and the map is completely
    positive exactly when that matrix is positive semidefinite.
    """
    _require_psd_space(op.space)
    choi = choi_scratch(op.matrix)
    try:
        spectrum = np.linalg.eigvalsh(choi)
    except np.linalg.LinAlgError:
        # the inf and NaN entries of a map that overflowed: not certified
        spectrum = np.array([np.nan])
    min_eig = float(spectrum.min())
    # copied out of the thread's workspace once the eigensolver has freed
    # its own copy, whose memory the report's matrix then takes over
    return ChoiReport(choi.copy(), margin_passes(min_eig, spectrum, tol), min_eig)


# ---------------------------------------------------------------------------
# spectral measurements, Born rule, and conditioning
# ---------------------------------------------------------------------------

class ObservableDecomposition(_Record):
    """Spectral data: ascending eigenvalues with orthogonal projectors."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple) -> None:
        pairs = tuple((float(a), require_hermitian(p)) for a, p in pairs)
        if not pairs:
            raise ValueError("a decomposition needs at least one spectral pair")
        values = [a for a, _ in pairs]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("eigenvalues must be strictly increasing")
        object.__setattr__(self, "pairs", pairs)

    @property
    def eigenvalues(self) -> tuple:
        return tuple(a for a, _ in self.pairs)

    @property
    def projectors(self) -> tuple:
        return tuple(p for _, p in self.pairs)


def spectral_measurement(
    a: np.ndarray, space: ModelSpace | None = None, name: str = "spectral"
) -> tuple:
    """Projective measurement of a Hermitian observable.

    Eigenvalues closer than ``1e-9`` times the spectral radius merge into
    one outcome with a higher rank projector.
    Outcome labels are ``"0", "1", ...`` in ascending eigenvalue order.
    Returns the measurement together with its spectral decomposition.
    """
    a = require_hermitian(a)
    d = a.shape[0]
    if space is None:
        space = make_quantum_space(d)
    elif _require_psd_space(space) != d:
        raise UnsupportedSpaceError(
            f"observable size {d} does not match the space's {space.psd_dim}"
        )
    w, v = np.linalg.eigh(a)
    degeneracy_tol = 1e-9 * float(np.abs(w).max())
    clusters = [[0]]
    for i in range(1, d):
        if w[i] - w[i - 1] > degeneracy_tol:
            clusters.append([])
        clusters[-1].append(i)
    pairs = []
    for idx in clusters:
        block = v[:, idx]
        pairs.append((float(np.mean(w[idx])), block @ block.conj().T))
    decomposition = ObservableDecomposition(tuple(pairs))
    outcomes = {
        str(k): kraus_operation(space, KrausSet((p,)), "selective")
        for k, (_, p) in enumerate(pairs)
    }
    return MeasurementSpec(name=name, outcomes=outcomes), decomposition


def _require_projector(p: np.ndarray) -> np.ndarray:
    p = require_hermitian(p)
    if np.abs(p @ p - p).max() > scaled_tol(DEFAULT_TOL, p):
        raise NotProjectorError("matrix is not idempotent within tolerance")
    return p


def born(b: Element, p_k: np.ndarray) -> float:
    """Outcome probability ``tr(P_k b)`` for a unit-trace state."""
    mat = to_matrix(b)
    p_k = _require_projector(p_k)
    return float(np.real(np.einsum("ij,ji->", p_k, mat)))


def born_pure(psi, eta) -> float:
    """Pure-state outcome probability: squared overlap of the two vectors."""
    return float(np.abs(np.vdot(_amplitudes(eta), _amplitudes(psi))) ** 2)


def luders(b: Element, p_k: np.ndarray) -> Element:
    """State after conditioning on a projector: renormalized sandwich."""
    mat = to_matrix(b)
    p_k = _require_projector(p_k)
    weight = float(np.real(np.einsum("ij,ji->", p_k, mat)))
    if not pairing_passes(weight, b.coords, DEFAULT_TOL):
        raise ZeroProbabilityError(
            f"cannot condition on a projector: its probability is {weight:.6e}"
        )
    return Element(b.space, np.real(complex_coords((p_k @ mat @ p_k) / weight)))


def luders_pure(psi, p_k: np.ndarray) -> StateVector:
    """Pure-state conditioning: project, renormalize, fix the phase.

    The phase convention makes the largest-modulus amplitude real and
    nonnegative, so results are reproducible; any other phase describes the
    same state.
    """
    amps = _amplitudes(psi)
    p_k = _require_projector(p_k)
    image = p_k @ amps
    weight = float(np.real(np.vdot(image, image)))
    if not pairing_passes(weight, amps, DEFAULT_TOL):
        raise ZeroProbabilityError(
            f"cannot condition on a projector: its probability is {weight:.6e}"
        )
    image = image / np.sqrt(weight)
    lead = image[int(np.argmax(np.abs(image)))]
    image = image * (lead.conj() / abs(lead))
    return StateVector(image.size, image)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def hamiltonian_evolution(
    h: np.ndarray, space: ModelSpace | None = None
) -> EvolutionGroup:
    """Continuous evolution group of unitary conjugations generated by ``h``."""
    h = np.asarray(h, dtype=complex)
    if space is None:  # the group rejects a matrix that is not square
        square = h.ndim == 2 and h.shape[0] == h.shape[1]
        space = make_quantum_space(h.shape[0] if square else 1)
    return EvolutionGroup(space=space, kind="hamiltonian", hamiltonian=h)


def unitary_operation(space: ModelSpace, u: np.ndarray) -> OperationMap:
    """Conjugation ``b -> U b U^dagger`` as an operation map."""
    d = _require_psd_space(space)
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise UnsupportedSpaceError(f"unitary shape {u.shape} does not fit size {d}")
    # a non-finite entry fails before the product, which would warn on it
    if not (np.isfinite(u).all() and np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-10):
        raise ValueError("matrix is not unitary within tolerance")
    return OperationMap._taking(space, kraus_matrix(u[np.newaxis]), "nonselective")


def _rk4(f, y, t: float, dt: float):
    # written so that NaN fails them too
    if not dt > 0:
        raise ValueError("step size must be positive")
    if not 0 <= t < np.inf:
        raise ValueError("integration time must be finite and nonnegative")
    remaining = float(t)
    while remaining > 1e-15:
        h = min(dt, remaining)
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        remaining -= h
    return y


def liouville_integrate(
    h: np.ndarray, b0: Element, t: float, dt: float = 1e-3
) -> Element:
    """Integrate ``db/dt = -i [H, b]`` with classical fourth order steps.

    The exact path is unitary conjugation; the integrator exists to exhibit
    the differential form of the same dynamics, so its output should track
    the exact path within the integrator's order, not replace it.
    """
    h = require_hermitian(h)
    mat = to_matrix(b0)

    def rhs(b):
        return -1j * (h @ b - b @ h)

    return from_matrix(b0.space, _rk4(rhs, mat, t, dt))


def schrodinger_integrate(
    h: np.ndarray, psi0, t: float, dt: float = 1e-3
) -> np.ndarray:
    """Integrate ``dpsi/dt = -i H psi`` with classical fourth order steps."""
    h = require_hermitian(h)
    psi = np.array(_amplitudes(psi0), dtype=complex)

    def rhs(v):
        return -1j * (h @ v)

    return _rk4(rhs, psi, t, dt)
