"""Order analysis: lattice versus anti-lattice behavior of state spaces.

Classical state spaces have pointwise minima and maxima, so any two
elements possess a greatest lower bound.  The matrix order does not: for
incomparable positive semidefinite matrices one can exhibit two common
lower bounds that are themselves incomparable, which rules out a greatest
one.  This module classifies order relations and constructs such witness
pairs at qubit scale, with certificates that re-verify independently.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvexOpError, UnsupportedSpaceError
from .quantum import from_matrix, to_matrix
from .spaces import DEFAULT_TOL, Element, cone_margin, is_positive, leq, margin_passes
from .spaces import _Record, require_same_space

__all__ = [
    "AntiLatticeWitness",
    "OrderRelation",
    "anti_lattice_witness",
    "classify_order",
]

VERDICTS = ("less", "greater", "equal", "incomparable")


class OrderRelation(_Record):
    """Outcome of comparing two elements, with the difference certificate.

    For ``less`` the witness is ``c - b`` (in the cone), for ``greater`` it
    is ``b - c``; for ``incomparable`` it is the indefinite difference
    ``c - b``; for ``equal`` there is nothing to certify.
    """

    _fields = ("verdict", "witness")

    def __init__(self, verdict: str, witness: Element | None = None) -> None:
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)


def classify_order(b: Element, c: Element, tol: float = DEFAULT_TOL) -> OrderRelation:
    """Exhaustive four-way comparison of two elements of one space."""
    require_same_space(b.space, c.space)
    below = leq(b, c, tol)
    above = leq(c, b, tol)
    if below and above:
        return OrderRelation("equal", None)
    if below:
        return OrderRelation("less", c - b)
    if above:
        return OrderRelation("greater", b - c)
    return OrderRelation("incomparable", c - b)


class AntiLatticeWitness(_Record):
    """Result of the witness search for a pair of psd matrices.

    Either the inputs were comparable (``relation`` says how), or ``c1`` and
    ``c2`` are two common lower bounds of the pair that are mutually
    incomparable.  ``dominator`` reports a grid point below both inputs and
    above both witnesses if one was found; ``None`` means the search at the
    stated resolution found none, which is the expected evidence against a
    greatest lower bound.
    """

    _fields = ("comparable", "relation", "c1", "c2", "dominator", "grid_step")

    def __init__(self, comparable: bool, relation: str | None = None, c1: np.ndarray | None = None,
                 c2: np.ndarray | None = None, dominator: np.ndarray | None = None,
                 grid_step: float = 0.05) -> None:
        for name, value in zip(self._fields, (comparable, relation, c1, c2, dominator, grid_step)):
            object.__setattr__(self, name, value)


def _eigmin_grid(p, r, q_re, q_im):
    # smallest eigenvalue of Hermitian [[p, q], [conj(q), r]], vectorized
    mean = 0.5 * (p + r)
    radius = np.sqrt(0.25 * (p - r) ** 2 + q_re ** 2 + q_im ** 2)
    return mean - radius


def anti_lattice_witness(
    ea: Element,
    eb: Element,
    tol: float = 1e-10,
    grid_step: float = 0.05,
) -> AntiLatticeWitness:
    """Two incomparable common lower bounds of an incomparable psd pair.

    The first witness subtracts the positive part of the difference, which
    lands on the largest matrix below both inputs along that direction.  The
    second comes from a closed-form family: in the eigenbasis ``(u0, u1)``
    of the difference, with ``m`` the smaller of the two budget eigenvalues,
    the indefinite increment ``m * [[-0.4, 0.6], [0.6, -0.4]]`` stays below
    both budgets while acquiring a positive direction, so it is neither
    above nor below the first witness.  Certificates for all four bound
    relations and the incomparability verdict are re-verified before
    returning.  A separate lexicographic grid search looks for any common
    lower bound dominating both witnesses and reports the outcome.

    Only elements of a psd space on two by two matrices are supported.
    """
    require_same_space(ea.space, eb.space)
    space = ea.space
    if space.cone_kind != "psd" or space.psd_dim != 2:
        raise UnsupportedSpaceError("witness search is implemented for 2x2 matrices")
    a = to_matrix(ea)
    b = to_matrix(eb)
    relation = classify_order(ea, eb, tol)
    if relation.verdict != "incomparable":
        return AntiLatticeWitness(
            comparable=True, relation=relation.verdict, grid_step=grid_step
        )

    w, v = np.linalg.eigh(a - b)
    # deterministic eigenvector phases: leading entry real nonnegative
    vecs = []
    for k in range(2):
        u = v[:, k]
        lead = u[int(np.argmax(np.abs(u)))]
        vecs.append(u * (lead.conj() / abs(lead)))
    u0, u1 = vecs  # w[0] < 0 < w[1] since the pair is incomparable

    c1 = a - w[1] * np.outer(u1, u1.conj())
    m = min(w[1], -w[0])
    cross = np.outer(u0, u1.conj()) + np.outer(u1, u0.conj())
    diag = np.outer(u0, u0.conj()) + np.outer(u1, u1.conj())
    c2 = c1 - 0.4 * m * diag + 0.6 * m * cross
    c1, c2 = ((c + c.conj().T) / 2 for c in (c1, c2))  # drop rounding's skew part

    for name, lower in (("first", c1), ("second", c2)):
        for upper in (ea, eb):
            # at the inputs' scale, as on the grid: a bound keeps an input's rounding
            margin = cone_margin(upper - from_matrix(space, lower))
            if not margin_passes(margin, np.concatenate((ea.coords, eb.coords)), tol):
                raise ConvexOpError(
                    f"internal witness failure: {name} bound is not below an input"
                )
    # each difference at its own scale: the bounds may lie closer than the inputs
    e1, e2 = from_matrix(space, c1), from_matrix(space, c2)
    if is_positive(e2 - e1, tol) or is_positive(e1 - e2, tol):
        raise ConvexOpError("internal witness failure: bounds are comparable")

    dominator = _dominator_search(a, b, c1, c2, tol, grid_step)
    return AntiLatticeWitness(
        comparable=False,
        c1=c1,
        c2=c2,
        dominator=dominator,
        grid_step=grid_step,
    )


def _dominator_search(a, b, c1, c2, tol, grid_step):
    """First grid matrix below both inputs and above both witnesses, if any.

    Candidates are real symmetric, entries on a uniform grid in [-1, 1]
    scaled by the larger spectral radius of the inputs, traversed in
    lexicographic order of (diagonal first entry, diagonal second entry,
    off-diagonal entry).
    """
    spectra = np.concatenate((np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)))
    scale = float(np.abs(spectra).max())
    steps = int(round(2.0 / grid_step))
    g = scale * (-1.0 + grid_step * np.arange(steps + 1))
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    x, y, z = x.ravel(), y.ravel(), z.ravel()

    ok = np.ones(x.size, dtype=bool)
    # upper - C and C - lower must stay psd: sign * (bound - C) for each bound
    for bound, sign in ((a, 1.0), (b, 1.0), (c1, -1.0), (c2, -1.0)):
        low = _eigmin_grid(
            sign * (np.real(bound[0, 0]) - x),
            sign * (np.real(bound[1, 1]) - y),
            sign * (np.real(bound[0, 1]) - z),
            sign * np.imag(bound[0, 1]) * np.ones_like(z),
        )
        ok &= margin_passes(low, spectra, tol)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    k = int(hits[0])
    return np.array([[x[k], z[k]], [z[k], y[k]]])
