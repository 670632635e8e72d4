"""Seeded scenario documents and their plain-numpy reference results.

Every generator takes a ``numpy.random.Generator`` and returns a
:class:`Doc`: the YAML text handed to convexop, plus what a correct run
must report.  The references never call convexop.  Quantum references
use the trace rule, projector and Kraus sandwiches and ``exp(-i H delta)``
on density matrices; classical references use measure-weighted pointwise
arithmetic on value vectors.

The document structure (sizes, step counts, step kinds) is fixed by the
workload; the seed only chooses the numbers, so documents of one size
cost the same whatever the seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass
class Doc:
    """One generated scenario and its expected report."""

    text: str
    kind: str  # "quantum" or "classical"
    size: int  # d or n
    probability: float
    per_step: list  # (name, outcome, conditional probability) per record
    final: np.ndarray  # density matrix, or the classical value vector
    evolve_steps: int = 0


# ---------------------------------------------------------------------------
# YAML emission
# ---------------------------------------------------------------------------

def _num(x) -> str:
    # repr round-trips exactly; YAML 1.1 reads "1e-05" as a string, so an
    # exponent without a dot gets one
    s = repr(float(x))
    if "e" in s and "." not in s:
        s = s.replace("e", ".0e")
    return s


def _entry(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _num(z.real)
    return f"[{_num(z.real)}, {_num(z.imag)}]"


def _vector(values, fmt=_entry) -> str:
    return "[" + ", ".join(fmt(v) for v in values) + "]"


def _matrix(mat) -> str:
    return "[" + ", ".join(_vector(row) for row in np.asarray(mat)) + "]"


def _ints(values) -> str:
    return "[" + ", ".join(str(int(v)) for v in values) + "]"


# ---------------------------------------------------------------------------
# random ingredients, written exactly as they will be parsed
# ---------------------------------------------------------------------------

def _hermitian(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0  # exactly Hermitian in floating point


def _isometry(rng, rows: int, cols: int) -> np.ndarray:
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, _ = np.linalg.qr(g)
    return q


def _amplitudes(rng, d: int) -> np.ndarray:
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def _density(amps: np.ndarray) -> np.ndarray:
    amps = amps / np.linalg.norm(amps)
    return np.outer(amps, amps.conj())


def _pick(rng, probs: np.ndarray, floor: float = 0.05) -> int:
    """An outcome index whose probability is comfortably above zero."""
    good = np.flatnonzero(probs >= floor)
    if good.size == 0:
        return int(np.argmax(probs))
    return int(rng.choice(good))


# ---------------------------------------------------------------------------
# quantum documents
# ---------------------------------------------------------------------------

class _QuantumChain:
    """Builds a quantum document and follows it with density matrices.

    ``rho`` is the conditioned state; ``ref`` is the branch with every
    measurement unread, kept for the post-selection denominator.
    """

    def __init__(self, rng, d: int):
        self.rng = rng
        self.d = d
        amps = _amplitudes(rng, d)
        self.rho = _density(amps)
        self.ref = self.rho
        self.head = [
            "model:",
            "  kind: quantum",
            f"  d: {d}",
            "initial:",
            f"  pure: {_vector(amps)}",
        ]
        self.steps = []
        self.records = []
        self.probability = 1.0
        self.evolve_steps = 0

    def _measure(self, name: str, form: str, body: str, branches: dict, observe: bool):
        """``branches`` maps outcome label -> list of Kraus operators."""
        if observe:
            labels = list(branches)
            probs = np.array([
                sum(np.trace(k @ self.rho @ k.conj().T).real for k in branches[label])
                for label in labels
            ])
            label = labels[_pick(self.rng, probs)]
            p = float(probs[labels.index(label)])
            self.rho = sum(k @ self.rho @ k.conj().T for k in branches[label]) / p
            self.probability *= p
            self.records.append((name, label, p))
        else:
            label = "unobserved"
            self.rho = self._parent(branches, self.rho)
            self.records.append((name, label, 1.0))
        self.ref = self._parent(branches, self.ref)
        self.steps += [
            "  - measure:",
            f"      name: {name}",
            f'      outcome: "{label}"',
            f"      {form}:{body}",
        ]

    @staticmethod
    def _parent(branches: dict, rho: np.ndarray) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for ops in branches.values() for k in ops)

    def observable(self, name: str, observe: bool = True) -> None:
        a = _hermitian(self.rng, self.d)
        _, v = np.linalg.eigh(a)  # outcome k is the k-th eigenvalue, ascending
        branches = {str(k): [np.outer(v[:, k], v[:, k].conj())] for k in range(self.d)}
        self._measure(name, "observable", " " + _matrix(a), branches, observe)

    def projectors(self, name: str, observe: bool = True) -> None:
        rank = int(self.rng.integers(1, self.d))
        v = _isometry(self.rng, self.d, rank)
        p = v @ v.conj().T
        q = np.eye(self.d) - p
        body = f'\n        "0": {_matrix(p)}\n        "1": {_matrix(q)}'
        self._measure(name, "projectors", body, {"0": [p], "1": [q]}, observe)

    def kraus(self, name: str, observe: bool = True) -> None:
        # three operators from one isometry, so sum K^dagger K = 1
        v = _isometry(self.rng, 3 * self.d, self.d)
        ops = [v[r * self.d:(r + 1) * self.d] for r in range(3)]
        branches = {"a": ops[:2], "b": ops[2:]}
        body = "".join(
            f"\n        {label}: [" + ", ".join(_matrix(k) for k in mats) + "]"
            for label, mats in branches.items()
        )
        self._measure(name, "kraus", body, branches, observe)

    def evolution(self) -> None:
        h = _hermitian(self.rng, self.d)
        self._eig = np.linalg.eigh(h)
        self.head += ["evolution:", f"  hamiltonian: {_matrix(h)}"]

    def evolve(self, delta: float) -> None:
        w, v = self._eig
        u = (v * np.exp(-1j * delta * w)) @ v.conj().T
        self.rho = u @ self.rho @ u.conj().T
        self.ref = u @ self.ref @ u.conj().T
        self.evolve_steps += 1
        self.records.append(("evolve", None, 1.0))
        self.steps += ["  - evolve:", f"      delta: {_num(delta)}"]

    def finish(self, post_selection: bool) -> Doc:
        tail = []
        if post_selection:
            amps = _amplitudes(self.rng, self.d)
            pi = _density(amps)
            factor = float(np.trace(pi @ self.rho).real / np.trace(pi @ self.ref).real)
            self.probability *= factor
            self.records.append(("post_selection", None, factor))
            tail = ["post_selection:", f"  pure: {_vector(amps)}"]
        text = "\n".join(self.head + ["steps:"] + self.steps + tail) + "\n"
        return Doc(text, "quantum", self.d, self.probability, self.records,
                   self.rho, self.evolve_steps)


def qudit_measure_doc(rng, d: int) -> Doc:
    """Two observables, a two-outcome projector pair, an unread Kraus step."""
    chain = _QuantumChain(rng, d)
    chain.observable("obs0")
    chain.projectors("proj")
    chain.observable("obs1")
    chain.kraus("channel", observe=False)
    return chain.finish(post_selection=False)


def evolve_chain_doc(rng, d: int, steps: int = 300, every: int = 50) -> Doc:
    """A long evolution with a measurement every ``every`` steps and a
    post-selection; every third measurement is unread."""
    chain = _QuantumChain(rng, d)
    chain.evolution()
    for k in range(1, steps + 1):
        if k % every:
            chain.evolve(float(rng.uniform(0.05, 0.5)))
            continue
        j = k // every
        observe = j % 3 != 0
        if j % 2:
            chain.observable(f"obs{j}", observe)
        else:
            chain.projectors(f"proj{j}", observe)
    return chain.finish(post_selection=True)


# ---------------------------------------------------------------------------
# classical documents
# ---------------------------------------------------------------------------

def classical_cells_doc(rng, n: int, blocks: int = 4, rounds: int = 20) -> Doc:
    """Measure constant on ``blocks`` blocks, a block-preserving permutation,
    and ``rounds`` pairs of (half-size subset measurement, integer evolve)."""
    weights = rng.uniform(0.5, 2.0, size=blocks)
    edges = np.linspace(0, n, blocks + 1).astype(int)
    mu = np.repeat(weights, np.diff(edges))
    image = np.arange(n)
    cycles = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        order = lo + rng.permutation(hi - lo)
        image[order] = np.roll(order, -1)  # one cycle through the block
        cycles.append(order)
    values = rng.uniform(0.1, 1.0, size=n)
    state = values / float(mu @ values)

    lines = [
        "model:",
        "  kind: classical",
        f"  n: {n}",
        f"  mu: {_vector(mu, _num)}",
        "initial:",
        f"  values: {_vector(values, _num)}",
        "evolution:",
        "  permutation: [" + ", ".join(_ints(c) for c in cycles) + "]",
        "steps:",
    ]
    records = []
    probability = 1.0
    for k in range(rounds):
        subset = np.sort(rng.choice(n, n // 2, replace=False))
        inside = np.zeros(n, dtype=bool)
        inside[subset] = True
        p_in = float(mu[inside] @ state[inside])
        probs = np.array([p_in, 1.0 - p_in])
        label = ("in", "out")[_pick(rng, probs)]
        mask = inside if label == "in" else ~inside
        p = float(mu[mask] @ state[mask])
        state = np.where(mask, state, 0.0) / p
        probability *= p
        records.append((f"cells{k}", label, p))
        steps = int(rng.integers(1, 6))
        moved = np.arange(n)
        for _ in range(steps):
            moved = image[moved]
        shifted = np.empty_like(state)
        shifted[moved] = state
        state = shifted
        records.append(("evolve", None, 1.0))
        lines += [
            "  - measure:",
            f"      name: cells{k}",
            f"      outcome: {label}",
            f"      subset: {_ints(subset)}",
            "  - evolve:",
            f"      delta: {steps}",
        ]
    text = "\n".join(lines) + "\n"
    return Doc(text, "classical", n, probability, records, state, rounds)


GENERATORS = {
    "qudit_measure": qudit_measure_doc,
    "evolve_chain": evolve_chain_doc,
    "classical_cells": classical_cells_doc,
}


def make_pool(workload: str, seed: int, mix: dict) -> list:
    """Documents of one pass; ``mix`` maps size -> count.

    Sizes are interleaved round-robin.  One generator, seeded from ``seed``
    and the workload name, makes the whole pool: the same seed gives the
    same bytes, and the seed never changes the sizes or their order.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    generate = GENERATORS[workload]
    queue = []
    for turn in range(max(mix.values())):
        queue += [size for size, count in mix.items() if turn < count]
    return [generate(rng, size) for size in queue]
