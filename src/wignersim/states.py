"""Dense exact states and density matrices over labeled factors.

All values are immutable after construction and every operation is a pure
function, so anything built here can be shared freely between threads or
cached without copying.  A constructor takes its own read-only copy of the
array it is given, so the caller's array stays writeable and changing it
changes no value.  Every tolerance is read from :mod:`wignersim.tolerances`.
Validation bounds are written as ``not (x <= tol)``, which NaN fails, so no
NaN gets into a state or a density matrix.

:class:`Projector`, :func:`born_probability`, :func:`partial_trace` and
:func:`tensor` act on one state and run on no program path, which builds its
densities from a branch ensemble; the benchmark's tracer still wraps them.

A density the program returns is a Gram product ρ = GG† of the ensemble
rows, which carry their weights, Hermitian and positive semidefinite by
construction: an O(d) rounding bound from its diagonal and contraction
length (:meth:`DensityMatrix._gram`) stands in for the O(d²) Hermitian check
and the O(d³) spectrum, which run only if it fails.  Raw entries from a
library caller are checked in full: shape, Hermitian, trace, ``eigvalsh``,
which costs O(d³) at any rank.  The Hermitian check reads BLOCK×BLOCK tiles,
so the matrix is the only d×d array it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

import numpy as np

from . import tolerances as tol
from .registry import SubsystemRegistry

# The Hermitian check reads BLOCK×BLOCK tiles, so it holds no d×d temporary.
BLOCK = 64


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an event of (numerically) zero probability."""


def _freeze(a) -> np.ndarray:
    """A read-only C-ordered complex copy of ``a``; the caller's array stays its own."""
    a = np.array(a, dtype=np.complex128, order="C")
    a.setflags(write=False)
    return a


def _format_coefficient(z: complex) -> str:
    if abs(z.imag) < tol.PRINT_ZERO:
        return f"{z.real:.8g}"
    return f"({z.real:.8g}{z.imag:+.8g}j)"


def _not_normalized(norm_sq: float) -> ValueError:
    return ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")


def _row_norms_sq(rows: np.ndarray) -> np.ndarray:
    """|row|² for every row of a complex array (B, …).

    One ``np.vecdot`` of the float view with itself: per row the BLAS dot
    that a (B, 1, 2N) @ (B, 2N, 1) matmul also makes, so bitwise the same.
    """
    real = rows.reshape(len(rows), math.prod(rows.shape[1:])).view(np.float64)
    return np.vecdot(real, real)


def _hermitian(mat: np.ndarray) -> bool:
    """Whether max |a_ij − conj(a_ji)| ≤ ATOL_CONSTRUCT, failing on NaN.

    Each BLOCK×BLOCK tile on or above the diagonal is read against its
    mirror tile, which covers every pair (i, j): the maximum is the one over
    the whole matrix, with scratch of one tile.  Each tile is tested on its
    own, so a NaN in any tile fails.
    """
    d = len(mat)
    scratch = np.empty(min(d, BLOCK) ** 2, dtype=np.complex128)
    for top in range(0, d, BLOCK):
        rows = slice(top, top + BLOCK)
        for left in range(top, d, BLOCK):
            cols = slice(left, left + BLOCK)
            tile = mat[rows, cols]
            skew = scratch[: tile.size].reshape(tile.shape)
            np.conjugate(mat[cols, rows].T, out=skew)
            np.subtract(tile, skew, out=skew)
            if not np.max(np.abs(skew)) <= tol.ATOL_CONSTRUCT:
                return False
    return True


def _check_norms(norm_sq: np.ndarray, weights: np.ndarray) -> None:
    """Raise as :class:`StateVector` does, on norm_sq/w, unless each is 1 within ATOL_CONSTRUCT."""
    ratio = norm_sq / weights
    off = np.abs(ratio - 1.0)
    if not np.maximum.reduce(off, initial=0.0) <= tol.ATOL_CONSTRUCT:
        raise _not_normalized(float(ratio[~(off <= tol.ATOL_CONSTRUCT)][0]))


@dataclass(frozen=True)
class StateVector:
    """Unit-norm pure state over a registry; amplitudes are flat in canonical C-order.

    A weighted branch is an ensemble row and its weight, not a state.
    """

    registry: SubsystemRegistry
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _freeze(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape[0] != self.registry.total_dimension:
            raise ValueError(
                f"amplitude length {amps.shape[0]} does not match registry "
                f"dimension {self.registry.total_dimension}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= tol.ATOL_CONSTRUCT:
            raise _not_normalized(norm_sq)

    @classmethod
    def from_terms(
        cls,
        registry: SubsystemRegistry,
        terms: Mapping[Union[str, tuple[str, ...]], complex],
    ) -> "StateVector":
        """Build from {product-basis label tuple: amplitude} (str ok for 1 factor)."""
        amps = np.zeros(registry.total_dimension, dtype=np.complex128)
        for key, coeff in terms.items():
            labels = (key,) if isinstance(key, str) else tuple(key)
            amps[registry.flat_index(labels)] += coeff
        return cls(registry, amps)

    @classmethod
    def basis_state(
        cls, registry: SubsystemRegistry, labels: Union[str, tuple[str, ...]]
    ) -> "StateVector":
        return cls.from_terms(registry, {labels: 1.0})

    @property
    def dims(self) -> tuple[int, ...]:
        return self.registry.dims

    def amplitude(self, labels: Union[str, tuple[str, ...]]) -> complex:
        labels = (labels,) if isinstance(labels, str) else tuple(labels)
        return complex(self.amplitudes[self.registry.flat_index(labels)])

    def tensored(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)

    def __str__(self) -> str:
        parts = []
        for i, amp in enumerate(self.amplitudes):
            if abs(amp) <= tol.PRINT_ZERO:
                continue
            labels = ",".join(self.registry.basis_tuple(i))
            parts.append(f"{_format_coefficient(complex(amp))} |{labels}⟩")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator over a registry.

    Raw entries are checked in full: shape, Hermitian within
    ``ATOL_CONSTRUCT``, unit trace, and ``eigvalsh`` down to ``-ATOL_PSD``.
    The program's densities are Gram products, whose Hermitian and positive
    semidefinite guarantees :meth:`_gram` proves from their shape.
    """

    registry: SubsystemRegistry
    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = _square(self.registry, _freeze(self.entries))
        if not _hermitian(mat):
            raise ValueError(
                f"density matrix is not Hermitian within {tol._spelled(tol.ATOL_CONSTRUCT)}"
            )
        _check_unit_trace(mat)
        eigmin = float(np.min(np.linalg.eigvalsh(mat)))
        if not eigmin >= -tol.ATOL_PSD:
            raise ValueError(f"density matrix has negative eigenvalue {eigmin!r}")
        object.__setattr__(self, "entries", mat)

    @classmethod
    def _gram(cls, registry: SubsystemRegistry, entries, length: int) -> "DensityMatrix":
        """A unit-trace Gram product fl(GG†) whose longest contraction is ``length``.

        Its rounding error obeys |E| ≤ γ|G||G|† with γ = (n+2)u/(1 − (n+2)u)
        for n = ``length`` (Higham, *Accuracy and Stability of Numerical
        Algorithms*, §3.5–3.6).  |G||G|† has the exact diagonal, which the
        computed one, a sum of nonnegative terms, matches to a relative γ.
        With s = γ/(1 − γ), as GG† is Hermitian and positive semidefinite,
        max |ρ_ij − conj ρ_ji| ≤ 2s·max ρ_ii, checked against ATOL_CONSTRUCT,
        and every eigenvalue is ≥ −s·tr ρ, checked against ATOL_PSD/2
        (``eigvalsh`` reads one triangle, which moves it by √2 at most).
        Shape and unit trace are checked as for raw entries; a non-finite
        entry of G makes the trace non-finite.  If a bound fails, the
        constructor checks the entries in full.
        """
        mat = _square(registry, entries)
        _check_unit_trace(mat)
        k = (length + 2) * tol.UNIT_ROUNDOFF
        slack = k / (1 - 2 * k)
        diagonal = mat.diagonal().real
        skew_bound, eigen_bound = 2 * slack * diagonal.max(), slack * diagonal.sum()
        if not (skew_bound <= tol.ATOL_CONSTRUCT and eigen_bound <= tol.ATOL_PSD / 2):
            return cls(registry, entries)
        mat.setflags(write=False)
        rho = object.__new__(cls)
        rho.__dict__.update(registry=registry, entries=mat)
        return rho

    @property
    def dims(self) -> tuple[int, ...]:
        return self.registry.dims

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


def _square(registry: SubsystemRegistry, entries) -> np.ndarray:
    """Entries as a C-ordered complex array, once their shape is the registry's d×d."""
    mat = np.ascontiguousarray(np.asarray(entries), dtype=np.complex128)
    d = registry.total_dimension
    if mat.shape != (d, d):
        raise ValueError(f"entries shape {mat.shape} does not match dimension {d}")
    return mat


def _check_unit_trace(mat: np.ndarray) -> None:
    tr = complex(np.trace(mat))
    if not abs(tr - 1.0) <= tol.ATOL_CONSTRUCT:
        raise ValueError(
            f"density matrix trace {tr!r} != 1 within {tol._spelled(tol.ATOL_CONSTRUCT)}"
        )


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector on named target factors, identity elsewhere.

    The stored operator acts on the target factors in the declared
    ``target_labels`` order; :func:`born_probability` applies it to any host
    registry containing those labels without forming the padded matrix.
    """

    target_labels: tuple[str, ...]
    target_registry: SubsystemRegistry
    operator: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        op = _freeze(self.operator)
        d = self.target_registry.total_dimension
        if tuple(self.target_labels) != self.target_registry.labels:
            raise ValueError("target_labels must match the target registry order")
        if op.shape != (d, d):
            raise ValueError(f"operator shape {op.shape} does not match dimension {d}")
        if not _hermitian(op):
            raise ValueError(
                f"projector is not Hermitian within {tol._spelled(tol.ATOL_CONSTRUCT)}"
            )
        if not np.max(np.abs(op @ op - op)) <= tol.ATOL_CONSTRUCT:
            raise ValueError(
                f"projector is not idempotent within {tol._spelled(tol.ATOL_CONSTRUCT)}"
            )
        object.__setattr__(self, "operator", op)

    def _check_host(self, registry: SubsystemRegistry) -> None:
        for sub in self.target_registry.subsystems:
            if sub.label not in registry:
                raise ValueError(f"registry mismatch: no subsystem {sub.label!r}")
            host = registry.subsystem(sub.label)
            if host.basis_labels != sub.basis_labels:
                raise ValueError(
                    f"registry mismatch: subsystem {sub.label!r} bases differ"
                )


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the result lives on the concatenated registry."""
    registry = a.registry.combined(b.registry)
    amps = np.kron(a.amplitudes, b.amplitudes)
    return StateVector(registry, amps)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every subsystem not named in ``keep``; trace is preserved."""
    keep = set(keep)
    if not keep:
        raise ValueError("keep must be a nonempty set of labels")
    sub_registry = rho.registry.restricted(keep)  # validates the labels
    dims = list(rho.registry.dims)
    n = len(dims)
    discard_axes = sorted(
        (i for i, s in enumerate(rho.registry.subsystems) if s.label not in keep),
        reverse=True,
    )
    tens = rho.entries.reshape(dims + dims)
    for ax in discard_axes:
        tens = np.trace(tens, axis1=ax, axis2=ax + n)
        n -= 1
    d = sub_registry.total_dimension
    return DensityMatrix(sub_registry, tens.reshape(d, d))


def born_probability(
    state: Union[StateVector, DensityMatrix], proj: Projector
) -> float:
    """tr(rho P), or <psi|P|psi>, clamped into [0, 1] after a tolerance check.

    The k×k operator is contracted over its target axes only; no d×d
    embedding is formed.  A state vector costs O(d·k) time and O(d) memory.
    """
    proj._check_host(state.registry)
    dims = state.registry.dims
    n = len(dims)
    targets = [state.registry.axis(l) for l in proj.target_labels]
    rest = [i for i in range(n) if i not in targets]
    k = proj.target_registry.total_dimension
    if isinstance(state, StateVector):
        psi = state.tensored().transpose(targets + rest).reshape(k, -1)
        value = float(np.real(np.vdot(psi, proj.operator @ psi)))
    else:
        # Partial trace onto the targets: rest axes share one index in rows and
        # columns, then tr(rho_T P) = sum(rho_T * P^T).
        tens = state.entries.reshape(dims + dims)
        cols = [i + n if i in targets else i for i in range(n)]
        out = targets + [t + n for t in targets]
        reduced = np.einsum(tens, list(range(n)) + cols, out)
        value = float(np.real(np.sum(reduced.reshape(k, k) * proj.operator.T)))
    if not value >= -tol.ATOL_PSD:
        raise ValueError(f"Born probability {value!r} below -{tol._spelled(tol.ATOL_PSD)}")
    if value > 1.0 + tol.ATOL_PROB:
        raise ValueError(f"Born probability {value!r} above 1")
    return min(max(value, 0.0), 1.0)
