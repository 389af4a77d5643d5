"""Labeled tensor-product space registry.

Every state, density matrix, and operator in this package is built against a
registry of finite-dimensional subsystems.  Registration order is the canonical
tensor order; all operations address subsystems by label, never by raw axis
position, so that multi-observer circuits cannot pick up silent index
permutation bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Subsystem:
    """A single labeled factor with a named orthonormal basis."""

    label: str
    dimension: int
    basis_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"subsystem {self.label!r}: dimension must be >= 1")
        if len(self.basis_labels) != self.dimension:
            raise ValueError(
                f"subsystem {self.label!r}: {len(self.basis_labels)} basis labels "
                f"for dimension {self.dimension}"
            )
        if len(set(self.basis_labels)) != self.dimension:
            raise ValueError(f"subsystem {self.label!r}: basis labels must be unique")

    def basis_index(self, basis_label: str) -> int:
        try:
            return self.basis_labels.index(basis_label)
        except ValueError:
            raise KeyError(
                f"subsystem {self.label!r} has no basis state {basis_label!r}"
            ) from None


@dataclass(frozen=True)
class SubsystemRegistry:
    """Ordered collection of subsystems defining a tensor-product space."""

    subsystems: tuple[Subsystem, ...]

    def __post_init__(self) -> None:
        labels = [s.label for s in self.subsystems]
        index = {label: i for i, label in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        object.__setattr__(self, "_index", index)

    @classmethod
    def build(cls, spec: Iterable[tuple[str, Iterable[str]]]) -> "SubsystemRegistry":
        """Build from (label, basis_labels) pairs; dimensions are inferred."""
        subs = []
        for label, basis in spec:
            basis = tuple(basis)
            subs.append(Subsystem(label, len(basis), basis))
        return cls(tuple(subs))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._index)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dimension for s in self.subsystems)

    @property
    def total_dimension(self) -> int:
        return math.prod(self.dims) if self.subsystems else 1

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def axis(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown subsystem label {label!r}") from None

    def subsystem(self, label: str) -> Subsystem:
        return self.subsystems[self.axis(label)]

    def extended(self, sub: Subsystem) -> "SubsystemRegistry":
        """Append one subsystem at the end of the canonical order."""
        if sub.label in self:
            raise ValueError(f"subsystem label {sub.label!r} already registered")
        return SubsystemRegistry(self.subsystems + (sub,))

    def restricted(self, keep: Iterable[str]) -> "SubsystemRegistry":
        """Keep only the named subsystems, preserving original relative order."""
        keep = set(keep)
        unknown = keep - set(self.labels)
        if unknown:
            raise KeyError(f"unknown subsystem labels {sorted(unknown)}")
        return SubsystemRegistry(tuple(s for s in self.subsystems if s.label in keep))

    def combined(self, other: "SubsystemRegistry") -> "SubsystemRegistry":
        """Concatenate two registries over disjoint label sets."""
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise ValueError(f"subsystem label collision: {sorted(clash)}")
        return SubsystemRegistry(self.subsystems + other.subsystems)

    def flat_index(self, basis_labels: tuple[str, ...]) -> int:
        """Flat amplitude index of a full product-basis label tuple."""
        if len(basis_labels) != len(self.subsystems):
            raise ValueError(
                f"expected {len(self.subsystems)} basis labels, got {len(basis_labels)}"
            )
        idx = 0
        for sub, lab in zip(self.subsystems, basis_labels):
            idx = idx * sub.dimension + sub.basis_index(lab)
        return idx

    def basis_tuple(self, flat_index: int) -> tuple[str, ...]:
        """Inverse of ``flat_index``."""
        out: list[str] = []
        for sub in reversed(self.subsystems):
            flat_index, pos = divmod(flat_index, sub.dimension)
            out.append(sub.basis_labels[pos])
        return tuple(reversed(out))

    def iter_basis(self) -> Iterator[tuple[str, ...]]:
        for i in range(self.total_dimension):
            yield self.basis_tuple(i)
