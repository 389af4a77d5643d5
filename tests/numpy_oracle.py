"""Plain-numpy reference ensemble: full-registry vectors and explicit matrices.

Nothing here calls wignersim's evolution, channel or state code.  It reads an
experiment's registry, its initial amplitudes and, for each step, the step's
``iso.matrix``, domain labels and outcome labels.  Every step is that matrix
kron-padded with identities on the rest of the registry, between two
permutation matrices that put the domain first and the fresh factor last.
Every collapse and every conditioning on an uncollapsed memory is an explicit
full-dimensional projector.  So a d-dimensional state costs O(d²) memory;
keep d ≤ 256 or so.

A branch is (weight, vector, records): a unit vector over the registry in
registry order, its probability, and the outcomes its collapsed (or
conditioned-on) agents recorded, as {agent: outcome}.

:func:`assert_density` is the spectral check that a density the library
builds no longer runs on itself: the library proves Hermiticity and
positivity from the Gram product's shape, and this reads the answer.
"""

from __future__ import annotations

import math

import numpy as np

from wignersim.tolerances import ATOL_CONSTRUCT, ATOL_PSD

BRANCH_CUT = 1e-12  # a branch at or below this probability is dropped


def permutation(dims: list[int], axes: list[int]) -> np.ndarray:
    """The matrix taking a vector over ``dims`` to its tensor transposed by ``axes``."""
    index = np.arange(math.prod(dims)).reshape(dims).transpose(axes).reshape(-1)
    return np.eye(math.prod(dims))[index]


def padded(matrix: np.ndarray, dims: list[int], domain: list[int]) -> np.ndarray:
    """A (d_dom·k)×d_dom isometry on the ``domain`` axes, as a (d·k)×d matrix.

    The input is in registry order; the output is in registry order with the
    fresh factor appended last.
    """
    rest = [i for i in range(len(dims)) if i not in domain]
    d_dom = math.prod(dims[i] for i in domain)
    k = matrix.shape[0] // d_dom
    gather = permutation(dims, domain + rest)
    # The kron product's output runs over (domain, fresh, rest).
    shape = [dims[i] for i in domain] + [k] + [dims[i] for i in rest]
    scatter = permutation(shape, list(np.argsort(domain + [len(dims)] + rest)))
    return scatter @ np.kron(matrix, np.eye(math.prod(dims[i] for i in rest))) @ gather


def projector(dims: list[int], axis: int, index: int) -> np.ndarray:
    """|index⟩⟨index| on factor ``axis``, identity on every other factor."""
    out = np.eye(1)
    for i, dim in enumerate(dims):
        factor = np.eye(dim)
        if i == axis:
            factor = np.zeros((dim, dim))
            factor[index, index] = 1.0
        out = np.kron(out, factor)
    return out


def split(branches, dims: list[int], axis: int, index: int, agent: str, outcome: str):
    """Each branch projected onto one basis state of factor ``axis``, renormalized."""
    out = []
    for weight, vector, records in branches:
        projected = projector(dims, axis, index) @ vector
        p = float(np.vdot(projected, projected).real)
        if p > BRANCH_CUT:
            out.append((weight * p, projected / math.sqrt(p), {**records, agent: outcome}))
    return out


def ensemble(spec, model, through_time=None):
    """Branches after evolving ``spec`` under ``model`` up to ``through_time``."""
    labels = list(spec.registry.labels)
    dims = list(spec.registry.dims)
    branches = [(1.0, np.asarray(spec.initial.amplitudes, dtype=complex), {})]
    for step in spec.steps:
        if through_time is not None and step.time > through_time:
            break
        iso = step.iso
        domain = [labels.index(label) for label in iso.domain.labels]
        step_matrix = padded(iso.matrix, dims, domain)
        branches = [(w, step_matrix @ v, r) for w, v, r in branches]
        labels.append(iso.appended.label)
        dims.append(iso.appended.dimension)
        if step.is_measurement and model.collapses_at(step.agent):
            branches = [
                child
                for branch in branches
                for i, outcome in enumerate(iso.outcome_labels)
                for child in split([branch], dims, len(dims) - 1, i, step.agent, outcome)
            ]
    return labels, dims, branches


def conditioned(spec, model, labels, dims, branches, condition):
    """Select collapsed records, project uncollapsed memories, renormalize."""
    for agent, outcome in condition.items():
        step = spec.step_for(agent)
        if model.collapses_at(agent):
            branches = [b for b in branches if b[2][agent] == outcome]
        else:
            axis = labels.index(step.iso.memory_label)
            index = step.iso.outcome_labels.index(outcome)
            branches = split(branches, dims, axis, index, agent, outcome)
    total = sum(w for w, _, _ in branches)
    return [(w / total, v, r) for w, v, r in branches]


def joint(spec, model, labels, dims, branches, through_time=None):
    """Joint outcome array over the measuring agents by ``through_time``, spec order."""
    steps = [
        s for s in spec.measuring_steps if through_time is None or s.time <= through_time
    ]
    out = np.zeros([len(s.iso.outcome_labels) for s in steps])
    for weight, vector, records in branches:
        probs = weight * np.abs(vector.reshape(dims)) ** 2
        index, free = [], []
        for s in steps:
            if s.agent in records:
                index.append(s.iso.outcome_labels.index(records[s.agent]))
            else:
                index.append(slice(None))
                free.append(labels.index(s.iso.memory_label))
        readout = probs.sum(axis=tuple(i for i in range(len(dims)) if i not in free))
        # Sum keeps the free axes in registry order; put them in agent order.
        out[tuple(index)] += readout.transpose(np.argsort(np.argsort(free)))
    return out


def reduced_density(labels, dims, branches, keep):
    """Σ w ψψ† on the full registry, then the discarded factors traced out."""
    d = math.prod(dims)
    rho = np.zeros((d, d), dtype=complex)
    for weight, vector, _ in branches:
        rho += weight * np.outer(vector, vector.conj())
    n = len(dims)
    kept = [labels.index(label) for label in labels if label in keep]
    rows = list(range(n))
    cols = [i if i not in kept else n + i for i in range(n)]
    out = np.einsum(rho.reshape(dims + dims), rows + cols, kept + [n + i for i in kept])
    d_keep = math.prod(dims[i] for i in kept)
    return out.reshape(d_keep, d_keep)


def assert_density(matrix: np.ndarray) -> None:
    """Hermitian within ATOL_CONSTRUCT, every eigenvalue at least -ATOL_PSD."""
    skew = float(np.max(np.abs(matrix - matrix.conj().T)))
    assert skew <= ATOL_CONSTRUCT, f"max |rho - rho^dagger| = {skew!r}"
    least = float(np.linalg.eigvalsh(matrix).min())
    assert least >= -ATOL_PSD, f"least eigenvalue {least!r}"
