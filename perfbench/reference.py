"""Independent oracle for the paper's presets: literal circuits, tiny engine.

Nothing here imports ``wignersim``.  The four presets are written out from
the paper's description (Frauchiger and Renner, arXiv:1604.07422, and the
single-lab Wigner/Deutsch setups), and a short ensemble-of-branches engine
of its own evolves them.  The engine follows the documented semantics of
the program:

* a measurement copies the index of the measured basis vector into a fresh
  memory factor appended at the end;
* a collapsing model splits the ensemble at that agent's measurement and
  keeps the outcome as the agent's record;
* an agent's entry in the joint is its record if its measurement collapsed,
  otherwise the diagonal readout of its memory at the end;
* a conditional table is read on the circuit truncated at the later of its
  two agents.

Measurement bases are given only by the vectors the paper names; outcomes
beyond them (the program's ``perp<i>`` completions) are checked to carry no
amplitude, which holds for every state these presets reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQ2 = math.sqrt(0.5)
SQ3 = math.sqrt(1.0 / 3.0)


@dataclass(frozen=True)
class Measure:
    time: int
    agent: str
    targets: tuple[str, ...]
    vectors: tuple[np.ndarray, ...]  # each shaped like the target factors
    labels: tuple[str, ...]  # every memory label, completions included


@dataclass(frozen=True)
class Prepare:
    time: int
    agent: str
    control: str
    output: str
    output_dim: int
    prepared: tuple[np.ndarray, ...]  # one output vector per control index


@dataclass(frozen=True)
class Circuit:
    factors: tuple[tuple[str, int], ...]
    initial: np.ndarray
    steps: tuple
    halting: tuple[tuple[str, str], ...] = ()

    @property
    def measurements(self) -> tuple[Measure, ...]:
        return tuple(s for s in self.steps if isinstance(s, Measure))

    def measurement(self, agent: str) -> Measure:
        return next(s for s in self.measurements if s.agent == agent)


def _vec(shape, entries: dict) -> np.ndarray:
    v = np.zeros(shape, dtype=complex)
    for index, amp in entries.items():
        v[index] = amp
    return v


def _perp(labels: tuple[str, ...], size: int) -> tuple[str, ...]:
    return labels + tuple(f"perp{i}" for i in range(len(labels), size))


def fr() -> Circuit:
    """Coin C (h, t), F1 records H/T and prepares spin S (up, down), F2 records
    U/D, the assistant A measures (C, F1) in {o, f}, Wigner W measures (S, F2)
    in {O, F}; runs halt on A = o and W = O."""
    return Circuit(
        factors=(("C", 2),),
        initial=np.array([SQ3, math.sqrt(2.0 / 3.0)], dtype=complex),
        steps=(
            Measure(1, "F1", ("C",), (_vec(2, {0: 1}), _vec(2, {1: 1})), ("H", "T")),
            Prepare(2, "F1", "F1", "S", 2, (_vec(2, {1: 1}), _vec(2, {0: SQ2, 1: SQ2}))),
            Measure(3, "F2", ("S",), (_vec(2, {0: 1}), _vec(2, {1: 1})), ("U", "D")),
            Measure(
                4, "A", ("C", "F1"),
                (_vec((2, 2), {(0, 0): SQ2, (1, 1): -SQ2}),
                 _vec((2, 2), {(0, 0): SQ2, (1, 1): SQ2})),
                _perp(("o", "f"), 4),
            ),
            Measure(
                5, "W", ("S", "F2"),
                (_vec((2, 2), {(1, 1): SQ2, (0, 0): -SQ2}),
                 _vec((2, 2), {(1, 1): SQ2, (0, 0): SQ2})),
                _perp(("O", "F"), 4),
            ),
        ),
        halting=(("A", "o"), ("W", "O")),
    )


def wigner(basis: str) -> Circuit:
    """Spin S (up, down) in equal superposition; F records u/d; W measures
    (S, F) in the product basis {U, D} or the Bell-like basis {phi+, phi-}."""
    if basis == "product":
        vectors = (_vec((2, 2), {(0, 0): 1}), _vec((2, 2), {(1, 1): 1}))
        labels = ("U", "D")
    else:
        vectors = (
            _vec((2, 2), {(0, 0): SQ2, (1, 1): SQ2}),
            _vec((2, 2), {(0, 0): SQ2, (1, 1): -SQ2}),
        )
        labels = ("phi+", "phi-")
    return Circuit(
        factors=(("S", 2),),
        initial=np.array([SQ2, SQ2], dtype=complex),
        steps=(
            Measure(1, "F", ("S",), (_vec(2, {0: 1}), _vec(2, {1: 1})), ("u", "d")),
            Measure(2, "W", ("S", "F"), vectors, _perp(labels, 4)),
        ),
    )


CIRCUITS = {
    "fr": fr,
    "deutsch": lambda: wigner("superposition"),
    "wigner-product": lambda: wigner("product"),
    "wigner-superposition": lambda: wigner("superposition"),
}


@dataclass(frozen=True)
class Branch:
    weight: float
    psi: np.ndarray  # one axis per factor, in ``labels`` order
    records: dict


def _collapses(model: str, agent: str) -> bool:
    return model == "objective" or model == f"clps:{agent}"


def _to_front(psi: np.ndarray, axes: list[int]) -> tuple[np.ndarray, list[int]]:
    order = axes + [a for a in range(psi.ndim) if a not in axes]
    return np.transpose(psi, order), order


def _from_front(t: np.ndarray, order: list[int]) -> np.ndarray:
    """Undo ``_to_front`` on the old axes; a trailing new axis stays last."""
    back = [order.index(a) for a in range(len(order))]
    return np.transpose(t, back + list(range(len(order), t.ndim)))


def run(circuit: Circuit, model: str, through: int | None = None):
    """Final ensemble and factor labels after the steps up to ``through``."""
    labels = [name for name, _ in circuit.factors]
    branches = [Branch(1.0, circuit.initial.copy(), {})]
    for step in circuit.steps:
        if through is not None and step.time > through:
            break
        nxt = []
        for b in branches:
            if isinstance(step, Prepare):
                t, order = _to_front(b.psi, [labels.index(step.control)])
                out = np.zeros(t.shape + (step.output_dim,), dtype=complex)
                for c, vec in enumerate(step.prepared):
                    out[c] = np.multiply.outer(t[c], vec)
                nxt.append(Branch(b.weight, _from_front(out, order), b.records))
                continue
            axes = [labels.index(x) for x in step.targets]
            t, order = _to_front(b.psi, axes)
            tshape = t.shape[: len(axes)]
            flat = t.reshape(math.prod(tshape), -1)
            k = len(step.labels)
            coeffs = [v.reshape(-1).conj() @ flat for v in step.vectors]
            leftover = np.linalg.norm(flat) ** 2 - sum(np.linalg.norm(c) ** 2 for c in coeffs)
            if abs(leftover) > 1e-12:
                raise ValueError(f"{step.agent}: state leaves the span of the named basis")
            parts = []
            for j, (v, c) in enumerate(zip(step.vectors, coeffs)):
                out = np.zeros(flat.shape + (k,), dtype=complex)
                out[..., j] = np.outer(v.reshape(-1), c)
                parts.append((j, np.linalg.norm(c) ** 2, _from_front(out.reshape(t.shape + (k,)), order)))
            if _collapses(model, step.agent):
                for j, p, psi in parts:
                    if p > 1e-12:
                        records = dict(b.records, **{step.agent: step.labels[j]})
                        nxt.append(Branch(b.weight * p, psi / math.sqrt(p), records))
            else:
                nxt.append(Branch(b.weight, sum(psi for _, _, psi in parts), b.records))
        branches = nxt
        labels.append(step.agent if isinstance(step, Measure) else step.output)
    return branches, labels


def joint(circuit: Circuit, model: str, through: int | None = None):
    """Dense P over the measuring agents up to ``through``; returns (agents, alphabets, P)."""
    steps = [s for s in circuit.measurements if through is None or s.time <= through]
    agents = tuple(s.agent for s in steps)
    alphabets = tuple(s.labels for s in steps)
    branches, labels = run(circuit, model, through)
    out = np.zeros(tuple(len(a) for a in alphabets))
    read = [labels.index(s.agent) for s in steps if not _collapses(model, s.agent)]
    for b in branches:
        # Diagonal readout of the uncollapsed agents' memories, in agent order.
        t, _ = _to_front(np.abs(b.psi) ** 2, read)
        readout = t.reshape(t.shape[: len(read)] + (-1,)).sum(axis=-1)
        index = tuple(
            s.labels.index(b.records[s.agent]) if _collapses(model, s.agent) else slice(None)
            for s in steps
        )
        out[index] += b.weight * readout
    return agents, alphabets, out


def conditional(circuit: Circuit, model: str, target: str, given: str) -> dict:
    """P(target | given) columns, read on the circuit truncated at the later agent."""
    through = max(circuit.measurement(target).time, circuit.measurement(given).time)
    agents, alphabets, probs = joint(circuit, model, through)
    ti, gi = agents.index(target), agents.index(given)
    pair = probs.sum(axis=tuple(a for a in range(len(agents)) if a not in (ti, gi)))
    if ti > gi:
        pair = pair.T
    out = {}
    for g_idx, g in enumerate(alphabets[gi]):
        pg = pair[:, g_idx].sum()
        if pg > 1e-9:
            out[g] = {t: float(pair[t_idx, g_idx] / pg) for t_idx, t in enumerate(alphabets[ti])}
    return out


def memory_state(circuit: Circuit, model: str, discard: set, given: dict | None = None) -> np.ndarray:
    """Reduced density matrix of the kept factors (in factor order) after the circuit."""
    branches, labels = run(circuit, model)
    given = given or {}
    kept = []
    for b in branches:
        psi = b.psi
        weight = b.weight
        skip = False
        for agent, outcome in given.items():
            step = circuit.measurement(agent)
            index = step.labels.index(outcome)
            if _collapses(model, agent):
                skip = skip or b.records[agent] != outcome
            else:
                axis = labels.index(agent)
                mask = np.zeros(psi.shape[axis])
                mask[index] = 1.0
                shape = [1] * psi.ndim
                shape[axis] = -1
                psi = psi * mask.reshape(shape)
        if not skip:
            norm_sq = float(np.linalg.norm(psi) ** 2)
            kept.append((weight * norm_sq, psi / math.sqrt(norm_sq) if norm_sq > 0 else psi))
    total = sum(w for w, _ in kept)
    keep_axes = [a for a, name in enumerate(labels) if name not in discard]
    d_keep = math.prod(kept[0][1].shape[a] for a in keep_axes)
    rho = np.zeros((d_keep, d_keep), dtype=complex)
    for w, psi in kept:
        if w <= 0:
            continue
        t, _ = _to_front(psi, keep_axes)
        m = t.reshape(d_keep, -1)
        rho += (w / total) * (m @ m.conj().T)
    return rho


def halting_probability_einsum() -> float:
    """P(A = o, W = O) in FR by literal amplitude expansion, as in criterion 8.

    After both friends have measured, the (C, F1, S, F2) amplitudes are
    sqrt(1/3) on hHdD, tTdD and tTuU; the superobservers only copy their
    outcome, so the halting probability is |<o| x <O| psi>|^2.
    """
    psi = np.zeros((2, 2, 2, 2), dtype=complex)
    psi[0, 0, 1, 1] = SQ3
    psi[1, 1, 1, 1] = SQ3
    psi[1, 1, 0, 0] = SQ3
    o_vec = _vec((2, 2), {(0, 0): SQ2, (1, 1): -SQ2})
    big_o = _vec((2, 2), {(1, 1): SQ2, (0, 0): -SQ2})
    return float(abs(np.einsum("cfsz,cf,sz->", psi, o_vec.conj(), big_o.conj())) ** 2)
