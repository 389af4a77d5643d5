"""The GHZ friend/superobserver family ``ghz(n, m)`` and its closed forms.

Qubits ``Q0..Q{n-1}`` start in alpha|0...0> + beta|1...1>.  Friend ``Fi``
measures ``Qi`` in the computational basis and records ``a``/``b``.
Superobserver ``Wi`` (i < m) measures the pair (Qi, Fi) in
{e_p = c|0a> + s|1b>, e_m = s|0a> - c|1b>} with c = cos(theta_i),
s = sin(theta_i); the program completes that basis to four outcomes
(``p``, ``m``, ``perp2``, ``perp3``).  Total dimension is 4^n * 4^m.

The spec is built only from the public ``wignersim`` API.  Everything else in
this module is the oracle: closed-form joints, conditionals and memory states
as functions of alpha, beta and the thetas, written with plain numpy and no
``wignersim`` code.  Because (Qi, Fi) never leaves span{|0a>, |1b>}, each
site is described by two 2x4 amplitude tables over (friend record, W record):
``a0`` for the alpha branch and ``a1`` for the beta branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FRIEND_LABELS = ("a", "b")
W_LABELS = ("p", "m", "perp2", "perp3")


@dataclass(frozen=True)
class GhzParams:
    n: int
    m: int
    alpha: complex
    beta: complex
    thetas: tuple[float, ...]


def draw_params(rng: np.random.Generator, n: int, m: int) -> GhzParams:
    """Seeded amplitudes with |alpha|^2 in [0.2, 0.8] and thetas away from 0 and pi/2.

    Both bounds keep every conditioning event used by the workloads at
    probability >= sin(0.2)^2 * 0.2, so no question conditions on zero.
    """
    p_alpha = rng.uniform(0.2, 0.8)
    phase = rng.uniform(0.0, 2 * math.pi)
    alpha = complex(math.sqrt(p_alpha), 0.0)
    beta = math.sqrt(1.0 - p_alpha) * complex(math.cos(phase), math.sin(phase))
    thetas = tuple(float(t) for t in rng.uniform(0.2, 1.37, size=m))
    return GhzParams(n, m, alpha, beta, thetas)


def build_spec(ws, p: GhzParams):
    """The ``ghz(n, m)`` experiment, built through the public API ``ws``."""
    qubits = [ws.Subsystem(f"Q{i}", 2, ("0", "1")) for i in range(p.n)]
    registry = ws.SubsystemRegistry(tuple(qubits))
    amps = np.zeros(2**p.n, dtype=np.complex128)
    amps[0], amps[-1] = p.alpha, p.beta
    initial = ws.StateVector(registry, amps)
    steps = []
    friends = []
    for i, qubit in enumerate(qubits):
        reg = ws.SubsystemRegistry((qubit,))
        iso = ws.build_measurement_isometry(
            f"F{i}",
            reg,
            [ws.StateVector.basis_state(reg, "0"), ws.StateVector.basis_state(reg, "1")],
            memory=f"F{i}",
            memory_labels=FRIEND_LABELS,
        )
        friends.append(iso)
        steps.append(ws.Step(len(steps) + 1, iso))
    for i, theta in enumerate(p.thetas):
        c, s = math.cos(theta), math.sin(theta)
        pair = ws.SubsystemRegistry((qubits[i], friends[i].memory))
        basis = [
            ws.StateVector.from_terms(pair, {("0", "a"): c, ("1", "b"): s}),
            ws.StateVector.from_terms(pair, {("0", "a"): s, ("1", "b"): -c}),
        ]
        iso = ws.build_measurement_isometry(
            f"W{i}", pair, basis, memory=f"W{i}", memory_labels=W_LABELS[:2]
        )
        steps.append(ws.Step(len(steps) + 1, iso))
    return ws.ExperimentSpec(
        name=f"ghz-{p.n}-{p.m}", registry=registry, initial=initial, steps=tuple(steps)
    )


def agents(p: GhzParams, k: int | None = None) -> tuple[str, ...]:
    """Measuring agents in step order, with only the first ``k`` superobservers."""
    k = p.m if k is None else k
    return tuple(f"F{i}" for i in range(p.n)) + tuple(f"W{i}" for i in range(k))


def alphabets(p: GhzParams, k: int | None = None) -> tuple[tuple[str, ...], ...]:
    k = p.m if k is None else k
    return (FRIEND_LABELS,) * p.n + (W_LABELS,) * k


# --- closed forms -------------------------------------------------------------

def _site_tables(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes <f, w | W V (|0a> or |1b>)> over (friend record, W record)."""
    c, s = math.cos(theta), math.sin(theta)
    a0 = np.zeros((2, 4))
    a1 = np.zeros((2, 4))
    # |0a> = c e_p + s e_m and |1b> = s e_p - c e_m, with e_p = c|0a> + s|1b>,
    # e_m = s|0a> - c|1b>; the W record is the index of the e vector.
    a0[:, 0] = (c * c, c * s)
    a0[:, 1] = (s * s, -s * c)
    a1[:, 0] = (s * c, s * s)
    a1[:, 1] = (-c * s, c * c)
    return a0, a1


def _branch_tensors(p: GhzParams, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude tensors of the alpha and beta branches, axes (F0..Fn-1, W0..Wk-1)."""
    t0 = np.ones(())
    t1 = np.ones(())
    for i in range(p.n):
        if i < k:
            s0, s1 = _site_tables(p.thetas[i])
        else:
            s0 = np.array([1.0, 0.0])
            s1 = np.array([0.0, 1.0])
        t0 = np.multiply.outer(t0, s0)
        t1 = np.multiply.outer(t1, s1)
    # Axes are currently (f0, w0, f1, w1, ..., f_{k-1}, w_{k-1}, f_k, ..., f_{n-1}).
    order = [2 * i for i in range(k)] + list(range(2 * k, 2 * k + p.n - k))
    order += [2 * i + 1 for i in range(k)]
    return t0.transpose(order), t1.transpose(order)


def joint(p: GhzParams, model: str, k: int | None = None) -> np.ndarray:
    """P over (F0..Fn-1, W0..Wk-1) for the circuit truncated after ``Wk-1``.

    ``model`` is ``ism`` (every memory read at the end), ``objective``
    (every agent's collapse record) or ``clps:F0`` (F0's record, the rest read
    at the end).
    """
    k = p.m if k is None else k
    t0, t1 = _branch_tensors(p, k)
    pa, pb = abs(p.alpha) ** 2, abs(p.beta) ** 2
    if model == "ism":
        return np.abs(p.alpha * t0 + p.beta * t1) ** 2
    out = np.zeros(t0.shape)
    if model == "objective":
        # Every friend reports the record of the branch F0 collapsed into.
        friends = tuple(range(p.n))
        out[(0,) * p.n] = pa * (np.abs(t0) ** 2).sum(axis=friends)
        out[(1,) * p.n] = pb * (np.abs(t1) ** 2).sum(axis=friends)
        return out
    if model == "clps:F0":
        # F0 reports its record; its memory, rotated by W0, is read by nobody.
        out[0] = pa * (np.abs(t0) ** 2).sum(axis=0)
        out[1] = pb * (np.abs(t1) ** 2).sum(axis=0)
        return out
    raise ValueError(f"no closed form for model {model!r}")


def conditional(p: GhzParams, model: str, target: str, given: str) -> dict[str, dict[str, float]]:
    """P(target | given) on the circuit truncated at the later of the two agents."""
    # Friends all measure before any superobserver, and Wi is the (i+1)-th one.
    k = max((int(a[1:]) + 1 for a in (target, given) if a.startswith("W")), default=0)
    names = agents(p, k)
    labels = alphabets(p, k)
    probs = joint(p, model, k)
    ti, gi = names.index(target), names.index(given)
    other = tuple(a for a in range(len(names)) if a not in (ti, gi))
    pair = probs.sum(axis=other)
    if ti > gi:
        pair = pair.T  # rows: target, columns: given
    out = {}
    for g_idx, g in enumerate(labels[gi]):
        pg = pair[:, g_idx].sum()
        if pg > 1e-9:
            out[g] = {t: float(pair[t_idx, g_idx] / pg) for t_idx, t in enumerate(labels[ti])}
    return out


def _condition(p: GhzParams, t: np.ndarray, given: dict[str, str]) -> np.ndarray:
    names = agents(p)
    mask = np.ones(t.shape, dtype=bool)
    for agent, outcome in given.items():
        axis = names.index(agent)
        index = (FRIEND_LABELS if agent.startswith("F") else W_LABELS).index(outcome)
        sel = np.zeros(t.shape[axis], dtype=bool)
        sel[index] = True
        shape = [1] * t.ndim
        shape[axis] = -1
        mask &= sel.reshape(shape)
    return np.where(mask, t, 0)


def memory_state(
    p: GhzParams, model: str, keep_w: bool, given: dict[str, str] | None = None
) -> np.ndarray:
    """Reduced state on (F0..Fn-1[, W0..Wm-1]) after the full circuit.

    ``ism`` conditions by projecting the final memories; ``objective``
    conditions on collapse records, which for a friend differs from the final
    memory because its superobserver rotates that memory afterwards.
    """
    given = given or {}
    t0, t1 = _branch_tensors(p, p.m)
    d_f = 2**p.n
    if model == "ism":
        psi = _condition(p, p.alpha * t0 + p.beta * t1, given)
        psi = psi / np.linalg.norm(psi)
        psi = psi.reshape(d_f, -1)
        if not keep_w:
            return np.diag((np.abs(psi) ** 2).sum(axis=1)).astype(complex)
        # Q is a copy of F, so tracing Q out leaves one pure block per friend record.
        k = psi.shape[1]
        rho = np.zeros((psi.size, psi.size), dtype=complex)
        for f, row in enumerate(psi):
            rho[f * k:(f + 1) * k, f * k:(f + 1) * k] = np.outer(row, row.conj())
        return rho
    if model == "objective":
        records = dict(given)
        friend_record = records.pop("F0", None)
        w0 = abs(p.alpha) ** 2 * np.abs(t0) ** 2
        w1 = abs(p.beta) ** 2 * np.abs(t1) ** 2
        if friend_record == "a":
            w1 = np.zeros_like(w1)
        elif friend_record == "b":
            w0 = np.zeros_like(w0)
        diag = _condition(p, w0 + w1, records)
        diag = diag / diag.sum()
        diag = diag.reshape(d_f, -1)
        if not keep_w:
            diag = diag.sum(axis=1)
        return np.diag(diag.reshape(-1)).astype(complex)
    raise ValueError(f"no closed form for model {model!r}")


def evolved_density(p: GhzParams, model: str) -> np.ndarray:
    """Full density matrix over (Q..., F..., W...) after the full circuit."""
    n, m = p.n, p.m
    # Qi is a copy of Fi: embed each (f...) amplitude at q = f.
    def lift(t: np.ndarray) -> np.ndarray:
        out = np.zeros((2,) * n + t.shape, dtype=complex)
        for f in np.ndindex(*(2,) * n):
            out[f + f] = t[f]
        return out.reshape(-1)

    if model == "ism":
        t0, t1 = _branch_tensors(p, m)
        psi = lift(p.alpha * t0 + p.beta * t1)
        return np.outer(psi, psi.conj())
    if model == "objective":
        rho = np.zeros((4**n * 4**m,) * 2, dtype=complex)
        for start, weight in ((0, abs(p.alpha) ** 2), (1, abs(p.beta) ** 2)):
            # Each collapse branch is a product of e vectors and W records.
            for w in np.ndindex(*(2,) * m):
                prob, vec = _objective_branch(p, w, start, weight)
                rho += prob * np.outer(vec, vec.conj())
        return rho
    raise ValueError(f"no closed form for model {model!r}")


def _objective_branch(p: GhzParams, w: tuple[int, ...], start: int, weight: float):
    """Weight and state of the collapse branch with friend records all ``a``
    (``start`` 0) or all ``b`` (``start`` 1) and W records ``w``."""
    n, m = p.n, p.m
    prob = weight
    sites = []
    for i in range(n):
        if i < m:
            c, s = math.cos(p.thetas[i]), math.sin(p.thetas[i])
            e = (c, s) if w[i] == 0 else (s, -c)
            overlap = e[start]  # <e_w | 0a> or <e_w | 1b>
            prob *= overlap * overlap
            qf = np.zeros((2, 2))
            qf[0, 0], qf[1, 1] = e
        else:
            qf = np.zeros((2, 2))
            qf[start, start] = 1.0
        sites.append(qf)
    vec = np.ones(())
    for qf in sites:
        vec = np.multiply.outer(vec, qf)
    # Axes (q0, f0, q1, f1, ...) -> (q..., f...), then the W records.
    vec = vec.transpose([2 * i for i in range(n)] + [2 * i + 1 for i in range(n)])
    rec = np.ones(())
    for i in range(m):
        r = np.zeros(4)
        r[w[i]] = 1.0
        rec = np.multiply.outer(rec, r)
    return prob, np.multiply.outer(vec, rec).reshape(-1).astype(complex)
