"""The positivity proof in ``DensityMatrix`` against an independent oracle.

The oracle is the full spectrum, ``np.linalg.eigvalsh``.  Matrices are built
from a chosen spectrum and a random unitary, so the smallest eigenvalue is
known: low rank, full rank, and positive semidefinite plus one eigenvalue
moved to ±k·ATOL_PSD for k in {0.1, 10}.  Some carry a skew part just inside
the 1e-12 Hermitian tolerance.  Dimensions stay at or below 64.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignersim.registry import SubsystemRegistry
from wignersim import states
from wignersim.states import (
    ATOL_PSD,
    BLOCK,
    EIGVALSH_MAX_DIM,
    DensityMatrix,
    _psd_certified,
)

BAND = 1e-13  # verdicts this close to -ATOL_PSD may go either way


def one_factor(d):
    return SubsystemRegistry.build([("S", tuple(str(i) for i in range(d)))])


def from_spectrum(spectrum, seed, skew=0.0, d=None):
    """U diag(spectrum) U† for a random unitary U, on a random set of rows of
    a d×d zero matrix (a memory density leaves most basis rows empty), plus
    an anti-Hermitian part whose entries are at most ``skew``."""
    rng = np.random.default_rng(seed)
    m = len(spectrum)
    d = m if d is None else d
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    u, _ = np.linalg.qr(z)
    block = (u * spectrum) @ u.conj().T
    rows = rng.permutation(d)[:m]
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[np.ix_(rows, rows)] = (block + block.conj().T) / 2
    signs = rng.choice([-1.0, 1.0], size=(d, d))
    return mat + 1j * skew * np.triu(signs) + 1j * skew * np.triu(signs, 1).T


@st.composite
def spectra(draw, kinds=("low-rank", "full-rank", "perturbed")):
    """(spectrum, seed, skew, d); positive parts are scaled to trace 1.

    A spectrum covers m ≤ d rows; a full-rank one covers all d.  About half
    the weights are tiny (1e-9 to 1e-6), so the proof must pivot on them."""
    kind = draw(st.sampled_from(kinds))
    least = 2 if kind == "perturbed" else 1
    d = draw(st.integers(least, 64))
    m = d if kind == "full-rank" else draw(st.integers(least, d))
    if kind == "low-rank":
        rank = draw(st.integers(1, max(1, m // 4)))
    elif kind == "full-rank":
        rank = m
    else:
        rank = draw(st.integers(1, m - 1))
    weight = st.one_of(st.floats(0.05, 1.0), st.floats(1e-9, 1e-6)) if rank > 1 else st.just(1.0)
    weights = np.array(draw(st.lists(weight, min_size=rank, max_size=rank)))
    spectrum = np.zeros(m)
    spectrum[:rank] = weights / weights.sum()
    if kind == "perturbed":
        spectrum[-1] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([0.1, 10.0])) * ATOL_PSD
    seed = draw(st.integers(0, 2**32 - 1))
    skew = draw(st.sampled_from([0.0, 0.0, 4.9e-13]))
    return spectrum, seed, skew, d


def accepts(mat):
    try:
        DensityMatrix(one_factor(len(mat)), mat, subnormalized=True)
    except ValueError as err:
        assert "negative eigenvalue" in str(err)
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(spectra())
def test_accepts_exactly_when_no_eigenvalue_is_below_the_bound(case):
    spectrum, seed, skew, d = case
    mat = from_spectrum(spectrum, seed, skew, d)
    eigmin = float(np.linalg.eigvalsh(mat).min())
    if abs(eigmin + ATOL_PSD) > BAND:
        assert accepts(mat) == (eigmin >= -ATOL_PSD)


@settings(max_examples=300, deadline=None)
@given(spectra())
def test_a_proof_implies_the_bound(case):
    """ATOL_PSD/2 for a Hermitian matrix, ATOL_PSD/√2 within the 1e-12 skew."""
    spectrum, seed, skew, d = case
    mat = from_spectrum(spectrum, seed, skew, d)
    if _psd_certified(mat):
        proven = ATOL_PSD / 2 if skew == 0.0 else ATOL_PSD / math.sqrt(2)
        assert float(np.linalg.eigvalsh(mat).min()) >= -proven - BAND


@settings(max_examples=200, deadline=None)
@given(spectra(kinds=("low-rank", "full-rank")))
def test_positive_semidefinite_matrices_need_no_spectrum(case):
    """The proof goes through on every Hermitian positive semidefinite draw:
    eigvalsh is a fallback, and a proof that fails here falls back everywhere.
    A skew part near 1e-12 may spend the proof's margin, so none is added."""
    spectrum, seed, _, d = case
    assert _psd_certified(from_spectrum(spectrum, seed, d=d))


@pytest.mark.parametrize("d", [1, 2, 64, 256])
def test_a_negative_direction_is_never_proved(d):
    spectrum = np.zeros(d)
    spectrum[0] = 1.0
    spectrum[-1] = -10 * ATOL_PSD if d > 1 else -1.0
    mat = from_spectrum(spectrum, seed=d)
    assert not _psd_certified(mat)
    assert not accepts(mat)


def test_a_small_density_goes_straight_to_the_spectrum_with_the_same_verdict(monkeypatch):
    spectrum = np.array([0.5, 0.3, 0.2 + 2 * ATOL_PSD, -2 * ATOL_PSD])
    mat = from_spectrum(spectrum, seed=4)
    assert len(mat) <= EIGVALSH_MAX_DIM
    eigmin = float(np.min(np.linalg.eigvalsh(mat)))
    assert eigmin == pytest.approx(-2 * ATOL_PSD, abs=1e-15)
    monkeypatch.setattr(states, "_psd_certified", lambda _: pytest.fail("the proof ran"))
    message = f"density matrix has negative eigenvalue {eigmin!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DensityMatrix(one_factor(4), mat)
    assert accepts(from_spectrum(np.array([0.5, 0.3, 0.2, 0.0]), seed=4))


def test_the_zero_matrix_is_proved_at_rank_zero():
    assert _psd_certified(np.zeros((8, 8), dtype=np.complex128))


def test_the_remainder_reads_the_last_partial_row_block():
    """d = 2·BLOCK + 3: a pure state on the first two row blocks, and what is
    wrong only in the last three rows, where the remainder's partial block lies."""
    d = 2 * BLOCK + 3
    rng = np.random.default_rng(16)
    u = np.zeros(d, dtype=np.complex128)
    u[: 2 * BLOCK] = rng.normal(size=2 * BLOCK) + 1j * rng.normal(size=2 * BLOCK)
    u /= np.linalg.norm(u)
    pure = np.outer(u, u.conj())
    assert _psd_certified(pure)

    v = np.zeros(d, dtype=np.complex128)
    v[-3:] = np.array([1.0, 1j, -1.0]) / math.sqrt(3)
    negative = pure - 3e-10 * np.outer(v, v.conj())
    assert not _psd_certified(negative)
    assert not accepts(negative)

    nan = pure.copy()
    nan[d - 1, d - 2] = nan[d - 2, d - 1] = math.nan
    assert not _psd_certified(nan)
