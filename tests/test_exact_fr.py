"""Frauchiger–Renner in exact arithmetic, against the float program.

Every amplitude of the FR preset lies in Q(√2, √3), so every probability
the program reports for it is a rational number.  Here the state after F2's
measurement is written out by hand in sympy, with no wignersim code, and
each table the FR scenario consults is derived from it with exact
projectors:

* P(A=o, W=O) = 1/12 under ``ism``, the halting probability;
* F2|A at t4 and F1|F2 at t3 under ``ism``;
* W|F1 at t5 under ``clps:F1`` and under ``ism``.

Every float entry must lie within 1e-15 of the exact one, and each
certainty cell of the chain A:o ⇒ F2=U ⇒ F1=T ⇒ W=F is exactly 1: the
argument is of Hardy type and stands on exact 0s and 1s, so the certainty
and distribution tolerances have only rounding to absorb.
"""

import pytest

from wignersim.channels import NO_COLLAPSE, CollapseModel
from wignersim.experiment import conditional_table, evolve
from wignersim.presets import frauchiger_renner

sp = pytest.importorskip("sympy")

FLOAT_ATOL = 1e-15

# The factors are (C, F1, S, F2), each two-level: coin (h, t), F1's record
# (H, T), spin (up, down) and F2's record (U, D), labels in index order.
F1, F2 = ("H", "T"), ("U", "D")
W_OUTCOMES = ("O", "F", "perp2", "perp3")
A_OUTCOMES = ("o", "f", "perp2", "perp3")
ROOT2, ROOT3 = sp.sqrt(2), sp.sqrt(3)


def ket(*indices):
    """The product basis vector of two-level factors at ``indices``."""
    out = sp.Matrix([1])
    for i in indices:
        out = sp.kronecker_product(out, sp.Matrix([1 - i, i]))
    return out


def state_after_f2():
    """(C, F1, S, F2) after t3, expanded term by term.

    The coin is √(1/3)|h⟩ + √(2/3)|t⟩ and F1 records it (H with h, T with
    t).  F1 prepares |down⟩ after H and (|down⟩ + |up⟩)/√2 after T, and F2
    records the spin (U with up, D with down).
    """
    coin = {0: 1 / ROOT3, 1: ROOT2 / ROOT3}
    spin = {0: {1: 1}, 1: {1: 1 / ROOT2, 0: 1 / ROOT2}}
    psi = sp.zeros(16, 1)
    for c, a in coin.items():
        for s, b in spin[c].items():
            psi += a * b * ket(c, c, s, s)
    return psi


def pair_basis(first, second):
    """{(|first⟩ − |second⟩)/√2, (|first⟩ + |second⟩)/√2} on a two-factor lab,
    completed by |0,1⟩ and |1,0⟩: Gram–Schmidt over the computational basis
    in index order, as the preset's measurements complete it."""
    a, b = ket(*first), ket(*second)
    return [(a - b) / ROOT2, (a + b) / ROOT2, ket(0, 1), ket(1, 0)]


def on(vector, where):
    """The projector |v⟩⟨v| on the lab ``where`` ("CF1" or "SF2"), identity elsewhere."""
    proj = vector * vector.H
    eye = sp.eye(4)
    return sp.kronecker_product(proj, eye) if where == "CF1" else sp.kronecker_product(eye, proj)


def record(factor, index):
    """The projector on one record: F1 = ``index`` or F2 = ``index``."""
    one = sp.zeros(2, 2)
    one[index, index] = 1
    parts = [sp.eye(2), sp.eye(2), sp.eye(2), sp.eye(2)]
    parts[1 if factor == "F1" else 3] = one
    return sp.kronecker_product(*parts)


def weight(vector):
    return sp.expand((vector.H * vector)[0])


PSI = state_after_f2()
A_PROJ = [on(v, "CF1") for v in pair_basis((0, 0), (1, 1))]  # o = (|h,H⟩ − |t,T⟩)/√2
W_PROJ = [on(v, "SF2") for v in pair_basis((1, 1), (0, 0))]  # O = (|down,D⟩ − |up,U⟩)/√2


def exact_tables():
    """{(target, given, tag): {given outcome: {target outcome: exact}}}."""
    joints = {
        ("F2", "A", "ism"): {
            (a, z): weight(A_PROJ[i] * record("F2", j) * PSI)
            for i, a in enumerate(A_OUTCOMES) for j, z in enumerate(F2)
        },
        ("F1", "F2", "ism"): {
            (z, r): weight(record("F2", j) * record("F1", i) * PSI)
            for j, z in enumerate(F2) for i, r in enumerate(F1)
        },
        # F1's record is read after A's coherent measurement of it; A's
        # outcomes land in orthogonal memories, so their weights add.
        ("W", "F1", "ism"): {
            (r, w): sum(
                weight(record("F1", i) * proj * W_PROJ[k] * PSI) for proj in A_PROJ
            )
            for i, r in enumerate(F1) for k, w in enumerate(W_OUTCOMES)
        },
        # F1's collapse keeps the record in its branch; A's later measurement
        # is summed over, which leaves the branch as it is.
        ("W", "F1", "clps:F1"): {
            (r, w): weight(W_PROJ[k] * record("F1", i) * PSI)
            for i, r in enumerate(F1) for k, w in enumerate(W_OUTCOMES)
        },
    }
    tables = {}
    for key, joint in joints.items():
        givens = dict.fromkeys(g for g, _ in joint)
        tables[key] = {}
        for g in givens:
            total = sum(p for (gg, _), p in joint.items() if gg == g)
            if total != 0:
                tables[key][g] = {t: joint[g, t] / total for gg, t in joint if gg == g}
    return tables


EXACT = exact_tables()
MODELS = {"ism": NO_COLLAPSE, "clps:F1": CollapseModel.subjective("F1")}


def test_the_exact_derivation_is_rational_and_normalized():
    assert weight(PSI) == 1
    for columns in EXACT.values():
        for column in columns.values():
            assert all(p.is_Rational for p in column.values())
            assert sum(column.values()) == 1


def test_the_halting_probability_is_one_twelfth():
    exact = weight(A_PROJ[0] * W_PROJ[0] * PSI)
    assert exact == sp.Rational(1, 12)
    computed = evolve(frauchiger_renner(), NO_COLLAPSE).probability({"A": "o", "W": "O"})
    assert abs(sp.Rational(computed) - exact) <= FLOAT_ATOL


@pytest.mark.parametrize("key", list(EXACT), ids=lambda k: f"{k[0]}|{k[1]}-{k[2]}")
def test_every_table_entry_is_within_1e_15_of_the_exact_one(key):
    target, given, tag = key
    table = conditional_table(frauchiger_renner(), MODELS[tag], target, given)
    assert table.model_tag == tag
    exact = EXACT[key]
    assert set(table.columns) == set(exact)
    for g, column in exact.items():
        assert set(table.columns[g]) == set(column)
        for t, p in column.items():
            assert abs(sp.Rational(table.columns[g][t]) - p) <= FLOAT_ATOL, (g, t)


def test_each_certainty_cell_of_the_chain_is_exactly_one():
    """A:o ⇒ F2=U ⇒ F1=T ⇒ W=F, the last link under F1's collapse."""
    assert EXACT["F2", "A", "ism"]["o"]["U"] == 1
    assert EXACT["F1", "F2", "ism"]["U"]["T"] == 1
    assert EXACT["W", "F1", "clps:F1"]["T"]["F"] == 1
    # Without F1's collapse the T column is no point mass: there is no chain.
    assert EXACT["W", "F1", "ism"]["T"] == {
        "O": sp.Rational(1, 6), "F": sp.Rational(5, 6), "perp2": 0, "perp3": 0
    }
