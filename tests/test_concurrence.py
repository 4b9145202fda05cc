"""target-secret detection as a function of each nonce's concurrence alone.

A recoverable nonce is psi_i = 1/2 sum_s e^{i phi_{i,s}}|s>, and all four
of its shares have concurrence C_i = 2|det M| = |cos(Delta_i / 2)|, with
Delta_i = phi_00 + phi_11 - phi_01 - phi_10 (the ``qsslab.analysis``
docstring has the proof that target-secret then detects with probability
(1 - p)/2 (1 - mean C_i)).  A local diagonal D_E x D_B on one nonce adds
a_x + b_y to phi_{xy}, which leaves Delta_i as it is, so target-secret
detection must not move, whatever diagonal each nonce gets.  On the
builtins every amplitude is a Gaussian rational over 2, so C_i is checked
exact with ``fractions.Fraction`` and the pinned 0 and 1/4 derived from it.
"""
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab.adversary import POLICY_TARGET_SECRET
from qsslab.analysis import detection_bounds
from qsslab.nonces import builtin_nonce_set
from oracles import phase_set

PRIORS = (0.0, 0.25, 0.5, 0.9, 1.0)
TOL_FORM = 1e-12

_closed = settings(max_examples=96, deadline=None, derandomize=True, database=None)
# k = 1..16 nonces: four phases and four local angles (a_0, a_1, b_0, b_1) each.
_rows = st.lists(st.floats(0.0, 2.0 * np.pi), min_size=8, max_size=8)
_phases_and_angles = st.lists(_rows, min_size=1, max_size=16).map(np.array)


@_closed
@given(_phases_and_angles)
def test_target_secret_ignores_per_nonce_local_diagonals(rows):
    phases, angles = rows[:, :4], rows[:, 4:]
    # Basis order 00, 01, 10, 11, Eve's qubit first: D_E x D_B adds a_x + b_y.
    local = angles[:, [0, 0, 1, 1]] + angles[:, [2, 3, 2, 3]]
    ns = phase_set(phases, f"phase-{len(rows)}")
    moved = phase_set(phases + local, f"local-{len(rows)}")
    for p in PRIORS:
        before = detection_bounds(ns, p)["per_policy"][POLICY_TARGET_SECRET]
        after = detection_bounds(moved, p)["per_policy"][POLICY_TARGET_SECRET]
        assert abs(after - before) <= TOL_FORM, p


def _gaussian_halves(psi: np.ndarray) -> list:
    """Each amplitude as an exact (re, im) pair of Fractions over 2; the
    float amplitude must lie within 1e-15 of it."""
    out = []
    for z in psi:
        exact = (Fraction(round(2.0 * z.real), 2), Fraction(round(2.0 * z.imag), 2))
        assert abs(z - complex(*map(float, exact))) <= 1e-15, z
        out.append(exact)
    return out


def _times(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _exact_concurrences(name: str) -> list:
    """C_i of every nonce of a builtin, each from 4|det M|^2 of its four shares."""
    out = []
    for psi in builtin_nonce_set(name).states:
        squares = set()
        for n in range(4):
            m = _gaussian_halves(psi)
            m[n] = (-m[n][0], -m[n][1])  # the share U_s|psi>: amplitude s negated
            a, b = _times(m[0], m[3]), _times(m[1], m[2])
            det = (a[0] - b[0], a[1] - b[1])
            squares.add(4 * (det[0] ** 2 + det[1] ** 2))  # (2|det M|)^2
        assert len(squares) == 1 and squares <= {0, 1}, (name, squares)
        out.append(squares.pop())  # C_i = C_i^2 where C_i is 0 or 1
    return out


def test_builtin_concurrences_are_exactly_zero_or_one():
    hsu, proposed = _exact_concurrences("hsu-I"), _exact_concurrences("proposed-J")
    assert hsu == [1] * 16 and proposed == [0] * 4
    half = Fraction(1, 2)
    for name, cs, want in (("hsu-I", hsu, 0), ("proposed-J", proposed, Fraction(1, 4))):
        detect = (1 - half) / 2 * (1 - Fraction(sum(cs), len(cs)))
        assert detect == want
        bounds = detection_bounds(builtin_nonce_set(name), 0.5)
        assert abs(bounds["per_policy"][POLICY_TARGET_SECRET] - float(detect)) <= TOL_FORM
        assert abs(bounds["floor"] - float(detect)) <= TOL_FORM
