import math

import numpy as np
import pytest

from hafkit import (
    InputError,
    SkewMatrix,
    SymMatrix,
    log_det_skew,
    pfaffian_log,
    pfaffian_log_stack,
    spectrum,
)

from helpers import naive_pfaffian, random_skew


def test_pfaffian_2x2_is_upper_entry():
    log_abs, sign = pfaffian_log(SkewMatrix([[0, 1], [-1, 0]]))
    assert log_abs == 0.0 and sign == 1
    log_abs, sign = pfaffian_log(SkewMatrix([[0, -2.5], [2.5, 0]]))
    assert sign == -1
    assert math.isclose(log_abs, math.log(2.5))


def test_pfaffian_zero_matrix_singular():
    log_abs, sign = pfaffian_log(SkewMatrix(np.zeros((4, 4))))
    assert log_abs == -math.inf and sign == 0


def test_pfaffian_odd_dimension_degenerate():
    w = SkewMatrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
    assert pfaffian_log(w) == (-math.inf, 0)


def test_log_det_2x2():
    assert math.isclose(log_det_skew(SkewMatrix([[0, 3], [-3, 0]])), math.log(9))


def test_log_det_block_diagonal_sums_pair_logs():
    gs = [1.5, -0.3, 2.0]
    n = 2 * len(gs)
    w = np.zeros((n, n))
    for k, g in enumerate(gs):
        w[2 * k, 2 * k + 1] = g
        w[2 * k + 1, 2 * k] = -g
    expected = 2.0 * sum(math.log(abs(g)) for g in gs)
    assert math.isclose(log_det_skew(SkewMatrix(w)), expected, rel_tol=1e-12)


def test_pfaffian_4x4_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = random_skew(rng, 4)
        pf = w[0, 1] * w[2, 3] - w[0, 2] * w[1, 3] + w[0, 3] * w[1, 2]
        log_abs, sign = pfaffian_log(SkewMatrix(w))
        assert math.isclose(sign * math.exp(log_abs), pf, rel_tol=1e-12)


def test_pfaffian_matches_signed_pairing_sum():
    rng = np.random.default_rng(6)
    for n in (2, 4, 6):
        w = random_skew(rng, n)
        pf = naive_pfaffian(w)
        log_abs, sign = pfaffian_log(SkewMatrix(w))
        assert math.isclose(sign * math.exp(log_abs), pf, rel_tol=1e-10)


@pytest.mark.parametrize("n", [6, 8, 12])
def test_det_matches_lu_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        w = random_skew(rng, n)
        ld = log_det_skew(SkewMatrix(w))
        sign, lu_ld = np.linalg.slogdet(w)
        assert sign > 0
        assert abs(ld - lu_ld) < 1e-10 * max(1.0, abs(lu_ld))


def test_det_nonnegative_and_pfaffian_consistent_bulk():
    rng = np.random.default_rng(99)
    for n in (2, 4, 6, 8, 10):
        ws = np.zeros((200, n, n))
        iu = np.triu_indices(n, 1)
        vals = rng.normal(size=(200, iu[0].size))
        vals[rng.random(vals.shape) < 0.3] = 0.0
        ws[:, iu[0], iu[1]] = vals
        ws -= np.transpose(ws, (0, 2, 1))
        log_abs, sign = pfaffian_log_stack(ws)
        assert np.all(np.isin(sign, (-1.0, 0.0, 1.0)))
        np_sign, np_ld = np.linalg.slogdet(ws)
        dead = sign == 0
        assert np.all(log_abs[dead] == -np.inf)
        # LU can only agree up to rounding when it sees the exact singularity
        assert np.all((np_sign[dead] == 0) | (np_ld[dead] < -20))
        live = ~dead
        assert np.all(np_sign[live] > 0)
        assert np.allclose(2.0 * log_abs[live], np_ld[live], rtol=0, atol=1e-8)


def test_pfaffian_log_domain_survives_extreme_scales():
    # det would under/overflow in linear arithmetic; logs must not
    w = np.zeros((4, 4))
    w[0, 1] = 1e-200
    w[1, 0] = -1e-200
    w[2, 3] = 1e200
    w[3, 2] = -1e200
    log_abs, sign = pfaffian_log(SkewMatrix(w))
    assert sign == 1
    assert abs(log_abs) < 1e-9  # Pf = 1e-200 * 1e200 = 1
    big = SkewMatrix(w * 1e100)  # entries 1e-100 and 1e300, Pf = 1e200
    log_abs2, _ = pfaffian_log(big)
    assert math.isclose(log_abs2, 200 * math.log(10), rel_tol=1e-12)


def test_stack_input_untouched():
    rng = np.random.default_rng(3)
    ws = np.stack([random_skew(rng, 6) for _ in range(4)])
    keep = ws.copy()
    pfaffian_log_stack(ws)
    assert np.array_equal(ws, keep)


def test_spectrum_2x2():
    rep = spectrum(SkewMatrix([[0, 2], [-2, 0]]))
    assert np.allclose(rep.eigenvalues_iw, [2.0, -2.0])
    assert np.allclose(rep.singular_values, [2.0, 2.0])
    assert rep.smallest_singular == pytest.approx(2.0)
    assert rep.operator_norm == pytest.approx(2.0)


def test_spectrum_zero_matrix():
    rep = spectrum(SkewMatrix(np.zeros((4, 4))))
    assert np.all(rep.eigenvalues_iw == 0)
    assert np.all(rep.singular_values == 0)


def test_spectrum_trace_identity():
    rng = np.random.default_rng(10)
    w = random_skew(rng, 10)
    rep = spectrum(SkewMatrix(w))
    fro2 = float(np.sum(w * w))
    assert math.isclose(float(np.sum(rep.singular_values**2)), fro2, rel_tol=1e-8)


def test_spectrum_plus_minus_pairs():
    rng = np.random.default_rng(11)
    for n in (4, 5, 7, 8, 10):
        w = random_skew(rng, n)
        rep = spectrum(SkewMatrix(w))
        eig = rep.eigenvalues_iw
        assert np.allclose(eig, -eig[::-1], atol=1e-8 * rep.operator_norm)
        # the eigenvalues derived from the SVD match an independent Hermitian eigensolve
        want = np.linalg.eigvalsh(1j * w)[::-1]
        assert np.allclose(eig, want, rtol=0, atol=1e-12 * rep.operator_norm)


def test_negative_second_moment_identity():
    # sum_j (h_j^T W_j)^-2 == ||W^-1||_HS^2 with h_j the unit normal to the other columns
    rng = np.random.default_rng(12)
    for _ in range(10):
        w = random_skew(rng, 6)
        inv = np.linalg.inv(w)
        hs2 = float(np.sum(inv * inv))
        total = 0.0
        for j in range(6):
            others = np.delete(w, j, axis=1)
            # h_j spans the null space of the other columns' transpose
            _, _, vt = np.linalg.svd(others.T)
            h = vt[-1]
            total += float(h @ w[:, j]) ** -2
        assert math.isclose(total, hs2, rel_tol=1e-6)


def test_eig_symmetric_stochastic_perron_root():
    from hafkit import scale_symmetric

    rng = np.random.default_rng(13)
    n = 50
    a = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    a[iu] = rng.random(iu[0].size) + 0.05
    a += a.T
    b = scale_symmetric(SymMatrix(a), residual_target=1e-12, max_iterations=100_000).b
    eig = np.linalg.eigvalsh(b.entries)
    assert abs(eig[-1] - 1.0) < 1e-10


def test_sym_matrix_validation():
    with pytest.raises(InputError):
        SymMatrix([[0, 1], [1, 0.5]])  # nonzero diagonal
    with pytest.raises(InputError):
        SymMatrix([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(InputError):
        SymMatrix([[0, -1], [-1, 0]])  # negative
    with pytest.raises(InputError):
        SymMatrix([[0, np.inf], [np.inf, 0]])  # non-finite
    with pytest.raises(InputError):
        SymMatrix(np.zeros((2, 3)))  # not square
    with pytest.raises(InputError):
        SymMatrix(np.zeros((0, 0)))  # empty


def test_skew_matrix_validation():
    with pytest.raises(InputError):
        SkewMatrix([[0, 1], [1, 0]])
    with pytest.raises(InputError):
        SkewMatrix([[0, np.nan], [np.nan, 0]])
    w = SkewMatrix([[0, 1], [-1, 0]])
    with pytest.raises(ValueError):
        w.entries[0, 1] = 5.0  # frozen buffer


def test_sym_matrix_requires_even_for_hafnian_paths():
    s = SymMatrix(np.zeros((3, 3)))
    with pytest.raises(InputError):
        s.require_even()
