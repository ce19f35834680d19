"""Conformal machinery: jets, the flat Schouten matrix, Mobius words."""

import collections
import math
import warnings

import numpy as np
import pytest

import sigmak_lab as sl
from sigmak_lab.conformal import _lifted, _pole, _walk_words
from sigmak_lab.errors import ConfigError, FloatRangeError, PoleError, PositivityError, \
    _require_positive

from fd_oracles import fd_jet_of_field, mobius_walk_mp
from field_factories import centered_bubble, random_test_field


def _safe_point(rng, psi, n, lo=0.5, hi=2.5, far=40.0):
    """Random point away from the word's poles with a bounded image."""
    poles = psi.poles(n)
    while True:
        x = rng.normal(size=n)
        norm = np.linalg.norm(x)
        if not lo <= norm <= hi:
            continue
        if any(np.linalg.norm(x - p) < 0.15 for p in poles):
            continue
        if np.linalg.norm(_image(psi, x)[0]) > far:
            continue
        return x


def _image(psi, x):
    """psi(x) and |det J| at x for a point x (n,), off the one-word walk."""
    st = psi._walk(np.asarray(x, dtype=float)[None])
    return st.y[0], float(np.exp(st.log_det[0]))


# ---------------------------------------------------------------------------
# jets and schouten_flat
# ---------------------------------------------------------------------------

def test_jet_validation():
    with pytest.raises(PositivityError):
        sl.Jet2(np.zeros(3), -1.0, np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ConfigError, match="asymmetry"):
        sl.Jet2(np.zeros(3), 1.0, np.zeros(3),
                np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    for grad, hess in [(np.zeros(2), np.zeros((3, 3))), (np.zeros(3), np.zeros((2, 2))),
                       (np.zeros((2, 3)), np.zeros((3, 3)))]:
        with pytest.raises(ConfigError, match="jet component shapes do not match"):
            sl.Jet2(np.zeros(3), 1.0, grad, hess)
    jet = sl.Jet2(np.zeros(3), 1.0, np.zeros(3), np.eye(3))
    np.testing.assert_array_equal(jet.hess, jet.hess.T)


def test_schouten_constant_field_vanishes():
    for n in (3, 5):
        jet = sl.constant_field(2.7, n).jet(np.linspace(0.1, 1.0, n))
        np.testing.assert_array_equal(sl.schouten_flat(jet), np.zeros((n, n)))


def test_schouten_output_exactly_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        h = rng.normal(size=(n, n))
        jet = sl.Jet2(rng.normal(size=n), float(rng.uniform(0.5, 2.0)),
                      rng.normal(size=n), 0.5 * (h + h.T))
        a = sl.schouten_flat(jet)
        np.testing.assert_array_equal(a, a.T)


def test_bubble_jet_isotropic_spectrum():
    rng = np.random.default_rng(3)
    for n, k in [(3, 1), (4, 2), (5, 3), (6, 6)]:
        field = centered_bubble(sl.BubbleSpec(n, k, 1.4), rng.normal(size=n))
        expected = math.comb(n, k) ** (-1.0 / k)
        for _ in range(10):
            lam = sl.schouten_spectrum(field.jet(rng.normal(scale=2.0, size=n)))
            np.testing.assert_allclose(lam, expected, atol=1e-9)


def test_trace_identity_for_first_symmetric_function():
    # for the k = 1 family member, sigma_1(lam(A)) = 1 is the same statement
    # as -u^{-(n+2)/(n-2)} lap(u) = (n-2)/2
    rng = np.random.default_rng(5)
    for n in (3, 4, 6):
        field = sl.bubble_field(sl.BubbleSpec(n, 1, 0.8))
        for _ in range(5):
            x = rng.normal(size=n)
            jet = field.jet(x)
            lam = sl.schouten_spectrum(jet)
            assert float(lam.sum()) == pytest.approx(1.0, abs=1e-11)
            lap = float(np.trace(jet.hess))
            assert -jet.u ** (-(n + 2.0) / (n - 2.0)) * lap \
                == pytest.approx((n - 2.0) / 2.0, rel=1e-11)


def test_spectrum_past_the_float_range_names_the_point():
    # u = 1e-100: u^{-5} overflows and, times the zero hessian, makes the
    # Schouten matrix nan, on which eigvalsh raises a bare LinAlgError;
    # the spectrum raises FloatRangeError at the jet's point, with no warning
    point = np.array([0.5, -1.0, 2.0])
    jet = sl.Jet2(point, 1e-100, np.zeros(3), np.zeros((3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match="Schouten matrix is not finite") as info:
            sl.schouten_spectrum(jet)
    np.testing.assert_array_equal(info.value.where, point)


def test_schouten_flat_past_the_float_range_names_the_point():
    # the same jet as above: the matrix itself raises FloatRangeError at the
    # jet's point, with no warning, where it was all nan
    point = np.array([0.5, -1.0, 2.0])
    jet = sl.Jet2(point, 1e-100, np.zeros(3), np.zeros((3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match="Schouten matrix is not finite") as info:
            sl.schouten_flat(jet)
    np.testing.assert_array_equal(info.value.where, point)


# ---------------------------------------------------------------------------
# mobius words
# ---------------------------------------------------------------------------

def test_mobius_identity_and_dilation():
    x = np.array([0.3, -1.2, 0.7])
    y, det = _image(sl.MobiusMap(()), x)
    np.testing.assert_array_equal(y, x)
    assert det == 1.0
    assert _image(sl.MobiusMap((sl.Dilation(2.0),)), x)[1] == pytest.approx(8.0)


def test_inversion_is_an_involution():
    rng = np.random.default_rng(11)
    twice = sl.MobiusMap((sl.Inversion(), sl.Inversion()))
    for _ in range(50):
        x = rng.normal(size=3)
        np.testing.assert_allclose(_image(twice, x)[0], x, atol=1e-12)
    # the identity word has no pole, not even where its first inversion has one
    for n in (3, 6):
        np.testing.assert_array_equal(_image(twice, np.zeros(n))[0], np.zeros(n))
        assert twice.poles(n) == []


def test_inversion_pole_raises():
    inv = sl.MobiusMap((sl.Inversion(),))
    with pytest.raises(PoleError):
        inv._walk(np.zeros((1, 3)))
    # lam is nan at a nan point, of a word with a pole or without one
    for psi in (inv, sl.MobiusMap(())):
        with pytest.raises(PoleError):
            psi._walk(np.array([[np.nan, 0.0, 0.0]]))


def test_every_word_avoids_an_empty_point_set():
    # the first word drawn is returned, a word with a pole among them
    rng = np.random.default_rng(3)
    words = [sl.random_mobius_map_avoiding(rng, 4, np.empty((0, 4)), 1.0) for _ in range(5)]
    assert any(psi.poles(4) for psi in words)


def test_rotation_validation():
    with pytest.raises(ValueError):
        sl.Rotation(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_constructor_and_argument_checks_are_config_errors():
    field = sl.constant_field(1.0, 3)
    bad_calls = [lambda: sl.Rotation(np.ones((2, 3))),
                 lambda: sl.Rotation(np.array([[1.0, 0.1], [0.0, 1.0]])),
                 lambda: sl.Rotation(np.full((3, 3), np.nan)),
                 lambda: sl.Translation([np.nan, 0.0, 0.0]),
                 lambda: sl.Translation(np.zeros((1, 3))),
                 lambda: sl.Dilation(0.0),
                 lambda: sl.Dilation(np.inf),
                 lambda: sl.MobiusMap(("inversion",)),
                 lambda: sl.constant_field(1.0, 2),
                 lambda: sl.ScalarField(3),
                 lambda: sl.ScalarField(3.5, jets=lambda X: X),
                 lambda: sl.ScalarField(3, lambda x: x, jets=lambda X: X),
                 lambda: field.jets(np.zeros((4, 2))),
                 lambda: field.raw_jet(np.zeros(2))]
    for call in bad_calls:
        with pytest.raises(ConfigError):
            call()


def test_malformed_evaluator_jets_are_config_errors():
    # a batch evaluator that returns the wrong number of values, a gradient or
    # hessian of the wrong shape, or an asymmetric hessian is a ConfigError
    # (still a ValueError), each named by its own message
    n, pts = 3, np.full((2, 3), 0.1)
    u, grad, hess = np.ones(2), np.zeros((2, n)), np.zeros((2, n, n))
    skew = hess.copy()
    skew[:, 0, 1] = 1.0
    cases = [((np.ones(3), grad, hess), "number of points"),
             ((u, np.zeros((2, n + 1)), hess), "point dimension"),
             ((u, grad, np.zeros((2, n, n + 1))), "point dimension")]
    for out, match in cases:
        field = sl.ScalarField(n, jets=lambda X, out=out: out)
        with pytest.raises(ConfigError, match=match):
            field.jets(pts)
    field = sl.ScalarField(n, jets=lambda X: (u, grad, skew))
    with pytest.raises(ConfigError, match="asymmetry"):
        sl.verify_solution(field, n, 1, sample_points=pts)
    assert issubclass(ConfigError, ValueError)


def test_mobius_jet_against_finite_differences():
    rng = np.random.default_rng(13)
    n = 3
    for _ in range(10):
        psi = sl.random_mobius_map(rng, n)
        x = _safe_point(rng, psi, n)
        st = psi.jet(x)
        h = 1e-5
        jac_fd = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            jac_fd[:, j] = (_image(psi, x + e)[0] - _image(psi, x - e)[0]) / (2.0 * h)
        np.testing.assert_allclose(st.jac, jac_fd, rtol=1e-6, atol=1e-6)
        det = _image(psi, x)[1]
        assert abs(abs(np.linalg.det(st.jac)) - det) <= 1e-12 * det
        grad_fd = np.zeros(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            grad_fd[j] = (math.log(_image(psi, x + e)[1])
                          - math.log(_image(psi, x - e)[1])) / (2.0 * h)
        np.testing.assert_allclose(st.grad_log_det, grad_fd, rtol=1e-5, atol=1e-6)


def test_mobius_inverse_and_poles():
    rng = np.random.default_rng(17)
    n = 3
    for _ in range(10):
        psi = sl.random_mobius_map(rng, n)
        x = _safe_point(rng, psi, n)
        back = _image(psi.inverse(), _image(psi, x)[0])[0]
        np.testing.assert_allclose(back, x, atol=1e-10)
    shifted = sl.MobiusMap((sl.Translation(np.array([1.0, 0.0, 0.0])),
                            sl.Inversion()))
    poles = shifted.poles(3)
    assert len(poles) == 1
    np.testing.assert_allclose(poles[0], [-1.0, 0.0, 0.0], atol=1e-14)
    # x -> 1 / (1/x + e_1) blows up at -e_1 only; the origin, the first
    # inversion's pole, maps to itself
    sandwich = sl.MobiusMap((sl.Inversion(), sl.Translation(np.array([1.0, 0.0, 0.0])),
                             sl.Inversion()))
    poles = sandwich.poles(3)
    assert len(poles) == 1
    np.testing.assert_array_equal(poles[0], [-1.0, 0.0, 0.0])
    np.testing.assert_array_equal(_image(sandwich, np.zeros(3))[0], np.zeros(3))


def test_a_word_forms_its_matrix_once_per_dimension():
    rng = np.random.default_rng(37)
    psi = sl.random_mobius_map(rng, 4)
    M = psi._matrix(4)
    assert psi._matrix(4) is M and not M.flags.writeable
    np.testing.assert_array_equal(M, sl.MobiusMap(psi.word)._matrix(4))
    assert psi._matrix(3).shape == (5, 5) and psi._matrix(4) is M


def test_a_word_has_at_most_one_pole():
    # a word without inversions has no pole, one with a single inversion has
    # exactly one, and lam = |det J|^(-1/n) vanishes there to rounding
    rng = np.random.default_rng(73)
    counts = collections.Counter()
    for i in range(1200):
        n = 3 + i % 6
        psi = sl.random_mobius_map(rng, n)
        poles = psi.poles(n)
        inversions = sum(isinstance(atom, sl.Inversion) for atom in psi.word)
        assert len(poles) <= 1
        if inversions < 2:
            assert len(poles) == inversions
        counts[inversions, len(poles)] += 1
        for p in poles:
            terms = psi._matrix(n)[0] * np.concatenate([[1.0], p, [p @ p]])
            assert abs(terms.sum()) <= 1e-14 * np.abs(terms).sum()
    assert counts[2, 1] > 0 and counts[3, 1] > 0


def test_a_word_then_its_inverse_is_the_identity():
    # psi then psi.inverse() cancels its translations only to rounding, so row
    # 0 of its matrix can carry an alpha of rounding size: no pole, and y, J
    # and the log-determinant terms of the identity
    rng = np.random.default_rng(29)
    worst, noisy = 0.0, 0
    for i in range(150):
        n = 3 + i % 6
        psi = sl.random_mobius_map(rng, n).then(sl.random_mobius_map(rng, n))
        if sum(isinstance(atom, sl.Inversion) for atom in psi.word) < 2:
            continue
        ident = psi.then(psi.inverse())
        noisy += ident._matrix(n)[0, n + 1] != 0.0
        assert ident.poles(n) == []
        X = rng.normal(size=(5, n))
        st = ident._walk(X)
        for got, ref in ((st.y, X), (st.log_det, 0.0), (st.jac, np.eye(n)),
                         (st.grad_log_det, 0.0)):
            worst = max(worst, float(np.abs(got - ref).max()))
    assert noisy >= 10
    assert worst <= 2e-11, worst  # 6.6e-12 measured


def test_walk_matches_a_50_digit_atom_walk():
    # random words of six atoms, n from 3 to 8, at a random point and within
    # 1e-6 of the pole of each inner inversion that is not the word's own
    # pole (the image tends to 0 there, so errors are measured against
    # max(1, |reference|)), and 1e-2 and 1e-3 from the word's own pole, drawn
    # from a second generator so that the words and the other points stay put
    rng, pole_rng = np.random.default_rng(71), np.random.default_rng(72)
    worst, near, own = {"away": 0.0, "at_pole": 0.0}, 0, 0
    for n in range(3, 9):
        for _ in range(4):
            psi = sl.random_mobius_map(rng, n).then(sl.random_mobius_map(rng, n))
            pts = [rng.normal(size=n)]
            for j, atom in enumerate(psi.word):
                if j and isinstance(atom, sl.Inversion):
                    try:
                        c = _image(sl.MobiusMap(psi.word[:j]).inverse(), np.zeros(n))[0]
                    except PoleError:  # the prefix sends infinity to 0
                        continue
                    d = rng.normal(size=n)
                    pts.append(c + 1e-6 * d / np.linalg.norm(d))
            pts = [(x, "away") for x in pts
                   if all(np.linalg.norm(x - p) > 0.1 for p in psi.poles(n))]
            near += len(pts) - 1
            for p in psi.poles(n):
                d = pole_rng.normal(size=(2, n))
                d *= [[1e-2], [1e-3]] / np.linalg.norm(d, axis=1, keepdims=True)
                pts += [(p + step, "at_pole") for step in d]
                own += 2
            for x, where in pts:
                st = psi.jet(x)
                for got, ref in zip((st.y, st.log_det, st.jac, st.grad_log_det),
                                    mobius_walk_mp(psi.word, x)):
                    err = np.abs(got - ref).max() / max(1.0, np.abs(ref).max())
                    worst[where] = max(worst[where], float(err))
    assert near >= 10 and own >= 20
    assert worst["away"] <= 1e-12 and worst["at_pole"] <= 1e-11, worst


# ---------------------------------------------------------------------------
# transform_field
# ---------------------------------------------------------------------------

def _one_word_walk(M, X):
    """The walk of one word as a single (n+2) x (n+2) matrix M, with no word
    axis: y, log |det J|, J and grad log |det J| in the expressions that
    `_walk_words` forms per word."""
    n = X.shape[1]
    y, p = _lifted(M[1:n + 1], X), _pole(M, n)
    if p is None:
        lam, grad_lam = _lifted(M[:1], X)[:, 0], M[0, 1:n + 1] + 2.0 * M[0, n + 1] * X
    else:
        d = X - p
        lam, grad_lam = M[0, n + 1] * np.einsum("ij,ij->i", d, d), 2.0 * M[0, n + 1] * d
    y /= lam[:, None]
    jac = M[1:n + 1, 1:n + 1] + 2.0 * M[1:n + 1, n + 1, None] * X[:, None, :] \
        - y[:, :, None] * grad_lam[..., None, :]
    return y, -n * np.log(lam), jac / lam[:, None, None], -n * grad_lam / lam[:, None]


def test_stacked_walk_is_each_words_own_walk_bit_for_bit():
    # six words per n, with and without a pole, walked as one stack: the rows of
    # word w equal its one-word _walk and the one-matrix expressions bit for bit
    rng = np.random.default_rng(83)
    with_pole = without = 0
    for n in range(3, 9):
        words = [sl.random_mobius_map(rng, n) for _ in range(6)]
        X = rng.normal(scale=2.0, size=(23, n))
        st = _walk_words(np.array([psi._matrix(n) for psi in words]), X)
        assert st.y.shape == (6 * 23, n)
        for w, psi in enumerate(words):
            with_pole += bool(psi.poles(n))
            without += not psi.poles(n)
            one, ref = psi._walk(X), _one_word_walk(psi._matrix(n), X)
            for name, want in zip(("y", "log_det", "jac", "grad_log_det"), ref):
                got, alone = getattr(st, name), getattr(one, name)
                np.testing.assert_array_equal(got[w * 23:(w + 1) * 23], want)
                np.testing.assert_array_equal(alone, want)
    assert with_pole >= 10 and without >= 10


def test_stacked_walk_of_no_words_and_at_a_pole():
    X = np.random.default_rng(5).normal(size=(7, 4))
    st = _walk_words(np.empty((0, 6, 6)), X)
    assert [a.shape for a in vars(st).values()] == [(0, 4), (0,), (0, 4, 4), (0, 4)]
    words = [sl.MobiusMap((sl.Translation(np.ones(4)),)), sl.MobiusMap((sl.Inversion(),))]
    Ms = np.array([psi._matrix(4) for psi in words])
    assert _walk_words(Ms, X).y.shape == (14, 4)
    with pytest.raises(PoleError, match="hit its pole"):
        _walk_words(Ms, np.vstack([X, np.zeros(4)]))


def test_a_point_whose_square_overflows_is_no_false_pole():
    # |x|^2 = inf made inf 0 = nan in the lift of a pole-free word, read as its
    # pole; the point is named instead, whatever numpy's error state
    X = np.array([[1.0, 2.0, 3.0], [-6.875e199, 4.8e199, -6.8e199]])
    message = r"\|x\|\^2 of the point is not finite"
    for word in [(), (sl.Translation(np.ones(3)),), (sl.Inversion(),)]:
        for state in ("warn", "ignore"):
            with np.errstate(all=state), warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FloatRangeError, match=message) as err:
                    sl.MobiusMap(word)._walk(X)
            np.testing.assert_array_equal(err.value.where, X[1])


def test_constant_field_value_checks():
    # a value that is not positive (nan included) is a PositivityError, one past
    # the float range a ConfigError
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(PositivityError, match="constant field value") as info:
            sl.constant_field(bad, 3)
        assert info.value.value is bad
    for bad in (math.inf, 10 ** 400):
        with pytest.raises(ConfigError, match="must be positive and finite"):
            sl.constant_field(bad, 3)
    assert sl.constant_field(1.7e308, 3).values(np.zeros((1, 3)))[0] == 1.7e308


def test_transform_identity_word():
    rng = np.random.default_rng(19)
    u = random_test_field(3, rng)
    v = sl.transform_field(u, sl.MobiusMap(()))
    X = rng.normal(size=(10, 3))
    assert v.values(X) == pytest.approx(u.values(X), rel=1e-14)


def test_inversion_maps_centered_bubble_to_reciprocal_scale():
    for n, k, a in [(3, 1, 1.7), (4, 2, 0.6), (5, 5, 2.5)]:
        u = sl.bubble_field(sl.BubbleSpec(n, k, a))
        v = sl.transform_field(u, sl.MobiusMap((sl.Inversion(),)))
        target = sl.bubble_field(sl.BubbleSpec(n, k, 1.0 / a))
        X = np.random.default_rng(23).normal(size=(20, n))
        X = X[np.linalg.norm(X, axis=1) >= 0.05]
        assert v.values(X) == pytest.approx(target.values(X), rel=1e-10)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_transform_field_jets_match_finite_differences(n):
    rng = np.random.default_rng(29 + n)
    u = random_test_field(n, rng)
    # a reflection (det -1) and back-to-back inversions, besides random words
    e = np.ones(n) / math.sqrt(n)
    mirror = np.eye(n) - 2.0 * np.outer(e, e)
    words = [sl.MobiusMap((sl.Translation(rng.normal(scale=0.5, size=n)), sl.Inversion(),
                           sl.Rotation(mirror), sl.Dilation(1.3))),
             sl.MobiusMap((sl.Inversion(), sl.Inversion(),
                           sl.Translation(rng.normal(scale=0.5, size=n)), sl.Inversion(),
                           sl.Rotation(mirror @ np.linalg.qr(rng.normal(size=(n, n)))[0])))]
    words += [sl.random_mobius_map(rng, n) for _ in range(6)]
    for psi in words:
        x = _safe_point(rng, psi, n)
        v = sl.transform_field(u, psi)
        val, grad, hess = v.raw_jet(x)
        ref_val, ref_grad, ref_hess = fd_jet_of_field(v, x, h=1e-4)
        assert val == pytest.approx(ref_val, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, atol=1e-5 * max(1.0, abs(val)))
        np.testing.assert_allclose(hess, ref_hess,
                                   atol=1e-4 * max(1.0, np.abs(hess).max()))


def test_spectrum_equivariance_under_words():
    rng = np.random.default_rng(31)
    for n in (3, 4):
        fields = [random_test_field(n, rng) for _ in range(2)]
        for _ in range(8):
            psi = sl.random_mobius_map(rng, n)
            for u in fields:
                v = sl.transform_field(u, psi)
                for _ in range(5):
                    x = _safe_point(rng, psi, n)
                    lam_v = sl.schouten_spectrum(v.jet(x))
                    lam_u = sl.schouten_spectrum(u.jet(_image(psi, x)[0]))
                    np.testing.assert_allclose(lam_v, lam_u, atol=1e-9)


def test_group_closure():
    rng = np.random.default_rng(37)
    n = 3
    u = random_test_field(n, rng)
    for _ in range(6):
        psi1 = sl.random_mobius_map(rng, n)
        psi2 = sl.random_mobius_map(rng, n)
        chained = sl.transform_field(sl.transform_field(u, psi1), psi2)
        composed = sl.transform_field(u, psi2.then(psi1))
        for _ in range(5):
            x = _safe_point(rng, psi2.then(psi1), n)
            try:
                a = chained.values(x[None])[0]
            except PoleError:
                continue
            assert a == pytest.approx(composed.values(x[None])[0], rel=1e-10)


# ---------------------------------------------------------------------------
# per-point calls are the one-row case of the batch path
# ---------------------------------------------------------------------------

def _lifted_test_field(n, rng):
    """random_test_field behind a per-point evaluator, lifted by ScalarField."""
    batch = random_test_field(n, rng)

    def evaluator(x):
        u, g, h = batch.jets(x[None])
        return u[0], g[0], h[0]

    return sl.ScalarField(n, evaluator, tag="lifted")


def test_single_point_calls_match_batch_rows():
    rng = np.random.default_rng(61)
    n = 4
    psi = sl.MobiusMap((sl.Translation(np.array([0.4, -0.2, 0.1, 0.3])),
                        sl.Inversion(), sl.Dilation(1.7),
                        sl.Rotation(np.linalg.qr(rng.normal(size=(n, n)))[0]),
                        sl.Translation(np.array([-0.5, 0.3, 0.6, 0.0])),
                        sl.Inversion()))
    pts = rng.normal(scale=1.5, size=(200, n))
    bubble = sl.bubble_field(sl.BubbleSpec(n, 2, 1.3))
    fields = [bubble, sl.transform_field(bubble, psi), sl.constant_field(2.5, n),
              _lifted_test_field(n, rng),
              sl.transform_field(random_test_field(n, rng), psi)]
    rtol = 1e-12
    for field in fields:
        u, grad, hess = field.jets(pts)
        np.testing.assert_array_equal(field.values(pts), u)
        for i in (0, 57, 199):
            val, g1, h1 = field.raw_jet(pts[i])
            assert val == pytest.approx(u[i], rel=rtol)
            np.testing.assert_allclose(g1, grad[i], rtol=rtol,
                                       atol=rtol * np.abs(grad[i]).max())
            np.testing.assert_allclose(h1, hess[i], rtol=rtol,
                                       atol=rtol * np.abs(hess[i]).max())
    full = psi._walk(pts)
    for i in (0, 57, 199):
        st = psi.jet(pts[i])
        for name in ("y", "jac", "grad_log_det"):
            one, row = getattr(st, name), getattr(full, name)[i]
            np.testing.assert_allclose(one, row, rtol=rtol,
                                       atol=rtol * np.abs(row).max())
        assert st.log_det == pytest.approx(full.log_det[i], rel=rtol, abs=1e-15)


def test_batch_checks_name_the_first_bad_point():
    n = 3

    def evaluator(x):
        val = 0.5 - float(x @ x)
        return val, -2.0 * x, -2.0 * np.eye(n)

    field = sl.ScalarField(n, evaluator)
    pts = np.array([[0.1, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(PositivityError) as err:
        field.values(pts)
    np.testing.assert_array_equal(err.value.where, pts[1])
    with pytest.raises(ValueError):
        field.jets(pts[:, :2])
    skew = sl.ScalarField(n, lambda x: (1.0, np.zeros(n),
                                        np.array([[0.0, 1.0, 0.0], [0.0] * 3, [0.0] * 3])))
    with pytest.raises(ConfigError, match="asymmetry"):
        sl.verify_solution(skew, n, 1, sample_points=pts)
    with pytest.raises(PoleError):
        sl.transform_field(sl.constant_field(1.0, n), sl.MobiusMap((sl.Inversion(),))) \
            .values(np.vstack([pts, np.zeros(n)]))


def test_positivity_check_names_the_first_bad_value_of_a_stack():
    # a (B, N) stack over the rows of X: the first bad value in flat order
    # is in row 1, column 3, so it names X[3]; NaN fails the check too
    X = np.arange(12.0).reshape(4, 3)
    u = np.ones((3, 4))
    assert _require_positive(X, u) is u
    u[2, 0], u[1, 3] = np.nan, -1.0
    with pytest.raises(PositivityError, match="value -1.0 is not positive") as err:
        _require_positive(X, u)
    np.testing.assert_array_equal(err.value.where, X[3])
    assert err.value.value == -1.0
    u[1, 3] = 1.0
    with pytest.raises(PositivityError, match="value nan") as err:
        _require_positive(X, u)
    np.testing.assert_array_equal(err.value.where, X[0])
