"""Envelope correlation / MSE objectives and their analytic gradients.

`envgain.cost` computes every form on one row kernel. The textbook
per-vector forms below (numpy 1-D mean, dot and norm, as the `cost` module
docstring writes them) are the reference: the library agrees with them to
rounding within the tolerances stated in `TestAgainstTextbook`, not bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from envgain.cost import (
    EPS,
    DegenerateEnvelopeError,
    elc,
    elc_batch,
    elc_grad_norm,
    elc_value_batch,
    emse_batch,
)

# ---------------------------------------------------------------------------
# textbook reference forms


def textbook_elc(clean, estimate):
    xc, hc = clean - clean.mean(), estimate - estimate.mean()
    return np.dot(xc, hc) / (np.linalg.norm(xc) * np.linalg.norm(hc))


def textbook_elc_grad(clean, estimate):
    xc, hc = clean - clean.mean(), estimate - estimate.mean()
    xn, hn = np.linalg.norm(xc), np.linalg.norm(hc)
    cross = np.dot(hc, xc)
    value = cross / (xn * hn)
    return value * xc / cross - value * hc / (hn * hn)


def textbook_emse(clean, estimate):
    d = estimate - clean
    return np.mean(d * d)


def textbook_emse_grad(clean, estimate):
    return 2.0 * (estimate - clean) / clean.size


# ---------------------------------------------------------------------------
# helpers


def fd_grad(fn, x, h=1e-6):
    out = np.empty_like(x, dtype=float)
    for i in range(len(x)):
        step = np.zeros_like(x, dtype=float)
        step[i] = h
        out[i] = (fn(x + step) - fn(x - step)) / (2 * h)
    return out


def orthonormal_centered_pair(n=30, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u -= u.mean()
    u /= np.linalg.norm(u)
    v = rng.standard_normal(n)
    v -= v.mean()
    v -= u * np.dot(u, v)
    v /= np.linalg.norm(v)
    return u, v


def elc_grad(clean, estimate):
    """The gradient of one valid pair, by `elc_batch`."""
    _, grads, valid = elc_batch(np.asarray(clean)[None], np.asarray(estimate)[None])
    assert valid[0]
    return grads[0]


def emse_one(clean, estimate):
    values, grads, _ = emse_batch(np.asarray(clean)[None], np.asarray(estimate)[None])
    return values[0], grads[0]


@st.composite
def row_batches(draw, max_rows=5):
    """(clean, estimate) as (B, N) arrays with N from 2 to 59. Some rows are
    made flat (zero variance) or copied from the other side (the optimum)."""
    b, n = draw(st.integers(1, max_rows)), draw(st.integers(2, 59))
    elements = st.floats(-1e3, 1e3, allow_subnormal=False)
    x, h = (draw(arrays(np.float64, (b, n), elements=elements)) for _ in range(2))
    for i, kind in enumerate(draw(st.lists(
            st.sampled_from(["free", "flat clean", "flat estimate", "same"]),
            min_size=b, max_size=b))):
        if kind == "flat clean":
            x[i] = x[i, 0]
        elif kind == "flat estimate":
            h[i] = h[i, 0]
        elif kind == "same":
            h[i] = x[i]
    return x, h


# ---------------------------------------------------------------------------
# scalar forms


class TestElcValue:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            x = rng.uniform(0, 5, 30)
            assert elc(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_exact_anticorrelation(self):
        assert elc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        # centered dot = 4, both centered norms sqrt(5)
        assert elc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            val = elc(rng.standard_normal(30), rng.standard_normal(30))
            assert -1 - 1e-12 <= val <= 1 + 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 3, 30)
        xh = rng.uniform(0, 3, 30)
        base = elc(x, xh)
        assert elc(x, 2.7 * xh + 11.0) == pytest.approx(base, abs=1e-12)
        assert elc(x, -0.3 * xh + 2.0) == pytest.approx(-base, abs=1e-12)

    def test_zero_variance_rejected(self):
        for fn in (elc, elc_grad_norm):
            with pytest.raises(DegenerateEnvelopeError):
                fn(np.full(30, 2.0), np.arange(30.0))
            with pytest.raises(DegenerateEnvelopeError):
                fn(np.arange(30.0), np.zeros(30))

    @pytest.mark.parametrize("fn", [elc, elc_grad_norm])
    @pytest.mark.parametrize("clean, estimate", [
        (np.arange(4.0), np.arange(3.0)),
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.arange(3.0), np.arange(3.0)[None]),
    ])
    def test_not_two_equal_vectors_rejected(self, fn, clean, estimate):
        with pytest.raises(ValueError) as info:
            fn(clean, estimate)
        assert not isinstance(info.value, DegenerateEnvelopeError)


class TestElcGradNorm:
    def test_uncorrelated_unit_norm_gives_one(self):
        u, v = orthonormal_centered_pair()
        assert elc_grad_norm(u + 1.0, v + 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_zero_at_perfect_correlation(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.1, 2, 30)
        assert elc_grad_norm(x, x.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_identity_with_direct_norm(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (1000, 30))
        xh = rng.uniform(0, 1, (1000, 30))
        _, grads, valid = elc_batch(x, xh)
        assert valid.all()
        direct = np.linalg.norm(grads, axis=1)
        closed = np.array([elc_grad_norm(a, b) for a, b in zip(x, xh)])
        assert np.max(np.abs(direct - closed)) <= 1e-9

    def test_centered_norm_resolves_denominator(self):
        # shifting the estimate's mean changes its raw norm but neither the
        # gradient nor the closed form: the denominator is the centered norm
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 30)
        xh = rng.uniform(0, 1, 30)
        shifted = xh + 100.0
        assert elc_grad_norm(x, shifted) == pytest.approx(elc_grad_norm(x, xh), rel=1e-12)
        assert np.linalg.norm(elc_grad(x, shifted)) == pytest.approx(
            elc_grad_norm(x, shifted), abs=1e-9
        )


# ---------------------------------------------------------------------------
# batch forms


class TestElcGrad:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 2, 30)
        assert np.max(np.abs(elc_grad(x, x.copy()))) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (200, 30))
        xh = rng.uniform(0, 1, (200, 30))
        _, grads, valid = elc_batch(x, xh)
        assert valid.all()
        for a, b, analytic in zip(x, xh, grads):
            numeric = fd_grad(lambda v: elc(a, v), b)
            tol = 1e-6 * (1 + np.max(np.abs(analytic)))
            assert np.max(np.abs(analytic - numeric)) <= tol

    def test_orthogonal_to_ones(self):
        # correlation is invariant to mean shifts of the estimate
        rng = np.random.default_rng(5)
        _, grads, valid = elc_batch(rng.uniform(0, 1, (50, 30)), rng.uniform(0, 1, (50, 30)))
        assert valid.all()
        assert np.max(np.abs(grads.sum(axis=1))) < 1e-12

    def test_zero_cross_correlation_rejected(self):
        # an invalid row with value 0 and zero gradient
        u, v = orthonormal_centered_pair()
        values, grads, valid = elc_batch((u + 1.0)[None], (v + 2.0)[None])
        assert valid.tolist() == [False]
        assert values.tolist() == [0.0]
        assert np.all(grads == 0.0)
        # as a value alone, a zero correlation is legitimate
        values, valid = elc_value_batch((u + 1.0)[None], (v + 2.0)[None])
        assert valid.tolist() == [True]
        assert abs(values[0]) < 1e-12

class TestEmse:
    def test_identical_vectors(self):
        x = np.arange(5.0)
        value, grad = emse_one(x, x.copy())
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_hand_value(self):
        assert emse_one([0.0, 0.0], [3.0, 4.0])[0] == 12.5

    def test_single_entry_grad(self):
        assert emse_one([0.0], [2.0])[1].tolist() == [4.0]

    def test_every_row_valid(self):
        assert emse_batch(np.ones((3, 4)), np.ones((3, 4)))[2].tolist() == [True] * 3

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((100, 30))
        xh = rng.standard_normal((100, 30))
        _, grads, _ = emse_batch(x, xh)
        for a, b, analytic in zip(x, xh, grads):
            numeric = fd_grad(lambda v: emse_one(a, v)[0], b)
            assert np.max(np.abs(analytic - numeric)) <= 1e-8


class TestBatchConsistency:
    """The kernel centres with a row mean and takes the cross product with
    `einsum`; the textbook forms use 1-D `mean` and `dot`. They differ by
    rounding. A row's conditioning is

        kappa = 1 + sqrt(N) * (max|x| / ||x_c|| + max|xh| / ||xh_c||),

    and the stated tolerance is 1e-14 * kappa on values and
    1e-14 * kappa / ||xh_c|| on gradient entries (the gradient's scale).
    At unit scale both come to 1e-14."""

    def test_elc_batch_matches_scalar(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, (50, 30))
        xh = rng.uniform(0, 1, (50, 30))
        values, grads, valid = elc_batch(x, xh)
        assert valid.all()
        for i in range(50):
            assert values[i] == pytest.approx(textbook_elc(x[i], xh[i]), abs=1e-14)
            assert np.allclose(grads[i], textbook_elc_grad(x[i], xh[i]), rtol=0, atol=1e-14)

    def test_elc_value_batch_matches_scalar(self):
        # the public scalar form is a one-row call: the same bits
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (20, 30))
        xh = rng.uniform(0, 1, (20, 30))
        values, valid = elc_value_batch(x, xh)
        assert valid.all()
        for i in range(20):
            assert values[i] == elc(x[i], xh[i])
            assert values[i] == pytest.approx(textbook_elc(x[i], xh[i]), abs=1e-14)

    def test_emse_batch_matches_scalar(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((20, 30))
        xh = rng.standard_normal((20, 30))
        values, grads, valid = emse_batch(x, xh)
        assert valid.all()
        for i in range(20):
            assert values[i] == pytest.approx(textbook_emse(x[i], xh[i]), abs=1e-14)
            assert np.array_equal(grads[i], textbook_emse_grad(x[i], xh[i]))

    def test_elc_batch_flags_degenerate_rows(self):
        x = np.vstack([np.full(30, 1.0), np.arange(30.0), np.arange(30.0)])
        xh = np.vstack([np.arange(30.0), np.arange(30.0), np.full(30, 4.0)])
        values, grads, valid = elc_batch(x, xh)
        assert valid.tolist() == [False, True, False]
        assert values[0] == values[2] == 0.0
        assert np.all(grads[[0, 2]] == 0.0)
        assert elc_value_batch(x, xh)[1].tolist() == [False, True, False]

    @pytest.mark.parametrize("fn", [elc_batch, elc_value_batch, emse_batch])
    @pytest.mark.parametrize("shapes", [((3, 4), (3, 5)), ((3, 4), (2, 4)), ((4,), (4,)),
                                        ((1, 2, 3), (1, 2, 3))])
    def test_shapes_other_than_matching_rows_rejected(self, fn, shapes):
        with pytest.raises(ValueError, match=r"expected matching \(B, N\) arrays"):
            fn(np.ones(shapes[0]), np.ones(shapes[1]))


    @settings(max_examples=200, deadline=None)
    @given(row_batches())
    def test_within_stated_tolerance(self, pair):
        x, h = pair
        values, grads, valid = elc_batch(x, h)
        n = x.shape[1]
        for i in np.flatnonzero(valid):
            xn, hn = (np.linalg.norm(v - v.mean()) for v in (x[i], h[i]))
            kappa = 1 + np.sqrt(n) * (np.max(np.abs(x[i])) / xn + np.max(np.abs(h[i])) / hn)
            assert abs(values[i] - textbook_elc(x[i], h[i])) <= 1e-14 * kappa
            gap = np.max(np.abs(grads[i] - textbook_elc_grad(x[i], h[i])))
            assert gap <= 1e-14 * kappa / hn

    @settings(max_examples=100, deadline=None)
    @given(row_batches())
    def test_emse_within_stated_tolerance(self, pair):
        x, h = pair
        values, grads, _ = emse_batch(x, h)
        for i in range(len(x)):
            scale = np.max(np.abs(h[i] - x[i])) ** 2
            assert abs(values[i] - textbook_emse(x[i], h[i])) <= 1e-14 * scale
            assert np.array_equal(grads[i], textbook_emse_grad(x[i], h[i]))


class TestKernelBits:
    """Bit-for-bit properties of the one row kernel."""

    def test_centred_norm_of_exactly_eps_is_varied(self):
        # [0, sqrt(2) * 1e-12] has centred norm exactly EPS; one ulp less has not
        edge = np.array([[0.0, 1.414213562373095e-12]])
        below = np.array([[0.0, np.nextafter(edge[0, 1], 0.0)]])
        ramp = np.array([[0.0, 1.0]])
        assert np.linalg.norm(edge - edge.mean(axis=1, keepdims=True), axis=1)[0] == EPS
        for x, h in ((ramp, edge), (edge, ramp)):
            values, varied = elc_value_batch(x, h)
            assert varied[0] and values[0] == pytest.approx(1.0)
        assert not elc_value_batch(ramp, below)[1][0]

    @settings(max_examples=200, deadline=None)
    @given(row_batches())
    def test_row_does_not_depend_on_other_rows(self, pair):
        # `pipeline._score_envelopes` scores every band in one call on this
        x, h = pair
        values, grads, valid = elc_batch(x, h)
        scores, varied = elc_value_batch(x, h)
        for i in range(len(x)):
            one = elc_batch(x[i : i + 1], h[i : i + 1])
            assert np.array_equal(one[0], values[i : i + 1])
            assert np.array_equal(one[1], grads[i : i + 1])
            assert np.array_equal(one[2], valid[i : i + 1])
            alone = elc_value_batch(x[i : i + 1], h[i : i + 1])
            assert np.array_equal(alone[0], scores[i : i + 1])
            assert np.array_equal(alone[1], varied[i : i + 1])

    @settings(max_examples=200, deadline=None)
    @given(row_batches())
    def test_gradient_values_are_the_scores_on_valid_rows(self, pair):
        values, _, valid = elc_batch(*pair)
        scores, varied = elc_value_batch(*pair)
        assert np.all(varied[valid])
        assert np.array_equal(values[valid], scores[valid])
        assert np.all(values[~valid] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(row_batches(max_rows=1))
    # a score (0.91360...) whose numpy-scalar `** 2` is one ulp off its product
    @example((np.array([[-2.0, 3.0, -8.0]]), np.array([[7.0, 8.0, -9.0]])))
    def test_scalar_forms_are_one_row_calls(self, pair):
        x, h = pair[0][0], pair[1][0]
        scores, varied = elc_value_batch(x[None], h[None])
        if not varied[0]:
            with pytest.raises(DegenerateEnvelopeError):
                elc(x, h)
            return
        assert np.array_equal(elc(x, h), scores[0])
        # the closed form from the same row value and the row's centered norm
        hn = np.linalg.norm(h[None] - h[None].mean(axis=1, keepdims=True), axis=1)[0]
        assert hn >= EPS
        # squared as a product, as the kernel does: a numpy scalar's `** 2` is
        # libm pow, not always correctly rounded
        assert elc_grad_norm(x, h) == np.sqrt(max(0.0, 1.0 - scores[0] * scores[0])) / hn
