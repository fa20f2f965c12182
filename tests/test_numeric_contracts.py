"""Numeric contracts that byte-identical results rest on: numpy reduction
behaviours on which a stack of runs gives each run the bits it has alone,
and the IEEE and bit identities on which lshade.generation_step builds its
trials in place.  Each test states one behaviour and names the code that
relies on it.

Two such contracts have direct tests elsewhere, not repeated here:
- update_memory's per-run slice sums at the edges of numpy's pairwise sum:
  ``TestMemoryAgainstOracle.BLOCK_EDGES``, tests/test_batch.py:600;
- forward_batch over a leading net axis, one forward per net:
  ``test_stacked_nets_match_each_net``, tests/test_agent.py:114.

A contract that fails here means the installed numpy reduces in another
order, and the frozen digests of tests/test_digests.py move with it.
"""

import numpy as np
import pytest

from rlrelax.cop import term_accounting


def violation_terms(rng, rows, width):
    """Non-negative terms like V's, over 17 orders of magnitude, a fifth of them 0."""
    V = np.abs(rng.standard_normal((rows, width))) * 10.0 ** rng.integers(-8, 9, (rows, width))
    V[rng.random((rows, width)) < 0.2] = 0.0
    return V


def padded(V, w, W):
    """V's inequality terms V[:, :w] and equality terms V[:, w:] each padded with
    0.0 to W columns, as env._stacked places a member's C in a wider layout."""
    out = np.zeros((len(V), 2 * W))
    out[:, :w], out[:, W:W + V.shape[1] - w] = V[:, :w], V[:, w:]
    return out


@pytest.mark.parametrize("w", range(1, 8))
def test_zero_padding_up_to_seven_columns_keeps_every_rows_bits(w):
    # cop.term_accounting sums a stacked member's terms over the widest layout's
    # columns: below 8 columns numpy adds one term after another, so the padding
    # only appends +0.0 to nu, nu_eps and the feasibility mask of every row
    rng = np.random.default_rng(w)
    V = violation_terms(rng, 2000, 2 * w)
    eps = np.abs(rng.standard_normal(2 * w))
    alone = term_accounting(V, w, eps)
    for W in range(w, 8):
        eps_W = padded(eps[None], w, W)[0]
        for got, want in zip(term_accounting(padded(V, w, W), W, eps_W), alone):
            assert got.tobytes() == want.tobytes(), f"{w} terms padded to {W}"


@pytest.mark.parametrize("w", range(4, 8))
def test_zero_padding_to_eight_columns_moves_some_rows(w):
    # from 8 columns numpy sums with 8 partial sums, in another order: this is why
    # harness._evaluate_policy's group key keeps a problem with 8 or more
    # constraints of one kind (``wide``) apart from narrower layouts
    V = violation_terms(np.random.default_rng(w), 2000, 2 * w)
    nu_alone = term_accounting(V, w)[0]
    nu_padded = term_accounting(padded(V, w, 8), 8)[0]
    assert (nu_padded != nu_alone).any()


def test_a_one_column_member_mean_differs_inside_a_two_column_block():
    # over 50 members, the mean of a one-column block sums the members pairwise and
    # the same column inside a two-column block sums them one after another: this
    # is why EpsilonBase.from_population takes each member's own columns at their width
    rng = np.random.default_rng(0)
    differs = 0
    for _ in range(100):
        V = np.abs(rng.standard_normal((1, 50, 2)))  # one run of 50 members, 2 terms
        one = V[:, :, :1].mean(axis=1)[:, 0]
        assert one.tobytes() == (np.add.reduce(V[0, :, 0]) / 50).tobytes()  # pairwise
        differs += one[0] != V.mean(axis=1)[0, 0]
    assert differs > 0


def finite_values(rng, shape):
    """Finite doubles over 600 orders of magnitude, with signed zeros, subnormals
    and the largest finite values among them."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.7976931348623157e308,
                        1.7976931348623157e308, 1.0, -1.0])
    return np.where(rng.random(shape) < 0.2, rng.choice(special, shape), a)


@np.errstate(over="ignore")  # sums and products past the largest double are inf
def test_in_place_add_and_multiply_commute_bit_for_bit():
    # lshade.generation_step writes the donor x + F * (x_pbest - x) + ... as
    # ``v *= F`` and ``v += x`` (src/rlrelax/lshade.py:347-348): v * F and v + x
    # must give the bits of F * v and x + v
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, x = finite_values(rng, (3, 50, 10)), finite_values(rng, (3, 50, 10))
        F = np.where(rng.random((3, 50, 1)) < 0.3, 1.0, rng.random((3, 50, 1)))
        added, scaled = a.copy(), a.copy()
        added += x
        scaled *= F
        assert added.tobytes() == (x + a).tobytes()
        assert scaled.tobytes() == (F * a).tobytes()


def test_int64_select_equals_where_for_every_bit_pattern():
    # lshade.generation_step's crossover is x ^ ((x ^ v) & sel) on the int64
    # views, sel = -mask (src/rlrelax/lshade.py:357-361): it must give the bits
    # np.where(mask, v, x) gives, NaN payloads, -0.0 and subnormals included
    rng = np.random.default_rng(1)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, (2, 200_000),
                        dtype=np.int64, endpoint=True)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]).view(np.int64)
    special = np.concatenate([special, [0x7FF0000000000001, -1, 0x7FF8DEADBEEF0000]])
    bits[:, :special.size ** 2] = np.stack(np.meshgrid(special, special)).reshape(2, -1)
    sign, exponent, mantissa = np.int64(-2**63), np.int64(0x7FF << 52), np.int64(2**52 - 1)
    bits[:, -50_000:] &= sign | mantissa  # subnormals and signed zeros
    bits[:, -100_000:-50_000] |= exponent  # NaN payloads, quiet and signalling, and infinities
    x, v = bits.view(np.float64)
    mask = rng.random(x.shape) < 0.5
    sel = -mask.astype(np.int64)
    select = x.view(np.int64) ^ ((x.view(np.int64) ^ v.view(np.int64)) & sel)
    assert select.tobytes() == np.where(mask, v, x).tobytes()
    assert np.isnan(x).sum() > 40_000 and (x[-50_000:] != 0.0).all()


@np.errstate(over="ignore")
def test_in_place_midpoint_equals_the_expression():
    # lshade.repair_bounds takes the midpoints in the clamp's buffer as
    # ``bound += x`` and ``bound /= 2.0`` (src/rlrelax/lshade.py:302-303): they
    # must give the bits of (x + bound) / 2.0
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, bound = finite_values(rng, (3, 50, 10)), finite_values(rng, (3, 50, 10))
        midpoint = bound.copy()
        midpoint += x
        midpoint /= 2.0
        assert midpoint.tobytes() == ((x + bound) / 2.0).tobytes()
