import gc
import inspect
import pathlib
import random

import numpy as np
import pytest

from hardmono import numcore as nc
from hardmono.nn import LstmCell, ParamSet


def rng_array(rng, *shape):
    return np.array([rng.uniform(-1, 1) for _ in range(int(np.prod(shape)))]).reshape(shape)


def test_softmax_uniform():
    p = nc.softmax(nc.constant([0.0, 0.0, 0.0]))
    assert np.allclose(p.value, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_sums_to_one_and_nonnegative():
    rng = random.Random(0)
    for _ in range(100):
        logits = rng_array(rng, 7) * 100
        p = nc.softmax(nc.constant(logits)).value
        assert p.min() >= 0
        assert abs(p.sum() - 1.0) < 1e-6


def test_softmax_extreme_logits_finite():
    for scale in (1e4, -1e4):
        logits = np.array([scale, 0.0, -scale])
        p = nc.softmax(nc.constant(logits)).value
        assert np.all(np.isfinite(p))


def test_linear_loss_gradient_is_outer():
    rng = random.Random(1)
    w = nc.param(rng_array(rng, 3, 4))
    xv = rng_array(rng, 4)
    ones = nc.constant(np.ones(3))
    nc.backward(nc.dot(ones, nc.matvec(w, nc.constant(xv))))
    assert np.allclose(w.grad, np.outer(np.ones(3), xv))


def test_disconnected_parameter_gradient_exactly_zero():
    used = nc.param([1.0, 2.0])
    unused = nc.param([[3.0]])
    nc.backward(nc.dot(used, used))
    assert np.array_equal(unused.grad, np.zeros((1, 1)))


def test_two_layer_net_grad_check():
    rng = random.Random(2)
    w1 = nc.param(rng_array(rng, 5, 4))
    b1 = nc.param(rng_array(rng, 5))
    w2 = nc.param(rng_array(rng, 3, 5))
    x = nc.constant(rng_array(rng, 4))

    def f():
        h = nc.relu(nc.add(nc.matvec(w1, x), b1))
        return nc.nll(nc.softmax(nc.matvec(w2, h)), 0)

    assert nc.grad_check(f, [w1, b1, w2]) < 1e-6


def test_softmax_cross_entropy_identity():
    rng = random.Random(3)
    logits = nc.param(rng_array(rng, 6) * 3)
    target = 2
    nc.backward(nc.nll(nc.softmax(logits), target))
    p = nc.softmax(nc.constant(logits.value)).value
    onehot = np.eye(6)[target]
    assert np.allclose(logits.grad, p - onehot, atol=1e-6)


def test_masked_softmax_exact_zeros_and_normalization():
    rng = random.Random(4)
    for _ in range(200):
        logits = rng_array(rng, 8) * 10
        valid = np.array([rng.random() < 0.6 for _ in range(8)])
        if not valid.any():
            valid[0] = True
        p = nc.softmax(nc.constant(logits), valid).value
        assert np.all(p[~valid] == 0.0)
        assert abs(p.sum() - 1.0) < 1e-6


def test_masked_softmax_of_a_vector_is_bitwise_its_one_row_matrix():
    """A vector sums the same terms as the same vector in a one-row matrix,
    masked zeros included, so single and lockstep decoding read bitwise
    the same distribution."""
    rng = random.Random(4)
    for size in (8, 24):
        for _ in range(250):
            logits = rng_array(rng, size) * 10
            valid = np.array([rng.random() < 0.6 for _ in range(size)])
            valid[rng.sample(range(size), 2)] = (True, False)
            p = nc.softmax(nc.constant(logits), valid).value
            one_row = nc.softmax(nc.constant(logits[None]), valid[None]).value
            assert np.array_equal(p, one_row[0])


def test_masked_softmax_gradient():
    rng = random.Random(5)
    logits = nc.param(rng_array(rng, 6))
    valid = np.array([True, False, True, True, False, True])
    err = nc.grad_check(lambda: nc.nll(nc.softmax(logits, valid), 2), [logits])
    assert err < 1e-6


def test_masked_softmax_needs_a_valid_position():
    with pytest.raises(ValueError):
        nc.softmax(nc.constant([1.0, 2.0]), np.array([False, False]))


def test_grad_check_catches_a_wrong_backward_rule():
    """The gate can fail: a rule that doubles the true gradient misses it
    by half of itself, while the true rule agrees."""
    rng = random.Random(14)
    x = nc.param(rng_array(rng, 4))

    def square_sum(factor):
        def f():
            v = x.value.copy()
            y = nc._op("square", v * v, (x,), lambda g: (factor * 2.0 * v * g,))
            return nc.dot(y, nc.constant(np.ones(4)))
        return f

    assert nc.grad_check(square_sum(2.0), [x]) >= 0.4
    assert nc.grad_check(square_sum(1.0), [x]) < 1e-6


def test_structural_ops_grad_check():
    rng = random.Random(7)
    a = nc.param(rng_array(rng, 5))
    b = nc.param(rng_array(rng, 3))
    t = nc.param(rng_array(rng, 4, 3))

    inner = nc.constant(np.eye(11)[1:9])  # selects entries 1..8 of the 11

    def f():
        joined = nc.concat([a, b, nc.row(t, 2)])
        kept = nc.matvec(inner, joined)
        return nc.dot(kept, kept)

    assert nc.grad_check(f, [a, b, t]) < 1e-6


def test_mixture_ops_grad_check():
    """HACM's gate: the sigmoid of a one-unit logit weighs a distribution
    against a point mass."""
    rng = random.Random(8)
    s = nc.param([0.3])
    v = nc.param(rng_array(rng, 4))

    def f():
        mix = nc.mixture(s, nc.softmax(v), 1)
        return nc.dot(mix, mix)

    assert nc.grad_check(f, [s, v]) < 1e-6


def test_relu_and_chained_add_grad_check():
    rng = random.Random(9)
    # keep values away from relu's kink, where finite differences disagree
    xs = [nc.param(rng_array(rng, 3) + np.sign(rng_array(rng, 3)) * 0.5) for _ in range(4)]

    def f():
        s = nc.relu(xs[0])
        for x in xs[1:]:
            s = nc.add(s, nc.relu(x))
        return nc.dot(s, s)

    assert nc.grad_check(f, xs) < 1e-6


def test_double_backward_raises():
    x = nc.param([2.0])
    loss = nc.dot(x, x)
    nc.backward(loss)
    with pytest.raises(nc.GradError, match="twice"):
        nc.backward(loss)


def test_backward_requires_scalar():
    x = nc.param([1.0, 2.0])
    with pytest.raises(nc.GradError, match="scalar"):
        nc.backward(nc.add(x, x))


def test_wrong_shaped_gradient_is_an_error():
    x = nc.param([1.0, 2.0])
    with pytest.raises(nc.GradError, match="shape"):
        x.accum(np.ones(3))


def test_shape_errors_name_the_op():
    with pytest.raises(ValueError, match="matvec"):
        nc.matvec(nc.constant([[1.0, 2.0]]), nc.constant([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="add"):
        nc.add(nc.constant([1.0]), nc.constant([1.0, 2.0]))
    with pytest.raises(ValueError, match="dot"):
        nc.dot(nc.constant([1.0]), nc.constant([1.0, 2.0]))


def test_embedding_row_bad_index():
    t = nc.param(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        nc.row(t, 3)


def test_row_scalar_index_forms():
    t = nc.param(np.arange(6.0).reshape(3, 2))
    for index in (1, np.int64(1), np.array(1)):
        assert np.array_equal(nc.row(t, index).value, [2.0, 3.0])
    for bad in (-1, np.int32(3), True, 1.0):
        with pytest.raises(IndexError):
            nc.row(t, bad)


def test_row_slice():
    t = nc.param(np.arange(8.0).reshape(4, 2))
    block = nc.row(t, slice(1, 3))
    assert np.array_equal(block.value, [[2.0, 3.0], [4.0, 5.0]])
    nc.backward(nc.dot(nc.row(block, 1), nc.constant([1.0, -1.0])))
    assert np.array_equal(t.grad, [[0.0, 0.0], [0.0, 0.0], [1.0, -1.0], [0.0, 0.0]])
    assert nc.row(t, slice(2, 2)).value.shape == (0, 2)
    for bad in (slice(None, 2), slice(1, 5), slice(-1, 4), slice(3, 1), slice(0, 4, 2)):
        with pytest.raises(IndexError):
            nc.row(t, bad)


@pytest.mark.parametrize("index", [1, np.int64(1), slice(0, 2), np.array([2, 0, 2])],
                         ids=["int", "numpy-int", "slice", "index-array"])
def test_row_shares_no_memory_with_its_table(index):
    t = nc.param(np.arange(6.0).reshape(3, 2))
    assert not np.shares_memory(nc.row(t, index).value, t.value)


def test_gradient_accumulates_across_reuse():
    x = nc.param([3.0])
    nc.backward(nc.add(nc.dot(x, x), nc.dot(x, x)))  # d/dx 2x^2 = 4x
    assert abs(x.grad[0] - 12.0) < 1e-12


def test_log_rejects_nonpositive():
    """The log in ``nll`` rejects a target probability that is not positive."""
    for p in ([0.0, 1.0], [-0.5, 1.5]):
        with pytest.raises(FloatingPointError, match="nll"):
            nc.nll(nc.constant(p), 0)


def test_dropout_identity_at_zero_and_scaling():
    rng = np.random.default_rng(10)
    x = nc.constant(np.ones(1000))
    assert nc.dropout(x, 0.0, rng) is x
    kept = nc.dropout(x, 0.5, rng).value
    assert set(np.unique(kept)) <= {0.0, 2.0}
    assert abs(kept.mean() - 1.0) < 0.1


def test_deep_chain_topological_sort_is_iterative():
    x = nc.param(1.0)
    node = x
    for _ in range(5000):
        node = nc.relu(node)
    nc.backward(node)
    assert x.grad == 1.0


# --- row-wise (matrix) forms of the ops and the sequence LSTM ---------------

def test_row_gather_grad_check_and_scatter_add():
    rng = random.Random(11)
    t = nc.param(rng_array(rng, 4, 3))
    index = np.array([2, 0, 2, 3])
    weights = nc.constant(rng_array(rng, 4, 3))

    def f():
        g = nc.row(t, index)
        return nc.dot(nc.concat([nc.row(g, k) for k in range(4)]),
                      nc.constant(weights.value.reshape(-1)))

    assert nc.grad_check(f, [t]) < 1e-6
    t.zero_grad()
    nc.backward(f())
    assert np.allclose(t.grad[2], weights.value[0] + weights.value[2])  # repeated row adds up
    assert np.array_equal(t.grad[1], np.zeros(3))                        # unused row stays 0
    with pytest.raises(IndexError):
        nc.row(t, np.array([0, 4]))


def test_matrix_ops_grad_check():
    """matvec on a matrix, a bias added to every row, concat along the last
    axis, vstack, row-wise softmax and nll with one target per row."""
    rng = random.Random(12)
    w = nc.param(rng_array(rng, 5, 4))
    b = nc.param(rng_array(rng, 5))
    x = nc.param(rng_array(rng, 3, 2))
    y = nc.param(rng_array(rng, 3, 2))
    v = nc.param(rng_array(rng, 4))
    targets = np.array([4, 0, 2])

    def f():
        rows = nc.vstack([nc.concat([x, y]), v])              # 4 x 4
        p = nc.softmax(nc.add(nc.matvec(w, rows), b))          # 4 x 5
        return nc.nll(nc.row(p, np.arange(3)), targets)

    assert nc.grad_check(f, [w, b, x, y, v]) < 1e-6


def test_matrix_masked_softmax_grad_check_and_zeros():
    rng = random.Random(13)
    logits = nc.param(rng_array(rng, 3, 5) * 3)
    valid = np.array([[True, False, True, True, False],
                      [False, False, True, False, False],
                      [True, True, True, True, True]])

    def f():
        p = nc.softmax(logits, valid)
        return nc.nll(p, np.array([2, 2, 4]))

    assert nc.grad_check(f, [logits]) < 1e-6
    p = nc.softmax(nc.constant(logits.value), valid).value
    assert np.all(p[~valid] == 0.0)
    assert np.allclose(p.sum(axis=1), 1.0)
    for r in range(3):  # each row is the vector form of the op
        vector = nc.softmax(nc.constant(logits.value[r]), valid[r]).value
        assert np.array_equal(p[r], vector)
    with pytest.raises(ValueError, match="no valid"):
        nc.softmax(logits, np.array([[True] * 5, [False] * 5, [True] * 5]))


def test_matrix_shape_errors_name_the_op():
    with pytest.raises(ValueError, match="add"):
        nc.add(nc.constant(np.zeros((2, 3))), nc.constant(np.zeros(2)))
    with pytest.raises(ValueError, match="concat"):
        nc.concat([nc.constant(np.zeros((2, 3))), nc.constant(np.zeros((3, 3)))])
    with pytest.raises(ValueError, match="vstack"):
        nc.vstack([nc.constant(np.zeros((2, 3))), nc.constant(np.zeros(2))])
    with pytest.raises(ValueError, match="lstm_seq"):
        nc.lstm_seq(nc.constant(np.zeros((2, 3))), nc.constant(np.zeros((8, 4))),
                    nc.constant(np.zeros(8)), nc.constant(np.zeros(2)), nc.constant(np.zeros(2)))


def test_lstm_seq_grad_check():
    rng = random.Random(14)
    hs, width, steps = 3, 2, 5
    w = nc.param(rng_array(rng, 4 * hs, width + hs))
    b = nc.param(rng_array(rng, 4 * hs))
    h0 = nc.param(rng_array(rng, hs))
    c0 = nc.param(rng_array(rng, hs))
    x = nc.param(rng_array(rng, steps, width))
    weights = nc.constant(rng_array(rng, steps * hs))

    def f():
        out = nc.lstm_seq(x, w, b, h0, c0)
        return nc.dot(nc.concat([nc.row(out, t) for t in range(steps)]), weights)

    assert nc.grad_check(f, [w, b, h0, c0, x]) < 1e-6


def _cell(w, b):
    """An LSTM cell on the weights ``w`` and ``b``; its learned start is zero."""
    hs = b.shape[0] // 4
    state = {"lstm.w": w, "lstm.b": b, "lstm.h0": np.zeros(hs), "lstm.c0": np.zeros(hs)}
    return LstmCell(ParamSet(state), "lstm", w.shape[1] - hs, hs)


def test_lstm_step_grad_check_into_both_states():
    """A cell step's gradients, including those into the incoming h and c,
    with a loss that reads both new states."""
    rng = random.Random(15)
    hs, width = 3, 2
    cell = _cell(rng_array(rng, 4 * hs, width + hs), rng_array(rng, 4 * hs))
    h = nc.param(rng_array(rng, hs))
    c = nc.param(rng_array(rng, hs))
    x = nc.param(rng_array(rng, width))
    wh, wc = nc.constant(rng_array(rng, hs)), nc.constant(rng_array(rng, hs))

    def f():
        h1, c1 = cell.step(x, (h, c))
        h2, c2 = cell.step(x, (h1, c1))
        return nc.add(nc.dot(h2, wh), nc.dot(nc.add(c1, c2), wc))

    assert nc.grad_check(f, [cell.w, cell.b, h, c, x]) < 1e-6
    with pytest.raises(ValueError, match="lstm_seq"):
        cell.step(nc.constant(np.zeros(3)), (h, c))


# one product over B rows rounds differently from B vector products; each
# entry of a B-row step's states, of order one, must be within this of the
# vector step's
LOCKSTEP_ATOL = 1e-12


@pytest.mark.parametrize("width, hidden, rows", [(2, 3, 1), (5, 3, 7), (380, 100, 50),
                                                 (100, 100, 13)])
def test_lstm_step_rows_match_vector_steps(width, hidden, rows):
    rng = np.random.default_rng(width + rows)
    cell = _cell(rng.uniform(-0.5, 0.5, size=(4 * hidden, width + hidden)),
                 rng.uniform(-0.5, 0.5, size=4 * hidden))
    x, h, c = (rng.uniform(-2, 2, size=(rows, n)) for n in (width, hidden, hidden))
    h_rows, c_rows = cell.step(nc.constant(x), (nc.constant(h), nc.constant(c)))
    assert h_rows.shape == c_rows.shape == (rows, hidden)
    for r in range(rows):
        h_r, c_r = cell.step(nc.constant(x[r]), (nc.constant(h[r]), nc.constant(c[r])))
        assert np.allclose(h_rows.value[r], h_r.value, rtol=0, atol=LOCKSTEP_ATOL)
        assert np.allclose(c_rows.value[r], c_r.value, rtol=0, atol=LOCKSTEP_ATOL)


def test_lstm_step_rows_grad_check_into_both_states():
    rng = random.Random(16)
    hs, width, rows = 3, 2, 4
    cell = _cell(rng_array(rng, 4 * hs, width + hs), rng_array(rng, 4 * hs))
    h = nc.param(rng_array(rng, rows, hs))
    c = nc.param(rng_array(rng, rows, hs))
    x = nc.param(rng_array(rng, rows, width))
    wh, wc = nc.constant(rng_array(rng, rows * hs)), nc.constant(rng_array(rng, rows * hs))

    def flat(m):
        return nc.concat([nc.row(m, r) for r in range(rows)])

    def f():
        h1, c1 = cell.step(x, (h, c))
        h2, c2 = cell.step(x, (h1, c1))
        return nc.add(nc.dot(flat(h2), wh), nc.dot(flat(nc.add(c1, c2)), wc))

    assert nc.grad_check(f, [cell.w, cell.b, h, c, x]) < 1e-6


@pytest.mark.parametrize("x, h, c", [
    ((3, 2), (4, 3), (4, 3)),     # rows of x and of the states differ
    ((4, 2), (4, 3), (3, 3)),     # rows of h and c differ
    ((2,), (4, 3), (4, 3)),       # a vector x, rows of states
    ((0, 2), (0, 3), (0, 3)),     # no rows
    ((4, 3), (4, 3), (4, 3)),     # x wider than the weight
], ids=["x-rows", "c-rows", "vector-x", "no-rows", "x-width"])
def test_lstm_step_rows_shape_errors(x, h, c):
    cell = _cell(np.zeros((12, 5)), np.zeros(12))
    x, h, c = (nc.constant(np.zeros(shape)) for shape in (x, h, c))
    with pytest.raises(ValueError, match="lstm_seq"):
        cell.step(x, (h, c))


def test_lstm_seq_rows_from_vector_states_are_one_sequence():
    """Rows of x with vector states are one sequence to the op, and B
    sequences of one step from a shared start to a cell step."""
    rng = np.random.default_rng(4)
    cell = _cell(rng.uniform(-1, 1, size=(12, 5)), rng.uniform(-1, 1, 12))
    x, h, c = (nc.constant(rng.uniform(-1, 1, size=shape)) for shape in ((4, 2), 3, 3))
    out = nc.lstm_seq(x, cell.w, cell.b, h, c)
    h_rows, c_rows = cell.step(x, (h, c))
    state = (h, c)
    for t in range(4):
        state = cell.step(nc.row(x, t), state)
        assert np.array_equal(out.value[t], state[0].value)
        h_t, c_t = cell.step(nc.row(x, t), (h, c))
        assert np.allclose(h_rows.value[t], h_t.value, rtol=0, atol=LOCKSTEP_ATOL)
        assert np.allclose(c_rows.value[t], c_t.value, rtol=0, atol=LOCKSTEP_ATOL)


def _packed(xs):
    """The rows of the sequences ``xs``, longest first, packed time-major,
    and the packed sizes."""
    sizes = [sum(len(x) > t for x in xs) for t in range(len(xs[0]))]
    return np.array([x[t] for t in range(len(xs[0])) for x in xs if len(x) > t]), sizes


def _alone(w, b, x, h, c):
    """The hidden states and the last cell state of one sequence, by
    chained vector steps."""
    cell, state, hs = _cell(w, b), (nc.constant(h), nc.constant(c)), []
    for row in x:
        state = cell.step(nc.constant(row), state)
        hs.append(state[0].value)
    return np.array(hs), state[1].value


@pytest.mark.parametrize("starts", ["shared", "per-row"])
def test_lstm_seq_packed_sequences_match_each_run_alone(starts):
    rng = np.random.default_rng(5)
    hidden, width = 7, 4
    w = rng.uniform(-0.5, 0.5, size=(4 * hidden, width + hidden))
    b = rng.uniform(-0.5, 0.5, size=4 * hidden)
    xs = [rng.uniform(-2, 2, size=(n, width)) for n in (6, 4, 4, 1)]
    shape = (hidden,) if starts == "shared" else (len(xs), hidden)
    h0, c0 = rng.uniform(-1, 1, size=shape), rng.uniform(-1, 1, size=shape)
    x, sizes = _packed(xs)
    out = nc.lstm_seq(nc.constant(x), nc.constant(w), nc.constant(b), nc.constant(h0),
                      nc.constant(c0), sizes).value
    assert out.shape == (len(x) + len(xs), hidden)
    at = np.cumsum([0] + sizes[:-1])
    for s, seq in enumerate(xs):
        start = (h0, c0) if starts == "shared" else (h0[s], c0[s])
        h, c = _alone(w, b, seq, *start)
        assert np.allclose(out[at[:len(seq)] + s], h, rtol=0, atol=LOCKSTEP_ATOL)
        assert np.allclose(out[len(x) + s], c, rtol=0, atol=LOCKSTEP_ATOL)


@pytest.mark.parametrize("starts", ["shared", "per-row"])
def test_lstm_seq_packed_grad_check(starts):
    """Two packed sequences from a shared start or from one row each, with
    a loss that reads every hidden state and the shorter one's last c."""
    rng = random.Random(18)
    hs, width = 3, 2
    w = nc.param(rng_array(rng, 4 * hs, width + hs))
    b = nc.param(rng_array(rng, 4 * hs))
    shape = (hs,) if starts == "shared" else (2, hs)
    h0, c0 = nc.param(rng_array(rng, *shape)), nc.param(rng_array(rng, *shape))
    x = nc.param(rng_array(rng, 7, width))   # lengths 5 and 2: sizes 2, 2, 1, 1, 1
    weights = nc.constant(rng_array(rng, 7 * hs))
    wc = nc.constant(rng_array(rng, hs))

    def f():
        out = nc.lstm_seq(x, w, b, h0, c0, [2, 2, 1, 1, 1])
        hidden = nc.concat([nc.row(out, t) for t in range(7)])
        return nc.add(nc.dot(hidden, weights), nc.dot(nc.row(out, 8), wc))

    assert nc.grad_check(f, [w, b, h0, c0, x]) < 1e-6


@pytest.mark.parametrize("x, h, sizes", [
    ((3,), (4,), (1,)),            # a vector step
    ((5, 3), (5, 4), (5,)),        # one step of rows, from one row each
    ((6, 3), (4,), (3, 2, 1)),     # packed sequences from a shared start
    ((4, 3), (4,), None),          # one sequence
], ids=["vector", "rows", "packed", "sequence"])
def test_lstm_seq_on_input_projections_matches_input_rows(x, h, sizes):
    """With no bias, rows of input projections W_x·x + b step the LSTM as
    the inputs x do, to rounding: only W_h·h is left to the op."""
    rng = np.random.default_rng(32)
    hs, width = h[-1], x[-1]
    w, b = rng.uniform(-0.5, 0.5, size=(4 * hs, width + hs)), rng.uniform(-0.5, 0.5, size=4 * hs)
    x, h0, c0 = (rng.uniform(-2, 2, size=shape) for shape in (x, h, h))
    want = nc.lstm_seq(nc.constant(x), nc.constant(w), nc.constant(b), nc.constant(h0),
                       nc.constant(c0), sizes).value
    got = nc.lstm_seq(nc.constant(x @ w[:, :width].T + b), nc.constant(w), None,
                      nc.constant(h0), nc.constant(c0), sizes).value
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0, atol=LOCKSTEP_ATOL)


@pytest.mark.parametrize("starts", ["shared", "per-row"])
def test_lstm_seq_on_input_projections_grad_check(starts):
    """Packed sequences stepped on input projections: the gradients into the
    projections, w's recurrent block and both starts grad-check, and w's
    input columns get exactly zero."""
    rng = random.Random(33)
    hs, width = 3, 2
    w = nc.param(rng_array(rng, 4 * hs, width + hs))
    shape = (hs,) if starts == "shared" else (2, hs)
    h0, c0 = nc.param(rng_array(rng, *shape)), nc.param(rng_array(rng, *shape))
    x = nc.param(rng_array(rng, 7, 4 * hs))   # lengths 5 and 2: sizes 2, 2, 1, 1, 1
    weights = nc.constant(rng_array(rng, 7 * hs))
    wc = nc.constant(rng_array(rng, hs))

    def f():
        out = nc.lstm_seq(x, w, None, h0, c0, [2, 2, 1, 1, 1])
        hidden = nc.concat([nc.row(out, t) for t in range(7)])
        return nc.add(nc.dot(hidden, weights), nc.dot(nc.row(out, 8), wc))

    assert nc.grad_check(f, [w, h0, c0, x]) < 1e-6
    w.zero_grad()
    nc.backward(f())
    assert not w.grad[:, :width].any() and w.grad[:, width:].all()


@pytest.mark.parametrize("x, w", [((2, 12), (12, 2)), ((2, 11), (12, 5)), ((2, 12), (12,))],
                         ids=["no-input-columns", "x-width", "vector-w"])
def test_lstm_seq_on_input_projections_shape_errors(x, w):
    x, w, h = nc.constant(np.zeros(x)), nc.constant(np.zeros(w)), nc.constant(np.zeros(3))
    with pytest.raises(ValueError, match="lstm_seq"):
        nc.lstm_seq(x, w, None, h, h)


def _two_denominator_sigmoid(v):
    """The one-exp sigmoid with the denominator computed in each branch."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_sigmoid_with_one_denominator_is_bitwise_the_two_denominator_form():
    edges = [0.0, -0.0, 37.0, -37.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf]
    grid = np.concatenate([np.linspace(-800, 800, 200_001), np.linspace(-40, 40, 80_001), edges])
    got, want = nc._sigmoid(grid), _two_denominator_sigmoid(grid)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_lstm_kernel_gates_are_the_sigmoid_and_tanh():
    """The kernel's sigmoid gates, 0.5·tanh(0.5·z) + 0.5, are within two
    units in the last place below 1 (2**-52) of ``_sigmoid`` over
    [-50, 50]; its candidate gate is tanh(z). Against an extended-precision
    sigmoid the tanh form is off by at most 1.03e-16 here and ``_sigmoid``
    by 1.66e-16, so the two differ by two units at a few points."""
    hs, rows = 250, 200
    z = np.linspace(-50, 50, rows * 4 * hs).reshape(rows, 4 * hs)
    gates = np.empty_like(z)
    nc._lstm_row(np.zeros((4 * hs, hs)), z, np.zeros((rows, hs)), np.zeros((rows, hs)), gates,
                 np.empty((rows, hs)))
    assert np.abs(gates[:, :3 * hs] - nc._sigmoid(z[:, :3 * hs])).max() <= 2.0 ** -52
    assert np.array_equal(gates[:, 3 * hs:], np.tanh(z[:, 3 * hs:]))


@pytest.mark.parametrize("rows", [None, 4], ids=["vector", "rows"])
def test_matvec_column_block_grad_check(rows):
    """A column block of w multiplies x as a copy of the block would; its
    gradient fills those columns of w's and leaves the rest zero."""
    rng = random.Random(30)
    w = nc.param(rng_array(rng, 5, 7))
    x = nc.param(rng_array(rng, 3) if rows is None else rng_array(rng, rows, 3))
    got = nc.matvec(w, x, slice(2, 5))
    want = nc.matvec(nc.constant(w.value[:, 2:5].copy()), x)
    assert np.allclose(got.value, want.value, rtol=0, atol=1e-15)
    weights = nc.constant(rng_array(rng, 5 * (rows or 1)))

    def f():
        out = nc.matvec(w, x, slice(2, 5))
        flat = out if rows is None else nc.concat([nc.row(out, r) for r in range(rows)])
        return nc.dot(flat, weights)

    assert nc.grad_check(f, [w, x]) < 1e-6
    w.zero_grad()
    nc.backward(f())
    assert not w.grad[:, [0, 1, 5, 6]].any() and w.grad[:, 2:5].all()


def test_matvec_column_block_errors():
    w, x = nc.constant(np.zeros((5, 7))), nc.constant(np.zeros(3))
    for cols in (slice(5, 8), slice(3, 2), slice(None, 3), slice(0, 6, 2), slice(-3, None)):
        with pytest.raises(IndexError, match="matvec columns"):
            nc.matvec(w, x, cols)
    with pytest.raises(ValueError, match="matvec"):
        nc.matvec(w, x, slice(0, 2))


@pytest.mark.parametrize("rows", [None, 3], ids=["vector", "rows"])
def test_mixture_is_the_node_formula_and_grad_checks(rows):
    """``mixture`` gives bitwise what w * p + (1 - w) * onehot(index) gives
    in numpy, with w the sigmoid of the gate logit, and its gradients
    grad-check, the gate's included."""
    rng = np.random.default_rng(31)
    p = nc.param(rng.dirichlet(np.ones(5), size=rows))
    gate = nc.param(rng.normal(0, 2, size=(1,) if rows is None else (rows, 1)))
    index = 2 if rows is None else np.array([4, 0, 2])
    point = np.arange(5) == np.asarray(index)[..., None]
    w = nc._sigmoid(gate.value[..., 0])
    want = w[..., None] * p.value + (1 - w)[..., None] * point
    assert nc.mixture(gate, p, index).value.tobytes() == want.tobytes()
    weights = nc.constant(rng.uniform(-1, 1, size=5 * (rows or 1)))

    def f():
        out = nc.mixture(gate, p, index)
        flat = out if rows is None else nc.concat([nc.row(out, r) for r in range(rows)])
        return nc.dot(flat, weights)

    assert nc.grad_check(f, [gate, p]) < 1e-6


def test_mixture_gate_at_zero():
    """A gate logit of 0 weighs p by exactly 0.5."""
    out = nc.mixture(nc.constant([0.0]), nc.constant(np.full(4, 0.25)), 1).value
    assert np.array_equal(out, [0.125, 0.625, 0.125, 0.125])


def test_mixture_gate_extreme_logits():
    """Gate logits of +-1e4 give weights of exactly 1 and 0, with no
    overflow warning."""
    p = nc.constant(np.full((2, 4), 0.25))
    out = nc.mixture(nc.constant([[1e4], [-1e4]]), p, np.array([2, 3])).value
    assert np.array_equal(out[0], p.value[0])
    assert np.array_equal(out[1], [0.0, 0.0, 0.0, 1.0])


def test_mixture_errors():
    p, gate = nc.constant(np.full((2, 3), 1 / 3)), nc.constant([[0.5], [0.5]])
    for index in ([0, 3], [-1, 0], [0], [0.0, 1.0]):
        with pytest.raises(IndexError, match="mixture"):
            nc.mixture(gate, p, np.array(index))
    with pytest.raises(IndexError, match="mixture"):
        nc.mixture(nc.constant([0.5]), nc.constant(np.full(3, 1 / 3)), 3)
    # a weight per row without the logit column, a width-2 gate, a row too many
    for gate in (nc.constant(0.5), nc.constant([0.5, 0.5]), nc.constant(np.zeros((2, 2))),
                 nc.constant(np.zeros((3, 1)))):
        with pytest.raises(ValueError, match="mixture"):
            nc.mixture(gate, p, np.array([0, 1]))
    with pytest.raises(ValueError, match="mixture"):
        nc.mixture(nc.constant(0.5), nc.constant(np.full(3, 1 / 3)), 0)


@pytest.mark.parametrize("rows", [None, 3], ids=["vector", "rows"])
def test_nll_is_the_numpy_formula_and_grad_checks(rows):
    """``nll`` gives bitwise -log(p[t]) for a vector and -(ones @ log(p[r, t]))
    for a matrix, so the training losses keep their rounding; its gradient
    is -1/p at the targets and exactly 0 elsewhere, and grad-checks."""
    rng = np.random.default_rng(34)
    p = nc.param(rng.uniform(0.2, 1.0, size=5 if rows is None else (rows, 5)))
    targets = 3 if rows is None else np.array([4, 0, 4])
    where = 3 if rows is None else (np.arange(rows), targets)
    picked = p.value[where]
    want = -np.log(picked) if rows is None else -(np.ones(rows) @ np.log(picked))
    loss = nc.nll(p, targets)
    assert loss.value.shape == () and loss.value.tobytes() == np.float64(want).tobytes()
    nc.backward(loss)
    scatter = np.zeros_like(p.value)
    scatter[where] = -1.0 / picked
    assert np.array_equal(p.grad, scatter)
    assert nc.grad_check(lambda: nc.nll(p, targets), [p]) < 1e-6


def test_nll_rejects_a_zero_target_but_reads_no_other_entry():
    """A gold probability of 0 is the underflow training reports as a
    non-finite loss; a masked entry's exact 0 elsewhere is no error and gets
    no gradient."""
    logits = nc.param([[0.3, -1.0, 2.0], [1.5, 0.2, -0.7]])
    p = nc.softmax(logits, np.array([[True, False, True], [True, True, False]]))
    loss = nc.nll(p, np.array([2, 1]))
    nc.backward(loss)
    assert np.isfinite(loss.value) and logits.grad[0, 1] == 0.0 and logits.grad[1, 2] == 0.0
    for bad in (np.array([1, 1]), np.array([0, 2])):
        with pytest.raises(FloatingPointError, match="nll"):
            nc.nll(p, bad)
    assert nc.nll(nc.constant([0.0, 1.0]), 1).value == 0.0


def test_nll_errors():
    p = nc.constant(np.full((2, 3), 1 / 3))
    for targets in ([0, 3], [-1, 0], [0], [0.0, 1.0]):
        with pytest.raises(IndexError, match="nll"):
            nc.nll(p, np.array(targets))
    with pytest.raises(IndexError, match="nll"):
        nc.nll(nc.constant(np.full(3, 1 / 3)), 3)
    with pytest.raises(ValueError, match="nll"):
        nc.nll(nc.constant(np.ones((2, 2, 2))), 0)


@pytest.mark.parametrize("x, h, sizes", [
    ((6, 2), (3,), [3, 2]),        # the sizes cover five rows of six
    ((6, 2), (3,), [2, 3, 1]),     # a step runs more sequences than the step before
    ((6, 2), (3,), [3, 3, 0]),     # a step runs none
    ((6, 2), (2, 3), [3, 2, 1]),   # start rows for two of three sequences
    ((0, 2), (3,), []),            # no steps
], ids=["sizes-sum", "sizes-grow", "sizes-zero", "start-rows", "no-steps"])
def test_lstm_seq_packing_errors(x, h, sizes):
    w, b = nc.constant(np.zeros((12, 5))), nc.constant(np.zeros(12))
    x, h = nc.constant(np.zeros(x)), nc.constant(np.zeros(h))
    with pytest.raises(ValueError, match="lstm_seq"):
        nc.lstm_seq(x, w, b, h, h, sizes)


def test_no_grad_builds_no_tape():
    w = nc.param(np.eye(2))
    with nc.no_grad():
        out = nc.softmax(nc.matvec(w, nc.constant([0.5, -1.0])))
        leaf = nc.param([1.0])
    assert out._parents == () and out._backprop is None and not out.requires_grad
    e = np.exp(np.array([0.5, -1.0]))
    assert np.allclose(out.value, e / e.sum())
    assert leaf.requires_grad and w.requires_grad
    on_tape = nc.softmax(nc.matvec(w, nc.constant([0.5, -1.0])))
    assert on_tape.requires_grad and on_tape._backprop is not None
    assert np.array_equal(on_tape.value, out.value)


def _values(*shapes):
    rng = np.random.default_rng(21)
    return [rng.uniform(0.5, 1.5, size=shape) for shape in shapes]   # positive, for nll


# every public op: how to call it on its inputs, and the input values
OPS = {
    "add": (nc.add, _values(3, 3)),
    "matvec": (nc.matvec, _values((2, 3), 3)),
    "matvec_cols": (lambda w, x: nc.matvec(w, x, slice(1, 3)), _values((2, 4), (3, 2))),
    "dot": (nc.dot, _values(3, 3)),
    "concat": (lambda *parts: nc.concat(parts), _values(2, 3)),
    "vstack": (lambda *parts: nc.vstack(parts), _values(3, (2, 3))),
    "row": (lambda m: nc.row(m, 1), _values((3, 2))),
    "relu": (nc.relu, [v - 1.0 for v in _values(3)]),
    "softmax": (nc.softmax, _values((2, 3))),
    "masked_softmax": (lambda a: nc.softmax(a, np.array([True, False, True])),   # a softmax node
                       _values(3)),
    "mixture": (lambda gate, p: nc.mixture(gate, p, np.array([2, 0])), _values((2, 1), (2, 3))),
    "nll": (lambda p: nc.nll(p, np.array([2, 0])), _values((2, 3))),
    "lstm_seq": (nc.lstm_seq, _values((4, 2), (12, 5), 12, 3, 3)),
    "lstm_step": (lambda *a: nc.lstm_seq(*a, (1,)), _values(2, (12, 5), 12, 3, 3)),
    "lstm_step_rows": (lambda *a: nc.lstm_seq(*a, (4,)),
                       _values((4, 2), (12, 5), 12, (4, 3), (4, 3))),
    "lstm_seq_packed": (lambda *a: nc.lstm_seq(*a, (3, 2, 1)),
                        _values((6, 2), (12, 5), 12, (3, 3), (3, 3))),
    "lstm_step_projected": (lambda x, w, h, c: nc.lstm_seq(x, w, None, h, c, (1,)),
                            _values(12, (12, 5), 3, 3)),
    "dropout": (lambda a: nc.dropout(a, 0.5, np.random.default_rng(0)), _values(8)),
}
NOT_OPS = {"param", "constant", "no_grad", "backward", "grad_check"}
PUBLIC = sorted(name for name, obj in vars(nc).items()
                if inspect.isfunction(obj) and obj.__module__ == nc.__name__
                and not name.startswith("_") and name not in NOT_OPS)


@pytest.mark.parametrize("name", sorted(set(PUBLIC) | set(OPS)))
def test_every_op_records_its_inputs_only_on_the_tape(name):
    assert name in OPS, f"public function numcore.{name} has no case in OPS"
    build, values = OPS[name]
    inputs = [nc.param(v) for v in values]
    taped = build(*inputs)
    node, expected, op = taped, tuple(inputs), name
    if name.startswith("lstm"):   # a step, or packed sequences
        op = "lstm_seq"
    elif name in ("masked_softmax", "matvec_cols"):
        op = name.split("_")[0] if name == "matvec_cols" else "softmax"
    assert node.name == op
    assert node._parents == expected
    assert node.requires_grad and node._backprop is not None

    with nc.no_grad():
        free = build(*inputs)
    constant = build(*[nc.constant(v) for v in values])
    for got in (free, constant):
        assert got._parents == () and got._backprop is None and not got.requires_grad
        assert got.value.tobytes() == taped.value.tobytes()


def test_every_public_op_but_dot_has_a_model_caller():
    """An op that no model calls is dead code. ``dot`` stays: the tests
    reduce vectors to a scalar loss with it."""
    package = pathlib.Path(nc.__file__).parent
    code = "".join(f.read_text() for f in sorted(package.glob("*.py")) if f.name != "numcore.py")
    assert "dot" in PUBLIC
    assert [name for name in PUBLIC if name != "dot" and f"nc.{name}(" not in code] == []


def test_no_grad_restores_the_flag_when_its_block_raises():
    with pytest.raises(KeyError):
        with nc.no_grad():
            raise KeyError("boom")
    assert nc.relu(nc.param([0.5])).requires_grad
    with nc.no_grad():
        with nc.no_grad():
            pass
        assert not nc.relu(nc.param([0.5])).requires_grad


def test_backward_frees_the_tape_without_the_cyclic_gc():
    rng = random.Random(17)
    w = nc.param(rng_array(rng, 3, 3))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        h = nc.constant(rng_array(rng, 3))
        for _ in range(5):
            h = nc.softmax(nc.matvec(w, h))
        loss = nc.dot(h, h)
        nc.backward(loss)
        del h, loss
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_dropped_tape_frees_without_the_cyclic_gc():
    """A tape that no backward walks, such as each probe of grad_check,
    holds no reference cycle: dropping its last node frees it."""
    rng = random.Random(17)
    w = nc.param(rng_array(rng, 3, 3))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        h = nc.constant(rng_array(rng, 3))
        for _ in range(5):
            h = nc.softmax(nc.matvec(w, h))
        out = nc.lstm_seq(h, nc.param(rng_array(rng, 12, 6)), nc.param(rng_array(rng, 12)),
                          h, h, (1,))
        h, c = nc.row(out, 0), nc.row(out, 1)
        loss = nc.dot(h, c)
        assert loss.requires_grad
        del h, c, loss
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_backward_reaching_a_consumed_node_raises():
    x = nc.param([0.3, -0.2])
    h = nc.softmax(x)
    nc.backward(nc.dot(h, h))
    first = x.grad.copy()
    with pytest.raises(nc.GradError, match="consumed"):
        nc.backward(nc.dot(h, nc.constant([1.0, 1.0])))
    assert np.array_equal(x.grad, first)  # the refused walk routed nothing


def _two_exp_sigmoid(v):
    """The sigmoid as computed before the one-exp form: the reference."""
    e = np.exp(np.minimum(v, 0))
    return np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.maximum(v, 0))), e / (1.0 + e))


def test_one_exp_sigmoid_is_bitwise_the_two_exp_form():
    rng = np.random.default_rng(18)
    tiny = np.finfo(float).tiny
    special = np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 745.0, -745.0,
                        tiny / 4, -tiny / 4, 5e-324, -5e-324, tiny, -tiny])
    for v in [special] + [rng.normal(scale=s, size=100_000) for s in (0.1, 1, 10, 100, 1000)]:
        with np.errstate(over="ignore"):
            got, want = nc._sigmoid(v), _two_exp_sigmoid(v)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
