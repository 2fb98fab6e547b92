import numpy as np
import pytest

from hardmono import numcore as nc
from hardmono.nn import BiEncoder, EmbeddingTable, Linear, LstmCell, ParamSet


def make(seed=0):
    rng = np.random.default_rng(seed)
    return ParamSet(rng), rng


def test_paramset_rejects_duplicates():
    ps, rng = make()
    ps.uniform("w", (2,))
    with pytest.raises(ValueError, match="duplicate"):
        ps.zeros("w", (2,))


def test_paramset_state_dict_round_trip():
    ps, rng = make()
    ps.uniform("a", (3, 2))
    ps.zeros("b", (4,))
    state = ps.state_dict()
    ps2, rng2 = make(1)
    ps2.uniform("a", (3, 2))
    ps2.zeros("b", (4,))
    ps2.load_state_dict(state)
    assert np.array_equal(ps2["a"].value, state["a"])
    state["a"][0, 0] = 99.0  # dict holds copies, not views
    assert ps2["a"].value[0, 0] != 99.0


def test_paramset_load_rejects_mismatch():
    ps, rng = make()
    ps.uniform("a", (2,))
    with pytest.raises(ValueError, match="missing"):
        ps.load_state_dict({})
    with pytest.raises(ValueError, match="shape"):
        ps.load_state_dict({"a": np.zeros((3,))})
    with pytest.raises(ValueError, match="'b' is not a parameter"):
        ps.load_state_dict({"a": np.zeros((2,)), "b": np.zeros((2,))})


def test_paramset_on_a_state_takes_each_tensor_once_its_shape_fits():
    state = {"w": np.arange(6.0).reshape(3, 2), "b": np.ones(3)}
    ps = ParamSet(state)
    assert np.array_equal(ps.uniform("w", (3, 2)).value, state["w"])
    with pytest.raises(ValueError, match=r"'b' has shape \(3,\), the model needs \(4,\)"):
        ps.zeros("b", (4,))
    with pytest.raises(ValueError, match="'c' is missing"):
        ps.zeros("c", (3,))
    assert ps["w"].value is state["w"]   # taken, not copied


def test_embedding_returns_stored_row():
    ps, rng = make()
    emb = EmbeddingTable(ps, "emb", 5, 3)
    assert np.array_equal(emb(2).value, emb.table.value[2])
    with pytest.raises(IndexError):
        emb(5)


def test_linear_zero_bias_init():
    ps, rng = make()
    lin = Linear(ps, "out", 4, 3)
    assert np.array_equal(lin.b.value, np.zeros(3))
    x = nc.constant(np.ones(4))
    assert np.allclose(lin(x).value, lin.w.value @ np.ones(4))


def test_lstm_forget_bias_one():
    ps, rng = make()
    cell = LstmCell(ps, "lstm", 3, 4)
    b = cell.b.value
    assert np.array_equal(b[4:8], np.ones(4))
    assert np.array_equal(b[:4], np.zeros(4))
    assert np.array_equal(b[8:], np.zeros(8))


def test_lstm_zero_weights_zero_output():
    ps, rng = make()
    cell = LstmCell(ps, "lstm", 2, 3)
    cell.w.value[:] = 0.0
    cell.b.value[:] = 0.0
    cell.h0.value[:] = 0.0
    cell.c0.value[:] = 0.0
    out, _ = cell.step(nc.constant(np.zeros(2)), (cell.h0, cell.c0))
    assert np.array_equal(out.value, np.zeros(3))


def test_lstm_rejects_wrong_input_size():
    ps, rng = make()
    cell = LstmCell(ps, "lstm", 2, 3)
    with pytest.raises(ValueError, match="lstm_seq"):
        cell.step(nc.constant(np.zeros(5)), (cell.h0, cell.c0))


def test_lstm_chained_steps_grad_check():
    ps, rng = make(3)
    cell = LstmCell(ps, "lstm", 2, 3)
    xs = [nc.constant(rng.uniform(-1, 1, size=2)) for _ in range(5)]

    def f():
        last = nc.row(cell.sequence(nc.vstack(xs)), len(xs) - 1)
        return nc.dot(last, last)

    assert nc.grad_check(f, ps.nodes()) < 1e-6


def test_lstm_gradient_flows_to_initial_state():
    ps, rng = make(4)
    cell = LstmCell(ps, "lstm", 2, 3)
    last = nc.row(cell.sequence(nc.constant(rng.uniform(-1, 1, size=(3, 2)))), 2)
    nc.backward(nc.dot(last, last))
    assert np.any(cell.h0.grad != 0)
    assert np.any(cell.c0.grad != 0)


def test_bi_encoder_shapes_and_length():
    ps, rng = make(5)
    enc = BiEncoder(ps, "enc", 3, 4)
    xs = rng.uniform(-1, 1, size=(6, 3))
    assert enc(nc.constant(xs)).value.shape == (6, 8)
    assert enc(nc.constant(xs[:1])).value.shape == (1, 8)


def test_bi_encoder_position_sees_whole_input():
    ps, rng = make(6)
    enc = BiEncoder(ps, "enc", 2, 3)
    xs = rng.uniform(-1, 1, size=(4, 2))
    base = enc(nc.constant(xs)).value[0]
    xs2 = xs.copy()
    xs2[-1] += 1.0  # perturb the far end; position 0 must move
    changed = enc(nc.constant(xs2)).value[0]
    assert not np.allclose(base, changed)


def test_bi_encoder_directional_wiring():
    """Reversing the input reverses the outputs only when the forward and
    backward halves are swapped to match."""
    ps, rng = make(7)
    enc = BiEncoder(ps, "enc", 2, 3)
    # mirror the weights so both directions compute the same function
    enc.bwd.w.value = enc.fwd.w.value.copy()
    enc.bwd.b.value = enc.fwd.b.value.copy()
    enc.bwd.h0.value = enc.fwd.h0.value.copy()
    enc.bwd.c0.value = enc.fwd.c0.value.copy()
    xs = rng.uniform(-1, 1, size=(5, 2))
    fwd_run = enc(nc.constant(xs)).value
    rev_run = enc(nc.constant(xs[::-1])).value
    h = 3
    for i in range(5):
        a = fwd_run[i]
        b = rev_run[4 - i]
        assert np.allclose(a[:h], b[h:]) and np.allclose(a[h:], b[:h])


def test_encoder_outputs_finite_for_bounded_inputs():
    ps, rng = make(8)
    enc = BiEncoder(ps, "enc", 3, 4)
    out = enc(nc.constant(np.full((10, 3), 10.0)))
    assert np.all(np.isfinite(out.value))


def test_encoder_rejects_empty():
    ps, rng = make()
    enc = BiEncoder(ps, "enc", 2, 2)
    with pytest.raises(ValueError, match="nonempty"):
        enc(nc.constant(np.zeros((0, 2))))


def test_lstm_run_is_bitwise_equal_to_chained_steps():
    """The losses run an LSTM as one sequence op and decoding steps it; the
    two must give the same values, so that training and decoding agree."""
    for seed, (width, hidden, steps) in enumerate([(1, 1, 1), (5, 3, 7), (100, 100, 12),
                                                    (320, 100, 20), (37, 11, 30)]):
        ps, rng = make(seed)
        cell = LstmCell(ps, "lstm", width, hidden)
        xs = [nc.constant(rng.uniform(-2, 2, size=width)) for _ in range(steps)]
        state = (cell.h0, cell.c0)
        outs = cell.sequence(nc.vstack(xs))
        for t, x in enumerate(xs):
            state = cell.step(x, state)
            h = state[0]
            assert np.array_equal(nc.row(outs, t).value, h.value)


def test_lstm_run_gradients_match_chained_steps():
    ps, rng = make(9)
    cell = LstmCell(ps, "lstm", 4, 3)
    xs = [nc.param(rng.uniform(-1, 1, size=4)) for _ in range(6)]
    weights = [nc.constant(rng.uniform(-1, 1, size=3)) for _ in range(6)]

    def grads(outs):
        ps.zero_grads()
        for x in xs:
            x.zero_grad()
        total = nc.dot(outs[0], weights[0])
        for o, w in zip(outs[1:], weights[1:]):
            total = nc.add(total, nc.dot(o, w))
        nc.backward(total)
        return [p.grad.copy() for p in ps.nodes() + xs]

    stepped, state = [], (cell.h0, cell.c0)
    for x in xs:
        state = cell.step(x, state)
        h = state[0]
        stepped.append(h)
    seq = cell.sequence(nc.vstack(xs))
    rows = [nc.row(seq, t) for t in range(len(xs))]
    for got, want in zip(grads(rows), grads(stepped)):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_steps_on_projected_inputs_match_steps_on_inputs_and_grad_check():
    """A cell stepped on input projections, summed from ``project`` blocks
    plus the bias, reaches the states of the same inputs stepped whole, to
    rounding; the gradients through the blocks grad-check."""
    ps, rng = make(11)
    cell = LstmCell(ps, "lstm", 5, 3)
    parts = [nc.param(rng.uniform(-1, 1, size=(4, 2))), nc.param(rng.uniform(-1, 1, size=3))]
    weights = nc.constant(rng.uniform(-1, 1, size=3))

    def run(projected):
        state = (cell.h0, cell.c0)
        for t in range(4):
            first = nc.row(parts[0], t)
            if projected:
                x = nc.add(nc.add(cell.project(first, 0), cell.project(parts[1], 2)), cell.b)
            else:
                x = nc.concat([first, parts[1]])
            state = cell.step(x, state, projected)
        return state

    for a, b in zip(run(True), run(False)):
        assert np.allclose(a.value, b.value, rtol=0, atol=1e-12)

    def loss():
        h, c = run(True)
        return nc.add(nc.dot(h, weights), nc.dot(c, weights))

    assert nc.grad_check(loss, ps.nodes() + parts) < 1e-6


def test_project_stays_within_the_input_columns():
    ps, rng = make(12)
    cell = LstmCell(ps, "lstm", 5, 3)
    assert cell.project(nc.constant(np.ones((2, 5))), 0).shape == (2, 12)
    for width, at in ((3, 3), (2, -1), (6, 0)):
        with pytest.raises(ValueError, match="input columns"):
            cell.project(nc.constant(np.ones(width)), at)
