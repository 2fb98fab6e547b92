import numpy as np
import pytest

from hardmono import numcore as nc
from hardmono.nn import BiEncoder, EmbeddingTable, Linear, LstmCell, ParamSet


def make(seed=0):
    return ParamSet(), np.random.default_rng(seed)


def test_paramset_rejects_duplicates():
    ps, rng = make()
    ps.uniform("w", (2,), rng)
    with pytest.raises(ValueError, match="duplicate"):
        ps.zeros("w", (2,))


def test_paramset_state_dict_round_trip():
    ps, rng = make()
    ps.uniform("a", (3, 2), rng)
    ps.zeros("b", (4,))
    state = ps.state_dict()
    ps2, rng2 = make(1)
    ps2.uniform("a", (3, 2), rng2)
    ps2.zeros("b", (4,))
    ps2.load_state_dict(state)
    assert np.array_equal(ps2["a"].value, state["a"])
    state["a"][0, 0] = 99.0  # dict holds copies, not views
    assert ps2["a"].value[0, 0] != 99.0


def test_paramset_load_rejects_mismatch():
    ps, rng = make()
    ps.uniform("a", (2,), rng)
    with pytest.raises(ValueError, match="missing"):
        ps.load_state_dict({})
    with pytest.raises(ValueError, match="shape"):
        ps.load_state_dict({"a": np.zeros((3,))})


def test_embedding_returns_stored_row():
    ps, rng = make()
    emb = EmbeddingTable(ps, "emb", 5, 3, rng)
    assert np.array_equal(emb(2).value, emb.table.value[2])
    with pytest.raises(IndexError):
        emb(5)


def test_linear_zero_bias_init():
    ps, rng = make()
    lin = Linear(ps, "out", 4, 3, rng)
    assert np.array_equal(lin.b.value, np.zeros(3))
    x = nc.constant(np.ones(4))
    assert np.allclose(lin(x).value, lin.w.value @ np.ones(4))


def test_lstm_forget_bias_one():
    ps, rng = make()
    cell = LstmCell(ps, "lstm", 3, 4, rng)
    b = cell.b.value
    assert np.array_equal(b[4:8], np.ones(4))
    assert np.array_equal(b[:4], np.zeros(4))
    assert np.array_equal(b[8:], np.zeros(8))


def test_lstm_zero_weights_zero_output():
    ps, rng = make()
    cell = LstmCell(ps, "lstm", 2, 3, rng)
    cell.w.value[:] = 0.0
    cell.b.value[:] = 0.0
    cell.h0.value[:] = 0.0
    cell.c0.value[:] = 0.0
    out, _ = cell.step(nc.constant(np.zeros(2)), cell.initial_state())
    assert np.array_equal(out.value, np.zeros(3))


def test_lstm_rejects_wrong_input_size():
    ps, rng = make()
    cell = LstmCell(ps, "lstm", 2, 3, rng)
    with pytest.raises(ValueError, match="input shape"):
        cell.step(nc.constant(np.zeros(5)), cell.initial_state())


def test_lstm_chained_steps_grad_check():
    ps, rng = make(3)
    cell = LstmCell(ps, "lstm", 2, 3, rng)
    xs = [nc.constant(rng.uniform(-1, 1, size=2)) for _ in range(5)]

    def f():
        outs = cell.run(xs)
        return nc.dot(outs[-1], outs[-1])

    assert nc.grad_check(f, ps.nodes()) < 1e-6


def test_lstm_gradient_flows_to_initial_state():
    ps, rng = make(4)
    cell = LstmCell(ps, "lstm", 2, 3, rng)
    outs = cell.run([nc.constant(rng.uniform(-1, 1, size=2)) for _ in range(3)])
    nc.backward(nc.dot(outs[-1], outs[-1]))
    assert np.any(cell.h0.grad != 0)
    assert np.any(cell.c0.grad != 0)


def test_param_count_formulas():
    ps, rng = make()
    LstmCell(ps, "lstm", 7, 5, rng)
    assert ps.count() == LstmCell.param_count(7, 5)
    ps2, rng2 = make()
    BiEncoder(ps2, "enc", 7, 5, rng2)
    assert ps2.count() == BiEncoder.param_count(7, 5)


def test_bi_encoder_shapes_and_length():
    ps, rng = make(5)
    enc = BiEncoder(ps, "enc", 3, 4, rng)
    xs = [nc.constant(rng.uniform(-1, 1, size=3)) for _ in range(6)]
    out = enc(xs)
    assert len(out) == 6
    assert all(o.value.shape == (8,) for o in out)
    single = enc([xs[0]])
    assert len(single) == 1 and single[0].value.shape == (8,)


def test_bi_encoder_position_sees_whole_input():
    ps, rng = make(6)
    enc = BiEncoder(ps, "enc", 2, 3, rng)
    xs = [rng.uniform(-1, 1, size=2) for _ in range(4)]
    base = enc([nc.constant(x) for x in xs])[0].value
    xs2 = list(xs)
    xs2[-1] = xs2[-1] + 1.0  # perturb the far end; position 0 must move
    changed = enc([nc.constant(x) for x in xs2])[0].value
    assert not np.allclose(base, changed)


def test_bi_encoder_directional_wiring():
    """Reversing the input reverses the outputs only when the forward and
    backward halves are swapped to match."""
    ps, rng = make(7)
    enc = BiEncoder(ps, "enc", 2, 3, rng)
    # mirror the weights so both directions compute the same function
    enc.bwd.w.value = enc.fwd.w.value.copy()
    enc.bwd.b.value = enc.fwd.b.value.copy()
    enc.bwd.h0.value = enc.fwd.h0.value.copy()
    enc.bwd.c0.value = enc.fwd.c0.value.copy()
    xs = [rng.uniform(-1, 1, size=2) for _ in range(5)]
    fwd_run = enc([nc.constant(x) for x in xs])
    rev_run = enc([nc.constant(x) for x in reversed(xs)])
    h = 3
    for i in range(5):
        a = fwd_run[i].value
        b = rev_run[4 - i].value
        assert np.allclose(a[:h], b[h:]) and np.allclose(a[h:], b[:h])


def test_encoder_outputs_finite_for_bounded_inputs():
    ps, rng = make(8)
    enc = BiEncoder(ps, "enc", 3, 4, rng)
    xs = [nc.constant(np.full(3, 10.0)) for _ in range(10)]
    with nc.finite_checks():
        out = enc(xs)
    assert all(np.all(np.isfinite(o.value)) for o in out)


def test_encoder_rejects_empty():
    ps, rng = make()
    enc = BiEncoder(ps, "enc", 2, 2, rng)
    with pytest.raises(ValueError, match="nonempty"):
        enc([])


def test_lstm_run_is_bitwise_equal_to_chained_steps():
    """Decoding encodes through run(); its values, and so its predictions,
    must not depend on the sequence op replacing the step loop."""
    for seed, (width, hidden, steps) in enumerate([(1, 1, 1), (5, 3, 7), (100, 100, 12),
                                                    (320, 100, 20), (37, 11, 30)]):
        ps, rng = make(seed)
        cell = LstmCell(ps, "lstm", width, hidden, rng)
        xs = [nc.constant(rng.uniform(-2, 2, size=width)) for _ in range(steps)]
        state = cell.initial_state()
        for x, out in zip(xs, cell.run(xs)):
            h, state = cell.step(x, state)
            assert np.array_equal(out.value, h.value)


def test_lstm_run_gradients_match_chained_steps():
    ps, rng = make(9)
    cell = LstmCell(ps, "lstm", 4, 3, rng)
    xs = [nc.param(rng.uniform(-1, 1, size=4)) for _ in range(6)]
    weights = [nc.constant(rng.uniform(-1, 1, size=3)) for _ in range(6)]

    def grads(outs):
        ps.zero_grads()
        for x in xs:
            x.zero_grad()
        nc.backward(nc.addn([nc.dot(o, w) for o, w in zip(outs, weights)]))
        return [p.grad.copy() for p in ps.nodes() + xs]

    stepped, state = [], cell.initial_state()
    for x in xs:
        h, state = cell.step(x, state)
        stepped.append(h)
    for got, want in zip(grads(cell.run(xs)), grads(stepped)):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
