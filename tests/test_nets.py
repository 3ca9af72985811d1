import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from crossmodal.corpus import MAX_FLOAT64_VALUES, PretrainedEmbeddings
from crossmodal.errors import ConfigError, NonFiniteGradientError
import crossmodal.nets as nets_mod
from crossmodal.nets import (
    FIELDS_ONLY_READ_BY,
    Net,
    NetSpec,
    OuterGrad,
    RowGrad,
    accumulate,
    backward,
    embed_dense,
    fold_pending,
    forward,
    init_net,
    lr_schedule,
    relu,
    sgd_step,
)
from crossmodal.text import SparseVector, TokenSequence, Vocabulary
from oracles import (
    densify,
    oracle_dense_accumulate,
    oracle_dense_matrix_backward,
    oracle_dense_sgd_step,
    oracle_eager_sgd_step,
    oracle_embed_loop,
    oracle_window_backward,
    oracle_window_forward,
)


def sparse(indices, values):
    return SparseVector(np.array(indices, dtype=np.int64), np.array(values, dtype=np.float64))


def random_input(spec, rng):
    if spec.kind == "sequence":
        length = rng.integers(1, 7)
        return TokenSequence(rng.integers(0, spec.input_dim, size=length).astype(np.int64))
    if rng.random() < 0.5:
        nnz = rng.integers(1, spec.input_dim + 1)
        idx = np.sort(rng.choice(spec.input_dim, size=nnz, replace=False)).astype(np.int64)
        return SparseVector(idx, rng.normal(size=nnz))
    return rng.normal(size=spec.input_dim)


def fd_gradcheck(net, x, rng, h=1e-5, tol=1e-6):
    """Central finite differences of forward(net, x) . u against backward."""
    u = rng.normal(size=net.spec.n_emb)
    emb, tape = forward(net, x)
    grads = backward(tape, u)
    worst = 0.0
    for name, grad in grads.items():
        param = net.params[name]
        flat_g = densify(param, grad).ravel()
        flat_p = param.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = float(forward(net, x)[0] @ u)
            flat_p[i] = orig - h
            down = float(forward(net, x)[0] @ u)
            flat_p[i] = orig
            fd = (up - down) / (2 * h)
            err = abs(flat_g[i] - fd) / max(1.0, abs(flat_g[i]))
            worst = max(worst, err)
    assert worst < tol, f"gradient mismatch {worst} on {net.spec.kind}"


def away_from_relu_kinks(net, x, margin=1e-3):
    _, tape = forward(net, x)
    for key in ("h0", "avg"):
        if key in tape.data:
            pre = np.asarray(tape.data[key])
            if np.any(np.abs(pre) < margin):
                return False
    return True


class TestNetSpec:
    """Driven by NetSpec's table of the fields that only one kind of net reads."""

    @pytest.mark.parametrize("kind, name", [(kind, name) for kind in FIELDS_ONLY_READ_BY
                                            for other, names in FIELDS_ONLY_READ_BY.items() if other != kind
                                            for name in names])
    def test_field_of_another_kind_refused(self, kind, name):
        own = dict.fromkeys(FIELDS_ONLY_READ_BY[kind], 3)
        default = NetSpec.__dataclass_fields__[name].default
        with pytest.raises(ConfigError) as exc:
            NetSpec(kind, 4, 2, **own, **{name: default + 3})
        assert str(exc.value) == f"a {kind} net does not read {name}, so it must be {default!r}, not {default + 3!r}"
        assert NetSpec(kind, 4, 2, **own, **{name: default}) == NetSpec(kind, 4, 2, **own)

    @pytest.mark.parametrize("kind", FIELDS_ONLY_READ_BY)
    def test_own_fields_accepted(self, kind):
        own = dict.fromkeys(FIELDS_ONLY_READ_BY[kind], 3)
        spec = NetSpec(kind, 4, 2, **own)
        assert {name: getattr(spec, name) for name in own} == own
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n_emb = 5

    @pytest.mark.parametrize("args, fields, message", [
        (("lstm", 4, 2), {}, "unknown net kind 'lstm'"),
        (("bag", 2, MAX_FLOAT64_VALUES), {}, f"parameter w0 of shape (2, {MAX_FLOAT64_VALUES})"),
        (("bag", 1, 2), {"n_hu": MAX_FLOAT64_VALUES + 1}, f"parameter w0 of shape (1, {MAX_FLOAT64_VALUES + 1})"),
        (("bag", 1, 2), {"n_hu": MAX_FLOAT64_VALUES}, f"parameter w1 of shape ({MAX_FLOAT64_VALUES}, 2)"),
        (("sequence", 1, 2), {"word_dim": 2, "kernel_count": 1, "window": MAX_FLOAT64_VALUES},
         f"parameter conv_w of shape ({2 * MAX_FLOAT64_VALUES}, 1)"),
    ], ids=["unknown_kind", "w0", "n_hu_past_the_bound", "w1", "conv_w"])
    def test_refused(self, args, fields, message):
        """An unknown kind, and a parameter of more float64 values than one numpy array holds."""
        with pytest.raises(ConfigError) as exc:
            NetSpec(*args, **fields)
        assert str(exc.value).startswith(message)
        assert NetSpec("bag", 1, MAX_FLOAT64_VALUES).n_emb == MAX_FLOAT64_VALUES  # the largest addressable


class TestInitNet:
    def test_bag_shapes_and_bound(self):
        spec = NetSpec(kind="bag", input_dim=100, n_emb=8)
        net = init_net(spec, seed=0)
        assert set(net.params) == {"w0", "b0"}
        assert net.params["w0"].shape == (100, 8)
        assert net.params["b0"].shape == (8,)
        assert np.all(np.abs(net.params["w0"]) <= np.sqrt(6 / 108))
        assert np.all(net.params["b0"] == 0.0)

    def test_hidden_layer_shapes(self):
        net = init_net(NetSpec(kind="bag", input_dim=20, n_emb=8, n_hu=12), seed=0)
        assert set(net.params) == {"w0", "b0", "w1", "b1"}
        assert net.params["w0"].shape == (20, 12)
        assert net.params["w1"].shape == (12, 8)

    def test_sequence_shapes(self):
        spec = NetSpec(kind="sequence", input_dim=30, n_emb=8, word_dim=6, kernel_count=5, window=3)
        net = init_net(spec, seed=1)
        assert net.params["lookup"].shape == (30, 6)
        assert net.params["conv_w"].shape == (18, 5)
        assert net.params["out_w"].shape == (5, 8)

    def test_deterministic(self):
        spec = NetSpec(kind="bag", input_dim=40, n_emb=8, n_hu=4)
        a, b = init_net(spec, seed=9), init_net(spec, seed=9)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_pretrained_dim_mismatch(self):
        spec = NetSpec(kind="bag", input_dim=10, n_emb=8)
        emb = PretrainedEmbeddings(dim=300, vectors={})
        with pytest.raises(ValueError, match="300"):
            init_net(spec, 0, pretrained=emb, vocab=Vocabulary("unigram", {}, {}, 1))

    def test_pretrained_without_vocabulary_refused(self):
        emb = PretrainedEmbeddings(dim=8, vectors={"dog": np.ones(8)})
        with pytest.raises(ValueError, match="needs the vocabulary"):
            init_net(NetSpec(kind="bag", input_dim=10, n_emb=8), 0, pretrained=emb)

    def test_pretrained_rows_overwritten(self):
        vocab = Vocabulary("unigram", {"dog": 0, "cat": 3}, {}, 1)
        emb = PretrainedEmbeddings(dim=4, vectors={"dog": np.arange(4.0), "bird": np.ones(4)})
        net = init_net(NetSpec(kind="bag", input_dim=10, n_emb=4), 0, pretrained=emb, vocab=vocab)
        np.testing.assert_array_equal(net.params["w0"][0], np.arange(4.0))
        # cat not in the embedding table keeps its random row
        assert np.any(net.params["w0"][3] != 0.0)

    def test_pretrained_into_lookup(self):
        vocab = Vocabulary("unigram", {"dog": 2}, {}, 1)
        emb = PretrainedEmbeddings(dim=6, vectors={"dog": np.full(6, 2.0)})
        spec = NetSpec(kind="sequence", input_dim=5, n_emb=3, word_dim=6, kernel_count=4, window=2)
        net = init_net(spec, 0, pretrained=emb, vocab=vocab)
        np.testing.assert_array_equal(net.params["lookup"][2], np.full(6, 2.0))


class TestForward:
    def test_bag_single_index_is_row_plus_bias(self):
        net = init_net(NetSpec(kind="bag", input_dim=10, n_emb=6), seed=3)
        net.params["b0"][:] = np.arange(6.0)
        emb, _ = forward(net, sparse([4], [1.0]))
        np.testing.assert_array_equal(emb, net.params["w0"][4] + net.params["b0"])

    def test_zero_parameters_zero_embedding(self):
        net = init_net(NetSpec(kind="bag", input_dim=10, n_emb=6, n_hu=4), seed=3)
        for p in net.params.values():
            p[:] = 0.0
        emb, _ = forward(net, sparse([1, 2], [0.5, 2.0]))
        np.testing.assert_array_equal(emb, np.zeros(6))

    def test_dense_matches_sparse(self):
        net = init_net(NetSpec(kind="bag", input_dim=8, n_emb=5, n_hu=3), seed=7)
        dense = np.zeros(8)
        dense[[2, 6]] = [1.5, -0.5]
        a, _ = forward(net, dense)
        b, _ = forward(net, sparse([2, 6], [1.5, -0.5]))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_deterministic_and_side_effect_free(self):
        rng = np.random.default_rng(5)
        spec = NetSpec(kind="sequence", input_dim=12, n_emb=6, word_dim=4, kernel_count=5, window=3)
        net = init_net(spec, seed=5)
        x = TokenSequence(rng.integers(0, 12, size=6).astype(np.int64))
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        np.testing.assert_array_equal(a, b)

    def test_sequence_rejects_empty(self):
        spec = NetSpec(kind="sequence", input_dim=12, n_emb=6, word_dim=4, kernel_count=5, window=3)
        net = init_net(spec, seed=5)
        with pytest.raises(ValueError):
            forward(net, TokenSequence(np.empty(0, dtype=np.int64)))

    def test_kind_input_mismatch(self):
        bag = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=0)
        with pytest.raises(TypeError):
            forward(bag, TokenSequence(np.array([0], dtype=np.int64)))
        sequence = init_net(NetSpec(kind="sequence", input_dim=4, n_emb=2, word_dim=3, kernel_count=2, window=2),
                            seed=0)
        with pytest.raises(TypeError, match="sequence nets take TokenSequence inputs"):
            forward(sequence, sparse([0], [1.0]))

    @pytest.mark.parametrize("width", [3, 5])
    def test_dense_input_of_another_width_refused(self, width):
        net = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=0)
        with pytest.raises(ValueError, match=rf"dense input shape \({width},\) != \(4,\)"):
            forward(net, np.ones(width))
        with pytest.raises(ValueError, match=rf"dense input shape \({width},\) != \(4,\)"):
            embed_dense(net, [np.ones(width)] * 2)

    def test_sequence_against_explicit_oracle(self):
        """Independent oracle: build the padded window matrix by hand."""
        rng = np.random.default_rng(11)
        spec = NetSpec(kind="sequence", input_dim=9, n_emb=4, word_dim=3, kernel_count=5, window=5)
        net = init_net(spec, seed=11)
        for length in (1, 2, 5, 8):
            tokens = rng.integers(0, 9, size=length).astype(np.int64)
            emb, _ = forward(net, TokenSequence(tokens))
            rows = [net.params["lookup"][t] for t in tokens]
            width = spec.window * spec.word_dim
            positions = []
            if length < spec.window:
                flat = np.concatenate(rows + [np.zeros(width - length * spec.word_dim)])
                positions.append(flat)
            else:
                for p in range(length - spec.window + 1):
                    positions.append(np.concatenate(rows[p : p + spec.window]))
            outs = [w @ net.params["conv_w"] + net.params["conv_b"] for w in positions]
            avg = sum(outs) / len(outs)
            expected = np.maximum(avg, 0.0) @ net.params["out_w"] + net.params["out_b"]
            np.testing.assert_allclose(emb, expected, atol=1e-12)

    def test_window_one_average_is_order_invariant(self):
        rng = np.random.default_rng(13)
        spec = NetSpec(kind="sequence", input_dim=10, n_emb=4, word_dim=3, kernel_count=4, window=1)
        net = init_net(spec, seed=13)
        tokens = rng.integers(0, 10, size=6).astype(np.int64)
        base, _ = forward(net, TokenSequence(tokens))
        perm = tokens.copy()
        rng.shuffle(perm)
        shuffled, _ = forward(net, TokenSequence(perm))
        np.testing.assert_allclose(base, shuffled, atol=1e-12)


class TestBackward:
    @pytest.mark.parametrize(
        "spec",
        [
            NetSpec(kind="bag", input_dim=8, n_emb=6),
            NetSpec(kind="bag", input_dim=8, n_emb=6, n_hu=5),
            NetSpec(kind="sequence", input_dim=8, n_emb=6, word_dim=4, kernel_count=5, window=3),
        ],
        ids=["bag-linear", "bag-hidden", "sequence"],
    )
    def test_finite_difference_agreement(self, spec):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 8:
            net = init_net(spec, seed=int(rng.integers(0, 10_000)))
            x = random_input(spec, rng)
            if not away_from_relu_kinks(net, x):
                continue
            fd_gradcheck(net, x, rng)
            checked += 1

    def test_zero_grad_out_gives_zero_grads(self):
        net = init_net(NetSpec(kind="bag", input_dim=8, n_emb=4, n_hu=3), seed=2)
        _, tape = forward(net, sparse([1, 5], [1.0, 2.0]))
        grads = backward(tape, np.zeros(4))
        for name, g in grads.items():
            assert np.all(densify(net.params[name], g) == 0.0)

    def test_linear_bag_row_gradient_closed_form(self):
        net = init_net(NetSpec(kind="bag", input_dim=8, n_emb=4), seed=2)
        x = sparse([2, 6], [0.5, -2.0])
        _, tape = forward(net, x)
        g = np.array([1.0, -1.0, 2.0, 0.5])
        grads = backward(tape, g)
        w0 = densify(net.params["w0"], grads["w0"])
        np.testing.assert_array_equal(w0[2], 0.5 * g)
        np.testing.assert_array_equal(w0[6], -2.0 * g)
        np.testing.assert_array_equal(grads["b0"], g)

    @pytest.mark.parametrize("spec", [
        NetSpec(kind="bag", input_dim=8, n_emb=6),
        NetSpec(kind="bag", input_dim=8, n_emb=6, n_hu=5),
        NetSpec(kind="sequence", input_dim=8, n_emb=6, word_dim=4, kernel_count=5, window=3),
    ], ids=["bag-linear", "bag-hidden", "sequence"])
    def test_no_dense_weight_matrix_gradient(self, spec):
        """Only biases get dense arrays; ``w1`` and ``out_w`` factor into the
        dense gradients they replaced, bit for bit."""
        rng = np.random.default_rng(23)
        for _ in range(8):  # sparse and dense inputs to the bag nets
            net = init_net(spec, seed=int(rng.integers(0, 10_000)))
            x, g = random_input(spec, rng), rng.normal(size=spec.n_emb)
            got = backward(forward(net, x)[1], g)
            want = oracle_dense_matrix_backward(forward(net, x)[1], g)
            assert list(got) == list(want)
            for name, grad in got.items():
                assert isinstance(grad, (RowGrad, OuterGrad)) or grad.ndim == 1, name
                assert densify(net.params[name], grad).tobytes() == densify(net.params[name], want[name]).tobytes()
            for name in {"w1", "out_w"} & set(got):
                assert len(got[name].lefts) == 1

    def test_tape_single_use(self):
        net = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=0)
        _, tape = forward(net, sparse([0], [1.0]))
        backward(tape, np.ones(2))
        with pytest.raises(RuntimeError, match="consumed"):
            backward(tape, np.ones(2))


class TestSgdAndSchedule:
    def test_sgd_arithmetic(self):
        net = Net(
            spec=NetSpec(kind="bag", input_dim=1, n_emb=1),
            params={"w0": np.array([[1.0]]), "b0": np.array([0.0])},
        )
        sgd_step([net], [{"w0": np.array([[2.0]])}], lr=0.1)
        assert net.params["w0"][0, 0] == pytest.approx(0.8)

    def test_zero_gradient_no_change(self):
        net = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=1)
        before = {k: v.copy() for k, v in net.params.items()}
        sgd_step([net], [{k: np.zeros_like(v) for k, v in net.params.items()}], lr=0.5)
        for k in before:
            np.testing.assert_array_equal(net.params[k], before[k])

    def test_nan_gradient_aborts(self):
        net = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=1)
        bad = {"w0": np.full((4, 2), np.nan)}
        with pytest.raises(NonFiniteGradientError, match="w0"):
            sgd_step([net], [bad], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        net = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=1)
        before = {k: v.tobytes() for k, v in net.params.items()}
        for lr in (0.0, -0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="learning rate must be positive and finite"):
                sgd_step([net], [{"b0": np.ones(2)}], lr=lr)
            assert {k: v.tobytes() for k, v in net.params.items()} == before

    def test_row_grad_updates_only_its_rows(self):
        net = init_net(NetSpec(kind="bag", input_dim=6, n_emb=3), seed=1)
        before = net.params["w0"].copy()
        values = np.arange(6.0).reshape(2, 3)
        sgd_step([net], [{"w0": RowGrad(np.array([1, 4]), values)}], lr=0.5)
        np.testing.assert_array_equal(net.params["w0"][[1, 4]], before[[1, 4]] - 0.5 * values)
        untouched = [0, 2, 3, 5]
        assert net.params["w0"][untouched].tobytes() == before[untouched].tobytes()

    @pytest.mark.parametrize(
        "rows, values_shape",
        [([1, 6], (2, 2)), ([-1, 2], (2, 2)), ([2, 2], (2, 2)), ([3, 1], (2, 2)), ([1, 2], (2, 3))],
        ids=["past-end", "negative", "repeated", "decreasing", "value-shape"],
    )
    def test_bad_row_grad_rejected(self, rows, values_shape):
        net = init_net(NetSpec(kind="bag", input_dim=6, n_emb=2), seed=1)
        before = net.params["w0"].copy()
        bad = {"w0": RowGrad(np.array(rows, dtype=np.int64), np.ones(values_shape))}
        with pytest.raises(ValueError, match="w0"):
            sgd_step([net], [bad], lr=0.1)
        assert net.params["w0"].tobytes() == before.tobytes()

    def test_gradient_for_an_unknown_parameter_refused(self):
        net = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=1)
        before = {k: v.tobytes() for k, v in net.params.items()}
        with pytest.raises(KeyError, match="gradient for unknown parameter 'w1'"):
            sgd_step([net], [{"b0": np.ones(2), "w1": np.ones((4, 2))}], lr=0.1)
        assert {k: v.tobytes() for k, v in net.params.items()} == before

    def test_refused_step_moves_no_net(self):
        first = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=1)
        second = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=2)
        before = [net.params["w0"].copy() for net in (first, second)]
        good = {"w0": RowGrad(np.array([0]), np.ones((1, 2)))}
        bad = {"b0": np.array([0.0, np.nan])}
        with pytest.raises(NonFiniteGradientError, match="b0"):
            sgd_step([first, second], [good, bad], lr=0.1)
        for net, w0 in zip((first, second), before):
            assert net.params["w0"].tobytes() == w0.tobytes()

    @staticmethod
    def outer_grad(lefts, rights):
        return OuterGrad(tuple(np.array(v, dtype=np.float64) for v in lefts),
                         tuple(np.array(v, dtype=np.float64) for v in rights))

    @staticmethod
    def count_outer_blocks(monkeypatch):
        """Count ``_outer_blocks`` passes: one applies a step, one more is the
        full finite check."""
        calls = []
        original = nets_mod._outer_blocks
        monkeypatch.setattr(nets_mod, "_outer_blocks",
                            lambda *args: calls.append(args) or original(*args))
        return calls

    @pytest.mark.usefixtures("fold_every_term")
    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    def test_outer_grad_bit_identical_to_dense_oracle(self, monkeypatch, n_terms):
        # 600 rows: two full row blocks and a partial one
        spec = NetSpec(kind="bag", input_dim=600, n_emb=7)
        rng = np.random.default_rng(n_terms)
        grad = self.outer_grad(rng.normal(size=(n_terms, 600)), rng.normal(size=(n_terms, 7)))
        got, want = init_net(spec, seed=4), init_net(spec, seed=4)
        calls = self.count_outer_blocks(monkeypatch)
        sgd_step([got], [{"w0": grad}], lr=0.05)
        assert len(calls) == 1  # a finite factor bound needs no full finite check
        oracle_dense_sgd_step(want, {"w0": densify(want.params["w0"], grad)}, lr=0.05)
        assert got.params["w0"].tobytes() == want.params["w0"].tobytes()

    @pytest.mark.usefixtures("fold_every_term")
    def test_overflowing_bound_with_finite_elements_accepted(self, monkeypatch):
        # each term's bound is 1e308, their sum is inf; no element exceeds 1e308
        lefts = np.zeros((2, 4))
        lefts[0, 0] = lefts[1, 1] = 1e308
        grad = self.outer_grad(lefts, np.ones((2, 2)))
        spec = NetSpec(kind="bag", input_dim=4, n_emb=2)
        got, want = init_net(spec, seed=1), init_net(spec, seed=1)
        calls = self.count_outer_blocks(monkeypatch)
        sgd_step([got], [{"w0": grad}], lr=0.5)
        assert len(calls) == 2
        oracle_dense_sgd_step(want, {"w0": densify(want.params["w0"], grad)}, lr=0.5)
        assert got.params["w0"].tobytes() == want.params["w0"].tobytes()
        assert np.all(np.isfinite(got.params["w0"]))

    @pytest.mark.parametrize(
        "lefts, rights, error",
        [
            ([[1.0, np.nan, 0.0, 2.0]], [[1.0, 1.0]], NonFiniteGradientError),
            ([[1.0, 2.0, 0.0, 2.0]], [[1.0, np.inf]], NonFiniteGradientError),
            ([[0.0, 0.0, 0.0, 0.0]], [[np.inf, 1.0]], NonFiniteGradientError),  # 0 * inf
            ([[1e200, 1.0, 0.0, 0.0]], [[1e200, 1.0]], NonFiniteGradientError),
            ([[1.0, 2.0, 3.0]], [[1.0, 1.0]], ValueError),
            ([[1.0, 2.0, 3.0, 4.0]], [[1.0, 1.0, 1.0]], ValueError),
            ([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]], [[1.0, 1.0]], ValueError),
        ],
        ids=["nan_left", "inf_right", "zero_times_inf", "overflowing_element",
             "short_left", "long_right", "unpaired_factor"],
    )
    def test_bad_outer_grad_refused_and_moves_no_net(self, lefts, rights, error):
        first = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=1)
        second = init_net(NetSpec(kind="bag", input_dim=4, n_emb=2), seed=2)
        before = [{k: v.tobytes() for k, v in net.params.items()} for net in (first, second)]
        good = {"w0": self.outer_grad([[1.0, 2.0, 3.0, 4.0]], [[1.0, -1.0]]), "b0": np.ones(2)}
        with pytest.raises(error, match="w0"):
            sgd_step([first, second], [good, {"w0": self.outer_grad(lefts, rights)}], lr=0.1)
        for net, params in zip((first, second), before):
            assert {k: v.tobytes() for k, v in net.params.items()} == params

    def test_lr_schedule_values(self):
        assert lr_schedule(0.001, 0) == pytest.approx(0.001)
        assert lr_schedule(0.001, 100) == pytest.approx(0.00001)
        assert lr_schedule(0.001, 50) == pytest.approx(0.000505)
        # constant at the floor past 100
        assert lr_schedule(0.001, 250) == pytest.approx(0.00001)
        with pytest.raises(ValueError, match="epoch must be nonnegative"):
            lr_schedule(0.001, -1)

    def test_relu_nonnegative(self):
        rng = np.random.default_rng(3)
        assert np.all(relu(rng.normal(size=1000)) >= 0.0)


def row_grad(rows, values):
    return RowGrad(np.array(rows, dtype=np.int64), np.array(values, dtype=np.float64).reshape(len(rows), 3))


@st.composite
def row_grads(draw):
    rows = draw(st.lists(st.integers(0, 7), unique=True).map(sorted))
    values = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    return row_grad(rows, draw(st.lists(values, min_size=3 * len(rows), max_size=3 * len(rows))))


class TestAccumulate:
    @given(first=row_grads(), second=row_grads())
    @example(first=row_grad([1, 3], np.arange(6)), second=row_grad([0, 3, 7], -np.arange(9)))
    @example(first=row_grad([2], np.ones(3)), second=row_grad([5, 6], np.ones(6)))
    @example(first=row_grad([], []), second=row_grad([4], np.ones(3)))
    def test_row_grads_sum_like_dense(self, first, second):
        param = np.zeros((8, 3))
        dense = oracle_dense_accumulate({"w0": densify(param, first)}, {"w0": densify(param, second)})
        total = accumulate({"w0": first}, {"w0": second})["w0"]
        assert isinstance(total, RowGrad)
        np.testing.assert_array_equal(total.rows, np.union1d(first.rows, second.rows))
        assert np.array_equal(densify(param, total), dense["w0"])

@st.composite
def single_term_outer_grads(draw):
    values = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    left = draw(st.lists(values, min_size=5, max_size=5))
    right = draw(st.lists(values, min_size=3, max_size=3))
    return OuterGrad((np.array(left),), (np.array(right),))


class TestAccumulateOuter:
    @given(grads=st.lists(single_term_outer_grads(), min_size=1, max_size=4))
    def test_outer_grads_sum_like_dense(self, grads):
        # one backward gives one term; summing them in turn is the dense path
        param = np.zeros((5, 3))
        total, dense = {}, {}
        for grad in grads:
            total = accumulate(total, {"w0": grad})
            dense = oracle_dense_accumulate(dense, {"w0": densify(param, grad)})
        assert isinstance(total["w0"], OuterGrad) and len(total["w0"].lefts) == len(grads)
        assert densify(param, total["w0"]).tobytes() == dense["w0"].tobytes()


def assert_rel_close(got, want, rtol=1e-12):
    """``got`` within ``rtol`` of ``want``, relative to ``want``'s largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


DEFERRED_SPECS = {
    # 600 rows: two full row blocks and a partial one
    "bag": NetSpec(kind="bag", input_dim=600, n_emb=7),
    "bag_hidden": NetSpec(kind="bag", input_dim=600, n_emb=7, n_hu=5),
    "sequence": NetSpec(kind="sequence", input_dim=30, n_emb=6, word_dim=5, kernel_count=7, window=3),
}


def training_input(spec, rng):
    if spec.kind == "sequence":
        return TokenSequence(rng.integers(0, spec.input_dim, size=rng.integers(1, 9)).astype(np.int64))
    return rng.normal(size=spec.input_dim)


def shared_state(kind, seed=0, n_steps=45):
    """One state twice: a net after ``n_steps`` SGD steps, of one or two
    backward passes each, that ``sgd_step`` took (one fold ran, and some
    terms are pending), and its copy that took the same steps eagerly."""
    spec = DEFERRED_SPECS[kind]
    rng = np.random.default_rng(seed)
    lazy, eager = init_net(spec, seed), init_net(spec, seed)
    for _ in range(n_steps):
        grads = {}
        for _ in range(rng.integers(1, 3)):
            _, tape = forward(lazy, training_input(spec, rng))
            grads = accumulate(grads, backward(tape, rng.normal(size=spec.n_emb)))
        lr = rng.uniform(0.01, 0.1)  # as the schedule does, steps differ in their rate
        sgd_step([lazy], [grads], lr)
        oracle_eager_sgd_step([eager], [grads], lr)
    assert sum(pending.n for pending in lazy.pending.values()) > 0
    return lazy, eager, rng


class TestDeferredSteps:
    """Pending terms round differently from eager steps; from one shared state
    each result agrees with its eager byte reference within 1e-12 relative."""

    @pytest.mark.parametrize("kind", sorted(DEFERRED_SPECS))
    def test_one_step(self, kind):
        lazy, eager, rng = shared_state(kind)
        _, tape = forward(lazy, training_input(lazy.spec, rng))
        grads = backward(tape, rng.normal(size=lazy.spec.n_emb))
        sgd_step([lazy], [grads], lr=0.05)
        oracle_eager_sgd_step([eager], [grads], lr=0.05)
        fold_pending(lazy)
        for name, param in eager.params.items():
            assert_rel_close(lazy.params[name], param)

    @pytest.mark.parametrize("kind", sorted(DEFERRED_SPECS))
    def test_one_forward(self, kind):
        lazy, eager, rng = shared_state(kind)
        x = training_input(lazy.spec, rng)
        oracle = oracle_window_forward if kind == "sequence" else forward
        assert_rel_close(forward(lazy, x)[0], oracle(eager, x)[0])

    @pytest.mark.parametrize("kind", ["bag", "bag_hidden"])
    def test_one_batched_embedding(self, kind):
        lazy, eager, rng = shared_state(kind)
        # three chunks, the last one partial
        vectors = list(rng.normal(size=(2 * nets_mod.EMBED_CHUNK_ROWS + 5, lazy.spec.input_dim)))
        assert_rel_close(embed_dense(lazy, vectors), oracle_embed_loop(eager, vectors))

    def test_one_sequence_backward(self):
        lazy, eager, rng = shared_state("sequence")
        for length in (1, 2, 3, 8):  # shorter than, as long as and longer than the window
            x = TokenSequence(rng.integers(0, lazy.spec.input_dim, size=length).astype(np.int64))
            g = rng.normal(size=lazy.spec.n_emb)
            got = backward(forward(lazy, x)[1], g)
            want = oracle_window_backward(oracle_window_forward(eager, x)[1], g)
            assert isinstance(got["conv_w"], OuterGrad) and len(got["conv_w"].lefts) == 1
            assert sorted(got) == sorted(want)
            for name, param in eager.params.items():
                assert_rel_close(densify(param, got[name]), densify(param, want[name]))

    @pytest.mark.parametrize("kind", sorted(DEFERRED_SPECS))
    def test_refused_step_leaves_pending_and_params(self, kind):
        lazy, _, rng = shared_state(kind)
        before = {name: param.tobytes() for name, param in lazy.params.items()}
        pending = {name: (p.n, p.steps, p.lefts[: p.n].tobytes(), p.rights[: p.n].tobytes(),
                          p.lrs[: p.n].tobytes()) for name, p in lazy.pending.items()}
        _, tape = forward(lazy, training_input(lazy.spec, rng))
        grads = backward(tape, rng.normal(size=lazy.spec.n_emb))
        # the second net's gradient is checked after the first's pass
        other = init_net(lazy.spec, seed=1)
        bias = "b0" if kind != "sequence" else "out_b"
        with pytest.raises(NonFiniteGradientError, match=bias):
            sgd_step([lazy, other], [grads, {bias: np.full_like(grads[bias], np.nan)}], lr=0.05)
        assert {name: param.tobytes() for name, param in lazy.params.items()} == before
        assert {name: (p.n, p.steps, p.lefts[: p.n].tobytes(), p.rights[: p.n].tobytes(),
                       p.lrs[: p.n].tobytes()) for name, p in lazy.pending.items()} == pending
