"""Config parsing, validation, and checkpoint round trips."""

import errno
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from depthlab import checkpoint
from depthlab.autodiff import Tensor
from depthlab.blocks import D_MAX, D_MIN, HEADS, PATCH
from depthlab.checkpoint import load_module, save_checkpoint
from depthlab.config import TrainConfig, config_from_pairs, config_to_text, load_config, parse_config_text
from depthlab.losses import ALPHA, FIXED_WEIGHTS
from depthlab.nn import Module
from depthlab.optim import BETA1, BETA2, EPS
from depthlab.train import ModelBundle, load_model, save_model


class TestConfig:
    def test_defaults_mirror_training_recipe(self):
        cfg = TrainConfig()
        assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)
        assert cfg.rank == 4
        assert cfg.lr == 1e-4
        assert cfg.lr_decay == 0.1
        assert ALPHA == 0.85
        assert (PATCH, HEADS, D_MIN, D_MAX) == (8, 4, 0.1, 100.0)
        assert FIXED_WEIGHTS == {"reconstruction": 0.2, "reflectance": 0.2, "synthesis": 1.0}
        assert cfg.loss_weights() == {**FIXED_WEIGHTS, "smoothness": 0.003}

    def test_decay_epoch_defaults_to_one_third(self):
        assert TrainConfig(epochs=30).decay_epoch() == 10
        assert TrainConfig(epochs=9).decay_epoch() == 3
        assert TrainConfig(epochs=2).decay_epoch() == 1

    def test_parse_text_roundtrip(self):
        cfg = TrainConfig(seed=7, epochs=5, lr=0.01, adapter="plain", mixer_after=(1, 3), bypass_decomposition=True)
        back = parse_config_text(config_to_text(cfg))
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text("learning_rate=0.1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config_text("seed 7\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# comment\n\nseed=9  # trailing\n")
        assert cfg.seed == 9

    def test_a_key_named_twice_is_rejected_with_both_lines(self):
        with pytest.raises(ValueError, match="'seed' is set on both line 1 and line 3"):
            parse_config_text("seed=1\nepochs=2\n seed = 2\n")
        # at the same value too
        with pytest.raises(ValueError, match="'rank' is set on both line 2 and line 4"):
            parse_config_text("seed=1\nrank=4\n\nrank=4\n")

    def test_validation(self):
        with pytest.raises(ValueError, match="adapter"):
            TrainConfig(adapter="giant")

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_non_finite_or_non_positive_lr(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr_decay", float("nan")),
            ("lr_decay", -1.0),
            ("embed_dim", 0),
            ("depth_blocks", 0),
            ("depth_blocks", -3),
            ("rank", 0),
            ("w_smoothness", float("inf")),
        ],
    )
    def test_rejects_a_value_that_would_fail_only_in_training(self, field, value):
        # as key=value text, the form a --set, a config file or a checkpoint header takes
        with pytest.raises(ValueError, match=field):
            config_from_pairs({field: str(value)})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=3\nepochs=4\nsource_aggregation=min\n")
        cfg = load_config(path)
        assert (cfg.seed, cfg.epochs, cfg.source_aggregation) == (3, 4, "min")


class _Params(Module):
    """A module holding the given tensors as its parameters, in order."""

    def __init__(self, **tensors):
        vars(self).update(tensors)


def _tiny(draw=0, **fields):
    """A small model, its config given `fields`, whose every parameter is
    moved off its initial value by noise from seed `draw`, so a load that
    left one as built would differ from it."""
    config = TrainConfig(embed_dim=32, depth_blocks=1, mixer_after=(1,), rank=2, **fields)
    model = ModelBundle(config, (16, 16))
    rng = np.random.default_rng(draw)
    for _, p in model.named_parameters():
        p.data += rng.standard_normal(p.shape)
    return config, model


def _assert_same_parameters(model, loaded):
    for (name, p), (other, q) in zip(model.named_parameters(), loaded.named_parameters(), strict=True):
        assert name == other and p.requires_grad == q.requires_grad
        np.testing.assert_array_equal(p.data, q.data)


class TestCheckpoint:
    def test_save_load_restores_everything(self, tmp_path):
        config, model = _tiny(1, seed=5, epochs=7)
        path = tmp_path / "model.ckpt"
        save_model(path, model, config, step=123)
        loaded, step = load_model(path, (16, 16))
        assert step == 123
        assert loaded.config == config
        _assert_same_parameters(model, loaded)

    def test_a_checkpoint_loads_at_another_image_size(self, tmp_path):
        # no parameter depends on the image size: a 16x16 model runs at 32x48
        config, model = _tiny(3)
        path = tmp_path / "model.ckpt"
        save_model(path, model, config, step=1)
        loaded, _ = load_model(path, (32, 48))
        _assert_same_parameters(model, loaded)
        image = np.random.default_rng(4).uniform(0, 1, (3, 32, 48))
        assert loaded.depth(Tensor(image)).shape == (32, 48)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        config, model = _tiny(2)
        path1 = tmp_path / "a.ckpt"
        path2 = tmp_path / "b.ckpt"
        save_model(path1, model, config, step=9)
        loaded, step = load_model(path1, (16, 16))
        save_model(path2, loaded, loaded.config, step)
        assert path1.read_bytes() == path2.read_bytes()

    def test_a_save_that_fails_partway_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        rng = np.random.default_rng(6)
        module = _Params(a=Tensor(rng.standard_normal((4, 3))), b=Tensor(rng.standard_normal((2, 3)), requires_grad=True))
        save_checkpoint(path, module, TrainConfig(), step=1)
        before = path.read_bytes()
        module.b.data += 1.0
        second_payload = module.b.data.astype("<f8").tobytes()

        class DiskFullAtSecondPayload:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, data):
                if bytes(data) == second_payload:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(checkpoint, "open", lambda *args: DiskFullAtSecondPayload(open(*args)), raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, module, TrainConfig(), step=2)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

        monkeypatch.undo()
        save_checkpoint(path, module, TrainConfig(), step=2)
        empty = _Params(a=Tensor(np.empty((4, 3))), b=Tensor(np.empty((2, 3)), requires_grad=True))
        loaded, step = load_module(path, lambda config: empty)
        assert step == 2
        _assert_same_parameters(module, loaded)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_scalar_empty_and_strided_tensors_round_trip(self, tmp_path):
        def build(scale, strided):
            return _Params(
                scale=Tensor(scale, requires_grad=True),
                empty=Tensor(np.zeros((0, 3))),
                strided=Tensor(strided, requires_grad=True),
            )

        module = build(np.array(3.5), np.arange(6.0).reshape(2, 3).T)
        config = TrainConfig(seed=2)
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, module, config, step=2)
        loaded, step = load_module(path, lambda config: build(np.zeros(()), np.zeros((3, 2))))
        assert step == 2
        for (name, p), (other, q) in zip(module.named_parameters(), loaded.named_parameters(), strict=True):
            assert name == other and p.shape == q.shape and p.requires_grad == q.requires_grad
            np.testing.assert_array_equal(p.data, q.data)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_model(path, (16, 16))

    def test_rejects_a_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.ckpt"
        text = b"[]"
        prefix = checkpoint.MAGIC + checkpoint.FORMAT_VERSION.to_bytes(4, "little") + len(text).to_bytes(8, "little")
        path.write_bytes(prefix + text)
        with pytest.raises(ValueError, match="checkpoint header is not a JSON object"):
            load_model(path, (16, 16))

    def test_rejects_truncation(self, tmp_path):
        # a file cut inside its first payload names that tensor
        config, model = _tiny(3)
        path = tmp_path / "model.ckpt"
        save_model(path, model, config, 1)
        blob = path.read_bytes()
        header_end = 20 + int.from_bytes(blob[12:20], "little")
        path.write_bytes(blob[: header_end + 8])
        first = next(model.named_parameters())[0]
        with pytest.raises(ValueError, match=f"checkpoint truncated while reading '{first}'"):
            load_model(path, (16, 16))

    def test_a_model_cut_short_is_refused_naming_its_last_tensor(self, tmp_path):
        config, model = _tiny()
        path = tmp_path / "model.ckpt"
        save_model(path, model, config, 3)
        path.write_bytes(path.read_bytes()[:-8])
        last = list(model.named_parameters())[-1][0]
        with pytest.raises(ValueError, match=f"checkpoint truncated while reading '{last}'"):
            load_model(path, (16, 16))

    def test_a_big_endian_host_holds_the_values_in_its_own_byte_order(self, tmp_path, monkeypatch):
        # the payloads are little-endian on disk; a big-endian host must hold
        # each value's big-endian bytes, which on this host read as swapped
        config, model = _tiny()
        path = tmp_path / "model.ckpt"
        save_model(path, model, config, 0)
        monkeypatch.setattr(checkpoint, "sys", SimpleNamespace(byteorder="big"))
        swapped, _ = load_model(path, (16, 16))
        for (name, p), (_, q) in zip(model.named_parameters(), swapped.named_parameters(), strict=True):
            assert q.data.tobytes() == p.data.astype(">f8").tobytes(), name

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_save_and_load_stream_one_tensor_at_a_time(self, tmp_path):
        # the default model: about 20 MB of parameters, the largest 1.6 MB
        config = TrainConfig()
        model = ModelBundle(config, (16, 16))
        param_bytes = sum(p.data.nbytes for _, p in model.named_parameters())
        path = tmp_path / "model.ckpt"
        save_peak = self._peak(lambda: save_model(path, model, config, 0))
        del model
        tracemalloc.start()
        try:
            loaded, _ = load_model(path, (16, 16))
            model_bytes, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a save holds no copy of the payloads; a load reads each payload
        # into the model's own arrays, so beyond the model it returns (its
        # parameters and their Python objects) it holds no tensor at any time
        assert save_peak < 0.2 * param_bytes
        assert sum(p.data.nbytes for _, p in loaded.named_parameters()) == param_bytes
        assert param_bytes <= model_bytes < 1.01 * param_bytes
        assert load_peak <= model_bytes + 64 * 1024
