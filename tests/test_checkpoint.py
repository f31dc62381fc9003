"""Config parsing, validation, and checkpoint round trips."""

import math

import numpy as np
import pytest

from depthlab.autodiff import Tensor
from depthlab.checkpoint import load_checkpoint, save_checkpoint
from depthlab.config import (
    TrainConfig,
    config_to_text,
    load_config,
    parse_config_text,
)

from oracles import resave_checkpoint


class TestConfig:
    def test_defaults_mirror_training_recipe(self):
        cfg = TrainConfig()
        assert cfg.adam_beta1 == 0.9
        assert cfg.adam_beta2 == 0.999
        assert cfg.rank == 4
        assert cfg.lr == 1e-4
        assert cfg.lr_decay == 0.1
        assert cfg.alpha == 0.85
        assert (cfg.w_reconstruction, cfg.w_reflectance, cfg.w_synthesis, cfg.w_smoothness) == (
            0.2,
            0.2,
            1.0,
            0.003,
        )

    def test_decay_epoch_defaults_to_one_third(self):
        assert TrainConfig(epochs=30).decay_epoch() == 10
        assert TrainConfig(epochs=9).decay_epoch() == 3
        assert TrainConfig(epochs=9, lr_decay_epoch=7).decay_epoch() == 7

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

    def test_validation(self):
        with pytest.raises(ValueError, match="adapter"):
            TrainConfig(adapter="giant")
        with pytest.raises(ValueError, match="d_min"):
            TrainConfig(d_min=5.0, d_max=1.0)
        with pytest.raises(ValueError, match="loss_scales"):
            TrainConfig(loss_scales=9)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_non_finite_or_non_positive_lr(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr_decay", float("nan")),
            ("lr_decay", -1.0),
            ("adam_eps", 0.0),
            ("adam_eps", float("inf")),
            ("adam_beta1", 1.0),
            ("adam_beta1", -0.1),
            ("adam_beta2", float("nan")),
            ("embed_dim", 0),
            ("lr_decay_epoch", -3),
            ("w_synthesis", float("nan")),
            ("w_smoothness", float("inf")),
            ("d_max", math.inf),
            ("d_min", 1e-310),  # subnormal: 1/d_min overflows to inf
        ],
    )
    def test_rejects_a_value_that_would_fail_only_in_training(self, field, value):
        with pytest.raises(ValueError, match=field.removeprefix("w_")):
            TrainConfig(**{field: value})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=3\nepochs=4\nsource_aggregation=min\n")
        cfg = load_config(path)
        assert (cfg.seed, cfg.epochs, cfg.source_aggregation) == (3, 4, "min")


class TestCheckpoint:
    def _named(self, rng):
        return [
            ("encoder.weight", Tensor(rng.standard_normal((4, 3)), requires_grad=False), True),
            ("adapter.down", Tensor(rng.standard_normal((2, 3)), requires_grad=True), False),
            ("adapter.up", Tensor(np.zeros((4, 2)), requires_grad=True), False),
        ]

    def test_save_load_restores_everything(self, tmp_path):
        rng = np.random.default_rng(1)
        named = self._named(rng)
        cfg = TrainConfig(seed=5, epochs=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, named, cfg, step=123)
        ck = load_checkpoint(path)
        assert ck.step == 123
        assert ck.config == cfg
        assert ck.names == [n for n, _, _ in named]
        for name, tensor, frozen in named:
            np.testing.assert_array_equal(ck.tensors[name], tensor.data)
            assert ck.frozen[name] == frozen

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        path1 = tmp_path / "a.ckpt"
        path2 = tmp_path / "b.ckpt"
        save_checkpoint(path1, self._named(rng), TrainConfig(), step=9)
        resave_checkpoint(path1, path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._named(rng), TrainConfig(), step=1)
        clipped = path.read_bytes()[:-8]
        path.write_bytes(clipped)
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)
