"""Closed-form checks for the mitigation techniques and the preset registry."""

import numpy as np
import pytest

from bertlab import autodiff as ad
from bertlab import mitigation as mit
from bertlab import model as md
from bertlab.autodiff import Tensor
from bertlab.errors import ConfigurationError
from bertlab.seeding import substream


# -- layer-wise learning-rate decay -----------------------------------------


def test_llrd_deepest_layer_closed_form():
    lr = mit.llrd_lr(1e-4, 0.9, "encoder.0.attention.q.weight", n_layers=12)
    assert lr == pytest.approx(3.14e-5, rel=1e-2)
    assert lr == pytest.approx(1e-4 * 0.9 ** 11, rel=1e-12)


def test_llrd_decay_one_is_identity():
    for path in ("encoder.0.ffn.in.weight", "embeddings.token", "heads.nsp.weight"):
        assert mit.llrd_lr(3e-4, 1.0, path, 12) == 3e-4
    for decay in (None, 1.0):
        # with decay off no path is resolved, so an unresolvable one is accepted
        assert mit.llrd_factors(["encoder.0.ffn.in.weight", "dummy.weight"],
                                decay, 12) is None


def test_llrd_groups_and_monotonicity():
    n = 6
    rates = [mit.llrd_lr(1.0, 0.9, f"encoder.{i}.ffn.in.weight", n) for i in range(n)]
    assert rates == sorted(rates)          # deeper layers never faster
    assert rates[-1] == 1.0                # top layer at base
    emb = mit.llrd_lr(1.0, 0.9, "embeddings.token", n)
    assert emb == pytest.approx(0.9 ** n, rel=1e-12)
    assert emb < rates[0]                  # embeddings sit below the deepest layer
    assert mit.llrd_lr(1.0, 0.9, "heads.mlm.transform.weight", n) == 1.0


def test_llrd_unresolvable_path():
    with pytest.raises(ConfigurationError):
        mit.llrd_lr(1e-4, 0.9, "optimizer.m.encoder", 12)


# -- presets and validation -------------------------------------------------


def test_preset_registry_values():
    assert mit.PRESETS["R0"] == mit.CFConfig(llrd_decay=0.9, replay_every=100)
    assert mit.PRESETS["R3"] == mit.CFConfig(llrd_decay=0.9, mixout_p=0.9, warmup_fraction=0.02)
    assert mit.PRESETS["R3+"] == mit.CFConfig(llrd_decay=0.95, mixout_p=0.9, warmup_fraction=0.02)
    assert mit.PRESETS["R12+"] == mit.CFConfig(llrd_decay=0.95, replay_every=50)
    assert mit.PRESETS["RF"] == mit.CFConfig(freeze_layers=6)
    assert mit.PRESETS["OR"].llrd_decay == 0.9
    assert {c.llrd_decay for c in mit.PRESETS.values() if c.llrd_decay} == {0.9, 0.95}


def test_unknown_preset_lists_available():
    with pytest.raises(ConfigurationError) as exc:
        mit.preset("R99")
    assert "R12+" in str(exc.value)


def test_cfconfig_range_validation():
    for kw in (dict(llrd_decay=0.0), dict(llrd_decay=1.5), dict(warmup_fraction=1.0),
               dict(mixout_p=1.0), dict(replay_every=0), dict(freeze_layers=-1)):
        with pytest.raises(ConfigurationError):
            mit.CFConfig(**kw)


def test_freeze_count_checked_against_model():
    with pytest.raises(ConfigurationError):
        mit.CFConfig(freeze_layers=6).validate(n_layers=2)
    mit.CFConfig(freeze_layers=2).validate(n_layers=2)  # boundary ok


def test_mixout_plus_replay_flagged_unvalidated():
    cfg = mit.CFConfig(mixout_p=0.9, replay_every=50)
    assert cfg.unvalidated_reasons()
    with pytest.warns(UserWarning, match="unvalidated"):
        cfg.validate(n_layers=12)
    assert not mit.CFConfig(mixout_p=0.9).unvalidated_reasons()


def test_replay_every_one_warns():
    with pytest.warns(UserWarning, match="every step"):
        mit.CFConfig(replay_every=1).validate(n_layers=2)


def test_cfconfig_round_trips_through_dict():
    cfg = mit.CFConfig(llrd_decay=0.95, replay_every=50)
    assert mit.CFConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigurationError):
        mit.CFConfig.from_dict({"llrd": 0.9})


# -- layer freezing ---------------------------------------------------------


@pytest.fixture
def toy_params():
    config = md.ModelConfig(n_layers=4, hidden_dim=16, n_heads=2, ff_dim=8,
                            max_seq_len=8, vocab_size=10, dropout_rate=0.0)
    return md.init_params(config, substream(0, "init"))


def test_frozen_paths_cover_deep_layers_and_embeddings(toy_params):
    frozen = mit.frozen_paths(toy_params, 2, n_layers=4)
    assert "embeddings.token" in frozen
    assert "encoder.0.attention.q.weight" in frozen
    assert "encoder.1.ffn.norm.gain" in frozen
    assert "encoder.2.attention.q.weight" not in frozen
    assert not any(p.startswith("heads.") for p in frozen)


def test_freeze_zero_is_noop(toy_params):
    assert mit.frozen_paths(toy_params, 0, 4) == frozenset()
    assert mit.frozen_paths(toy_params, None, 4) == frozenset()


def test_freeze_beyond_depth_rejected(toy_params):
    with pytest.raises(ConfigurationError):
        mit.frozen_paths(toy_params, 5, 4)


# -- mixout -----------------------------------------------------------------


def test_mixout_zero_is_identity():
    current = {"w": Tensor(np.ones(4), requires_grad=True)}
    anchor = mit.take_anchor(current)
    assert mit.mixout_apply(current, anchor, 0.0, substream(0, "m")) is current
    assert mit.mixout_apply(current, anchor, None, substream(0, "m")) is current


def test_mixout_statistics():
    rng = np.random.default_rng(0)
    current = {"w": Tensor(rng.standard_normal(100_000), requires_grad=True)}
    anchor = {"w": rng.standard_normal(100_000)}
    mixed = mit.mixout_apply(current, anchor, 0.9, substream(1, "mixout"))["w"]
    substituted = np.isclose(mixed.data, anchor["w"], atol=1e-9)
    assert np.abs(substituted.mean() - 0.9) < 0.02
    # expectation-preserving rescale: mean(out) tracks mean(current) within 3 SE
    se = np.sqrt(0.9 * np.mean((current["w"].data - anchor["w"]) ** 2) / 0.1 / 100_000)
    assert abs(mixed.data.mean() - current["w"].data.mean()) < 3 * se


def test_mixout_reproducible_and_p_one_rejected():
    current = {"w": Tensor(np.ones(50), requires_grad=True)}
    anchor = {"w": np.zeros(50)}
    a = mit.mixout_apply(current, anchor, 0.5, substream(3, "m"))["w"]
    b = mit.mixout_apply(current, anchor, 0.5, substream(3, "m"))["w"]
    np.testing.assert_array_equal(a.data, b.data)
    with pytest.raises(ConfigurationError):
        mit.mixout_apply(current, anchor, 1.0, substream(3, "m"))


def test_mixout_gradient_routes_through_mask():
    with ad.precision("float64"):
        rng = np.random.default_rng(5)
        theta = Tensor(rng.standard_normal(200), requires_grad=True)
        anchor = {"w": rng.standard_normal(200)}
        mixed = mit.mixout_apply({"w": theta}, anchor, 0.4, substream(7, "m"))["w"]
        ad.sum_all(mixed).backward()
        # d(mixed)/d(theta) = mask / (1 - p): zero where substituted, 1/(1-p) where kept
        substituted = np.isclose(mixed.data, anchor["w"], atol=1e-9)
        expected = np.where(substituted, 0.0, 1.0 / 0.6)
        np.testing.assert_allclose(theta.grad, expected, atol=1e-12)


def test_mixout_shape_mismatch_rejected():
    current = {"w": Tensor(np.ones(4), requires_grad=True)}
    with pytest.raises(ConfigurationError):
        mit.mixout_apply(current, {"w": np.ones(5)}, 0.5, substream(0, "m"))


# -- replay schedule --------------------------------------------------------


def test_replay_schedule_audit():
    steps = mit.replay_steps(1000, 100)
    assert steps == list(range(100, 1001, 100))
    assert len(steps) == 10


def test_replay_step_membership():
    assert mit.is_replay_step(100, 100)
    assert not mit.is_replay_step(99, 100)
    assert not mit.is_replay_step(100, None)
    assert all(mit.is_replay_step(s, 1) for s in range(1, 5))
