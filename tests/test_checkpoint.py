"""Container round-trip and corruption oracles: bit-identical load, content-
hash stability under re-serialization, byte-positioned integrity failures on
tampered files, vocabulary-fingerprint enforcement, and lineage verification."""

import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertlab import checkpoint as ck
from bertlab import model as md
from bertlab.autodiff import Tensor
from bertlab.errors import ConfigurationError, IntegrityError
from bertlab.seeding import substream
from bertlab.tokenizer import SPECIAL_TOKENS, Vocabulary, fingerprint_tokens


def word_vocab(n_words: int) -> Vocabulary:
    return Vocabulary.from_tokens(
        list(SPECIAL_TOKENS) + [f"w{i:02d}" for i in range(n_words)])


def tiny_model(vocab, seed=0, **overrides):
    kw = dict(n_layers=2, hidden_dim=16, n_heads=2, ff_dim=16,
              max_seq_len=32, vocab_size=len(vocab), dropout_rate=0.0)
    kw.update(overrides)
    config = md.ModelConfig(**kw)
    return config, md.init_params(config, substream(seed, "init"))


def fake_optimizer_state(params, paths):
    rng = np.random.default_rng(5)
    return {p: {"m": rng.normal(size=params[p].shape).astype(np.float32),
                "v": rng.random(params[p].shape).astype(np.float32),
                "t": 3}
            for p in paths}


def replace_header(path, transform):
    """Re-emit the file with transform(header) as its (length-consistent) header."""
    data = open(path, "rb").read()
    hlen = int.from_bytes(data[12:16], "little")
    header = transform(json.loads(data[16:16 + hlen]))
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data[:12] + len(blob).to_bytes(4, "little") + blob + data[16 + hlen:])


def rewrite_header(path, mutate):
    """Re-emit the file with a tampered (but length-consistent) header."""
    def mutated(header):
        mutate(header)
        return header
    replace_header(path, mutated)


@pytest.fixture
def saved(tmp_path):
    vocab = word_vocab(20)
    config, params = tiny_model(vocab)
    opt = fake_optimizer_state(params, ["embeddings.token", "heads.pooler.weight"])
    path = tmp_path / "model.ckpt"
    cid = ck.save_checkpoint(path, params=params, config=config, vocab=vocab,
                             step=7, lineage=("a" * 64,), optimizer_state=opt)
    return vocab, config, params, opt, path, cid


# -- round trip -------------------------------------------------------------


def test_round_trip_is_bit_identical(saved):
    vocab, config, params, opt, path, cid = saved
    loaded = ck.load_checkpoint(path)
    assert loaded.config == config
    assert loaded.vocab.fingerprint == vocab.fingerprint
    assert loaded.vocab.tokens == vocab.tokens
    assert loaded.step == 7
    assert loaded.lineage == ("a" * 64,)
    assert loaded.checkpoint_id == cid
    assert set(loaded.params) == set(params)
    for p, t in params.items():
        np.testing.assert_array_equal(loaded.params[p].data, t.data, err_msg=p)
        assert loaded.params[p].data.dtype == t.data.dtype
        assert loaded.params[p].requires_grad
    assert set(loaded.optimizer_state) == set(opt)
    for p, slot in opt.items():
        got = loaded.optimizer_state[p]
        np.testing.assert_array_equal(got["m"], slot["m"])
        np.testing.assert_array_equal(got["v"], slot["v"])
        assert got["t"] == 3


def test_reserialization_of_unmodified_model_keeps_the_hash(saved, tmp_path):
    vocab, config, params, opt, path, cid = saved
    again = tmp_path / "again.ckpt"
    cid2 = ck.save_checkpoint(again, params=params, config=config, vocab=vocab,
                              step=7, lineage=("a" * 64,), optimizer_state=opt)
    assert cid2 == cid
    assert again.read_bytes() == path.read_bytes()
    # and through a load cycle
    loaded = ck.load_checkpoint(path)
    cid3 = ck.save_checkpoint(tmp_path / "cycle.ckpt", params=loaded.params,
                              config=loaded.config, vocab=loaded.vocab,
                              step=loaded.step, lineage=loaded.lineage,
                              optimizer_state=loaded.optimizer_state)
    assert cid3 == cid


def test_checkpoint_id_is_the_file_content_hash(saved):
    _, _, _, _, path, cid = saved
    assert ck.file_sha256(path) == cid


def test_modified_parameter_changes_the_hash(saved, tmp_path):
    vocab, config, params, _, _, cid = saved
    params["heads.nsp.bias"].data[0] += 1.0
    cid2 = ck.save_checkpoint(tmp_path / "mod.ckpt", params=params,
                              config=config, vocab=vocab)
    assert cid2 != cid


def test_save_without_optimizer_state(saved, tmp_path):
    vocab, config, params, _, _, _ = saved
    ck.save_checkpoint(tmp_path / "bare.ckpt", params=params, config=config,
                       vocab=vocab)
    loaded = ck.load_checkpoint(tmp_path / "bare.ckpt")
    assert loaded.optimizer_state == {}
    assert loaded.step == 0 and loaded.lineage == ()


def test_save_leaves_no_temp_file_and_overwrites_atomically(saved, tmp_path):
    vocab, config, params, _, path, cid = saved
    assert not os.path.exists(str(path) + ".tmp")
    params["heads.nsp.bias"].data[0] -= 2.0
    cid2 = ck.save_checkpoint(path, params=params, config=config, vocab=vocab)
    assert cid2 != cid
    assert ck.load_checkpoint(path).checkpoint_id == cid2


def test_non_float_tensor_is_rejected_at_save(saved, tmp_path):
    vocab, config, params, _, _, _ = saved
    bad = Tensor(np.zeros(3))
    bad.data = np.arange(3)   # int64 payload has no manifest element type
    with pytest.raises(ConfigurationError):
        ck.save_checkpoint(tmp_path / "bad.ckpt", params={**params, "heads.x.bias": bad},
                           config=config, vocab=vocab)


# -- corruption -------------------------------------------------------------


def test_missing_file_is_integrity_error(tmp_path):
    with pytest.raises(IntegrityError):
        ck.load_checkpoint(tmp_path / "absent.ckpt")


def test_truncated_payload_reports_byte_position(saved):
    _, _, _, _, path, _ = saved
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(IntegrityError,
                       match=r"corrupt checkpoint at byte \d+.*(truncated|past end)"):
        ck.load_checkpoint(path)


def test_truncated_header_reports_byte_position(saved):
    _, _, _, _, path, _ = saved
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(IntegrityError, match="byte 12|byte 16|byte 20"):
        ck.load_checkpoint(path)


def test_bad_magic_fails_at_byte_zero(saved):
    _, _, _, _, path, _ = saved
    data = bytearray(path.read_bytes())
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityError, match="byte 0.*magic"):
        ck.load_checkpoint(path)


def test_unsupported_version_fails_at_byte_eight(saved):
    _, _, _, _, path, _ = saved
    data = bytearray(path.read_bytes())
    data[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityError, match="byte 8.*version 99"):
        ck.load_checkpoint(path)


def test_header_length_past_end_of_file_fails(saved):
    _, _, _, _, path, _ = saved
    data = bytearray(path.read_bytes())
    data[12:16] = (2 ** 31).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityError, match="byte 12.*exceeds file size"):
        ck.load_checkpoint(path)


def test_undecodable_header_fails(saved):
    _, _, _, _, path, _ = saved
    data = bytearray(path.read_bytes())
    data[16] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(IntegrityError, match="byte 16.*JSON"):
        ck.load_checkpoint(path)


def test_manifest_byte_count_mismatch_fails(saved):
    _, _, _, _, path, _ = saved
    rewrite_header(path, lambda h: h["manifest"][0].update(
        nbytes=h["manifest"][0]["nbytes"] + 4))
    with pytest.raises(IntegrityError, match="manifest says"):
        ck.load_checkpoint(path)


def test_manifest_duplicate_path_fails(saved):
    _, _, _, _, path, _ = saved
    rewrite_header(path, lambda h: h["manifest"].append(dict(h["manifest"][0])))
    with pytest.raises(IntegrityError, match="twice"):
        ck.load_checkpoint(path)


def test_manifest_overlapping_tensors_fail(saved):
    _, _, _, _, path, _ = saved
    rewrite_header(path, lambda h: h["manifest"][1].update(
        offset=h["manifest"][0]["offset"]))
    with pytest.raises(IntegrityError, match="overlap"):
        ck.load_checkpoint(path)


def test_manifest_unknown_element_type_fails(saved):
    _, _, _, _, path, _ = saved
    rewrite_header(path, lambda h: h["manifest"][0].update(dtype="<i8"))
    with pytest.raises(IntegrityError, match="dtype"):
        ck.load_checkpoint(path)


def test_manifest_extending_past_payload_fails(saved):
    _, _, _, _, path, _ = saved
    big = 1 << 20
    rewrite_header(path, lambda h: h["manifest"][0].update(offset=big))
    with pytest.raises(IntegrityError, match="past end of file"):
        ck.load_checkpoint(path)


def test_tampered_fingerprint_fails(saved):
    _, _, _, _, path, _ = saved
    rewrite_header(path, lambda h: h.update(vocab_fingerprint="0" * 64))
    with pytest.raises(IntegrityError, match="fingerprint"):
        ck.load_checkpoint(path)


def test_tampered_config_record_fails(saved):
    _, _, _, _, path, _ = saved
    rewrite_header(path, lambda h: h["config"].update(hidden_dim="wide"))
    with pytest.raises(IntegrityError, match="config"):
        ck.load_checkpoint(path)


def test_missing_optimizer_arrays_fail(saved):
    _, _, _, _, path, _ = saved
    rewrite_header(path, lambda h: h["optimizer_manifest"].pop(0))
    with pytest.raises(IntegrityError, match="optimizer"):
        ck.load_checkpoint(path)


def _first_entry(**fields):
    def transform(header):
        header["manifest"][0].update(fields)
        return header
    return transform


def _one_more_token(header):
    # the fingerprint is recomputed, so only the token count contradicts the config
    tokens = header["vocab_tokens"] + ["w99"]
    return {**header, "vocab_tokens": tokens, "vocab_fingerprint": fingerprint_tokens(tokens)}


# well-framed headers whose content is wrong in type or value
STRUCTURED_FAULTS = {
    "header-is-list": lambda h: [h],
    "shape-is-string": _first_entry(shape="2x2"),
    "offset-is-string": _first_entry(offset="0"),
    "path-is-list": _first_entry(path=["embeddings", "token"]),
    "negative-shape": _first_entry(shape=[-2, -1], nbytes=8),
    "optimizer-manifest-is-object": lambda h: {**h, "optimizer_manifest": {"m": 1}},
    # json.dumps escapes it, so the header is valid JSON but not text
    "vocab-token-is-lone-surrogate":
        lambda h: {**h, "vocab_tokens": h["vocab_tokens"][:-1] + ["\ud800"]},
    "vocab-longer-than-vocab-size": _one_more_token,
    "hidden-dim-is-float":
        lambda h: {**h, "config": {**h["config"], "hidden_dim": float(h["config"]["hidden_dim"])}},
}


@pytest.mark.parametrize("fault", sorted(STRUCTURED_FAULTS))
def test_malformed_header_content_is_integrity_error(saved, fault):
    _, _, _, _, path, _ = saved
    replace_header(path, STRUCTURED_FAULTS[fault])
    with pytest.raises(IntegrityError, match=f"byte {ck._HEADER_START}"):
        ck.load_checkpoint(path)


def test_config_contradicting_tensor_shapes_is_integrity_error(saved):
    _, _, _, _, path, _ = saved
    rewrite_header(path, lambda h: h["config"].update(hidden_dim=18))
    # the manifest is sorted by path, so the first base tensor is the first named
    with pytest.raises(IntegrityError, match=r"byte 16: tensor embeddings.norm.bias "
                                             r"has shape \[16\] but the config needs \[18\]"):
        ck.load_checkpoint(path)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int digit limit in this interpreter")
def test_overlong_number_in_header_is_integrity_error(saved):
    _, _, _, _, path, _ = saved
    data = path.read_bytes()
    hlen = int.from_bytes(data[12:16], "little")
    blob = data[16:16 + hlen].replace(
        b'"step":7', b'"step":' + b"7" * (sys.get_int_max_str_digits() + 1))
    path.write_bytes(data[:12] + len(blob).to_bytes(4, "little") + blob + data[16 + hlen:])
    with pytest.raises(IntegrityError, match="byte 16.*JSON"):
        ck.load_checkpoint(path)


@pytest.fixture(scope="module")
def clean_file(tmp_path_factory):
    # one layer and 60 two-digit words keep the vocabulary a large share of
    # the header's digits, where a swapped digit can duplicate a token
    vocab = word_vocab(60)
    config, params = tiny_model(vocab, n_layers=1)
    path = tmp_path_factory.mktemp("fuzz") / "clean.ckpt"
    ck.save_checkpoint(path, params=params, config=config, vocab=vocab, step=7,
                       lineage=("a" * 64,),
                       optimizer_state=fake_optimizer_state(params, ["embeddings.token"]))
    return path


@st.composite
def damaged(draw, data: bytes):
    """A truncation anywhere, or up to three byte replacements in the framing
    and header (payload bytes are raw floats, any value of which loads). A
    replacement is an arbitrary byte anywhere, or a digit swapped for another
    digit, which keeps the header valid JSON and so reaches the content checks."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    header_end = 16 + int.from_bytes(data[12:16], "little")
    digits = [i for i in range(16, header_end) if chr(data[i]).isdigit()]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            out[draw(st.sampled_from(digits))] = draw(st.sampled_from(b"0123456789"))
        else:
            out[draw(st.integers(0, header_end - 1))] = draw(st.integers(0, 255))
    return bytes(out)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(choice=st.data())
def test_damaged_file_loads_or_raises_integrity_error(clean_file, choice):
    path = clean_file.with_name("damaged.ckpt")
    path.write_bytes(choice.draw(damaged(clean_file.read_bytes())))
    try:
        ck.load_checkpoint(path)
    except IntegrityError:
        pass


# -- vocabulary binding -----------------------------------------------------


def test_matching_expect_vocab_loads(saved):
    vocab, _, _, _, path, cid = saved
    assert ck.load_checkpoint(path, expect_vocab=vocab).checkpoint_id == cid


def test_different_bound_vocabulary_is_configuration_error(saved):
    _, _, _, _, path, _ = saved
    with pytest.raises(ConfigurationError, match="vocabulary"):
        ck.load_checkpoint(path, expect_vocab=word_vocab(21))


# -- lineage ----------------------------------------------------------------


def chain(tmp_path, child_params=None, child_config=None, child_vocab=None,
          lineage="inherit"):
    vocab = word_vocab(20)
    config, params = tiny_model(vocab)
    parent_path = tmp_path / "parent.ckpt"
    pid = ck.save_checkpoint(parent_path, params=params, config=config, vocab=vocab)
    parent = ck.load_checkpoint(parent_path)
    child_path = tmp_path / "child.ckpt"
    ck.save_checkpoint(
        child_path,
        params=child_params if child_params is not None else params,
        config=child_config if child_config is not None else config,
        vocab=child_vocab if child_vocab is not None else vocab,
        step=5, lineage=(pid,) if lineage == "inherit" else lineage)
    return ck.load_checkpoint(child_path), parent


def test_direct_descendant_verifies_clean(tmp_path):
    child, parent = chain(tmp_path)
    assert ck.verify_lineage(child, parent) == []


def test_extra_task_head_is_still_compatible(tmp_path):
    vocab = word_vocab(20)
    config, params = tiny_model(vocab)
    widened = dict(params)
    md.add_task_head(widened, config, "ner", 5, substream(1, "init"))
    child, parent = chain(tmp_path, child_params=widened)
    assert ck.verify_lineage(child, parent) == []


def test_different_hidden_dim_is_reported(tmp_path):
    vocab = word_vocab(20)
    other_config, other_params = tiny_model(vocab, hidden_dim=32)
    child, parent = chain(tmp_path, child_params=other_params,
                          child_config=other_config)
    report = ck.verify_lineage(child, parent)
    assert any("hidden_dim" in line for line in report)
    assert any(line.startswith("params.") for line in report)


def test_foreign_vocabulary_is_reported(tmp_path):
    other = word_vocab(21)
    config, params = tiny_model(other)
    child, parent = chain(tmp_path, child_params=params,
                          child_config=config, child_vocab=other)
    report = ck.verify_lineage(child, parent)
    assert any("vocab_fingerprint" in line for line in report)
    assert any("vocab_size" in line for line in report)


def test_unlisted_parent_id_is_reported(tmp_path):
    child, parent = chain(tmp_path, lineage=())
    report = ck.verify_lineage(child, parent)
    assert report == ["lineage: child does not list the parent checkpoint id"]


def test_missing_shared_parameter_is_reported(tmp_path):
    vocab = word_vocab(20)
    config, params = tiny_model(vocab)
    pruned = {p: t for p, t in params.items() if p != "encoder.0.ffn.in.weight"}
    child, parent = chain(tmp_path, child_params=pruned)
    report = ck.verify_lineage(child, parent)
    assert any("encoder.0.ffn.in.weight" in line for line in report)
