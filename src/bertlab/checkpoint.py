"""Deterministic binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..8    magic  b"BLCKPT01"
    bytes 8..12   format version (u32, currently 1)
    bytes 12..16  header length H (u32)
    bytes 16..16+H  header: canonical JSON (sorted keys, no whitespace), UTF-8
    bytes 16+H..  payload: raw tensor bytes at the offsets the header declares

The header carries the model config, the vocabulary (tokens, casing flag,
fingerprint), the lineage (ordered ancestor checkpoint ids), the trained-step
count, a tensor manifest {path, dtype, shape, offset, nbytes} sorted by path,
and optionally the same for optimizer state. Identical model state serializes
to identical bytes, so the checkpoint id — sha256 of the file — is a content
hash. A load reads the file once and parses that buffer; the id it reports is
the sha256 of those bytes, so it always names the weights returned. Every
array is validated against the buffer's length before it is copied out, and
every stored base-model tensor must have the shape the stored config needs.
Writes go to a temp file renamed into place.
"""

import hashlib
import itertools
import json
import math
from dataclasses import replace

import numpy as np

from . import model as md
from .autodiff import Tensor
from .errors import (ConfigurationError, IntegrityError, ValidationError, parse_json,
                     write_atomic)
from .tokenizer import Vocabulary

MAGIC = b"BLCKPT01"
VERSION = 1
_HEADER_START = 16
_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def _dtype_tag(arr: np.ndarray) -> str:
    tag = "<" + arr.dtype.kind + str(arr.dtype.itemsize)
    if tag not in _DTYPES:
        raise ConfigurationError(f"unsupported tensor dtype {arr.dtype}")
    return tag


def _manifest_for(arrays: dict, offset: int):
    """(manifest sorted by path, next free offset). Arrays are laid out in
    manifest order."""
    manifest = []
    for path in sorted(arrays):
        arr = arrays[path]
        nbytes = arr.size * arr.dtype.itemsize
        manifest.append({"path": path, "dtype": _dtype_tag(arr),
                         "shape": list(arr.shape), "offset": offset,
                         "nbytes": nbytes})
        offset += nbytes
    return manifest, offset


def save_checkpoint(path, state: md.ModelState) -> str:
    """Write the state's params, config, vocabulary, step, lineage and
    optimizer state atomically; returns the checkpoint id, which is what
    load_checkpoint reports for the file. The state's own id is not read."""
    tensors = {p: np.ascontiguousarray(t.data) for p, t in state.params.items()}
    manifest, offset = _manifest_for(tensors, 0)

    opt_arrays = {}
    opt_t = {}
    for p in sorted(state.optimizer_state):
        slot = state.optimizer_state[p]
        opt_arrays[f"m.{p}"] = np.ascontiguousarray(slot["m"])
        opt_arrays[f"v.{p}"] = np.ascontiguousarray(slot["v"])
        opt_t[p] = int(slot["t"])
    opt_manifest, offset = _manifest_for(opt_arrays, offset)

    vocab = state.vocab
    header = {
        "config": state.config.to_dict(),
        "vocab_tokens": list(vocab.tokens),
        "vocab_lowercase": vocab.lowercase,
        "vocab_fingerprint": vocab.fingerprint,
        "lineage": list(state.lineage),
        "step": int(state.step),
        "manifest": manifest,
        "optimizer_manifest": opt_manifest,
        "optimizer_t": opt_t,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    digest = hashlib.sha256()

    def chunks():
        # one array at a time, so no whole-file buffer is ever built
        arrays = (source[entry["path"]].astype(entry["dtype"], copy=False).tobytes()
                  for entry, source in ([(e, tensors) for e in manifest]
                                        + [(e, opt_arrays) for e in opt_manifest]))
        for chunk in itertools.chain((MAGIC, VERSION.to_bytes(4, "little"),
                                      len(blob).to_bytes(4, "little"), blob), arrays):
            digest.update(chunk)
            yield chunk

    write_atomic(path, chunks())
    return digest.hexdigest()


def _fail(position: int, why: str):
    raise IntegrityError(f"corrupt checkpoint at byte {position}: {why}")


def load_checkpoint(path, expect_vocab: Vocabulary = None) -> md.ModelState:
    """The saved ModelState, read once, with the sha256 of the bytes it was
    parsed from as its checkpoint id. `expect_vocab`, when given, must match
    the stored vocabulary fingerprint — adaptation chains share one
    vocabulary, and a mismatch is a configuration error, not corruption."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IntegrityError(f"cannot open checkpoint {path}: {exc}") from exc
    size = len(data)
    if size < _HEADER_START:
        _fail(size, f"truncated framing (wanted {_HEADER_START} bytes, got {size})")
    if data[:8] != MAGIC:
        _fail(0, f"bad magic {data[:8]!r}")
    version = int.from_bytes(data[8:12], "little")
    if version != VERSION:
        _fail(8, f"unsupported format version {version}")
    header_len = int.from_bytes(data[12:16], "little")
    payload_start = _HEADER_START + header_len
    if payload_start > size:
        _fail(12, f"header length {header_len} exceeds file size {size}")
    try:
        header = parse_json(data[_HEADER_START:payload_start].decode("utf-8"))
    except ValueError as exc:  # bad JSON, UTF-8 or surrogate, or an int past the digit limit
        _fail(_HEADER_START, f"header is not valid JSON ({exc})")
    if not isinstance(header, dict):
        _fail(_HEADER_START, "header is not a JSON object")

    manifest = header.get("manifest")
    opt_manifest = header.get("optimizer_manifest", [])
    if not isinstance(manifest, list):
        _fail(_HEADER_START, "header has no tensor manifest")
    if not isinstance(opt_manifest, list):
        _fail(_HEADER_START, "optimizer manifest is not a list")
    _validate_manifest(manifest + opt_manifest, payload_start, size - payload_start)

    def read_array(entry):
        # copied out: payload offsets are not aligned, and the buffer is dropped
        dtype = _DTYPES[entry["dtype"]]
        return np.frombuffer(data, dtype, entry["nbytes"] // dtype.itemsize,
                             payload_start + entry["offset"]).reshape(entry["shape"]).copy()

    params = {e["path"]: Tensor(read_array(e), requires_grad=True) for e in manifest}
    opt_arrays = {e["path"]: read_array(e) for e in opt_manifest}

    lineage, step = header.get("lineage", []), header.get("step", 0)
    opt_t = header.get("optimizer_t", {})
    if not (isinstance(lineage, list) and all(isinstance(c, str) for c in lineage)
            and _is_count(step) and isinstance(opt_t, dict)
            and all(_is_count(t) for t in opt_t.values())):
        _fail(_HEADER_START, "malformed lineage, step or optimizer step counts")
    stored = {e["path"]: e for e in manifest}
    optimizer_state = {}
    for p, t in opt_t.items():
        try:
            optimizer_state[p] = {"m": opt_arrays[f"m.{p}"], "v": opt_arrays[f"v.{p}"],
                                  "t": t}
        except KeyError:
            _fail(_HEADER_START, f"optimizer section is missing arrays for {p}")
        if p not in stored:
            _fail(_HEADER_START, f"optimizer slot {p} has no stored parameter")
        for k in ("m", "v"):
            arr = optimizer_state[p][k]
            if list(arr.shape) != stored[p]["shape"] or arr.dtype.str != stored[p]["dtype"]:
                _fail(_HEADER_START, f"optimizer slot {p}: {k} is {arr.dtype.str} "
                                     f"{list(arr.shape)} but the parameter is "
                                     f"{stored[p]['dtype']} {stored[p]['shape']}")

    try:
        state = md.ModelState(
            config=md.ModelConfig.from_dict(header["config"], "config"), params=params,
            vocab=Vocabulary.from_tokens(header["vocab_tokens"],
                                         lowercase=header.get("vocab_lowercase", False)),
            step=step, optimizer_state=optimizer_state, lineage=tuple(lineage),
            checkpoint_id=hashlib.sha256(data).hexdigest())
    except (KeyError, TypeError, ConfigurationError, ValidationError) as exc:
        _fail(_HEADER_START, f"invalid config record ({exc})")
    if state.fingerprint != header.get("vocab_fingerprint"):
        _fail(_HEADER_START, "stored fingerprint does not match stored tokens")
    # a missing tensor still loads, so verify_lineage can report it; the
    # shapes of one layer stand for every layer, so the check costs what the
    # stored tensors do, whatever n_layers the header claims
    one = md.param_shapes(replace(state.config, n_layers=1))
    for p, tensor in params.items():
        needed = one.get(md.layer_zero_path(p, state.config.n_layers))
        if needed is not None and tensor.shape != needed:
            _fail(_HEADER_START, f"tensor {p} has shape {list(tensor.shape)} but the "
                                 f"config needs {list(needed)}")
    if expect_vocab is not None and expect_vocab.fingerprint != state.fingerprint:
        raise ConfigurationError(
            "checkpoint was trained with a different vocabulary: "
            f"{state.fingerprint[:12]}… vs bound {expect_vocab.fingerprint[:12]}…")
    return state


def require_complete(state: md.ModelState, path) -> None:
    """IntegrityError naming the base-model tensors that the state's config
    needs and its checkpoint lacks: such a model loads but cannot run."""
    count, named = md.missing_params(state.params, state.config)
    if count:
        more = f" and {count - len(named)} more" if count > len(named) else ""
        raise IntegrityError(f"checkpoint {path} lacks {count} tensors its config "
                             f"needs: {', '.join(named)}{more}")


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _validate_manifest(entries, payload_start: int, payload_size: int) -> None:
    seen = set()
    spans = []
    for e in entries:
        # no dimension may exceed the payload, so even a zero-element tensor
        # has a shape numpy can build
        if not (isinstance(e, dict) and {"path", "dtype", "shape", "offset", "nbytes"} <= set(e)
                and isinstance(e["path"], str) and isinstance(e["dtype"], str)
                and isinstance(e["shape"], list)
                and all(_is_count(d) and d <= payload_size for d in e["shape"])
                and _is_count(e["offset"]) and _is_count(e["nbytes"])):
            _fail(_HEADER_START, f"malformed manifest entry {e!r}")
        if e["path"] in seen:
            _fail(_HEADER_START, f"manifest lists {e['path']!r} twice")
        seen.add(e["path"])
        if e["dtype"] not in _DTYPES:
            _fail(_HEADER_START, f"unknown dtype {e['dtype']!r} for {e['path']}")
        expected = math.prod(e["shape"]) * _DTYPES[e["dtype"]].itemsize
        if expected != e["nbytes"]:
            _fail(_HEADER_START,
                  f"{e['path']}: shape {e['shape']} needs {expected} bytes, manifest says {e['nbytes']}")
        if e["offset"] + e["nbytes"] > payload_size:
            _fail(payload_start + e["offset"],
                  f"tensor {e['path']} extends past end of file")
        spans.append((e["offset"], e["offset"] + e["nbytes"], e["path"]))
    spans.sort()
    for (s1, e1, p1), (s2, e2, p2) in zip(spans, spans[1:]):
        if s2 < e1:
            _fail(payload_start + s2, f"tensors {p1!r} and {p2!r} overlap")


def verify_lineage(child: md.ModelState, parent: md.ModelState) -> list:
    """Empty list when the child can legitimately descend from the parent;
    otherwise one entry per differing field. Extra heads on the child are
    fine — task heads are additive."""
    report = []
    if child.fingerprint != parent.fingerprint:
        report.append(
            f"vocab_fingerprint: child {child.fingerprint[:12]}… "
            f"vs parent {parent.fingerprint[:12]}…")
    for field_name, child_value in child.config.to_dict().items():
        parent_value = getattr(parent.config, field_name)
        if child_value != parent_value:
            report.append(f"config.{field_name}: child {child_value} vs parent {parent_value}")
    if parent.checkpoint_id not in child.lineage:
        report.append("lineage: child does not list the parent checkpoint id")
    for path, parent_tensor in parent.params.items():
        if md.param_group(path)[0] == "head":
            continue
        child_tensor = child.params.get(path)
        if child_tensor is None:
            report.append(f"params: child is missing {path}")
        elif child_tensor.shape != parent_tensor.shape:
            report.append(f"params.{path}: shape {child_tensor.shape} vs {parent_tensor.shape}")
    return report
