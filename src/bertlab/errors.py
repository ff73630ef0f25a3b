"""Exception hierarchy shared by all modules, with stable CLI exit codes, and
the readers every input file and config record and the writers every artifact
go through, so one place decides how each input is read and written."""

import dataclasses
import json
import math
import numbers
import os


class BertlabError(Exception):
    """Base class; exit_code is what the CLI returns for this fault class."""

    exit_code = 1


class InputError(BertlabError):
    """Malformed or empty user input (corpora, datasets, dictionaries)."""

    exit_code = 2


class ConfigurationError(BertlabError):
    """Inconsistent configuration: vocab/model mismatch, bad preset, bad CF settings."""

    exit_code = 3


class NumericFault(BertlabError):
    """Non-finite values where finite ones are required (losses, gradients)."""

    exit_code = 4


class DimensionError(BertlabError):
    """Shape mismatch in a tensor operation."""

    exit_code = 4

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


class IntegrityError(BertlabError):
    """Corrupt or truncated checkpoint container."""

    exit_code = 5


class ValidationError(BertlabError):
    """Dataset records that violate their schema; carries the offending items."""

    exit_code = 6

    def __init__(self, message: str, items=()):
        self.items = list(items)
        detail = ""
        if self.items:
            listing = "\n".join(f"  - {item}" for item in self.items)
            detail = f" ({len(self.items)} offending items):\n{listing}"
        super().__init__(message + detail)


def read_text(path, what: str) -> str:
    """The UTF-8 text of an input file; InputError when it cannot be read or
    is not UTF-8. `what` names the file in the message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def parse_json(text: str):
    """json.loads, also rejecting (with ValueError, as for bad syntax) a string
    UTF-8 cannot encode: an escaped lone surrogate ("\\ud800") parses, but no
    output file can hold it."""
    value = json.loads(text)
    if "\\u" in text:  # a surrogate can only come from an escape
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"unpaired surrogate {exc.object[exc.start:exc.end]!r} "
                             f"is not text") from None
    return value


def read_json(path, what: str) -> dict:
    """The JSON object an input file holds; InputError when the file does
    not parse as JSON, holds a string UTF-8 cannot encode, or holds something
    other than an object."""
    text = read_text(path, what)
    try:
        value = parse_json(text)
    except ValueError as exc:  # syntax, an int past the digit limit, a surrogate
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise InputError(f"{what} {path} must hold a JSON object")
    return value


def read_json_lines(path, what: str, problems: list) -> list:
    """(physical line number, object) for each non-blank line of a JSONL input
    file. A line that is not a JSON object is appended to `problems` instead,
    so the caller can report it with its own schema faults."""
    records = []
    for n, line in enumerate(read_text(path, what).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = parse_json(line)
        except ValueError as exc:  # as in read_json
            problems.append(f"line {n}: invalid JSON ({exc})")
            continue
        if isinstance(record, dict):
            records.append((n, record))
        else:
            problems.append(f"line {n}: not a JSON object")
    return records


def write_atomic(path, chunks) -> None:
    """Write the byte chunks to <path>.tmp, then rename it onto `path`: a write
    that fails midway leaves `path` as it was, and a stale <path>.tmp."""
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def write_text(path, text: str) -> None:
    """write_atomic of UTF-8 text, encoded before the temp file is opened."""
    write_atomic(path, [text.encode("utf-8")])


# the JSON types each scalar field type takes; a bool is not a number
FIELD_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def typed(value, kind, where: str):
    """`value`, unconverted, if its JSON type suits `kind` (int, float, bool
    or str) and, for a float, it is finite; ConfigurationError naming `where`
    if not. Python's json parses NaN and Infinity."""
    if type(value) not in FIELD_TYPES[kind]:
        raise ConfigurationError(f"{where} must be {kind.__name__}, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
    return value


def within(interval: str, default=dataclasses.MISSING):
    """A record field whose number must lie in `interval`, "[0, 1)" or
    "(0, inf)" say; Record checks it whenever the record is built."""
    return dataclasses.field(default=default, metadata={"within": interval})


class Record:
    """Base of the dataclass config records and their one reader, writer and
    range check. A field is an int, float, bool or Record; None only where it
    is the default. A number declares its range with `within`; NaN lies in none."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, interval = getattr(self, f.name), f.metadata.get("within")
            if not interval or value is None and f.default is None:
                continue
            lo, hi = map(float, interval[1:-1].split(","))
            if not (isinstance(value, numbers.Real)
                    and (lo <= value if interval[0] == "[" else lo < value)
                    and (value <= hi if interval[-1] == "]" else value < hi)):
                raise ConfigurationError(f"{f.name} {value!r} outside {interval}")

    def to_dict(self) -> dict:
        return {f.name: v.to_dict() if isinstance(v := getattr(self, f.name), Record) else v
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, raw, what: str = None):
        """The record, its values unconverted; ConfigurationError naming the
        section `what` and the key for a non-object, an unknown or missing key
        or a mistyped value."""
        what = what or cls.__name__
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{what} must be an object, got {raw!r}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - set(fields))
        if unknown:
            raise ConfigurationError(f"unknown {what} keys: {unknown}")
        values = {}
        for name, f in fields.items():
            if name not in raw:
                if f.default is dataclasses.MISSING:
                    raise ConfigurationError(f"{what} is missing {name!r}")
            elif raw[name] is None and f.default is None:
                values[name] = None
            elif issubclass(f.type, Record):
                values[name] = f.type.from_dict(raw[name], f"{what}.{name}")
            else:
                values[name] = typed(raw[name], f.type, f"{what}.{name}")
        return cls(**values)
