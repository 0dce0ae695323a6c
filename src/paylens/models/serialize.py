"""Versioned JSON containers and the one codec for every paylens artifact.

A container is {"magic": ..., "version": ..., "kind": ..., "payload": ...}.
A payload is a dataclass's init fields in declaration order, read back by
their type hints: ndarrays and tuples travel as lists, dataclasses as
objects (through `to_dict` when they have one), a field typed `object` as a
nested model container. On read, a missing field with a default takes it;
a missing required field, an unknown key, a mistyped value, a non-finite
number in an ndarray or float field or a dataclass's own check (a GbdtModel
checks its trees) is a CorruptError. Floats survive the
JSON round trip exactly (shortest-repr encoding), so a loaded model or
pipeline predicts bit-identically.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from ..errors import CorruptError, NonFiniteError, VersionError
from .common import fits_type
from .gbdt import GbdtModel
from .mlp import MlpModel
from .svm import LinearSvmModel

MAGIC = "paylens-model"
FORMAT_VERSION = 1

_KINDS = {"svm": LinearSvmModel, "mlp": MlpModel, "gbdt": GbdtModel}

PathLike = Union[str, os.PathLike]


def check_header(container, magic: str, version: int, what: str) -> None:
    """Raise VersionError unless the container carries this magic and version."""
    if not isinstance(container, dict) or container.get("magic") != magic:
        raise VersionError(f"not a {what} file (bad magic)")
    if container.get("version") != version:
        raise VersionError(
            f"unsupported {what} version {container.get('version')!r}")


def read_container(path: PathLike, what: str):
    """Parsed JSON of a container file; a decode error, nesting too deep to
    decode included, is a CorruptError."""
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CorruptError(f"unreadable {what} file: {exc}") from exc


def write_container(container: dict, path: PathLike) -> None:
    """Atomic write: temp file then rename. A non-finite number, which no
    reader accepts, is a NonFiniteError and writes nothing."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fp:
            json.dump(container, fp, allow_nan=False)
    except ValueError as exc:
        os.remove(tmp)
        raise NonFiniteError(f"cannot write {path}: {exc}") from exc
    os.replace(tmp, path)


def encode(value, kind=None):
    """The JSON form of a value held in a field of type `kind`."""
    if kind is object:
        return model_to_container(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        types = get_type_hints(type(value))
        return {f.name: encode(getattr(value, f.name), types[f.name])
                for f in fields(value) if f.init}
    return value


def _check_numbers(name: str, value: list) -> None:
    """TypeError unless every leaf of a nested list fits float."""
    stack = [value]
    while stack:
        for v in stack.pop():
            if isinstance(v, list):
                stack.append(v)
            elif not fits_type(v, float):
                raise TypeError(f"{name!r} holds a non-number entry {str(v)[:80]}")


def _decode(name: str, value, kind):
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, UnionType):  # X | None
        return None if value is None else _decode(name, value, args[0])
    if kind is object:  # a model container
        check_header(value, MAGIC, FORMAT_VERSION, "model")
        if value.get("kind") not in _KINDS:
            raise CorruptError(f"unknown model kind {value.get('kind')!r}")
        return _decode(name, value.get("payload"), _KINDS[value["kind"]])
    if kind is np.ndarray or origin in (list, tuple):
        if not isinstance(value, list):
            raise TypeError(f"{name!r} must be a list, got {str(value)[:80]}")
        if kind is np.ndarray:  # fits_type also rejects non-finite entries
            _check_numbers(name, value)
            return np.asarray(value, dtype=np.float64)
        if origin is list or args[-1] is Ellipsis:
            return origin(_decode(name, v, args[0]) for v in value)
        if len(value) != len(args):
            raise TypeError(f"{name!r} must hold {len(args)} entries, got {value!r}")
        return origin(_decode(name, v, k) for v, k in zip(value, args))
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise TypeError(f"{name!r} must be an object, got {str(value)[:80]}")
        if hasattr(kind, "to_dict"):
            return kind(**value)
        unknown = value.keys() - {f.name for f in fields(kind) if f.init}
        if unknown:
            raise TypeError(f"{name!r} has unknown keys {sorted(unknown)}")
        types = get_type_hints(kind)
        return kind(**{k: _decode(k, v, types[k]) for k, v in value.items()})
    if not fits_type(value, kind):
        raise TypeError(f"{name!r} must be {kind.__name__}, got {value!r}")
    return kind(value)


def decode(value, kind, what: str):
    """`value` read as a `kind`; any mismatch is a CorruptError "bad {what}"."""
    try:
        return _decode("payload", value, kind)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptError(f"bad {what}: {exc}") from exc


def model_to_container(model) -> dict:
    return {"magic": MAGIC, "version": FORMAT_VERSION, "kind": model.kind,
            "payload": encode(model)}


def model_from_container(container: dict):
    check_header(container, MAGIC, FORMAT_VERSION, "model")
    return decode(container, object, f"payload for kind {container.get('kind')!r}")
