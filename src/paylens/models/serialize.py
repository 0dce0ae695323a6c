"""Versioned JSON containers for models and pipelines.

A container is {"magic": ..., "version": ..., "kind": ..., "payload": ...}.
A model's payload is its dataclass's init fields in declaration order, with
ndarrays as nested lists and config dataclasses as objects. Floats survive
the JSON round trip exactly (shortest-repr encoding), so a loaded model
predicts bit-identically. Models travel inside pipeline files
(`paylens.pipeline`), which use the header check, read and write here.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields, is_dataclass
from typing import Union, get_type_hints

import numpy as np

from ..errors import CorruptError, VersionError
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
    """Atomic write: temp file then rename."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(container, fp)
    os.replace(tmp, path)


def fits_type(value, kind: type) -> bool:
    """Only a bool fits bool; an int fits int; an int or a float fits float."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, (int,) if kind is int else (int, float))


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return dict(vars(value)) if is_dataclass(value) else value


_SPLIT_KEYS = {"feature", "threshold", "left", "right"}


def _check_tree(root) -> None:
    """TypeError unless every node is {"value": number} or a split
    {"feature": int >= 0, "threshold": number, "left": node, "right": node}."""
    stack = [root]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else None
        if keys == {"value"}:
            ok = fits_type(node["value"], float)
        else:
            ok = (keys == _SPLIT_KEYS and fits_type(node["feature"], int)
                  and node["feature"] >= 0 and fits_type(node["threshold"], float))
            if ok:
                stack += [node["left"], node["right"]]
        if not ok:
            raise TypeError(f"'trees' holds a malformed node: {str(node)[:80]}")


def _decode(name: str, value, kind):
    if kind is np.ndarray:
        return np.asarray(value, dtype=np.float64)
    if kind == list[float]:
        if not (isinstance(value, list) and all(fits_type(v, float) for v in value)):
            raise TypeError(f"{name!r} must be a list of numbers")
        return value
    if kind == list[dict]:  # GbdtModel.trees
        if not isinstance(value, list):
            raise TypeError(f"{name!r} must be a list of trees")
        for tree in value:
            _check_tree(tree)
        return value
    if kind in (int, float):
        if not fits_type(value, kind):
            raise TypeError(f"{name!r} must be {kind.__name__}, got {value!r}")
        return kind(value)
    if not is_dataclass(kind):
        return value
    config = kind(**value)
    for key, field_kind in get_type_hints(kind).items():
        v = getattr(config, key)
        if field_kind in (int, float, bool) and not fits_type(v, field_kind):
            raise TypeError(f"config {key!r} must be {field_kind.__name__}, "
                            f"got {v!r}")
    return config


def model_to_container(model) -> dict:
    payload = {f.name: _encode(getattr(model, f.name))
               for f in fields(model) if f.init}
    return {"magic": MAGIC, "version": FORMAT_VERSION, "kind": model.kind,
            "payload": payload}


def model_from_container(container: dict):
    check_header(container, MAGIC, FORMAT_VERSION, "model")
    kind = container.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise CorruptError(f"unknown model kind {kind!r}")
    try:
        payload = container["payload"]
        types = get_type_hints(cls)
        return cls(**{f.name: _decode(f.name, payload[f.name], types[f.name])
                      for f in fields(cls) if f.init and f.name in payload})
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptError(f"bad payload for kind {kind!r}: {exc}") from exc

