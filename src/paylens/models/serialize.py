"""Versioned on-disk model container.

A model file is JSON: {"magic": ..., "version": ..., "kind": ..., "payload":
...}. Floats survive the JSON round trip exactly (shortest-repr encoding),
so a loaded model predicts bit-identically.
"""

from __future__ import annotations

import json
import os
from typing import Union

from ..errors import CorruptError, VersionError
from .gbdt import GbdtModel
from .mlp import MlpModel
from .svm import LinearSvmModel

MAGIC = "paylens-model"
FORMAT_VERSION = 1

_KINDS = {"svm": LinearSvmModel, "mlp": MlpModel, "gbdt": GbdtModel}


def model_to_container(model) -> dict:
    return {"magic": MAGIC, "version": FORMAT_VERSION, "kind": model.kind,
            "payload": model.to_payload()}


def model_from_container(container: dict):
    if not isinstance(container, dict) or container.get("magic") != MAGIC:
        raise VersionError("not a model file (bad magic)")
    if container.get("version") != FORMAT_VERSION:
        raise VersionError(
            f"unsupported model format version {container.get('version')!r}")
    kind = container.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise CorruptError(f"unknown model kind {kind!r}")
    try:
        return cls.from_payload(container["payload"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptError(f"bad payload for kind {kind!r}: {exc}") from exc


def save_model(model, path: Union[str, os.PathLike]) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(model_to_container(model), fp)
    os.replace(tmp, path)


def load_model(path: Union[str, os.PathLike]):
    try:
        with open(path, encoding="utf-8") as fp:
            container = json.load(fp)
    except json.JSONDecodeError as exc:
        raise CorruptError(f"unreadable model file: {exc}") from exc
    return model_from_container(container)
