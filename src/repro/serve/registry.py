"""Versioned, hash-addressed registry of served model artifacts.

A deployed prediction service answers queries against *artifacts* —
profiled suites (the expensive-to-produce feature/profile vectors of
:func:`repro.api.profile_suite`) and fitted Eq. 9 power models.  The
registry is the single place the server looks them up:

- **Publishing** accepts the in-memory result bundles, fitted models,
  saved-JSON paths or raw documents, normalises everything through the
  :mod:`repro.io` codec (the same bit-exact restore path
  ``api.load_suite`` / ``load_power_model`` use), and assigns a
  monotonically increasing version per name.
- **Content hashes.**  Every version records the SHA-256 of its
  canonical JSON document.  Republishing an identical document is
  idempotent (same version comes back); publishing different content
  under an existing name creates a new version and atomically makes
  it the default — that is the hot-swap path, and in-flight requests
  that already resolved the old version keep using it.
- **Lookup** by ``name`` (latest) or ``name@version`` (pinned).

The registry is lock-guarded: the asyncio front end resolves
artifacts on the event loop while batcher dispatch threads hold
references, and publishes may arrive over HTTP mid-traffic.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.io import from_document, load_json
from repro.serve.errors import UnknownModelError

Pathish = Union[str, pathlib.Path]

__all__ = ["Artifact", "ModelRegistry", "parse_model_ref"]

#: Document kinds the registry serves (decoded by :mod:`repro.io`).
_SERVABLE_KINDS = ("power_model", "power_training_result", "profile_suite")


def content_digest(document: Dict) -> str:
    """SHA-256 of the canonical (sorted-keys, compact) JSON encoding."""
    canonical = json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_model_ref(ref: str) -> Tuple[str, Optional[int]]:
    """Split a ``name`` or ``name@version`` reference."""
    name, sep, version_text = ref.partition("@")
    if not name:
        raise ConfigurationError(f"empty model name in reference {ref!r}")
    if not sep:
        return name, None
    try:
        return name, int(version_text)
    except ValueError:
        raise ConfigurationError(
            f"bad model reference {ref!r}: version must be an integer"
        ) from None


@dataclass(frozen=True)
class Artifact:
    """One immutable published version of a named artifact."""

    name: str
    version: int
    kind: str
    digest: str
    document: Dict = field(repr=False)
    obj: Any = field(repr=False)

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"

    def describe(self) -> Dict:
        """Metadata summary (no payload) for ``/v1/models``."""
        return {
            "name": self.name,
            "version": self.version,
            "kind": self.kind,
            "digest": self.digest,
        }

    def power_model(self):
        """The fitted :class:`CorePowerModel` this artifact carries."""
        if self.kind == "power_model":
            return self.obj
        if self.kind == "power_training_result":
            return self.obj.model
        raise ConfigurationError(
            f"artifact {self.ref} is a {self.kind}, not a power model"
        )


class ModelRegistry:
    """Thread-safe name → versioned-artifact store."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._versions: Dict[str, List[Artifact]] = {}
        self._listeners: List = []

    def add_listener(self, listener) -> None:
        """Register ``listener(artifact, previous)`` for new versions.

        Called outside the registry lock after a publish creates a new
        version (idempotent republishes do not fire); ``previous`` is
        the superseded default artifact, or ``None`` for a first
        publish.  The serve layer uses this for hot-swap accounting.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(self, name: str, source: Any) -> Artifact:
        """Publish an artifact under ``name``; returns its version.

        ``source`` may be a :class:`~repro.api.ProfileSuiteResult`, a
        :class:`~repro.api.PowerTrainingResult`, a fitted
        :class:`~repro.core.power_model.CorePowerModel`, a path to a
        saved JSON document, or the document itself.  Identical
        content is idempotent; new content becomes the new default
        version for the name (hot swap).
        """
        if not name or "@" in name:
            raise ConfigurationError(
                f"bad artifact name {name!r}: must be non-empty and "
                "must not contain '@' (reserved for version references)"
            )
        document, obj = self._as_document(source)
        kind = document.get("kind")
        if kind not in _SERVABLE_KINDS:
            raise ConfigurationError(
                f"cannot serve documents of kind {kind!r}; supported: "
                f"{sorted(_SERVABLE_KINDS)}"
            )
        if obj is None:
            obj = from_document(document)
        digest = content_digest(document)
        with self._lock:
            versions = self._versions.setdefault(name, [])
            if versions and versions[-1].digest == digest:
                return versions[-1]
            previous = versions[-1] if versions else None
            artifact = Artifact(
                name=name,
                version=len(versions) + 1,
                kind=kind,
                digest=digest,
                document=document,
                obj=obj,
            )
            versions.append(artifact)
        for listener in self._listeners:
            listener(artifact, previous)
        return artifact

    @staticmethod
    def _as_document(source: Any) -> Tuple[Dict, Optional[Any]]:
        """``(document, decoded object or None)`` for a publish source.

        In-memory objects are kept *as handed in* (the document is
        only hashed and listed): the JSON encoding of a profile suite
        normalises histogram masses, so re-decoding it would shift
        served results by an ulp relative to :func:`repro.api.predict_mix`
        on the original object.  Paths and raw documents are decoded
        through the exact :mod:`repro.io` restore that
        ``api.load_suite`` / ``load_power_model`` use, so file-backed
        serving matches file-backed local prediction bit-for-bit too.
        """
        if isinstance(source, dict):
            return source, None
        if isinstance(source, (str, pathlib.Path)):
            return load_json(source), None
        if hasattr(source, "to_dict"):
            return source.to_dict(), source
        raise ConfigurationError(
            f"cannot publish {type(source).__name__}: expected a result "
            "bundle, a fitted power model, a JSON path, or a document"
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, ref: str, version: Optional[int] = None) -> Artifact:
        """Resolve ``name`` / ``name@version`` to a published artifact."""
        name, parsed_version = parse_model_ref(ref)
        if version is None:
            version = parsed_version
        elif parsed_version is not None and parsed_version != version:
            raise ConfigurationError(
                f"conflicting versions: reference {ref!r} vs argument {version}"
            )
        with self._lock:
            versions = self._versions.get(name)
            if not versions:
                raise UnknownModelError(
                    f"no model named {name!r} is published; "
                    f"available: {sorted(self._versions) or 'none'}"
                )
            if version is None:
                return versions[-1]
            if not 1 <= version <= len(versions):
                raise UnknownModelError(
                    f"model {name!r} has no version {version} "
                    f"(published: 1..{len(versions)})"
                )
            return versions[version - 1]

    def list(self) -> List[Dict]:
        """Latest-version metadata for every published name."""
        with self._lock:
            return [
                {**versions[-1].describe(), "versions": len(versions)}
                for _, versions in sorted(self._versions.items())
            ]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._versions

    def __len__(self) -> int:
        with self._lock:
            return len(self._versions)
