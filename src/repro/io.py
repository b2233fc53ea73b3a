"""JSON persistence for profiles, fitted models and result types.

Profiling is the expensive step of the paper's methodology (O(A)
machine runs per process), so real deployments profile once and reuse
the vectors across scheduling decisions.  Every artefact worth keeping
— feature and profile vectors, fitted Eq. 9 power models, equilibrium
solutions, predictions, assignment decisions, fleet requests and
plans, and the :mod:`repro.api` result bundles — is a JSON document
with an explicit ``kind``/``version`` header, so files are
self-describing.

One codec handles every document type.  A type opts in with the
:func:`document` class decorator, which registers it under its
``kind`` and installs ``to_dict()`` / ``from_dict()``.  The codec
reads the dataclass fields and their type hints once per class:

- fields are emitted in declaration order;
- ``Tuple[X, ...]`` and fixed-length tuples are JSON lists;
- ``Dict[K, X]`` is a JSON object (``int`` keys become strings);
- ``Optional[X]`` is ``null`` or ``X``;
- nested dataclasses recurse.  Registered kinds carry their header
  wherever they appear; other dataclasses (``MachineGroup``,
  ``CoreType``, ``PState``) are plain objects.

Decoding casts each field to its annotated type.  A missing field
takes its dataclass default (or the decorator's document ``defaults``);
without one, the error names the field path
(``fleet.groups[0].machine is missing``), and so does any value that
does not cast (``assignment_request.seed has invalid value inf``).
Types that do not map field by field register small ``encode`` /
``decode`` hooks instead.  All conversions round-trip exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib
from typing import Any, Callable, Dict, Optional, Union, get_args, get_origin, get_type_hints

from repro.errors import ConfigurationError

Pathish = Union[str, pathlib.Path]

FORMAT_VERSION = 1

_MISSING = object()


@dataclasses.dataclass(frozen=True)
class _Spec:
    kind: Optional[str]
    root: str
    defaults: Dict[str, Any]
    encode: Optional[Callable[[Any], Dict]]
    decode: Optional[Callable[[Dict, str], Any]]


#: Registered document types, and the same types by ``kind``.
_SPECS: Dict[type, _Spec] = {}
_KINDS: Dict[str, type] = {}


def document(
    kind: Optional[str] = None,
    *,
    root: Optional[str] = None,
    defaults: Optional[Dict[str, Any]] = None,
    encode: Optional[Callable[[Any], Dict]] = None,
    decode: Optional[Callable[[Dict, str], Any]] = None,
):
    """Class decorator: register a JSON document type with the codec.

    Args:
        kind: Header ``kind`` of the document (``None``: no header).
        root: First segment of error paths when decoding a top-level
            document (default: ``kind``).
        defaults: Document values for fields the dataclass gives no
            default; a missing field decodes as if it held this value.
        encode / decode: Hooks for types the field-by-field rules do
            not fit.  ``encode(obj)`` returns the body without the
            header; ``decode(data, path)`` gets a header-checked dict.
    """

    def register(cls):
        spec = _Spec(kind, root or kind or cls.__name__, defaults or {}, encode, decode)
        _SPECS[cls] = spec
        if kind is not None:
            _KINDS[kind] = cls
        cls.to_dict = _to_dict
        cls.from_dict = classmethod(_from_dict)
        return cls

    return register


def _to_dict(self) -> Dict:
    """Plain-JSON document of this object (see :mod:`repro.io`)."""
    return _encoder(type(self))(self)


def _from_dict(cls, data: Dict):
    """Decode a document written by :meth:`to_dict` (see :mod:`repro.io`)."""
    return _decoder(cls)(data, _SPECS[cls].root)


def from_document(data: Dict) -> Any:
    """Decode any registered document, dispatching on its ``kind``."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in _KINDS:
        raise ConfigurationError(f"unknown document kind {kind!r}")
    return _KINDS[kind].from_dict(data)


def decode_field(data: Dict, key: str, hint: Any, path: str, default: Any = _MISSING) -> Any:
    """Decode ``data[key]`` as type ``hint`` (the building block of hooks)."""
    field_path = f"{path}.{key}"
    if key in data:
        return _value_decoder(hint)(data[key], field_path)
    if default is _MISSING:
        raise ConfigurationError(f"{field_path} is missing")
    return default


def _check_header(data: Dict, kind: str) -> None:
    if not isinstance(data, dict):
        raise ConfigurationError("malformed document: expected a JSON object")
    if data.get("kind") != kind:
        raise ConfigurationError(
            f"expected kind={kind!r}, found {data.get('kind')!r}"
        )
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported format version {version!r} (supported: {FORMAT_VERSION})"
        )


def _is_document_class(hint: Any) -> bool:
    return hint in _SPECS or (isinstance(hint, type) and dataclasses.is_dataclass(hint))


def _optional_inner(hint: Any) -> Any:
    args = [arg for arg in get_args(hint) if arg is not type(None)]
    if len(args) != 1:
        raise TypeError(f"no JSON codec for {hint!r}")
    return args[0]


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _encoder(cls: type) -> Callable[[Any], Dict]:
    """Compiled ``obj -> document`` function for one class."""
    spec = _SPECS.get(cls)
    header = {"kind": spec.kind, "version": FORMAT_VERSION} if spec and spec.kind else {}
    if spec is not None and spec.encode is not None:
        hook = spec.encode

        def encode_hooked(obj) -> Dict:
            encoded = dict(header)
            encoded.update(hook(obj))
            return encoded

        return encode_hooked

    hints = get_type_hints(cls)
    fields = tuple(
        (field.name, _value_encoder(hints[field.name]))
        for field in dataclasses.fields(cls)
    )

    def encode(obj) -> Dict:
        encoded = dict(header)
        for name, inner in fields:
            value = getattr(obj, name)
            encoded[name] = value if inner is None else inner(value)
        return encoded

    return encode


@functools.lru_cache(maxsize=None)
def _value_encoder(hint: Any) -> Optional[Callable[[Any], Any]]:
    """Encoder for one type hint; ``None`` when values pass through."""
    if _is_document_class(hint):
        return _encoder(hint)
    origin = get_origin(hint)
    if origin is Union:
        inner = _value_encoder(_optional_inner(hint))
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if origin is tuple:
        args = get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            inner = _value_encoder(args[0])
            if inner is None:
                return list
            return lambda value: [inner(item) for item in value]
        inners = [_value_encoder(arg) for arg in args]
        if all(inner is None for inner in inners):
            return list
        return lambda value: [
            item if inner is None else inner(item)
            for inner, item in zip(inners, value)
        ]
    if origin is dict:
        inner = _value_encoder(get_args(hint)[1])
        if inner is None:
            return lambda value: {str(key): item for key, item in value.items()}
        return lambda value: {str(key): inner(item) for key, item in value.items()}
    return None


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _decoder(cls: type) -> Callable[[Any, str], Any]:
    """Compiled ``(document, path) -> obj`` function for one class."""
    spec = _SPECS.get(cls)
    kind = spec.kind if spec is not None else None
    if spec is not None and spec.decode is not None:
        body = spec.decode
    else:
        hints = get_type_hints(cls)
        defaults = spec.defaults if spec is not None else {}
        fields = tuple(
            (
                field.name,
                _value_decoder(hints[field.name]),
                field.name not in defaults
                and field.default is dataclasses.MISSING
                and field.default_factory is dataclasses.MISSING,
            )
            for field in dataclasses.fields(cls)
            if field.init
        )

        def body(data: Dict, path: str):
            kwargs = {}
            for name, inner, required in fields:
                if name in data:
                    kwargs[name] = inner(data[name], f"{path}.{name}")
                elif name in defaults:
                    kwargs[name] = inner(defaults[name], f"{path}.{name}")
                elif required:
                    raise ConfigurationError(f"{path}.{name} is missing")
            return cls(**kwargs)

    def decode(data: Any, path: str):
        if kind is not None:
            _check_header(data, kind)
        elif not isinstance(data, dict):
            raise ConfigurationError(f"{path} must be a JSON object")
        return body(data, path)

    return decode


@functools.lru_cache(maxsize=None)
def _value_decoder(hint: Any) -> Callable[[Any, str], Any]:
    """Decoder ``(value, path) -> typed value`` for one type hint."""
    if _is_document_class(hint):
        return _decoder(hint)
    origin = get_origin(hint)
    if origin is Union:
        inner = _value_decoder(_optional_inner(hint))
        return lambda value, path: None if value is None else inner(value, path)
    if origin is tuple:
        args = get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            inner = _value_decoder(args[0])

            def decode_sequence(value, path):
                if not isinstance(value, (list, tuple)):
                    raise ConfigurationError(f"{path} must be a list")
                return tuple(
                    inner(item, f"{path}[{index}]") for index, item in enumerate(value)
                )

            return decode_sequence
        inners = [_value_decoder(arg) for arg in args]

        def decode_fixed(value, path):
            if not isinstance(value, (list, tuple)) or len(value) != len(inners):
                raise ConfigurationError(f"{path} must be a list of {len(inners)} items")
            return tuple(
                inner(item, f"{path}[{index}]")
                for index, (inner, item) in enumerate(zip(inners, value))
            )

        return decode_fixed
    if origin is dict:
        key_type, value_type = get_args(hint)
        decode_key = _value_decoder(key_type)
        inner = _value_decoder(value_type)

        def decode_mapping(value, path):
            if not isinstance(value, dict):
                raise ConfigurationError(f"{path} must be a JSON object")
            return {
                decode_key(key, f"{path}[{key!r}]"): inner(item, f"{path}[{key!r}]")
                for key, item in value.items()
            }

        return decode_mapping
    if hint in (str, int, float, bool):
        return functools.partial(_cast, hint)
    raise TypeError(f"no JSON codec for {hint!r}")


def _cast(caster: type, value: Any, path: str) -> Any:
    if value is not None and not isinstance(value, (dict, list)):
        try:
            return caster(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigurationError(f"{path} has invalid value {value!r}")


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def _require_finite(node: Any, path: str = "$") -> None:
    """Reject NaN/Infinity anywhere in a JSON-bound structure.

    ``json.dumps`` defaults to ``allow_nan=True`` and would emit bare
    ``NaN``/``Infinity`` tokens — invalid JSON that breaks round-trips
    and strict parsers.  This walk names the offending key path, which
    the ``ValueError`` from ``allow_nan=False`` alone does not.
    """
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ConfigurationError(
                f"non-finite value {node!r} at {path}: JSON documents must "
                "be finite — fix the producing computation or sanitize the "
                "field (see sanitize_non_finite) before saving"
            )
    elif isinstance(node, dict):
        for key, value in node.items():
            _require_finite(value, f"{path}.{key}")
    elif isinstance(node, (list, tuple)):
        for index, value in enumerate(node):
            _require_finite(value, f"{path}[{index}]")


def sanitize_non_finite(node: Any) -> Any:
    """Deep copy with NaN/±Infinity floats replaced by string markers.

    For documents that must always export (observability traces of a
    *failing* run are exactly what one wants to look at), raising on a
    stray NaN attribute would be worse than recording it; the markers
    ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"`` keep the document
    valid strict JSON while preserving what happened.
    """
    if isinstance(node, float):
        if math.isnan(node):
            return "NaN"
        if math.isinf(node):
            return "Infinity" if node > 0 else "-Infinity"
        return node
    if isinstance(node, dict):
        return {key: sanitize_non_finite(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [sanitize_non_finite(value) for value in node]
    return node


def save_json(data: Dict, path: Pathish) -> None:
    """Write a document as strict JSON (non-finite floats rejected)."""
    _require_finite(data)
    pathlib.Path(path).write_text(
        json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def load_json(path: Pathish) -> Dict:
    return json.loads(pathlib.Path(path).read_text())


def _load(path: Pathish, kind: str):
    return _KINDS[kind].from_dict(load_json(path))


def save_feature(feature, path: Pathish) -> None:
    """Write one feature vector to a JSON file."""
    save_json(feature.to_dict(), path)


def load_feature(path: Pathish):
    """Read one feature vector from a JSON file."""
    return _load(path, "feature_vector")


def save_profile_suite(features: Dict, profiles: Dict, path: Pathish) -> None:
    """Persist a whole profiled suite (features + PF vectors) to JSON.

    The document is a ``profile_suite`` without the facade's
    ``machine`` key, which decodes as the empty string.
    """
    if set(features) != set(profiles):
        raise ConfigurationError("features and profiles must cover the same names")
    suite = {
        "kind": "profile_suite",
        "version": FORMAT_VERSION,
        "features": {name: f.to_dict() for name, f in features.items()},
        "profiles": {name: p.to_dict() for name, p in profiles.items()},
    }
    save_json(suite, path)


def load_profile_suite(path: Pathish):
    """Load a suite saved by :func:`save_profile_suite`.

    Returns:
        ``(features, profiles)`` dictionaries keyed by process name.
    """
    suite = _load(path, "profile_suite")
    return suite.features, suite.profiles


def save_power_model(model, path: Pathish) -> None:
    """Persist a fitted Eq. 9 model to JSON."""
    save_json(model.to_dict(), path)


def load_power_model(path: Pathish):
    """Load a fitted Eq. 9 model from JSON."""
    return _load(path, "power_model")


def load_fleet_assignment(path: Pathish):
    """Load a bundle saved by :meth:`FleetAssignment.save`."""
    return _load(path, "fleet_assignment")
