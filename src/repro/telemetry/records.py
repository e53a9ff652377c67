"""The per-view record schema (§3).

Each view in the Conviva dataset carries: an anonymized publisher ID; a
URL with an anonymized video ID but the real manifest extension; device
model and OS; HTTP user-agent (browser views) or SDK name and version
(app views); the CDN(s) used; the available bitrate ladder; viewing
time; and delivery performance (average bitrate, rebuffering).

:class:`ViewRecord` mirrors that schema.  Records are *weighted*: a
record with ``weight=w`` stands for ``w`` views of identical character,
which keeps a 27-month dataset analyzable in memory without changing
any aggregate (the weight-invariance property is tested).

:class:`RecordColumns` holds the same records as columns, one list per
field.  The sampler draws records in that form and the dataset keeps
it, so a :class:`ViewRecord` is built only where a caller asks for one.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, Field, dataclass, fields
from datetime import date
from itertools import chain
from operator import attrgetter, methodcaller
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from repro.constants import ConnectionType, ContentType
from repro.errors import DatasetError


@dataclass(frozen=True)
class ViewRecord:
    """One (weighted) view, as reported by the monitoring library."""

    snapshot: date
    publisher_id: str
    url: str
    device_model: str
    os_name: str
    cdn_names: Tuple[str, ...]
    bitrate_ladder_kbps: Tuple[float, ...]
    view_duration_hours: float
    avg_bitrate_kbps: float
    rebuffer_ratio: float
    content_type: ContentType
    video_id: str
    weight: float = 1.0
    user_agent: Optional[str] = None
    sdk_name: Optional[str] = None
    sdk_version: Optional[str] = None
    is_syndicated: bool = False
    owner_id: Optional[str] = None
    isp: Optional[str] = None
    geo: Optional[str] = None
    connection: ConnectionType = ConnectionType.WIFI

    def __post_init__(self) -> None:
        # The range checks are written so that NaN fails them too: a
        # single non-finite measure would poison every total.
        if not self.publisher_id:
            raise DatasetError("record missing publisher_id")
        if not self.url:
            raise DatasetError("record missing url")
        if not self.cdn_names:
            raise DatasetError("record missing CDN names")
        if not 0.0 <= self.view_duration_hours < math.inf:
            raise DatasetError(
                "view duration must be finite and non-negative: "
                f"{self.view_duration_hours}"
            )
        if not 0.0 < self.weight < math.inf:
            raise DatasetError(
                f"record weight must be finite and positive: {self.weight}"
            )
        if not 0.0 <= self.rebuffer_ratio <= 1.0:
            raise DatasetError(
                f"rebuffer ratio out of range: {self.rebuffer_ratio}"
            )
        if not 0.0 <= self.avg_bitrate_kbps < math.inf:
            raise DatasetError(
                "average bitrate must be finite and non-negative: "
                f"{self.avg_bitrate_kbps}"
            )
        if not all(map(math.isfinite, self.bitrate_ladder_kbps)):
            raise DatasetError(
                f"non-finite ladder rung: {self.bitrate_ladder_kbps}"
            )

    @property
    def view_hours(self) -> float:
        """Total view-hours this weighted record contributes."""
        return self.weight * self.view_duration_hours

    @property
    def views(self) -> float:
        """Total views this weighted record contributes."""
        return self.weight

    @property
    def is_app_view(self) -> bool:
        """App views carry an SDK; browser views carry a user-agent (§3)."""
        return self.sdk_name is not None

    def to_json_dict(self) -> Dict[str, Any]:
        """Serialize to plain JSON-compatible types, in field order.

        The build is shallow: every field holds an immutable value, so
        only dates, enums and tuples need a JSON form (:data:`_FIELDS`).
        """
        data = dict(zip(_NAMES, _VALUES(self)))
        for name, encode in _ENCODERS:
            data[name] = encode(data[name])
        return data

    def to_json(self) -> str:
        return _JSON_ENCODE(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ViewRecord":
        """A record from one decoded JSON object.

        This is the file boundary, so every field's JSON type is checked
        here: a string field holding a number, a CDN list given as one
        string, or a boolean weight raises :class:`DatasetError` instead
        of loading and failing later inside an analysis.
        """
        values = _checked_values(data)
        try:
            for index, decode in _DECODERS:
                values[index] = decode(values[index])
            return cls(*values)
        except (KeyError, ValueError, TypeError) as exc:
            raise DatasetError(f"malformed view record: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ViewRecord":
        try:
            data = json.loads(text)
        # ValueError also covers an integer past the interpreter's digit
        # limit; RecursionError, nesting past the decoder's depth.
        except (ValueError, RecursionError) as exc:
            raise DatasetError(f"record is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise DatasetError(
                f"record is not a JSON object: {type(data).__name__}"
            )
        return cls.from_json_dict(data)


#: Marks a required field that is absent.
_ABSENT = object()

_STR = frozenset({str})
_STR_OR_NULL = frozenset({str, type(None)})
_LIST = frozenset({list})
#: ``type`` is compared exactly, and JSON ``true`` decodes as ``bool``,
#: so a boolean is not a number here.
_NUMBER = frozenset({int, float})


@dataclass(frozen=True)
class _Codec:
    """How a field of one declared type crosses the JSON boundary: the
    JSON types its value may hold (and each item, for an array), how an
    error names them, and the encode and decode steps (``None`` where
    the value is its own JSON form)."""

    allowed: FrozenSet[type]
    expected: str
    encode: Optional[Callable[[Any], Any]] = None
    decode: Optional[Callable[[Any], Any]] = None
    items: Optional[FrozenSet[type]] = None


#: An enum member's value, read as a plain attribute; ``.value`` is a
#: Python-level property and several times slower.
_ENUM_VALUE = attrgetter("_value_")

#: Codecs by the declared type of a :class:`ViewRecord` field.
_CODECS = {
    "date": _Codec(
        _STR, "a string", methodcaller("isoformat"), date.fromisoformat
    ),
    "str": _Codec(_STR, "a string"),
    "Optional[str]": _Codec(_STR_OR_NULL, "a string or null"),
    "float": _Codec(_NUMBER, "a number", decode=float),
    "bool": _Codec(frozenset({bool}), "a boolean"),
    "ContentType": _Codec(_STR, "a string", _ENUM_VALUE, ContentType),
    "ConnectionType": _Codec(_STR, "a string", _ENUM_VALUE, ConnectionType),
    "Tuple[str, ...]": _Codec(
        _LIST, "an array of strings", list, tuple, items=_STR
    ),
    "Tuple[float, ...]": _Codec(
        _LIST, "an array of numbers", list,
        lambda items: tuple(map(float, items)), items=_NUMBER,
    ),
}


def _json_default(spec: Field) -> Any:
    """The JSON value a field takes when absent (``_ABSENT`` if required)."""
    if spec.default is MISSING:
        return _ABSENT
    encode = _CODECS[spec.type].encode
    return encode(spec.default) if encode else spec.default


#: The field table, in declaration order: each field's name, codec and
#: JSON default.  It drives encode, decode and the load-side type checks.
_FIELDS: Tuple[Tuple[str, _Codec, Any], ...] = tuple(
    (spec.name, _CODECS[spec.type], _json_default(spec))
    for spec in fields(ViewRecord)
)
_NAMES = tuple(name for name, _, _ in _FIELDS)
_VALUES = attrgetter(*_NAMES)
_DEFAULTS = tuple(default for _, _, default in _FIELDS)
_ALLOWED = tuple(codec.allowed for _, codec, _ in _FIELDS)
_ENCODERS = tuple(
    (name, codec.encode) for name, codec, _ in _FIELDS if codec.encode
)
_DECODERS = tuple(
    (index, codec.decode)
    for index, (_, codec, _) in enumerate(_FIELDS) if codec.decode
)
_ARRAYS = tuple(
    (index, name, codec.items, codec.expected)
    for index, (name, codec, _) in enumerate(_FIELDS) if codec.items
)
_JSON_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def _checked_values(data: Mapping[str, Any]) -> List[Any]:
    """A decoded record's JSON values in field order, or
    :class:`DatasetError` naming the first field that is missing or
    holds the wrong JSON type.

    A well-typed record is checked by ``map`` calls that loop in C;
    only a record that fails is searched field by field.
    """
    values = list(map(data.get, _NAMES, _DEFAULTS))
    if not all(map(frozenset.__contains__, _ALLOWED, map(type, values))):
        for (name, codec, _), value in zip(_FIELDS, values):
            if type(value) not in codec.allowed:
                _type_error(name, value, codec.expected)
    for index, name, allowed, expected in _ARRAYS:
        items = values[index]
        if not allowed.issuperset(map(type, items)):
            bad = next(item for item in items if type(item) not in allowed)
            _type_error(name, bad, expected)
    return values


def _type_error(name: str, value: Any, expected: str) -> NoReturn:
    if value is _ABSENT:
        raise DatasetError(f"missing field {name!r}")
    raise DatasetError(
        f"field {name!r} must be {expected}, got {type(value).__name__}"
    )


#: Each field's Python default, ``MISSING`` for a required field.
_FIELD_DEFAULTS = tuple(spec.default for spec in fields(ViewRecord))
_INDEX = {name: index for index, name in enumerate(_NAMES)}


class RecordColumns:
    """View records as columns: one list per :class:`ViewRecord` field,
    in field order, each holding one value per record.

    A batch is what the sampler draws and what a
    :class:`~repro.telemetry.dataset.Dataset` keeps; :meth:`records`
    builds the records themselves.  Batches are mutable while they are
    being assembled (:meth:`append`, :meth:`extend`); a dataset takes
    its batch over and never changes it.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[List[Any]]) -> None:
        lengths = set(map(len, columns))
        if len(columns) != len(_NAMES) or len(lengths) > 1:
            raise DatasetError(
                f"a record batch needs {len(_NAMES)} columns of one "
                f"length, got {len(columns)} of lengths {sorted(lengths)}"
            )
        self.columns = list(columns)

    @classmethod
    def empty(cls) -> "RecordColumns":
        return cls([[] for _ in _NAMES])

    def __len__(self) -> int:
        return len(self.columns[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordColumns):
            return NotImplemented
        return self.columns == other.columns

    def column(self, name: str) -> List[Any]:
        """One field's values, in record order."""
        return self.columns[_INDEX[name]]

    def append(self, **values: Any) -> None:
        """Add one record, given as :class:`ViewRecord`'s keyword
        arguments; an omitted field takes its default."""
        unknown = values.keys() - _INDEX.keys()
        if unknown:
            raise TypeError(f"unknown record fields: {sorted(unknown)}")
        for name, column, default in zip(
            _NAMES, self.columns, _FIELD_DEFAULTS
        ):
            value = values.get(name, default)
            if value is MISSING:
                raise TypeError(f"missing record field {name!r}")
            column.append(value)

    def extend(self, other: "RecordColumns") -> None:
        """Append another batch's records after this one's."""
        for mine, theirs in zip(self.columns, other.columns):
            mine.extend(theirs)

    def records(self) -> List[ViewRecord]:
        """The records, built one by one in order."""
        return list(map(ViewRecord, *self.columns))

    def check(self) -> None:
        """Raise what building the records one by one would raise.

        ``ViewRecord.__post_init__``'s checks run here a column at a
        time, in loops that stay in C: a truth test per value, and for
        each float field its ``sum`` (non-finite when any value is NaN
        or infinite) and ``min``/``max`` (exact once no NaN is left).
        A column that fails, or whose values do not compare as numbers
        do, sends the batch through the records themselves, so the
        first bad record raises its own error.
        """
        if len(self) and not self._columns_pass():
            for values in zip(*self.columns):
                ViewRecord(*values)

    def _columns_pass(self) -> bool:
        column = self.column
        duration = column("view_duration_hours")
        weight = column("weight")
        rebuffer = column("rebuffer_ratio")
        bitrate = column("avg_bitrate_kbps")
        try:
            return (
                all(column("publisher_id"))
                and all(column("url"))
                and all(column("cdn_names"))
                and _finite(duration) and min(duration) >= 0.0
                and _finite(weight) and min(weight) > 0.0
                and _finite(rebuffer)
                and min(rebuffer) >= 0.0 and max(rebuffer) <= 1.0
                and _finite(bitrate) and min(bitrate) >= 0.0
                and _ladders_finite(column("bitrate_ladder_kbps"))
            )
        except (TypeError, ValueError, ArithmeticError):
            return False


def _finite(values: List[Any]) -> bool:
    """No value is NaN or infinite: either would make the sum so (a sum
    that overflows only sends the batch to the per-record checks)."""
    return math.isfinite(sum(values))


def _ladders_finite(ladders: List[Tuple[float, ...]]) -> bool:
    """Every rung finite; a ladder shared by many records (the sampler
    repeats one tuple per publisher) is read once."""
    distinct = dict(zip(map(id, ladders), ladders)).values()
    return all(map(math.isfinite, chain.from_iterable(distinct)))
