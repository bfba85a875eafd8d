"""Indented JSON at C speed: byte-identical to ``json.dumps(indent=2)``.

With ``indent`` set, the standard library serializes through its
pure-Python encoder (the C encoder only handles compact output), which
made rendering the CLI's ``--json`` envelopes cost as much as producing
them.  :func:`dumps_indented` writes the same text with one recursive
pass that appends to a list, escaping every string through the C
``encode_basestring_ascii`` — the escaper the standard encoder itself
uses.  It serves SARIF (:func:`repro.lint.render_sarif`) and
:func:`repro.serve.to_json`; lint's JSON report has a fixed schema and
its own writer, :func:`repro.lint.render.encode_report`.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, List, Tuple

_INFINITY = float("inf")


def dumps_indented(value: Any, sort_keys: bool = False) -> str:
    """``json.dumps(value, indent=2, sort_keys=sort_keys)``, faster.

    Same output for the JSON-native types — ``dict`` (``str``, ``int``,
    ``float``, ``bool`` and ``None`` keys), ``list``, ``tuple``,
    ``str``, ``int``, ``float`` (``NaN``/``Infinity`` included), ``bool``
    and ``None`` — and the same ``TypeError`` for anything else.
    """
    out: List[str] = []
    _write(value, out.append, "\n", sort_keys)
    return "".join(out)


def _write(value: Any, emit: Callable[[str], None], newline: str, sort_keys: bool) -> None:
    if isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        items: Iterable[Tuple[Any, Any]] = (
            sorted(value.items()) if sort_keys else value.items()
        )
        separator = "{" + inner
        for key, item in items:
            head = separator + (
                encode_basestring_ascii(key) if type(key) is str else _key(key)
            ) + ": "
            # the common leaves are written inline, in one piece
            kind = type(item)
            if kind is str:
                emit(head + encode_basestring_ascii(item))
            elif kind is int:
                emit(head + int.__repr__(item))
            else:
                emit(head)
                _write(item, emit, inner, sort_keys)
            separator = comma
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        separator = "[" + inner
        for item in value:
            if type(item) is str:
                emit(separator + encode_basestring_ascii(item))
            else:
                emit(separator)
                _write(item, emit, inner, sort_keys)
            separator = comma
        emit(newline + "]")
    elif isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, float):
        emit(_float(value))
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key(key: Any) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    if isinstance(key, float):
        return '"' + _float(key) + '"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )
