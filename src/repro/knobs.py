"""Every ``DEX_*`` runtime switch, resolved in one place.

Each row of :data:`TABLE` names one switch: its environment variable, the
:class:`~repro.params.SimParams` field that overrides it (if any), the
spellings it accepts and what each means, and its default.  All rows
share one grammar, matched case-insensitively with surrounding blanks
ignored:

* :data:`OFF` spellings (``""``, ``0``, ``off``, ``none``, ``false``,
  ``no``) mean off;
* :data:`ON` spellings (``1``, ``on``, ``true``, ``yes``) mean on;
* a row may add spellings of its own (``sanitize`` has ``race`` and
  ``deadlock``); ``chaos`` reads any other text as a scenario file path;
* anything else raises :class:`ValueError` naming the variable and the
  spellings it accepts.

And one precedence rule: an explicit (non-``None``) ``SimParams`` value
wins, then the environment variable, then the default.

:class:`repro.core.DexCluster` calls :func:`resolve` once, at
construction, and hands the frozen :class:`Knobs` record to the engine,
the fabric, the chaos setup and the sanitizers, so every part of one
cluster sees the same setting however the environment changes later.
The record is never written back into ``cluster.params``.  This module
is the only one that reads the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.params import SimParams

#: spellings every row reads as off / on
OFF = ("", "0", "off", "none", "false", "no")
ON = ("1", "on", "true", "yes")


@dataclass(frozen=True)
class Knob:
    """One switch: where it is set and what its spellings mean."""

    env: str
    #: the SimParams field that overrides the env var, or None
    field: Optional[str]
    #: accepted spelling (lower case) -> resolved value
    values: Dict[str, Any]
    #: value when neither the field nor the env var is set
    default: Any
    #: any other spelling is a file path, returned verbatim
    paths: bool = False

    def parse(self, setting: str, source: str) -> Any:
        text = str(setting).strip()
        try:
            return self.values[text.lower()]
        except KeyError:
            if self.paths:
                return text
        accepted = ", ".join(repr(v) for v in self.values)
        raise ValueError(
            f"{source}={setting!r} is not a valid setting; "
            f"expected one of {accepted}"
        )


def _values(off: Any, on: Any, **extra: Any) -> Dict[str, Any]:
    return {**dict.fromkeys(OFF, off), **dict.fromkeys(ON, on), **extra}


_BOOL = _values(False, True)

TABLE: Dict[str, Knob] = {
    "sanitize": Knob("DEX_SANITIZE", "sanitize",
                     _values("", "all", all="all", race="race",
                             deadlock="deadlock"), ""),
    "chaos": Knob("DEX_CHAOS", "chaos", _values(None, "on"), None, paths=True),
    "trace": Knob("DEX_TRACE", "trace",
                  _values("", "spans", all="spans", spans="spans"), ""),
    "lens": Knob("DEX_LENS", "lens", _values("", "on", all="on"), ""),
    "scope": Knob("DEX_SCOPE", "scope", _values("", "on", all="on"), ""),
    "engine_fastlane": Knob("DEX_ENGINE_FASTLANE", None, _BOOL, True),
    "engine_inline": Knob("DEX_ENGINE_INLINE", None, _BOOL, True),
    "msg_freelist": Knob("DEX_MSG_FREELIST", None, _BOOL, True),
}


@dataclass(frozen=True)
class Knobs:
    """One cluster's resolved switches (one field per :data:`TABLE` row)."""

    #: "" off, "race", "deadlock" or "all"
    sanitize: str
    #: None off, "on" (empty scenario) or a scenario file path
    chaos: Optional[str]
    #: "" off or "spans"
    trace: str
    #: "" off or "on"
    lens: str
    #: "" off or "on"
    scope: str
    engine_fastlane: bool
    engine_inline: bool
    msg_freelist: bool


def resolve(params: Optional["SimParams"] = None) -> Knobs:
    """Resolve every row against *params* (a SimParams, or None for the
    env-and-default part only) and the current environment."""
    return Knobs(**{name: _resolve(knob, params) for name, knob in TABLE.items()})


def _resolve(knob: Knob, params: Optional["SimParams"]) -> Any:
    if knob.field is not None and params is not None:
        setting = getattr(params, knob.field)
        if setting is not None:
            return knob.parse(setting, f"SimParams.{knob.field}")
    raw = os.environ.get(knob.env)
    if raw is not None:
        return knob.parse(raw, knob.env)
    return knob.default
