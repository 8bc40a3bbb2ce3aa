"""Scene labels and label-based filtering."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from .errors import LabelSchemaError

__all__ = ["LabelFilter", "LabelSet"]

# Each enumerated annotation once: its LabelSet field and the values it takes.  The
# LabelFilter field that selects it is the plural, the field name with an "s".
_ENUMERATED = {"environment": frozenset({"indoor", "outdoor"}),
               "illumination": frozenset({"sunlight", "cloudy", "white", "incandescent"}),
               "scene_type": frozenset({"object", "scene"})}
ENVIRONMENTS, ILLUMINATIONS, SCENE_TYPES = _ENUMERATED.values()


@dataclass(frozen=True)
class LabelSet:
    """The four per-scene annotations (closed enumerations + ISO-8601 time)."""

    environment: str
    illumination: str
    capture_time: str
    scene_type: str

    def __post_init__(self):
        for name, allowed in _ENUMERATED.items():
            value = getattr(self, name)
            if not isinstance(value, str) or value not in allowed:  # a JSON list is no label
                raise LabelSchemaError(f"{name} must be one of {sorted(allowed)}, got {value!r}")
        try:
            datetime.fromisoformat(self.capture_time)
        except (TypeError, ValueError):
            raise LabelSchemaError(f"capture_time must be ISO-8601 text, "
                                   f"got {self.capture_time!r}") from None


@dataclass(frozen=True)
class LabelFilter:
    """Set intersection filter; None fields match everything."""

    environments: frozenset | None = None
    illuminations: frozenset | None = None
    scene_types: frozenset | None = None

    def matches(self, labels: LabelSet | None) -> bool:
        if labels is None:
            return True
        for name in _ENUMERATED:
            wanted = getattr(self, f"{name}s")
            if wanted is not None and getattr(labels, name) not in wanted:
                return False
        return True
