"""Standard sample grid and point parsing for the numeric checks.

The grid stays away from the real axis and from branch-cut crossings of
intermediate factors; lower-half points are the conjugates of the upper ones.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DomainError

SAMPLE_X = (-0.7, 0.0, 0.4, 1.3)
SAMPLE_Y = (0.3, 0.8, 2.0)


def parse_complex(text: str) -> complex:
    """Parse the ``a+bi`` format with decimal literals (also plain reals)."""
    raw = text.strip()
    if not raw:
        raise DomainError("empty complex literal")
    if "i" not in raw:
        try:
            return complex(float(raw), 0.0)
        except ValueError as exc:
            raise DomainError(f"bad complex literal {text!r}") from exc
    try:
        return complex(raw.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise DomainError(f"bad complex literal {text!r}") from exc


def format_complex(z: complex) -> str:
    z = complex(z)
    re_part = f"{z.real:.12g}"
    im_part = f"{abs(z.imag):.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_part}{sign}{im_part}i"


def upper_grid() -> tuple[complex, ...]:
    return tuple(complex(x, y) for x in SAMPLE_X for y in SAMPLE_Y)


def lower_grid() -> tuple[complex, ...]:
    return tuple(z.conjugate() for z in upper_grid())


def full_grid() -> tuple[complex, ...]:
    return upper_grid() + lower_grid()


def load_points(path: str | Path) -> tuple[complex, ...]:
    """Load a sample file: a JSON array of ``a+bi`` strings."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read sample file {path}: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise DomainError(f"sample file {path} must hold a nonempty JSON array of 'a+bi' strings")
    return tuple(parse_complex(str(item)) for item in data)
