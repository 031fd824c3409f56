"""Warn-and-default parsing of the ``PRIME_*`` environment knobs.

A knob is read where it takes effect, often deep inside a long run or
at deploy time, so a malformed value must not raise: it logs a warning
naming the knob and the value, counts ``perf.env.invalid{knob}``, and
the knob keeps its default.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, TypeVar

from repro import telemetry

T = TypeVar("T")


def env_knob(
    name: str,
    parse: Callable[[str], T],
    default: T,
    logger: logging.Logger,
    expect: str,
    fallback: str,
) -> T:
    """The value of environment knob ``name``, or ``default``.

    An unset or blank knob is ``default``.  Otherwise ``parse`` maps
    the stripped value to the knob's value and raises ``ValueError``
    for anything it does not accept; a rejected value logs ``"<name>
    must be <expect>, got <value>; <fallback>"`` on ``logger``, counts
    ``perf.env.invalid{knob=name}`` and yields ``default``.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        pass
    logger.warning("%s must be %s, got %r; %s", name, expect, raw, fallback)
    telemetry.count("perf.env.invalid", knob=name)
    return default
