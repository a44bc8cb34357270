"""Import-time rejection of the retired ``REPRO_FASTPATH`` setting.

The serve path used to have two selectable implementations, switched by
``REPRO_FASTPATH``: the single-pass wire codec and a set of reference
lanes (per-character KMP scan, ``normalized()`` render, per-instruction
assembly walk).  Only the single-pass codec remains.  The reference code
lives on as plain functions that the differential tests call directly as
oracles; nothing on the serve path can select it.

A process started with ``REPRO_FASTPATH=0`` (or ``false``/``no``) asks for
lanes that no longer exist, so importing this module — which
:mod:`repro.core` does — raises :class:`~repro.errors.ConfigurationError`
instead of silently running something else.

:func:`enabled` is always ``True``.  It stays only because the serve-path
benchmark (``perfbench/run.py``) records it as the lane it measured; a
later change to that benchmark can drop this module.
"""

from __future__ import annotations

import os

from ..errors import ConfigurationError

if os.environ.get("REPRO_FASTPATH", "1") in ("0", "false", "no"):
    raise ConfigurationError(
        "REPRO_FASTPATH=%s selects the reference lanes, which were removed: "
        "the single-pass wire codec is the only serve path; unset the variable"
        % os.environ["REPRO_FASTPATH"]
    )


def enabled() -> bool:
    """Always ``True``: the single-pass codec is the only serve path."""
    return True
