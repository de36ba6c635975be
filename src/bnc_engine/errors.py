"""The engine's one error model: each fault class carries its exit code.

A BncError is a fault the engine found in what it was given; the
command line exits with its class's code.  Any other exception is a
fault in the engine itself and exits with INTERNAL.  A failed claim is
not an exception at all: it is a CheckReport whose ok is false, and the
command line exits with CLAIM_FAILED after printing it.  A reader that
closes stdout early is neither: the command line ends quietly with
BROKEN_PIPE, the status a shell reports for a tool ended by SIGPIPE.
"""

from __future__ import annotations

CLAIM_FAILED = 5
INTERNAL = 70  # sysexits EX_SOFTWARE
BROKEN_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout


class BncError(Exception):
    """A fault the engine detected; code is the command-line exit code."""

    code = INTERNAL


class InputError(BncError, ValueError):
    """Malformed or inconsistent input: a flag, a fixture name, a colouring."""

    code = 2


class CapExceeded(BncError, RuntimeError):
    """Enumeration size limit exceeded; raise BNC_ENGINE_CAP to proceed."""

    code = 3


class FixtureError(BncError):
    """A fixture fails the axioms it is meant to satisfy."""

    code = 4
