"""Structured logging: human console lines plus machine JSONL.

Replaces the ad-hoc ``print()`` calls in the experiment runner and the
suite scripts.  Every log call names an *event* and carries typed
fields; the console rendering is decoupled from the machine record:

* **console** -- prints ``message`` verbatim when one is given (which
  is how the runner's historical output stays byte-identical at the
  default verbosity), otherwise a compact ``event key=value`` line.
  ``info``/``debug`` go to stdout, ``warning``/``error`` to stderr,
  exactly like the prints they replace.  ``status`` is an info record
  whose console line goes to stderr: progress chatter of a script whose
  stdout carries data.
* **JSONL sink** (``--log-json PATH``) -- one JSON object per call,
  regardless of console verbosity, so ``--quiet`` terminal runs still
  produce a complete machine log.
* **telemetry event stream** -- when a telemetry directory is
  configured, log events also land in the run's ``events-<pid>.jsonl``
  alongside spans (``type: "log"``).

Verbosity: ``QUIET`` shows warnings and errors only, ``NORMAL`` (the
default) adds info, ``VERBOSE`` adds debug.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional, TextIO, Union

QUIET = 0
NORMAL = 1
VERBOSE = 2

_LEVEL_RANK = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_CONSOLE_THRESHOLD = {QUIET: 30, NORMAL: 20, VERBOSE: 10}


class LogState:
    """Shared sink/verbosity state behind every :class:`StructuredLogger`."""

    def __init__(self) -> None:
        self.verbosity = NORMAL
        self.json_path: Optional[Path] = None
        self._json_file: Optional[TextIO] = None
        self._json_pid: Optional[int] = None
        #: Wired to the telemetry event stream by the runtime (or None).
        self.emit_event: Optional[Callable[[dict], None]] = None

    # ------------------------------------------------------------------
    def set_json_path(self, path: Optional[Union[str, Path]]) -> None:
        """Point the JSONL sink at a file (None closes it)."""
        self.close()
        self.json_path = Path(path) if path else None

    def _json_handle(self) -> Optional[TextIO]:
        if self.json_path is None:
            return None
        # Reopen after fork: two processes appending through one
        # inherited file object would interleave torn lines.
        pid = os.getpid()
        if self._json_file is None or self._json_pid != pid:
            self.close()
            self.json_path.parent.mkdir(parents=True, exist_ok=True)
            self._json_file = open(self.json_path, "a")
            self._json_pid = pid
        return self._json_file

    def write_json(self, record: dict) -> None:
        handle = self._json_handle()
        if handle is None:
            return
        try:
            handle.write(json.dumps(record, default=str) + "\n")
            handle.flush()
        except OSError:
            # Logging must never take the run down with it.
            pass

    def close(self) -> None:
        if self._json_file is not None:
            try:
                self._json_file.close()
            except OSError:
                pass
        self._json_file = None
        self._json_pid = None


class StructuredLogger:
    """Named logger bound to a shared :class:`LogState`.

    Args:
        name: Logger name, recorded in every machine record.
        state: Shared verbosity/sink state (the runtime's singleton).
    """

    def __init__(self, name: str, state: LogState) -> None:
        self.name = name
        self._state = state

    # ------------------------------------------------------------------
    def debug(self, event: str, message: Optional[str] = None, **fields: object) -> None:
        self._log("debug", event, message, fields)

    def info(self, event: str, message: Optional[str] = None, **fields: object) -> None:
        self._log("info", event, message, fields)

    def status(self, event: str, message: Optional[str] = None, **fields: object) -> None:
        self._log("info", event, message, fields, stream=sys.stderr)

    def warning(self, event: str, message: Optional[str] = None, **fields: object) -> None:
        self._log("warning", event, message, fields)

    def error(self, event: str, message: Optional[str] = None, **fields: object) -> None:
        self._log("error", event, message, fields)

    # ------------------------------------------------------------------
    def _log(
        self,
        level: str,
        event: str,
        message: Optional[str],
        fields: Dict[str, object],
        stream: Optional[TextIO] = None,
    ) -> None:
        rank = _LEVEL_RANK[level]
        state = self._state
        if rank >= _CONSOLE_THRESHOLD[state.verbosity]:
            if stream is None:
                stream = sys.stderr if rank >= 30 else sys.stdout
            print(message if message is not None else _render(event, fields), file=stream)
        record = {
            "ts": time.time(),
            "level": level,
            "logger": self.name,
            "event": event,
        }
        if message is not None:
            record["message"] = message
        if fields:
            record.update(fields)
        state.write_json(record)
        if state.emit_event is not None:
            state.emit_event({"type": "log", **record, "pid": os.getpid()})


def _render(event: str, fields: Dict[str, object]) -> str:
    if not fields:
        return event
    packed = " ".join(f"{k}={v}" for k, v in fields.items())
    return f"{event} {packed}"


__all__ = ["QUIET", "NORMAL", "VERBOSE", "LogState", "StructuredLogger"]
