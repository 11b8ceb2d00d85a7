"""Declarative attack playbooks: specs that compile to :class:`Trace`.

The litex-rowhammer-tester repos drive real DIMMs from *playbooks* --
payloads generated from row lists, parameter ranges written as
``start:end:step``, one engine behind every pattern.  This module ports
that idiom to simulation: a small declarative spec (a plain dict, fully
TOML/JSON-compatible) compiles deterministically into a
:class:`~repro.workloads.trace.Trace`, and every row/bank/column in the
spec goes through one validated, geometry-checked address path
(:func:`line_of`).  The ad-hoc constructors in
:mod:`repro.workloads.attacks` are thin wrappers over these specs, which
eliminates their historical trace-construction bug class (mis-phased
interleaves, unsigned wraparound, out-of-geometry rows) by construction.

Spec fields::

    {
      "name": "attack-double-sided",   # trace name
      "bank": 0,                       # bank the rows live in
      "rows": [999, 1001],             # ints and/or "start:end:step" ranges
      "pattern": "paired",             # round-robin | paired | frequency-weighted
      "rounds": 2000,                  # pattern repetitions
      "intensities": [4, 4, 1],        # per-row repeats (frequency-weighted)
      "seed": 181,                     # jitter seed (frequency-weighted)
      "near_injections": [             # overlay accesses on pattern slots
        {"row": 999, "every": 800, "phase": 0}
      ],
      "refresh_gap": 0,                # insert a gap_row access every N slots
      "gap_row": 5000,                 # row the refresh gap hits
      "col": 0,
      "address_space": "row",          # row | line (line = raw line addresses)
      "target_mapping": "coffeelake",  # consumed by the workload layer only
    }

Patterns:

* ``round-robin`` -- every row once per round, in order (TRRespass-style
  many-sided hammers).
* ``paired`` -- alias of round-robin restricted to exactly two rows (the
  classic single-/double-sided alternation).
* ``frequency-weighted`` -- each round repeats row *i* ``intensities[i]``
  times in a seeded jittered order (Blacksmith-style non-uniform
  patterns).  Construction is fully vectorized (one
  ``Generator.permuted`` call) and bit-identical to a per-round
  ``Generator.permutation`` loop over the same seed.

``near_injections`` overwrite base-pattern slots ``phase::every`` with
another row's accesses -- the Half-Double "keep the neighbours warm"
overlay.  Phases are validated against the period, so an injection can
never silently land on the wrong side of an interleave (the bug the
legacy ``half_double_attack`` had).  ``refresh_gap`` then inserts one
``gap_row`` access after every ``refresh_gap`` slots, for patterns that
pace themselves against the refresh schedule.

``address_space: "line"`` interprets ``rows`` (and injection rows /
``gap_row``) as raw line addresses and needs no mapping -- the blind
attacker's view.  ``target_mapping`` is *not* used by the compiler; the
workload-name layer (:func:`repro.experiments.common.get_trace`) uses it
to build the mapping a ``playbook:<json>`` workload is constructed
against.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.dram.config import Coordinate
from repro.mapping.base import AddressMapping
from repro.obs.runtime import METRICS
from repro.workloads.trace import Trace

#: Patterns :func:`compile_playbook` accepts.
PATTERNS = ("round-robin", "paired", "frequency-weighted")

#: Workload-name prefix the campaign layer resolves through this module.
PLAYBOOK_WORKLOAD_PREFIX = "playbook:"

_SPEC_KEYS = {
    "name",
    "bank",
    "rows",
    "pattern",
    "rounds",
    "intensities",
    "seed",
    "near_injections",
    "refresh_gap",
    "gap_row",
    "col",
    "address_space",
    "target_mapping",
}
_INJECTION_KEYS = {"row", "every", "phase"}

#: Default jitter seed for frequency-weighted patterns (the historical
#: Blacksmith constructor default, kept for golden stability).
DEFAULT_SEED = 0xB5


# ---------------------------------------------------------------------------
# Range and row-list parsing
# ---------------------------------------------------------------------------
def parse_range(text: str) -> List[int]:
    """Expand a ``start:end:step`` range string (end-exclusive).

    ``step`` defaults to 1; all three parts must be integers and the
    range must be non-empty with a positive step -- a silently empty
    row list is always a spec bug.

    >>> parse_range("1000:1008:2")
    [1000, 1002, 1004, 1006]
    """
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"range '{text}' must look like 'start:end' or 'start:end:step'"
        )
    try:
        numbers = [int(part) for part in parts]
    except ValueError as error:
        raise ValueError(f"range '{text}' has a non-integer part") from error
    start, end = numbers[0], numbers[1]
    step = numbers[2] if len(numbers) == 3 else 1
    if step < 1:
        raise ValueError(f"range '{text}' needs a positive step, got {step}")
    values = list(range(start, end, step))
    if not values:
        raise ValueError(f"range '{text}' is empty")
    return values


def parse_rows(entries: Union[int, str, Sequence]) -> List[int]:
    """Expand a spec ``rows`` value into a flat row list.

    Accepts a single int, a single range string, or a list mixing both.
    """
    if isinstance(entries, (int, np.integer)):
        return [int(entries)]
    if isinstance(entries, str):
        return parse_range(entries)
    if isinstance(entries, (list, tuple)):
        rows: List[int] = []
        for entry in entries:
            if isinstance(entry, bool) or not isinstance(entry, (int, np.integer, str)):
                raise ValueError(
                    f"rows entries must be ints or 'start:end:step' strings, got {entry!r}"
                )
            rows.extend(parse_rows(entry))
        if not rows:
            raise ValueError("rows must not be empty")
        return rows
    raise ValueError(f"rows must be an int, a range string, or a list, got {entries!r}")


# ---------------------------------------------------------------------------
# The single validated address path
# ---------------------------------------------------------------------------
def line_of(mapping: AddressMapping, bank: int, row: int, col: int = 0) -> int:
    """Line address of ``(bank, row, col)``, geometry-checked.

    Every playbook (and every legacy attack wrapper) derives aggressor
    lines through this one path.  Out-of-geometry coordinates -- e.g.
    ``victim_row - 2`` underflowing row 0, or a row beyond the bank --
    raise a clear :class:`ValueError` here instead of flowing into
    ``mapping.inverse`` and producing an address for the wrong row.
    """
    config = mapping.config
    if not 0 <= bank < config.banks:
        raise ValueError(
            f"bank {bank} out of range [0, {config.banks}) for {mapping.name}"
        )
    if not 0 <= row < config.rows_per_bank:
        raise ValueError(
            f"row {row} out of range [0, {config.rows_per_bank}) for {mapping.name}"
            " (attack rows, including victim_row +/- 1/2 neighbours, must stay"
            " inside the bank)"
        )
    if not 0 <= col < config.lines_per_row:
        raise ValueError(
            f"col {col} out of range [0, {config.lines_per_row}) for {mapping.name}"
        )
    return mapping.inverse(Coordinate(channel=0, rank=0, bank=bank, row=row, col=col))


def _line_array(
    rows: Sequence[int],
    mapping: Optional[AddressMapping],
    *,
    bank: int,
    col: int,
    address_space: str,
) -> np.ndarray:
    """Translate spec rows to a uint64 line-address array (validated)."""
    if address_space == "line":
        for line in rows:
            if line < 0:
                raise ValueError(
                    f"line address {line} is negative (blind patterns must not"
                    " wrap below address 0)"
                )
            if mapping is not None and line >= mapping.config.total_lines:
                raise ValueError(
                    f"line address {line:#x} exceeds the"
                    f" {mapping.config.capacity_bytes} byte memory"
                )
        return np.asarray(rows, dtype=np.uint64)
    if mapping is None:
        raise ValueError(
            "address_space 'row' needs a mapping to derive line addresses;"
            " pass one or use address_space 'line'"
        )
    return np.asarray(
        [line_of(mapping, bank, row, col) for row in rows], dtype=np.uint64
    )


# ---------------------------------------------------------------------------
# Spec validation helpers
# ---------------------------------------------------------------------------
def _require_int(spec: dict, key: str, default: int, minimum: int) -> int:
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"spec field '{key}' must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"spec field '{key}' must be >= {minimum}, got {value}")
    return value


def validate_spec(spec: dict) -> dict:
    """Structural validation of a playbook spec; returns the spec.

    Checks everything that does not need a mapping: key names, types,
    pattern/row-count compatibility, injection phases, refresh-gap
    plumbing.  Geometry checks (row/bank/col bounds) happen per-address
    in :func:`line_of` during compilation.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"playbook spec must be a dict, got {type(spec).__name__}")
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise ValueError(
            f"unknown playbook spec key(s): {', '.join(sorted(unknown))};"
            f" allowed: {', '.join(sorted(_SPEC_KEYS))}"
        )
    address_space = spec.get("address_space", "row")
    if address_space not in ("row", "line"):
        raise ValueError(
            f"address_space must be 'row' or 'line', got {address_space!r}"
        )
    pattern = spec.get("pattern", "round-robin")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; known: {', '.join(PATTERNS)}")
    rows = parse_rows(spec.get("rows", []))
    if pattern == "paired" and len(rows) != 2:
        raise ValueError(f"pattern 'paired' needs exactly 2 rows, got {len(rows)}")
    _require_int(spec, "rounds", 1, 1)
    _require_int(spec, "bank", 0, 0)
    _require_int(spec, "col", 0, 0)
    intensities = spec.get("intensities")
    if intensities is not None:
        if pattern != "frequency-weighted":
            raise ValueError(
                "intensities are only meaningful with pattern 'frequency-weighted'"
            )
        if not isinstance(intensities, (list, tuple)) or len(intensities) != len(rows):
            raise ValueError(
                f"intensities must list one repeat count per row"
                f" ({len(rows)} rows, got {intensities!r})"
            )
        for value in intensities:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"intensities must be integers >= 1, got {value!r}")
    for injection in spec.get("near_injections", []):
        if not isinstance(injection, dict):
            raise ValueError(f"near_injections entries must be dicts, got {injection!r}")
        unknown = set(injection) - _INJECTION_KEYS
        if unknown:
            raise ValueError(
                f"unknown near_injection key(s): {', '.join(sorted(unknown))};"
                f" allowed: {', '.join(sorted(_INJECTION_KEYS))}"
            )
        if "row" not in injection or "every" not in injection:
            raise ValueError("near_injections entries need a 'row' and an 'every'")
        every = _require_int(injection, "every", 0, 2)
        phase = _require_int(injection, "phase", 0, 0)
        if phase >= every:
            raise ValueError(
                f"near_injection phase {phase} must be < its period {every}"
                " (phases select the pattern slot within one period)"
            )
    refresh_gap = _require_int(spec, "refresh_gap", 0, 0)
    if refresh_gap > 0 and "gap_row" not in spec:
        raise ValueError("refresh_gap > 0 needs a gap_row to access during the gap")
    if "gap_row" in spec and refresh_gap == 0:
        raise ValueError("gap_row is only meaningful with refresh_gap > 0")
    return spec


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
def _base_index(spec: dict, n_rows: int, rounds: int) -> np.ndarray:
    """Per-slot row index for the base pattern (before overlays)."""
    pattern = spec.get("pattern", "round-robin")
    if pattern in ("round-robin", "paired"):
        return np.tile(np.arange(n_rows, dtype=np.int64), rounds)
    # frequency-weighted: repeat row i intensities[i] times per round, in
    # a seeded jittered order.  One batched ``permuted`` call consumes
    # the identical bit stream as `rounds` sequential ``permutation``
    # calls, so this stays bit-identical to the historical loop.
    intensities = spec.get("intensities") or [1] * n_rows
    round_pattern = np.repeat(
        np.arange(n_rows, dtype=np.int64), np.asarray(intensities, dtype=np.int64)
    )
    rng = np.random.default_rng(spec.get("seed", DEFAULT_SEED))
    perm = rng.permuted(
        np.tile(np.arange(round_pattern.size, dtype=np.int64), (rounds, 1)), axis=1
    )
    return round_pattern[perm].reshape(-1)


def _apply_refresh_gap(lines: np.ndarray, gap: int, gap_line: int) -> np.ndarray:
    """Insert one gap_line access after every ``gap`` pattern slots."""
    n = lines.size
    slots = np.arange(n, dtype=np.int64)
    out = np.full(n + n // gap, np.uint64(gap_line), dtype=np.uint64)
    out[slots + slots // gap] = lines
    return out


def compile_playbook(
    spec: dict,
    mapping: Optional[AddressMapping] = None,
    *,
    scale: float = 1.0,
) -> Trace:
    """Compile a playbook spec into a :class:`Trace`.

    Deterministic: the same (spec, mapping, scale) always yields a
    byte-identical line stream.  ``scale`` shrinks ``rounds`` (to at
    least one round) so campaign-style scaled runs work on playbook
    workloads like on any other generator; overlay periods and phases
    are *not* rescaled -- the pattern shape is the experiment.
    """
    validate_spec(spec)
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    address_space = spec.get("address_space", "row")
    bank = int(spec.get("bank", 0))
    col = int(spec.get("col", 0))
    rows = parse_rows(spec.get("rows", []))
    rounds = max(1, int(round(int(spec["rounds"]) * scale)))

    row_lines = _line_array(
        rows, mapping, bank=bank, col=col, address_space=address_space
    )
    index = _base_index(spec, len(rows), rounds)
    lines = row_lines[index]

    for injection in spec.get("near_injections", []):
        (near_line,) = _line_array(
            [int(injection["row"])],
            mapping,
            bank=bank,
            col=col,
            address_space=address_space,
        )
        lines[int(injection.get("phase", 0)) :: int(injection["every"])] = near_line

    refresh_gap = int(spec.get("refresh_gap", 0))
    if refresh_gap > 0:
        (gap_line,) = _line_array(
            [int(spec["gap_row"])],
            mapping,
            bank=bank,
            col=col,
            address_space=address_space,
        )
        lines = _apply_refresh_gap(lines, refresh_gap, int(gap_line))

    if METRICS.enabled:
        METRICS.inc("playbook.compiled", pattern=spec.get("pattern", "round-robin"))
    seed = spec.get("seed")
    return Trace(
        name=str(spec.get("name", "playbook")),
        lines=lines,
        instructions=int(lines.size) * 2,
        scale=scale,
        seed=int(seed) if seed is not None else None,
    )


# ---------------------------------------------------------------------------
# Workload-name embedding (campaign integration)
# ---------------------------------------------------------------------------
def workload_name_for(spec: dict) -> str:
    """Self-contained campaign workload name for a playbook spec.

    The spec is embedded as canonical (sorted-key, compact) JSON, so the
    name survives journals, worker processes, and the service wire
    format without any side-channel registry, and two equal specs always
    produce the same name (content-keyed caches dedupe them).
    """
    validate_spec(spec)
    return PLAYBOOK_WORKLOAD_PREFIX + json.dumps(
        spec, sort_keys=True, separators=(",", ":")
    )


def spec_from_workload(name: str) -> dict:
    """Parse a ``playbook:<json>`` workload name back into its spec."""
    if not name.startswith(PLAYBOOK_WORKLOAD_PREFIX):
        raise ValueError(f"not a playbook workload name: {name!r}")
    payload = name[len(PLAYBOOK_WORKLOAD_PREFIX) :]
    try:
        spec = json.loads(payload)
    except json.JSONDecodeError as error:
        raise ValueError(f"playbook workload has malformed JSON: {error}") from error
    return validate_spec(spec)


def is_playbook_workload(name: str) -> bool:
    """True if ``name`` is a ``playbook:``-embedded workload."""
    return isinstance(name, str) and name.startswith(PLAYBOOK_WORKLOAD_PREFIX)


__all__ = [
    "PATTERNS",
    "PLAYBOOK_WORKLOAD_PREFIX",
    "DEFAULT_SEED",
    "parse_range",
    "parse_rows",
    "line_of",
    "validate_spec",
    "compile_playbook",
    "workload_name_for",
    "spec_from_workload",
    "is_playbook_workload",
]
