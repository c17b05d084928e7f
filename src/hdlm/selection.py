"""Checkpoint selection that refuses degenerate decoders.

A checkpoint history pairs training iterations with validation metrics.  The
selector gates on positional sentence distinctness before it ever looks at
BLEU, because a decoder that emits one stock paragraph can post a strong
corpus BLEU while carrying no per-record signal.  ``mode_baseline`` builds
exactly that stock paragraph, which is useful as a floor in analyses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

from .data import ConfigError, json_float, json_int, read_jsonl, write_jsonl


@dataclass(frozen=True)
class CheckpointRecord:
    """One evaluated checkpoint: where it came from and how it scored.

    ``path`` names the checkpoint file, or is ``None`` when there is none:
    ``hdlm train`` keeps only the checkpoints some gate can select."""

    iteration: int
    bleu4: float
    distinct: tuple[int, ...]
    path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "distinct", tuple(int(v) for v in self.distinct))
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")


@dataclass
class SelectionResult:
    chosen: CheckpointRecord | None
    eligible: list[CheckpointRecord] = field(default_factory=list)
    rejected: list[CheckpointRecord] = field(default_factory=list)
    reason: str = ""


def _passes_gate(record: CheckpointRecord, minimum: int, all_indices: bool) -> bool:
    if not record.distinct:
        return False
    if all_indices:
        return all(count >= minimum for count in record.distinct)
    return record.distinct[0] >= minimum


def select_model(
    history,
    min_distinct_m0: int = 4,
    require_all_indices: bool = False,
) -> SelectionResult:
    """Pick the best checkpoint that clears the distinctness gate.

    A checkpoint is eligible when its first-position distinct-sentence count
    reaches ``min_distinct_m0`` (every position, with ``require_all_indices``).
    Among eligible checkpoints the highest BLEU-4 wins; ties go to the
    earliest iteration.  Returns a result with ``chosen=None`` and a
    diagnostic ``reason`` when nothing qualifies; a negative gate is a ``ConfigError``.
    """
    if min_distinct_m0 < 0:
        raise ConfigError(f"min_distinct must be >= 0, got {min_distinct_m0}")
    history = list(history)
    where = "every position" if require_all_indices else "position 0"
    if not history:
        return SelectionResult(None, reason="history is empty")
    eligible = [r for r in history if _passes_gate(r, min_distinct_m0, require_all_indices)]
    rejected = [r for r in history if not _passes_gate(r, min_distinct_m0, require_all_indices)]
    if not eligible:
        best = max(rejected, key=lambda r: r.distinct[0] if r.distinct else -1)
        best_d0 = best.distinct[0] if best.distinct else 0
        return SelectionResult(
            None,
            rejected=rejected,
            reason=(
                f"no checkpoint reached {min_distinct_m0} distinct sentences at {where}; "
                f"best was {best_d0} at iteration {best.iteration}"
            ),
        )
    chosen = min(eligible, key=lambda r: (-r.bleu4, r.iteration))
    return SelectionResult(
        chosen,
        eligible=eligible,
        rejected=rejected,
        reason=f"selected iteration {chosen.iteration} (BLEU-4 {chosen.bleu4:.4f})",
    )


def selectable(history) -> list[CheckpointRecord]:
    """The records of ``history`` that :func:`select_model` chooses under
    some gate, in order.

    A record is chosen under some gate exactly when it is chosen at its own
    strictest ones: its ``distinct[0]`` at position 0, or its smallest count
    at every position.  A record no gate chooses stays unchosen as the
    history grows, because what beats it stays; so ``selectable(kept + new)``
    of the records kept so far equals ``selectable`` of the whole history.
    """
    history = list(history)
    return [r for r in history if r.distinct and any(
        select_model(history, minimum, every).chosen is r
        for minimum, every in ((r.distinct[0], False), (min(r.distinct), True)))]


def mode_baseline(records) -> list[list[int]]:
    """Most frequent full paragraph in ``records``; ties take the
    lexicographically smallest nested token tuple."""
    records = list(records)
    if not records:
        raise ValueError("mode_baseline needs at least one record")
    counts = Counter(tuple(tuple(s) for s in r.sentences) for r in records)
    top = max(counts.values())
    winner = min(key for key, count in counts.items() if count == top)
    return [list(sentence) for sentence in winner]


# ---------------------------------------------------------------------------
# persistence


def save_history(path, history) -> None:
    write_jsonl(path, map(asdict, history))


def load_history(path) -> list[CheckpointRecord]:
    def parse(obj):
        if not isinstance(obj.get("path"), (str, type(None))):
            raise ValueError(f"path {obj['path']!r} is not a string or null")
        return CheckpointRecord(
            iteration=json_int(obj["iteration"], "iteration"),
            bleu4=json_float(obj["bleu4"], "bleu4"),
            distinct=tuple(json_int(v, "distinct count") for v in obj["distinct"]),
            path=obj.get("path"),
        )

    return read_jsonl(path, ("iteration", "bleu4", "distinct"), parse)


def render_analysis(result: SelectionResult) -> str:
    """Fixed-width table of the full history.

    The chosen checkpoint is marked ``*`` and gated-out ones ``x``; reading
    BLEU-4 next to the distinct counts shows when a high score rides on a
    collapsed decoder.
    """
    history = sorted(result.eligible + result.rejected, key=lambda r: r.iteration)
    depth = max((len(r.distinct) for r in history), default=0)
    header = ["iteration", "bleu4"] + [f"d@{m}" for m in range(depth)] + ["mark"]
    rows = [header]
    rejected = set(id(r) for r in result.rejected)
    for record in history:
        mark = "*" if record is result.chosen else ("x" if id(record) in rejected else "")
        cells = [str(record.iteration), f"{record.bleu4:.4f}"]
        cells += [str(record.distinct[m]) if m < len(record.distinct) else "-"
                  for m in range(depth)]
        rows.append(cells + [mark])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    if result.reason:
        lines.append(result.reason)
    return "\n".join(lines)
