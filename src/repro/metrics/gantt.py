"""Terminal Gantt rendering of a completed run's schedule.

No plotting stack is required to *see* a CEDR schedule: this module renders
the logbook as a per-PE timeline of Unicode block characters, one row per
processing element, downsampled to a fixed terminal width.  Each cell shows
what the PE spent that time slice on:

* a letter - executing tasks of that application (`P` = PD, `T` = TX, ...);
  lowercase when the slice is only partially busy;
* ``.`` - idle.

Slices containing several applications show the one with the largest share.
The same data feeds the Chrome-trace exporter; this is the quick-look
version for terminals and test logs.

Example::

    print(render_gantt(runtime.logbook))
    cpu0  |PPPPPPPPTTTT..TTPPP...|
    cpu1  |PPPPPP..TTTTTTPP......|
    fft0  |..pp..PPPP...........p|
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime import Logbook

__all__ = ["render_gantt"]


def render_gantt(
    book: "Logbook",
    width: int = 72,
    t_start: float = 0.0,
    t_end: Optional[float] = None,
) -> str:
    """Render the run's schedule as an ASCII Gantt chart.

    ``width`` is the number of time slices; the window defaults to
    ``[0, makespan]``.  Returns a multi-line string (one row per header PE
    plus a legend and time axis).
    """
    if width < 8:
        raise ValueError(f"width must be >= 8 columns, got {width}")
    records = book.tasks
    if not records:
        return "(no task records)"
    t_end = t_end if t_end is not None else book.makespan or max(records.column("t_finish"))
    if t_end <= t_start:
        raise ValueError(f"empty window [{t_start}, {t_end}]")
    dt = (t_end - t_start) / width

    pe_names = [name for name, _ in book.header.pes]
    # per-PE, per-slice: {app name: busy seconds}
    slices: dict[str, list[dict[str, float]]] = {
        name: [dict() for _ in range(width)] for name in pe_names
    }
    app_names = {}
    for rec in records:
        app = book.apps.get(rec.app_id)
        label = (app.name if app else "?")[:1].upper() or "?"
        app_names[label] = app.name if app else "?"
        first = max(0, int((rec.t_start - t_start) / dt))
        last = min(width - 1, int((rec.t_finish - t_start) / dt))
        for i in range(first, last + 1):
            cell_lo = t_start + i * dt
            cell_hi = cell_lo + dt
            overlap = min(rec.t_finish, cell_hi) - max(rec.t_start, cell_lo)
            if overlap > 0:
                bucket = slices[rec.pe][i]
                bucket[label] = bucket.get(label, 0.0) + overlap

    name_w = max(len(n) for n in pe_names)
    lines = []
    for name in pe_names:
        row = []
        for bucket in slices[name]:
            if not bucket:
                row.append(".")
                continue
            label, busy = max(bucket.items(), key=lambda kv: kv[1])
            total = sum(bucket.values())
            row.append(label if total >= 0.5 * dt else label.lower())
        lines.append(f"{name:>{name_w}} |{''.join(row)}|")

    axis = f"{'':>{name_w}} 0{'':{width - 2}}{(t_end - t_start) * 1e3:.1f} ms"
    legend = ", ".join(f"{k}={v}" for k, v in sorted(app_names.items()))
    lines.append(axis)
    lines.append(f"{'':>{name_w}} apps: {legend}   (lowercase = partially busy, . = idle)")
    return "\n".join(lines)
