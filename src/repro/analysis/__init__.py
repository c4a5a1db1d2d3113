"""Text-table formatting for study results."""

from .formatting import format_value, render_breakdown, render_table, summarize_errors

__all__ = [
    "format_value",
    "render_breakdown",
    "render_table",
    "summarize_errors",
]
