#!/usr/bin/env python3
"""Inject benchmark tables into EXPERIMENTS.md.

Two input modes, selected by what the first argument points at:

- **directory** of archived series JSON (the default, ``results/``):
  either the flat ``results/`` layout (``results/fig3.json`` ...), a
  single runner run directory (``runs/fig5-001/`` containing
  ``result.json``), or a parent ``runs/`` directory (every child run's
  ``result.json`` is collected; the newest run wins when an experiment
  appears more than once).  The
  tables are re-rendered from the JSON through ``SeriesResult.to_table``,
  so both execution paths keep feeding the same doc;
- **console log**: the output of a CLI or benchmark run
  (``REPRO_BENCH_QUALITY=full pytest benchmarks/ --benchmark-only -s |
  tee bench.log``).

Each experiment's table is substituted into the matching
``<!-- NAME_TABLE -->`` placeholder of EXPERIMENTS.md (or refreshes a
previously injected block).

Usage:  python scripts/update_experiments_md.py [dir_or_log] [experiments_md]

With no arguments it re-renders the committed ``results/`` archive into
``EXPERIMENTS.md``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List

#: placeholder -> regex matching the table's title line in the log
TABLE_TITLES = {
    "FIG3_TABLE": r"^Fig\. 3 —",
    "FIG4_TABLE": r"^Fig\. 4 —",
    "FIG5_TABLE": r"^Fig\. 5 —",
    "FIG6_TABLE": r"^Fig\. 6 —",
    "T1_TABLE": r"^Theorem 1 —",
    "BASELINE_TABLE": r"^Fig\. 1\(a\) vs 1\(b\) —",
    "TRANSIENT_TABLE": r"^Flash crowd at the fluid limit",
    "ABL_TTL_TABLE": r"^Ablation — TTL rate",
    "ABL_BUF_TABLE": r"^Ablation — buffer cap",
    "ABL_SELECT_TABLE": r"^Ablation — segment selection",
    "ABL_SCHED_TABLE": r"^Ablation — server pull scheduling",
    "ABL_CODE_TABLE": r"^Ablation — abstract innovation",
    "ABL_TOPO_TABLE": r"^Ablation — overlay degree",
    "ROBUST_TABLE": r"^Robustness — fault injection",
    "ADVERSARY_TABLE": r"^Adversary — Byzantine strategies",
    "SCALE_TABLE": r"^E-SCALE —",
    "LIVE_TABLE": r"^E-LIVE —",
    "LIVE_CHAOS_TABLE": r"^E-LIVE-CHAOS —",
}


def extract_table(log_lines: list, title_pattern: str) -> str:
    """Return the table starting at the title line, through its notes."""
    title_re = re.compile(title_pattern)
    start = None
    for index, line in enumerate(log_lines):
        if title_re.search(line):
            start = index
            break
    if start is None:
        return ""
    block = []
    for line in log_lines[start:]:
        stripped = line.rstrip("\n")
        # A table ends at the first line that is neither table content
        # (rule, header/data rows, which are indented or numeric) nor a note.
        is_content = (
            stripped.startswith("note:")
            or stripped.startswith("=")
            or stripped.startswith("-")
            or (stripped and stripped[0].isspace())
            or any(ch.isdigit() for ch in stripped[:20])
        )
        if block and stripped and not is_content:
            break
        if not stripped and len(block) > 3:
            break
        block.append(stripped)
    return "\n".join(block).rstrip()


def _result_files(root: Path) -> List[Path]:
    """Series-JSON files under *root*, newest-run-last so later wins.

    Recognizes, in order: a single run directory (``result.json``
    present), a parent of run directories (children with
    ``manifest.json``), and the legacy flat ``results/*.json`` layout.
    """
    if (root / "result.json").is_file():
        return [root / "result.json"]
    run_results = sorted(
        child / "result.json"
        for child in root.iterdir()
        if child.is_dir() and (child / "manifest.json").is_file()
        and (child / "result.json").is_file()
    )
    if run_results:
        return run_results
    return sorted(path for path in root.glob("*.json") if path.is_file())


def render_directory(root: Path) -> List[str]:
    """Re-render every archived series under *root* as console lines."""
    repo_src = Path(__file__).resolve().parents[1] / "src"
    if repo_src.is_dir() and str(repo_src) not in sys.path:
        sys.path.insert(0, str(repo_src))
    from repro.experiments import SeriesResult

    tables: Dict[str, str] = {}
    for path in _result_files(root):
        try:
            result = SeriesResult.from_json(path.read_text())
        except (ValueError, KeyError) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            continue
        tables[result.name] = result.to_table()
    lines: List[str] = []
    for table in tables.values():
        lines.extend(table.splitlines())
        lines.append("")
    return lines


def inject(markdown: str, name: str, table: str) -> str:
    """Replace the placeholder (or an earlier injected block) for *name*."""
    placeholder = f"<!-- {name} -->"
    fenced = f"{placeholder}\n```\n{table}\n```"
    # refresh an existing injected block
    pattern = re.compile(
        re.escape(placeholder) + r"\n```\n.*?\n```", re.DOTALL
    )
    if pattern.search(markdown):
        return pattern.sub(fenced, markdown)
    if placeholder in markdown:
        return markdown.replace(placeholder, fenced)
    return markdown


def main(argv: list) -> int:
    source = Path(argv[1]) if len(argv) > 1 else Path("results")
    md_path = Path(argv[2]) if len(argv) > 2 else Path("EXPERIMENTS.md")
    if source.is_dir():
        log_lines = render_directory(source)
    else:
        log_lines = source.read_text().splitlines()
    markdown = md_path.read_text()
    missing = []
    for name, title_pattern in TABLE_TITLES.items():
        table = extract_table(log_lines, title_pattern)
        if not table:
            missing.append(name)
            continue
        markdown = inject(markdown, name, table)
    md_path.write_text(markdown)
    injected = len(TABLE_TITLES) - len(missing)
    print(f"injected {injected} tables into {md_path}")
    if missing:
        print(f"not found in {source}: {', '.join(missing)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
