"""Print the lines of src/specdist that no benchmark job runs.

Runs the 319 jobs of `tools/output_sweep.py` in-process under `sys.settrace`, recording
each line executed in a module of src/specdist, imports included, and then prints, module
by module, the executable lines (those that start an instruction, `dis.findlinestarts`)
that no job ran, with their text.  It takes no options.

    python tools/line_trace.py
"""

from __future__ import annotations

import dis
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "specdist"


def executable_lines(path: Path) -> set:
    """The lines of a module that start an instruction of its code or of nested code."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    ran, prefix = {}, str(SRC) + "/"  # file -> lines run

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):  # a new frame: trace it only when it is in src/specdist
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(call)  # before the sweep imports specdist, so module bodies are traced
    try:
        import output_sweep
        jobs = len(output_sweep.sweep())
    finally:
        sys.settrace(None)
    missed_total = lines_total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        missed_total, lines_total = missed_total + len(missed), lines_total + len(lines)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} lines not run")
        text = path.read_text().splitlines()
        for line in missed:
            print(f"  {line:4d}  {text[line - 1].strip()}")
    print(f"{jobs} jobs: {missed_total} of {lines_total} executable lines not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
