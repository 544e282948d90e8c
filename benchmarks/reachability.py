"""List the ``src/repro`` functions that no workload, figure or example calls.

Profiles every call in this process and its threads while the e2e workloads
run at full scale in both phases, ``pytest benchmarks`` runs the figures and
tables (timing off) and each example's ``main()`` runs at its defaults; then
prints ``file:line name`` of each function none reached (worker processes
are not seen).  Usage: ``python3 benchmarks/reachability.py``.
"""

import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEN = set()


def record(frame, event, arg):
    if event == "call":
        SEEN.add(frame.f_code)


def defined():
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")
             for path in (ROOT / "src" / "repro").rglob("*.py")]
    for code in codes:  # grows as it goes: every nested code object is visited
        codes += [const for const in code.co_consts if hasattr(const, "co_code")]
        if not code.co_name.startswith("<"):  # no module, lambda, comprehension
            yield code


def where(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname


def drive():
    sys.path[:0] = [str(ROOT / sub) for sub in ("src", "benchmarks/e2e", "examples")]
    import child, pytest, workloads
    child.main(["--workloads", ",".join(workloads.BUILDERS), "--seed", "1",
                "--seconds", "0.1", "--phases", "e2e,layers"])
    pytest.main([str(ROOT / "benchmarks"), f"--ignore={ROOT / 'benchmarks/e2e'}",
                 "--benchmark-disable", "-q", "-p", "no:cacheprovider"])
    for example in sorted((ROOT / "examples").glob("*.py")):
        __import__(example.stem).main()  # each parses this script's own argv


if __name__ == "__main__":
    threading.setprofile(record)
    sys.setprofile(record)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        drive()
    sys.setprofile(None)
    functions = set(map(where, defined()))
    unreached = sorted(functions - set(map(where, SEEN)))
    for path, line, name in unreached:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name}")
    print(f"{len(unreached)} of {len(functions)} functions in src/repro unreached")
