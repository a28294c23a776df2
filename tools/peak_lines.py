"""Where one swiptfog command reaches its traced memory peak, line by line.

    PYTHONPATH=src python3 tools/peak_lines.py --top 8 -- simulate \
        --config params.cfg --seed 256 --frames 100 --trials 250 --out-dir out

Runs one swiptfog.cli.main argv (the words after --) in this process under
tracemalloc.  At each line event in a source file of the swiptfog package
that is imported, the traced peak since the previous event is charged to
the line that ran in between, and the peak is reset; a return charges the
returning line and hands over to the caller's line.  Prints the command's
exit code, its traced peak, and the --top lines with the highest peak, each
with the traced size when its highest peak began.  Allocations of the
tracer itself (a few dictionary entries) are traced as well.
"""

import argparse
import linecache
import os
import sys
import tracemalloc

MIB = 2.0 ** 20


def trace_peaks(call, package_dir):
    """call() under tracemalloc, with every line of the files under
    package_dir charged its traced peak.  Returns call's result, the overall
    peak and {(file, line): (peak, size at the start of that interval)}."""
    package_dir = os.path.join(os.path.abspath(package_dir), "")
    peaks = {}
    state = {"at": None, "start": 0}

    def charge(next_at):
        size, peak = tracemalloc.get_traced_memory()
        at = state["at"]
        if at is not None and peak > peaks.get(at, (-1, 0))[0]:
            peaks[at] = (peak, state["start"])
        tracemalloc.reset_peak()
        state["at"], state["start"] = next_at, size

    def local(frame, event, arg):
        if event == "line":
            charge((frame.f_code.co_filename, frame.f_lineno))
        elif event == "return":
            caller = frame.f_back
            inside = (caller is not None and caller.f_code.co_filename
                      .startswith(package_dir))
            charge((caller.f_code.co_filename, caller.f_lineno) if inside else None)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package_dir) else None

    tracemalloc.start()
    sys.settrace(on_call)
    try:
        result = call()
    finally:
        sys.settrace(None)
        charge(None)
        overall = max((p for p, _ in peaks.values()), default=0)
        tracemalloc.stop()
    return result, overall, peaks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=8,
                        help="lines to print, highest peak first")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- then the swiptfog command line")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("give the swiptfog command after --")

    import swiptfog.cli
    package_dir = os.path.dirname(swiptfog.cli.__file__)
    code, overall, peaks = trace_peaks(lambda: swiptfog.cli.main(command),
                                       package_dir)
    print(f"exit {code}; traced peak {overall / MIB:.3f} MiB")
    ranked = sorted(peaks.items(), key=lambda item: -item[1][0])[:args.top]
    for (path, line), (peak, start) in ranked:
        where = f"{os.path.relpath(path, os.path.dirname(package_dir))}:{line}"
        print(f"{peak / MIB:7.3f} MiB  (from {start / MIB:6.3f})  {where:22s}  "
              f"{linecache.getline(path, line).strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
