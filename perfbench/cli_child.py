"""`python -m slopespectra.cli` with its phases timed, for the traced and
the profiled cli-session runs.

    PERFBENCH_STATE=FILE    write the start time, the import time and the
                            trace of the command to FILE (JSON) at exit
    PERFBENCH_COUNT=1       also count calls of the hot functions
    PERFBENCH_PROFILE=FILE  write cProfile stats of the command to FILE

The exit code, stdout and stderr are those of the command itself.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    t0 = time.perf_counter()
    from slopespectra import cli
    import_s = time.perf_counter() - t0

    state_path = os.environ.get("PERFBENCH_STATE")
    profile_path = os.environ.get("PERFBENCH_PROFILE")
    tracer = profiler = None
    if state_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer(count=os.environ.get("PERFBENCH_COUNT") == "1")
        tracer.install()
    if profile_path:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(profile_path)
        if tracer is not None:
            tracer.uninstall()
            state = tracer.export()
            state.update(t_start=T_START, import_s=import_s)
            with open(state_path, "w") as fh:
                json.dump(state, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
