"""One fresh, single-threaded measurement process.

usage: python3 perfbench/child.py MODE SPEC RESULT

MODE is one of
  setup  import duffinglab, load every system, parse every argv, stop;
  run    set up, then repeat the workload untraced for the time budget;
  trace  set up, repeat the workload for the time budget alternating
         untraced and traced repeats, then run the layer probes untraced.
SPEC is the JSON written by run.py; RESULT is where this process writes
its measurements.  The parent puts its launch time, from the system-wide
monotonic clock, in PERFBENCH_LAUNCH_NS so set-up time starts at spawn.
"""
# only what set-up needs is imported before the set-up clock stops
import json
import os
import sys
import time


def _setup(spec):
    """Import the program and do everything a run does before its first
    experiment: build or load each system and parse each argv."""
    import duffinglab
    from duffinglab import cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(duffinglab.__file__).startswith(src + os.sep):
        raise SystemExit(f"duffinglab imported from {duffinglab.__file__}, "
                         f"not from {src}")
    systems = [cli._load_system(cli._parser().parse_args(argv))
               for _, argv in spec["experiments"]]
    return cli, systems


def _clear_caches():
    # every repeat must cost what a fresh command-line invocation costs
    for name, module in list(sys.modules.items()):
        if name.startswith("duffinglab"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _tree_digest(root):
    import hashlib

    digest = hashlib.sha256()
    for base, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()


def _repeat(cli, spec, tracer=None):
    import contextlib
    import io
    import shutil
    import traceback

    out_root = spec["out_root"]
    shutil.rmtree(out_root, ignore_errors=True)
    _clear_caches()
    if tracer is not None:
        tracer.reset()
    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for k, (_, argv) in enumerate(spec["experiments"]):
            if tracer is not None:
                tracer.experiment = k
            try:
                codes.append(cli.main(argv))
            except Exception:  # a traceback is exit status 1 on the command line
                traceback.print_exc()
                codes.append(1)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "codes": codes, "digest": _tree_digest(out_root)}


def _repeats(cli, spec, at_least, tracer=None):
    """Repeat the workload until the time budget is spent.

    With a tracer, odd repeats are traced and even ones are not, so both
    kinds see the same machine state.  The first repeat warms the process
    (lazy imports, allocator pools); it is checked but run.py does not
    time it."""
    from tracer import analyse

    reps = []
    start = time.perf_counter()
    while len(reps) < at_least or time.perf_counter() - start < spec["seconds"]:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.install()
            try:
                rep = _repeat(cli, spec, tracer)
            finally:
                tracer.uninstall()
            rep["trace"] = analyse(tracer.spans, rep["wall_s"])
            rep["spans"] = tracer.spans
        else:
            rep = _repeat(cli, spec)
        rep["traced"] = traced
        reps.append(rep)
    return reps


def main(argv):
    mode, spec_path, result_path = argv
    launch_ns = int(os.environ["PERFBENCH_LAUNCH_NS"])
    with open(spec_path) as fh:
        spec = json.load(fh)
    cli, systems = _setup(spec)
    result = {"setup_s": (time.monotonic_ns() - launch_ns) / 1e9}
    if mode == "run":
        result["repeats"] = _repeats(cli, spec, 3)
    elif mode == "trace":
        import probes
        from tracer import Tracer, combine, write_spans

        tracer = Tracer()
        repeats = _repeats(cli, spec, 4, tracer)
        traced = [rep for rep in repeats if rep["traced"]]
        layer, median_index, problems = combine([rep.pop("trace") for rep in traced])
        write_spans(os.path.join(spec["work"], "spans.jsonl"),
                    traced[median_index]["spans"])
        for rep in traced:
            del rep["spans"]
        layer.update(probes.run_all(systems, spec["work"]))
        result.update(repeats=repeats, layer=layer, problems=problems)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
