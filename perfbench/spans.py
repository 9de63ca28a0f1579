"""Span recorder for the calls into gaitview's modules, installed from outside.

run.py starts this file as a child process for the traced run:

    python3 perfbench/spans.py --spans FILE -- analyze --manifest M --out DIR

It imports gaitview.cli, wraps every public function defined in a
gaitview.* module, rebinds every module attribute that refers to one (so
`from .ingest import parse_pose_csv` in cli.py calls the wrapper too), runs
`gaitview.cli.main` with the arguments after `--` and writes the spans as
JSON. gen.py uses Tracer the same way around workload generation.

A span is [name, start_s, end_s, parent_index, extra]; name is
"<module>.<function>", parent_index is -1 at the root, and extra holds what
PROBES read from the call's arguments or result, or null.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "gaitview"

# private functions wrapped as well, because their calls are counted
COUNTED_PRIVATE = ("stats._exact_p",)

# values read from a call after its span has ended; if the call's shape
# changed, the probe fails, extra stays null and the metric is left absent
PROBES = {
    "metrics.dtw_distance": lambda args, kwargs, result: len(args[0]) * len(args[1]),
    "preprocess.butterworth_coeffs": lambda args, kwargs, result: repr(args[0]),
    "features.extract_all": lambda args, kwargs, result: len(result.signals),
    "dimred.pca_fit": lambda args, kwargs, result: int(args[0].values.size),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.wrapped: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap the functions of every imported module of the package."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in COUNTED_PRIVATE)):
                    wrappers[obj] = self._wrap(name, obj)
                    self.wrapped.append(name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, None]
            if probe is not None:
                try:
                    spans[index][4] = probe(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"wrapped": sorted(self.wrapped), "spans": self.spans}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run gaitview's CLI with every call traced")
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import gaitview.cli

    tracer = Tracer()
    tracer.install()
    code = gaitview.cli.main(cli_args)
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
