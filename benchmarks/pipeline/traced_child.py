"""Run ``repro.cli.main`` with timing wrappers at the pipeline's layer boundaries.

Usage (the benchmark starts it in place of ``python -m repro.cli``)::

    PIPELINE_SPANS=spans.json PYTHONPATH=src \\
        python -X importtime benchmarks/pipeline/traced_child.py batch q.json ...

Each name in :data:`SITES` is replaced by a wrapper that records one
span (name, start, end, parent, pid and a few counts) per call.  Names
are wrapped where their caller looks them up at call time, so a module
that copied a name with ``from ... import`` is wrapped in its own
namespace.  Modules not yet loaded are wrapped by a post-import hook the
moment they finish executing.  The spans stay in memory and are written
as JSON to ``$PIPELINE_SPANS`` when the command returns.

This module imports only ``functools``, ``os``, ``sys`` and ``time``,
which the interpreter has loaded at start-up, so tracing loads no
module the untraced command would not.
"""

import functools
import os
import sys
import time


def _registry_outcome(args, result):
    return {"hit": int(result.source != "build")}


def _written_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _read_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _product_states(args, result):
    return {"states": result.imc.num_states}


def _minimized_states(args, result):
    return {"states_in": args[0].num_states, "states_out": result[0].num_states}


def _sweep_steps(args, result):
    return {"transition_steps": args[0].ctmdp.num_transitions * result.iterations}


#: ``(module, attribute path, span name, annotate)``: the call-time
#: lookup sites the traced run wraps.  ``annotate(args, result)`` returns
#: the counts attached to the span.
SITES = (
    ("repro.engine.solver", "QueryEngine.run_dicts", "engine.run_dicts", None),
    ("repro.engine.registry", "ModelRegistry.get", "engine.registry_get", _registry_outcome),
    ("repro.models.ftwc_direct", "build_ctmdp", "models.build_ctmdp", None),
    ("repro.engine.registry", "write_ctmdp_tra", "io.write_tra", _written_bytes),
    ("repro.engine.registry", "read_ctmdp_tra", "io.read_tra", _read_bytes),
    ("repro.models.ftwc", "elapse", "imc.elapse", None),
    ("repro.imc.labeled", "LabeledIMC.parallel", "imc.parallel", _product_states),
    ("repro.imc.labeled", "LabeledIMC.hide", "imc.hide", None),
    ("repro.imc.labeled", "LabeledIMC.hide_all_but", "imc.hide", None),
    ("repro.models.ftwc", "imc_to_ctmdp", "imc.transform", None),
    ("repro.bisim.branching", "branching_minimize", "bisim.minimize", _minimized_states),
    # The final quotient calls the name ftwc copied at import time.
    ("repro.models.ftwc", "branching_minimize", "bisim.minimize", _minimized_states),
    ("repro.bisim.branching", "worklist_refine", "bisim.refine", None),
    ("repro.bisim.branching", "quotient_imc", "bisim.quotient", None),
    ("repro.core.reachability", "PreparedTimedReachability.__init__", "core.prepare", None),
    ("repro.core.reachability", "PreparedTimedReachability.solve", "core.solve", _sweep_steps),
    ("repro.core.reachability", "fox_glynn", "numerics.fox_glynn", None),
    ("repro.core.reachability", "certificate_from_foxglynn", "obs.certificate", None),
)

#: The span around the child's ``import repro.cli``.
IMPORT_SPAN = "startup.import"


class Recorder:
    """Spans of one process, kept in call order.

    A span's ``parent`` is the index of the span open when it started.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "parent": parent, "start": time.perf_counter()})
        self._open.append(index)
        return self.spans[index]

    def end(self, span):
        span["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name, annotate):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                span["attrs"] = annotate(args, result)
            return result

        wrapper.pipeline_span = name
        return wrapper

    def dump(self, path):
        import json  # the CLI has imported it by now

        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def resolve(module, attr_path):
    """``(owner, attribute name)`` of ``attr_path`` inside ``module``."""
    owner = module
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def patch_module(module, recorder, sites):
    """Wrap every site of ``module``; a name already wrapped for the same
    span (copied from a patched module) is left alone."""
    for _module, attr_path, name, annotate in sites:
        owner, attr = resolve(module, attr_path)
        current = getattr(owner, attr)
        if getattr(current, "pipeline_span", None) != name:
            setattr(owner, attr, recorder.wrap(current, name, annotate))


class PostImportHook:
    """Meta-path finder that patches a module as soon as it has executed.

    It delegates the search to the finders after it and only swaps the
    found loader's ``exec_module`` for one that patches afterwards.
    """

    def __init__(self, recorder, sites):
        self.recorder = recorder
        self.pending = {}
        for site in sites:
            self.pending.setdefault(site[0], []).append(site)

    def install(self):
        for name in [name for name in self.pending if name in sys.modules]:
            patch_module(sys.modules[name], self.recorder, self.pending.pop(name))
        sys.meta_path.insert(0, self)

    def find_spec(self, fullname, path=None, target=None):
        sites = self.pending.get(fullname)
        if sites is None:
            return None
        for finder in sys.meta_path:
            if finder is self:
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        del self.pending[fullname]
        execute = spec.loader.exec_module
        recorder = self.recorder

        def exec_module(module):
            execute(module)
            patch_module(module, recorder, sites)

        spec.loader.exec_module = exec_module
        return spec


def main(argv):
    recorder = Recorder()
    PostImportHook(recorder, SITES).install()
    # ``python -m`` puts the working directory first on the path, not the
    # directory of the script it runs.
    sys.path[0] = os.getcwd()
    span = recorder.begin(IMPORT_SPAN)
    import repro.cli

    recorder.end(span)
    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(os.environ["PIPELINE_SPANS"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
