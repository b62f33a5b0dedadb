"""Per-layer trace of thetacas, recorded from outside the program.

install() wraps the public functions of the layer modules and rebinds each
wrapper under every name any thetacas module binds the original to, so a
call inside a module and a call across modules are both seen.  A wrapped
function records a span (inclusive time, and time not covered by child
spans); the three hottest ring methods, called millions of times per
sample, only count their calls.  Small vector and monomial helpers that run
inside every reduction are left unwrapped: their time stays in the calling
layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("ring", "groebner", "homology", "pairings", "numeq", "cli")

# (module, class, method) -> counter name; counted, never timed.
COUNTED_METHODS = {
    ("ring", "PolynomialRing", "mono_key"): "ring.mono_key",
    ("ring", "PolynomialRing", "parse"): "ring.parse",
    ("ring", "Polynomial", "__mul__"): "ring.poly_mul",
    ("ring", "Polynomial", "__rmul__"): "ring.poly_mul",
}

# Leaf helpers called once per term or per reduction step; a span on each
# would cost more than the work it measures.
UNWRAPPED = {
    "groebner": {
        "term_key", "vec_lead", "vec_axpy", "vec_scale", "vec_monic",
        "freeze_vec", "vec_shift_components", "vec_restrict",
        "vec_from_polys", "vec_component",
    },
}


def _freeze(vec):
    if isinstance(vec, dict):
        return tuple(sorted(vec.items()))
    return repr(vec)


class Recorder:
    """Spans and counters of one sample; reset() between samples."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # [start, time covered by child spans]
        self.active = {}
        self.calls = {}
        self.reset()

    def reset(self):
        self.calls.clear()
        self.inclusive = {}
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.failed = {}
        self.extra = {
            "gb_out_vectors": 0, "gb_repeats": 0, "nf_zero": 0,
            "tor_in_theta": 0,
        }
        self.gb_seen = set()

    def counted(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, fn, layer, name):
        clock, stack, active, calls = self.clock, self.stack, self.active, self.calls
        before, after = BEFORE.get(name), AFTER.get(name)
        signature = inspect.signature(fn) if before else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if before is not None:
                before(self, signature.bind(*args, **kwargs).arguments)
            active[name] = active.get(name, 0) + 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] = self.failed.get(name, 0) + 1
                raise
            finally:
                duration = clock() - frame[0]
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][1] += duration
                self.self_time[layer] += duration - frame[1]
                if not active[name]:
                    self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
            if after is not None:
                after(self, result)
            return result

        return wrapper


def _groebner_input(rec, arguments):
    key = (id(arguments["ring"]), arguments["rank"],
           tuple(_freeze(g) for g in arguments["generators"]))
    if key in rec.gb_seen:
        rec.extra["gb_repeats"] += 1
    rec.gb_seen.add(key)


def _groebner_output(rec, result):
    rec.extra["gb_out_vectors"] += len(result.vectors)


def _normal_form_output(rec, result):
    if not result:
        rec.extra["nf_zero"] += 1


def _tor_input(rec, arguments):
    if rec.active.get("pairings.theta"):
        rec.extra["tor_in_theta"] += 1


BEFORE = {
    "groebner.groebner_basis": _groebner_input,
    "homology.tor_length": _tor_input,
}
AFTER = {
    "groebner.groebner_basis": _groebner_output,
    "groebner.normal_form_vec": _normal_form_output,
}


def install(recorder: Recorder) -> None:
    """Wrap the layer modules of the imported thetacas package."""
    modules = {layer: importlib.import_module(f"thetacas.{layer}") for layer in LAYERS}
    package = [m for name, m in sys.modules.items()
               if m is not None and (name == "thetacas" or name.startswith("thetacas."))]
    replacements = {}
    for layer, module in modules.items():
        skip = UNWRAPPED.get(layer, set())
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or attr in skip or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__ or layer == "ring"):
                continue
            replacements[id(obj)] = recorder.spanned(obj, layer, f"{layer}.{attr}")
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replacements and inspect.isfunction(obj):
                setattr(mod, attr, replacements[id(obj)])
    wrapped = {}
    for (layer, cls_name, method), name in COUNTED_METHODS.items():
        cls = getattr(modules[layer], cls_name, None)
        fn = getattr(cls, method, None) if cls is not None else None
        if fn is None:
            print(f"trace: {layer}.{cls_name}.{method} not found; {name} reads 0",
                  file=sys.stderr)
            continue
        if id(fn) not in wrapped:
            wrapped[id(fn)] = recorder.counted(fn, name)
        setattr(cls, method, wrapped[id(fn)])


def sample_metrics(rec: Recorder) -> dict:
    """Per-layer values of the sample just recorded, as {name: value}."""
    c, t, x = rec.calls, rec.inclusive, rec.extra
    gb_calls = c.get("groebner.groebner_basis", 0)
    nf_calls = c.get("groebner.normal_form_vec", 0)
    theta_calls = c.get("pairings.theta", 0)
    out = {
        "ring.mono_key.calls": c.get("ring.mono_key", 0),
        "ring.poly_mul.calls": c.get("ring.poly_mul", 0),
        "ring.parse.calls": c.get("ring.parse", 0),
        "groebner.groebner_basis.out_vectors": x["gb_out_vectors"],
        "groebner.groebner_basis.repeat_ratio": x["gb_repeats"] / gb_calls if gb_calls else 0.0,
        "groebner.normal_form_vec.zero_ratio": x["nf_zero"] / nf_calls if nf_calls else 0.0,
        "homology.extract_matrix_factorization.failed":
            rec.failed.get("homology.extract_matrix_factorization", 0),
        "pairings.tor_per_theta": x["tor_in_theta"] / theta_calls if theta_calls else 0.0,
    }
    for name in TIMED:
        out[f"{name}.calls"] = c.get(name, 0)
        out[f"{name}.s"] = t.get(name, 0.0)
    for layer in ("groebner", "homology", "pairings", "numeq", "cli"):
        out[f"{layer}.self_s"] = rec.self_time[layer]
    return out


# Spanned functions whose call count and inclusive seconds are reported.
TIMED = (
    "groebner.groebner_basis", "groebner.normal_form_vec",
    "groebner.staircase_count", "groebner.hilbert_numerator",
    "homology.minimal_resolution", "homology.lifted_basis",
    "homology.syzygies_over", "homology.complex_homology",
    "homology.tor_length", "homology.extract_matrix_factorization",
    "pairings.theta", "pairings.local_length_at_prime",
    "numeq.gram_matrix", "cli.run_session", "cli.build_environment",
)
