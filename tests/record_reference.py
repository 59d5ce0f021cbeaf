"""Records the outputs that test_bitwise_reference.py pins, or compares the
package against a recording:

    PYTHONPATH=src python tests/record_reference.py              # re-record
    PYTHONPATH=src python tests/record_reference.py --compare FILE

Recording writes tests/reference_outputs.npz from the rgcl on the path: each
case's outputs under "<test id>|<output>", and the environment that
environment() describes.  It carries the "seed:<test id>|<output>" arrays
over from the file it replaces: the seed code's evaluation outputs, computed
once at cc0c596 by the frozen copy of the seed's evaluations that
tests/original_reference.py held there.  Comparing prints each case's
largest relative change against FILE, writes nothing, and exits 1 when a
case moved beyond what test_bitwise_reference.py accepts (see changes()),
is missing from FILE, or is recorded in FILE but no longer computed.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
import tempfile
from dataclasses import replace

import numpy as np

from rgcl import harness, loss, optimizer, oracle
from rgcl.datasynth import gen_longtail_clusters
from rgcl.encoder import init_encoder_params
from rgcl.loss import _EVAL_ROWS, RgclConfig, ViewPairs
from rgcl.numerics import RandomStream

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_outputs.npz")
SEED = "seed:"
# sizes around the seed evaluation's 256-anchor blocks, and around the evaluation's own
SIZES = [2, 3, 255, 256, 257, 515]
BLOCK_SIZES = [_EVAL_ROWS - 1, _EVAL_ROWS, _EVAL_ROWS + 1, 2 * _EVAL_ROWS + 3]
EPSILONS = [0.0, 0.25]
ORACLE_SIZES = [2, 3, 17, 40]
STATE_FIELDS = ("mode", "seed", "t", "s", "u", "tau", "initialized", "v", "adam_m2",
                "min_g_seen", "min_s_seen", "min_tau_seen", "max_tau_seen")
BIMODAL = ("value", "grad_w_img", "grad_w_txt", "grad_tau_img", "grad_tau_txt")


def instance(n, log_epsilon, d=5):
    stream = RandomStream(n, ("bitwise",))
    cfg = RgclConfig(rho=0.8, tau0=0.05, tau_init=0.7, log_epsilon=log_epsilon)
    params = init_encoder_params(d, 4, 6, "tanh", stream.split("enc"))
    views = ViewPairs(stream.split("a").normal(n, d), stream.split("b").normal(n, d))
    taus = cfg.tau0 + (cfg.tau_max - cfg.tau0) * stream.split("tau").uniform(n)
    # temperatures exactly at both ends of the box
    taus[::3] = cfg.tau0
    taus[1::3] = cfg.tau_max
    return params, views, taus, cfg


def bimodal_args(n, log_epsilon):
    params, views, taus, cfg = instance(n, log_epsilon)
    p_txt = init_encoder_params(5, 4, 6, "tanh", RandomStream(n, ("txt",)))
    return params, p_txt, views.views_a, views.views_b, taus, taus[::-1].copy(), cfg


def step_setup(log_epsilon, n=400, d=16):
    data = gen_longtail_clusters(5, n, 10.0, d, 0.25, 3)
    cfg = RgclConfig(rho=0.8, tau0=0.05, tau_init=0.7, eta_w=0.05, eta_tau=0.5, log_epsilon=log_epsilon)
    return data.inputs, cfg, init_encoder_params(d, 3, 16, "tanh", RandomStream(3, ("enc",)))


def _named(values, names=("value", "grad_w", "grad_tau")):
    return dict(zip(names, map(np.asarray, values)))


def unimodal_evaluation(n, log_epsilon):
    return _named(loss.unimodal_value_and_grads(*instance(n, log_epsilon)))


def bimodal_evaluation(n, log_epsilon):
    return _named(loss.bimodal_value_and_grads(*bimodal_args(n, log_epsilon)), BIMODAL)


def bimodal_evaluation_mirrored(n):
    params, views, taus, cfg = instance(n, 0.0)
    args = (params, params.copy(), views.views_a, views.views_a.copy(), taus, taus.copy(), cfg)
    return _named(loss.bimodal_value_and_grads(*args), BIMODAL)


def oracle_references(n, log_epsilon):
    """Every output of the loop oracle's unimodal and bimodal references, and
    of the bimodal one on mirrored towers."""
    params, views, taus, cfg = instance(n, log_epsilon)
    mirrored = (params, params.copy(), views.views_a, views.views_a.copy(), taus, taus.copy(), cfg)
    outputs = {}
    for name, values, names in [
        ("unimodal", oracle.full_batch_reference(params, views, taus, cfg), ("value", "grad_w", "grad_tau")),
        ("bimodal", oracle.full_batch_reference_bimodal(*bimodal_args(n, log_epsilon)), BIMODAL),
        ("mirrored", oracle.full_batch_reference_bimodal(*mirrored), BIMODAL),
    ]:
        outputs.update(("%s.%s" % (name, key), value) for key, value in _named(values, names).items())
    return outputs


def objectives(n, log_epsilon):
    return _named([loss.objective_unimodal(*instance(n, log_epsilon)),
                   loss.objective_bimodal(*bimodal_args(n, log_epsilon))], ("unimodal", "bimodal"))


def _steps(step, opt, towers):
    """The parameters of each tower after each of 20 steps, then every field
    of the optimizer state."""
    trail = []
    for _ in range(20):
        towers = step(towers)
        trail.append([p.flatten() for p in towers])
    names = ["params"] if len(towers) == 1 else ["params_img", "params_txt"]
    state = {name: getattr(opt, name) for name in STATE_FIELDS if getattr(opt, name) is not None}
    return _named([*map(np.array, zip(*trail)), *state.values()], [*names, *state])


def unimodal_steps(mode, eta_tau, log_epsilon):
    inputs, cfg, params = step_setup(log_epsilon)
    cfg = cfg if eta_tau is None else replace(cfg, eta_tau=eta_tau)
    opt = optimizer.init_optimizer_state(400, params.n_params, cfg, 9, mode)
    return _steps(lambda ps: [optimizer.step_unimodal(opt, ps[0], inputs, cfg, 128, 0.35)], opt, [params])


def bimodal_steps(mirrored, log_epsilon):
    images, cfg, p_img = step_setup(log_epsilon)
    texts = images.copy() if mirrored else images[::-1] + 0.1
    p_txt = p_img.copy() if mirrored else init_encoder_params(16, 3, 16, "tanh", RandomStream(4, ("t",)))
    opt = optimizer.init_optimizer_state(400, p_img.n_params + p_txt.n_params, cfg, 9, sides=2)
    return _steps(lambda ps: optimizer.step_bimodal(opt, *ps, images, texts, cfg, 128), opt, [p_img, p_txt])


def degeneration_check(seed):
    check = harness._vcheck_degeneration(*harness._degeneration_instance(seed))
    return _named([check["name"], check["passed"], *check["detail"].values()], ["name", "passed", *check["detail"]])


def verify_report(seed):
    """Each check of the rgcl verify report: its passed flag and every value
    of its detail."""
    with tempfile.TemporaryDirectory() as out:
        report = harness.run_verify(harness.load_config(data={"seed": seed, "out": out}))
    outputs = {}
    for check in report["checks"]:
        outputs[check["name"] + ".passed"] = check["passed"]
        outputs.update(("%s.%s" % (check["name"], key), value) for key, value in check["detail"].items())
    return _named(outputs.values(), outputs)


# test name: (case function, the tuples of its parameters)
CASES = {
    "test_unimodal_evaluation": (unimodal_evaluation, [(n, e) for e in EPSILONS for n in SIZES]),
    "test_bimodal_evaluation": (bimodal_evaluation, [(n, e) for e in EPSILONS for n in SIZES]),
    "test_bimodal_evaluation_mirrored": (bimodal_evaluation_mirrored, [(n,) for n in SIZES]),
    "test_oracle_references": (oracle_references, [(n, e) for e in EPSILONS for n in ORACLE_SIZES]),
    "test_objectives": (objectives, [(n, e) for e in EPSILONS for n in SIZES + BLOCK_SIZES]),
    "test_unimodal_steps": (unimodal_steps, [(mode, eta_tau, e) for e in EPSILONS for mode, eta_tau
                                             in [("momentum", None), ("adam", None), ("momentum", 0.0)]]),
    "test_bimodal_steps": (bimodal_steps, [(mirrored, e) for e in EPSILONS for mirrored in (False, True)]),
    "test_degeneration_check_matches_original": (degeneration_check, [(seed,) for seed in range(20)]),
    "test_verify_report": (verify_report, [(seed,) for seed in range(5)]),
}


def case_id(name, params):
    return "%s[%s]" % (name, "-".join(map(str, params)))


def cases():
    for name, (run, all_params) in CASES.items():
        for params in all_params:
            yield name, run, params


def blas_core():
    """The kernel set that an OpenBLAS built with DYNAMIC_ARCH picked when
    numpy loaded it (OPENBLAS_CORETYPE overrides the pick), read through
    ctypes from the mapped library; None where /proc/self/maps or the symbol
    cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in os.path.basename(line.split()[-1])}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, "%sopenblas_get_corename%s" % (prefix, suffix), None)
                if get is not None:
                    get.argtypes, get.restype = [], ctypes.c_char_p
                    return get().decode()
    return None


def environment():
    """The host: Python, numpy, machine, BLAS, the BLAS core and a hash of
    the CPU flags, which select the BLAS kernels; None for what cannot be
    read."""
    flags = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:  # "Features" on aarch64
            flags = next((line.split(":", 1)[1] for line in fh if line.startswith(("flags", "Features"))), "")
    flags = " ".join(sorted(flags.split()))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):  # numpy before 1.25 only prints its configuration
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine() or None,
            "blas": blas, "blas_core": blas_core(),
            "cpu_flags_sha256": hashlib.sha256(flags.encode()).hexdigest()[:16] if flags else None}


def exact_here(env):
    """Whether pins recorded in env hold exactly here: on the same host, and
    only if everything that identifies it could be read."""
    here = environment()
    return env == here and None not in here.values()


def load(path=PATH):
    """(environment, {test id: {output: array}}) of a recording."""
    recorded = {}
    with np.load(path) as data:
        for name in data.files:
            key, _, output = name.rpartition("|")
            recorded.setdefault(key, {})[output] = data[name]
    return json.loads(str(recorded.pop("")["environment"])), recorded


def relative_change(got, want, floor=0.0):
    """The largest |got - want| of an output over its largest |want| (or
    floor); inf for a missing or reshaped output, a changed non-float, or a
    NaN or infinity that appeared, vanished or changed."""
    if sorted(got) != sorted(want):
        return np.inf
    worst = 0.0
    for name, w in want.items():
        g = got[name]
        if g.shape != w.shape or (w.dtype.kind != "f" and not np.array_equal(g, w)):
            return np.inf
        if w.dtype.kind == "f":
            finite = np.isfinite(w)
            if not (np.array_equal(np.isfinite(g), finite) and np.array_equal(g[~finite], w[~finite], equal_nan=True)):
                return np.inf
            diff = np.max(np.abs(g[finite] - w[finite]), initial=0.0)
            scale = max(np.max(np.abs(w[finite]), initial=0.0), floor)
            worst = max(worst, diff / scale if scale > 0 else np.inf if diff > 0 else 0.0)
    return worst


# on a host other than the recording's, since BLAS may round differently
TOLERANCE = 1e-10
# worst_rel_err and verify's other details are errors, gaps and values of
# order 1 or below: on another host, 1e-10 absolute
FLOORS = {"test_degeneration_check_matches_original": 1.0, "test_verify_report": 1.0}


def changes(name, params, got, recorded, exact):
    """[(label, change, bound)] for a case's outputs got: against the
    recording, relative to each output's largest entry (or the case's floor),
    exactly where the environment is the recording's; and, where recorded,
    against the seed code's outputs at TOLERANCE, since the negative-role
    sums now run block by block, in another order.  A case missing from the
    recording changes by inf."""
    key = case_id(name, params)
    found = [("recorded", relative_change(got, recorded.get(key, {}), FLOORS.get(name, 0.0)), 0.0 if exact else TOLERANCE)]
    if SEED + key in recorded:
        found.append(("seed", relative_change(got, recorded[SEED + key]), TOLERANCE))
    return found


def record():
    arrays = {"|environment": np.asarray(json.dumps(environment(), sort_keys=True))}
    for name, run, params in cases():
        key = case_id(name, params)
        arrays.update(("%s|%s" % (key, output), value) for output, value in run(*params).items())
    with np.load(PATH) as old:
        arrays.update((name, old[name]) for name in old.files if name.startswith(SEED))
    np.savez_compressed(PATH, **arrays)


def compare(path):
    env, recorded = load(path)
    exact = exact_here(env)
    print("environment:", "as recorded" if exact else "%s, recorded %s" % (environment(), env))
    moved, ids = 0, set()
    for name, run, params in cases():
        key = case_id(name, params)
        ids.add(key)
        found = changes(name, params, run(*params), recorded, exact)
        print("%-52s %s" % (key, "   ".join("%s %.3g" % change[:2] for change in found)))
        moved += any(change > bound for _, change, bound in found)
    for key in sorted(key for key in recorded if key.removeprefix(SEED) not in ids):
        print("%-52s recorded, no longer computed" % key)
        moved += 1
    print("%d of %d cases beyond what the pins accept" % (moved, len(ids)))
    return 1 if moved else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="FILE", help="compare against FILE instead of recording")
    args = parser.parse_args()
    sys.exit(compare(args.compare) if args.compare else record())
