"""Command-line interface.

Subcommands:
  estimate   print the estimated cluster count "k_t = <k>"
  profile    write the full persistence profile as CSV or JSON
  gen        write a synthetic dataset as CSV (coordinates, label last)
  da-trace   anneal a synthetic dataset and compare the first observed
             split against the predicted critical resolution

All output is deterministic for fixed arguments: floats are serialized
with repr and nothing time- or host-dependent is emitted. Exit codes:
0 success, 1 runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .annealing import anneal, posterior_covariance
from .dataset import (
    Dataset,
    gen_gaussian_mixture,
    gen_rings,
    gen_spirals,
    gen_supercluster_grid,
    gen_two_disks,
    load_csv,
    normalize_zscore,
)
from .linalg import _kernel_denominator, largest_eigenvalue
from .persistence import persistence_profile


def _gaussians4(gap: float, sd: float, n: int, seed: int) -> Dataset:
    h = gap / 2.0
    means = [(-h, -h), (-h, h), (h, -h), (h, h)]
    return gen_gaussian_mixture(means, [(sd * sd) * np.eye(2)] * 4, [n] * 4, seed)


def _superclusters(super_spacing: float, sub_spacing: float, sd: float, n: int,
                   seed: int) -> Dataset:
    return gen_supercluster_grid(super_spacing, sub_spacing, (sd * sd) * np.eye(2), n, seed)


# each shape's builder and its parameters in call order, each with the default
# applied when its flag is omitted; the seed is passed last
_GENERATORS = {
    "two-disks": (gen_two_disks, {"R": 1.0, "gap": 4.0, "n": 500}),
    "rings": (gen_rings, {"radii": "1,2,3", "n": 300, "noise": 0.01}),
    "spirals": (gen_spirals, {"arms": 3, "n": 300, "noise": 0.02}),
    "gaussians4": (_gaussians4, {"gap": 10.0, "sd": 0.5, "n": 250}),
    "superclusters": (_superclusters,
                      {"super_spacing": 20.0, "sub_spacing": 2.0, "sd": 0.25, "n": 150}),
}


# what each generator parameter must be, checked in this order; a NaN fails
# every rule. super_spacing's rule reads sub_spacing, checked before it.
_GEN_RULES = {
    "n": ("must be at least 1", lambda x, p: x >= 1),
    "arms": ("must be at least 1", lambda x, p: x >= 1),
    "radii": ("must be positive, finite and strictly increasing",
              lambda x, p: 0 < x[0] and x[-1] < math.inf and all(map(float.__lt__, x, x[1:]))),
    "R": ("must be positive and finite", lambda x, p: 0 < x < math.inf),
    "gap": ("must be positive and finite", lambda x, p: 0 < x < math.inf),
    "noise": ("must be non-negative and finite", lambda x, p: 0 <= x < math.inf),
    "sd": ("must be positive with sd^2 finite and nonzero",
           lambda x, p: x > 0 and 0 < x * x < math.inf),
    "sub_spacing": ("must be positive and finite", lambda x, p: 0 < x < math.inf),
    "super_spacing": ("must be finite and exceed --sub-spacing",
                      lambda x, p: p["sub_spacing"] < x < math.inf),
}


def _build_generated(args) -> Dataset:
    """args.gen's dataset. Each parameter is its flag's value, or the default
    when the flag is omitted, and a value that breaks its rule in _GEN_RULES
    is a usage error that names the flag, before anything is built."""
    build, defaults = _GENERATORS[args.gen]
    given = {name: default if getattr(args, name) is None else getattr(args, name)
             for name, default in defaults.items()}
    params = dict(given)
    if "radii" in params:
        try:
            params["radii"] = [float(r) for r in given["radii"].split(",")]
        except ValueError:
            args.parser.error(f"--radii must be comma-separated numbers, got {given['radii']!r}")
    for name, (rule, holds) in _GEN_RULES.items():
        if name in params and not holds(params[name], params):
            flag = "--" + name.replace("_", "-")
            args.parser.error(f"{flag} {rule}, got {given[name]!r}")
    return build(*params.values(), args.seed)


def _effective_normalize(args) -> bool:
    # file inputs are z-scored unless told otherwise; generators emit
    # coordinates already on their intended scale, so they run raw by default
    if args.normalize is not None:
        return bool(args.normalize)
    return getattr(args, "input", None) is not None


def _load_dataset(args) -> Dataset:
    if getattr(args, "input", None) is not None:
        data = load_csv(args.input, has_header=args.has_header, label_column=args.label_col)
    else:
        data = _build_generated(args)
    if _effective_normalize(args):
        data = normalize_zscore(data)
    return data


def _check_output(path: Optional[str]) -> None:
    """Raise, before the work starts, the OSError that opening path for the
    output would raise. An existing file keeps its bytes, and a file the
    check creates is removed."""
    if path is None:
        return
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _write_text(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _seed(text: str) -> int:
    """The --seed type: numpy seeds its generators only from integers >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_source_args(p: argparse.ArgumentParser, require_gen: bool = False) -> None:
    if require_gen:
        p.add_argument("--gen", choices=_GENERATORS, required=True,
                       help="synthetic dataset to generate")
    else:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", metavar="CSV", help="read points from a CSV file")
        src.add_argument("--gen", choices=_GENERATORS, help="synthetic dataset to generate")
        p.add_argument("--label-col", type=int, default=None,
                       help="0-based column holding integer labels (dropped from the points)")
        p.add_argument("--has-header", action="store_true",
                       help="skip the first CSV row")
    _add_gen_params(p)
    p.add_argument("--seed", type=_seed, default=0, help="random seed (default 0)")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=None,
                   help="z-score each coordinate before analysis "
                   "(default: on for --input, off for --gen)")


def _add_gen_params(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("generator parameters")
    g.add_argument("--R", type=float, default=None, help="disk radius (two-disks)")
    g.add_argument("--gap", type=float, default=None,
                   help="center separation (two-disks, gaussians4)")
    g.add_argument("--n", type=int, default=None, help="points per component")
    g.add_argument("--radii", default=None, help="comma-separated ring radii (rings)")
    g.add_argument("--noise", type=float, default=None, help="jitter sd (rings, spirals)")
    g.add_argument("--arms", type=int, default=None, help="arm count (spirals)")
    g.add_argument("--sd", type=float, default=None,
                   help="component sd (gaussians4, superclusters)")
    g.add_argument("--super-spacing", dest="super_spacing", type=float, default=None,
                   help="supercluster circumradius (superclusters)")
    g.add_argument("--sub-spacing", dest="sub_spacing", type=float, default=None,
                   help="blob circumradius within a supercluster (superclusters)")


def _add_profile_args(p: argparse.ArgumentParser, format_help: str, output_help: str) -> None:
    p.add_argument("--k-max", type=int, required=True, help="largest cluster count to probe")
    p.add_argument("--k-min", type=int, default=1,
                   help="restrict the sweep to k >= k-min (default 1)")
    p.add_argument("--mode", choices=("linear", "kernel"), default="linear",
                   help="feature-space kmeans or kernel-space spectral sweep")
    p.add_argument("--sigma", type=float, default=None,
                   help="Gaussian kernel width (required with --mode kernel)")
    p.add_argument("--restarts", type=int, default=8,
                   help="clustering restarts per k (default 8)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help=format_help)
    p.add_argument("--output", default=None, help=output_help)


def _profile(parser: argparse.ArgumentParser, args, to_stdout: bool):
    """Check the sweep flags, run the sweep and write its profile in --format
    to --output; without --output, to stdout when to_stdout, else nowhere."""
    if args.k_max < 2:
        parser.error("--k-max must be at least 2")
    if not 1 <= args.k_min <= args.k_max - 1:
        parser.error("--k-min must lie in 1..k-max-1")
    if args.restarts < 1:
        parser.error("--restarts must be at least 1")
    if args.mode == "kernel":
        if args.sigma is None:
            parser.error("--sigma is required with --mode kernel")
        try:
            _kernel_denominator(args.sigma)
        except ValueError as e:
            parser.error(f"--{e}")
    data = _load_dataset(args)
    _check_output(args.output)
    prof = persistence_profile(
        data,
        k_max=args.k_max,
        mode=args.mode,
        restarts=args.restarts,
        seed=args.seed,
        sigma=args.sigma,
        k_min=args.k_min,
    )
    if args.output is None and not to_stdout:
        return prof
    if args.format == "json":
        cfg = {
            "source": args.input if args.input is not None else args.gen,
            "mode": args.mode,
            "k_min": args.k_min,
            "k_max": args.k_max,
            "sigma": args.sigma,
            "restarts": args.restarts,
            "seed": args.seed,
            "normalize": _effective_normalize(args),
        }
        doc = {"version": __version__, "config": cfg, "profile": prof.to_json_dict()}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = prof.to_csv()
    _write_text(text, args.output)
    return prof


def _cmd_estimate(parser, args) -> int:
    print(f"k_t = {_profile(parser, args, to_stdout=False).k_t}")
    return 0


def _cmd_profile(parser, args) -> int:
    _profile(parser, args, to_stdout=True)
    return 0


def _cmd_gen(parser, args) -> int:
    data = _build_generated(args)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i in range(data.n):
        row = [repr(float(x)) for x in data.points[i]]
        if data.labels is not None:
            row.append(int(data.labels[i]))
        writer.writerow(row)
    _write_text(buf.getvalue(), args.output)
    return 0


# longest annealing schedule accepted; every step solves a fixed point per
# centroid group, so a longer one would not finish in reasonable time
_MAX_SCHEDULE_STEPS = 100_000


def _validate_da_args(parser: argparse.ArgumentParser, args) -> None:
    # written so that a NaN fails each guard
    if not args.ratio > 1.0:
        parser.error(f"--ratio must exceed 1, got {args.ratio!r}")
    if not 0.0 < args.scale < math.inf:
        parser.error(f"--scale must be positive and finite, got {args.scale!r}")
    lo, hi = args.beta_min, args.beta_max
    for flag, value in (("--beta-min", lo), ("--beta-max", hi)):
        if value is not None and not 0.0 < value < math.inf:
            parser.error(f"{flag} must be positive and finite, got {value!r}")
    if lo is not None and hi is not None and not lo < hi:
        parser.error("--beta-min must be below --beta-max")


def _geometric_schedule(beta_min: float, beta_max: float, ratio: float) -> List[float]:
    # a bound derived from the data is first known here
    if not 0 < beta_min < beta_max:
        raise ValueError("require 0 < beta-min < beta-max")
    # the schedule has floor(steps) + 1 entries; an infinite count fails too
    steps = (math.log(beta_max) - math.log(beta_min)) / math.log(ratio)
    if not steps < _MAX_SCHEDULE_STEPS:
        raise ValueError(
            f"schedule would exceed {_MAX_SCHEDULE_STEPS} steps; raise --ratio "
            "or narrow --beta-min..--beta-max"
        )
    betas = [beta_min]
    while betas[-1] * ratio <= beta_max:
        betas.append(betas[-1] * ratio)
    return betas


def _cmd_da_trace(parser, args) -> int:
    _validate_da_args(parser, args)
    data = _load_dataset(args)
    _check_output(args.output)
    mean = np.average(data.points, axis=0, weights=data.weights)
    C = posterior_covariance(data, mean[None, :], 1.0, 0)
    lam, _ = largest_eigenvalue(C)
    if lam <= 0:
        raise ValueError("degenerate dataset: zero covariance")
    predicted = 1.0 / (2.0 * lam)
    # default schedule brackets the predicted first transition
    beta_min = args.beta_min if args.beta_min is not None else predicted / 4.0
    beta_max = args.beta_max if args.beta_max is not None else 20.0 * predicted
    schedule = _geometric_schedule(beta_min, beta_max, args.ratio)
    trace = anneal(data, schedule, split_perturbation_scale=args.scale)
    if args.output is not None:
        _write_text(trace.to_csv(), args.output)
    print(f"predicted critical beta = {predicted!r}")
    if not trace.split_events:
        print("no split observed; raise --beta-max")
        return 1
    observed = trace.split_events[0][0]
    rel = abs(observed - predicted) / predicted
    print(f"first split observed at beta = {observed!r}")
    print(f"relative error = {100.0 * rel:.2f}%")
    print(f"final distinct centroids = {trace.schedule[-1][1]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterpersist",
        description="Estimate the number of clusters from persistence of "
        "clustering solutions across resolution.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_est = subs.add_parser("estimate", help="print the estimated cluster count")
    _add_source_args(p_est)
    _add_profile_args(p_est, "profile format when --output is given (default csv)",
                      "also write the full profile to this path")
    p_est.set_defaults(func=_cmd_estimate, parser=p_est)

    p_prof = subs.add_parser("profile", help="write the persistence profile")
    _add_source_args(p_prof)
    _add_profile_args(p_prof, "output format (default csv)", "output path (default stdout)")
    p_prof.set_defaults(func=_cmd_profile, parser=p_prof)

    p_gen = subs.add_parser("gen", help="write a synthetic dataset as CSV")
    p_gen.add_argument("gen", metavar="shape", choices=_GENERATORS, help="dataset family")
    _add_gen_params(p_gen)
    p_gen.add_argument("--seed", type=_seed, default=0, help="random seed (default 0)")
    p_gen.add_argument("--output", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=_cmd_gen, parser=p_gen)

    p_da = subs.add_parser(
        "da-trace",
        help="anneal and compare the first split against the predicted "
        "critical resolution",
    )
    _add_source_args(p_da, require_gen=True)
    p_da.add_argument("--beta-min", dest="beta_min", type=float, default=None,
                      help="schedule start (default: predicted transition / 4)")
    p_da.add_argument("--beta-max", dest="beta_max", type=float, default=None,
                      help="schedule end (default: 20 x predicted transition)")
    p_da.add_argument("--ratio", type=float, default=1.02,
                      help="geometric schedule ratio (default 1.02)")
    p_da.add_argument("--scale", type=float, default=1e-6,
                      help="split perturbation scale as a diameter fraction")
    p_da.add_argument("--output", default=None, help="write the trace CSV here")
    p_da.set_defaults(func=_cmd_da_trace, parser=p_da)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args.parser, args)
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
