"""Command line front end.

  powercg solve --test 1a --n 2048 --L 40 --xi 1 --nmax 60 --sigma 0,1,2 \
      --out run.csv [--json run.json]
  powercg verify --test 1b

Exit codes: 0 success, 2 invariant or verification failure, 1 usage error.
A JSON file supplied via --config seeds the run configuration; explicit
flags override it.
"""

import argparse
import json
import sys

from .krylov import ConsistencyError
from .linop import KernelComponentError
from .runs import RunConfig, TEST_IDS, run, verify_case


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for invariant failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="powercg",
                     description="power-weighted Krylov runs on the built-in "
                                 "differential surrogates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--test", required=False,
                       choices=list(TEST_IDS) + ["custom"],
                       help="built-in case id or 'custom' (with --config)")
        p.add_argument("--n", type=int, default=None,
                       help="grid size, power of two (per-test default)")
        p.add_argument("--L", type=float, default=None,
                       help="half width of the periodic box (per-test default)")
        p.add_argument("--xi", type=float, default=None,
                       help="weight exponent of the iteration (default 1)")
        p.add_argument("--nmax", type=int, default=None,
                       help="number of iterations (default 60)")
        p.add_argument("--sigma", type=str, default=None,
                       help="comma-separated rho exponents (default 0,1,2)")
        p.add_argument("--tol-rel", type=float, default=None,
                       help="relative residual stop (default 1e-12)")
        p.add_argument("--tol-abs", type=float, default=None,
                       help="absolute residual stop (default 0)")
        p.add_argument("--consistency-tol", type=float, default=None,
                       help="override the construction gate width")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with configuration fields")

    ps = sub.add_parser("solve", help="run the solver and emit the series")
    common(ps)
    ps.add_argument("--out", type=str, default=None, help="CSV output path")
    ps.add_argument("--json", dest="json_out", type=str, default=None,
                    help="JSON output path")
    pv = sub.add_parser("verify", help="construction gate and invariant suite")
    common(pv)
    return parser


def _config_from_args(args):
    merged = {}
    if args.config:
        try:
            with open(args.config) as fh:
                merged.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read --config {args.config}: {exc}")
    flag_map = {
        "test": args.test, "n": args.n, "L": args.L, "xi": args.xi,
        "n_max": args.nmax, "tol_rel": args.tol_rel, "tol_abs": args.tol_abs,
        "consistency_tol": args.consistency_tol,
        "out": getattr(args, "out", None),
        "json_out": getattr(args, "json_out", None),
    }
    if args.sigma is not None:
        try:
            flag_map["sigmas"] = tuple(float(s) for s in args.sigma.split(","))
        except ValueError:
            raise UsageError(f"cannot parse --sigma {args.sigma!r}")
    for k, v in flag_map.items():
        if v is not None:
            merged[k] = v
    if "test" not in merged:
        raise UsageError("--test is required (directly or via --config)")
    if "sigmas" in merged:
        merged["sigmas"] = tuple(float(s) for s in merged["sigmas"])
    known = {f.name for f in RunConfig.__dataclass_fields__.values()}
    unknown = set(merged) - known
    if unknown:
        raise UsageError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**merged)


class UsageError(ValueError):
    pass


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse --help exits 0; our error() raises 1
        return exc.code if exc.code is not None else 0
    try:
        config = _config_from_args(args)
        config.resolve()
    except ValueError as exc:
        print(f"powercg: error: {exc}", file=sys.stderr)
        return 1
    if args.command == "solve":
        try:
            record = run(config)
        except (ConsistencyError, KernelComponentError) as exc:
            print(f"powercg: invariant failure: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"powercg: error: {exc}", file=sys.stderr)
            return 1
        last = record.records[-1] if record.records else None
        where = config.out or "(no file)"
        if last is not None:
            print(f"{config.test}: {len(record.records)} records, "
                  f"rho0 {last.rho[0.0]:.6e} rho1 {last.rho[1.0]:.6e} "
                  f"rho2 {last.rho[2.0]:.6e} at N={last.N}; csv -> {where}")
        else:
            print(f"{config.test}: metadata-only record; csv -> {where}")
        return 0
    # verify
    try:
        checks = verify_case(config)
    except ValueError as exc:
        print(f"powercg: error: {exc}", file=sys.stderr)
        return 1
    ok = True
    for name, passed, detail in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
