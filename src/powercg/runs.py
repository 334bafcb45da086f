"""Built-in experiments: construct the periodic surrogates, run the solver,
record convergence series, emit CSV/JSON.

Four built-in cases, two solution shapes times two operators:
  1a  -d^2/dx^2 + 1 with a Gaussian solution      (well posed)
  2a  -d^2/dx^2     with a Gaussian solution      (spectrum reaches 0)
  1b  -d^2/dx^2 + 1 with a Lorentzian solution    (well posed, fat tails)
  2b  -d^2/dx^2     with a Lorentzian solution    (spectrum reaches 0, fat tails)
Right-hand sides are sampled from closed forms; the mean is projected off
both vectors for the kernel-bearing cases. A consistency gate between the
sampled solution and the sampled datum guards every construction.
"""

import json
import os
import time
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .diagnostics import ConvergenceRecord, rho_evaluator
from .krylov import ConsistencyError, InverseProblem, spectral_iterates
from .linop import DiagonalOperator, FourierOperator, KernelComponentError
from .measures import (WEIGHT_FLOOR, DiscreteSpectralMeasure, spectral_measure,
                       weight_by_power)
from .orthopoly import (CHAIN_SLACK, EDGE_SLACK, chain_table,
                        check_separation, orthogonality_gap,
                        residual_polynomials)

SCHEMA_VERSION = 1
CSV_HEADER = "N, rho0, rho1, rho1_N2, rho2, delta_n, ritz_min, ritz_max, bound_chain_ok"

TEST_IDS = ("1a", "1b", "2a", "2b")
# (n, L): Gaussian tests resolve fully in a narrow box; the Lorentzian pair
# needs L = 200 for its 1/x^2 tails. 2b additionally needs the n = 8192 tail
# resolution (its behavior lives in the high end of the spectrum). 1b has
# A >= 1 and kappa ~ (pi n / 2L)^2, so finer grids only slow it down: by
# N = 60 its residual drops to 1.1e-6 of step 1 at n = 2048 but 0.13 at
# n = 8192, and the N^2 rho1 quartile growth is 0.0026 vs 1.39.
TEST_DEFAULTS = {
    "1a": (2048, 40.0),
    "2a": (2048, 40.0),
    "1b": (2048, 200.0),
    "2b": (8192, 200.0),
}


class VersionError(ValueError):
    pass


def _cast(field, value, kind):
    """kind(value), or ValueError naming field; a str, bytes or bool is
    refused, and where kind is int so is a value that is not integral."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{field} = {value!r}: {exc}") from None
    if isinstance(value, (str, bytes, bool)) or (kind is int and out != value):
        raise ValueError(f"{field} = {value!r}: not "
                         f"{'an integer' if kind is int else 'numeric'}")
    return out


def _gauss_f(x):
    return np.exp(-x * x)


def _gauss_neg_lap(x):
    return (2.0 - 4.0 * x * x) * np.exp(-x * x)


def _lorentz_f(x):
    return 1.0 / (1.0 + x * x)


def _lorentz_neg_lap(x):
    return (2.0 - 6.0 * x * x) / (1.0 + x * x) ** 3


_CASES = {
    # id: (shift, f, g)  with  g = -f'' + shift * f
    "1a": (1.0, _gauss_f, lambda x: (3.0 - 4.0 * x * x) * np.exp(-x * x)),
    "2a": (0.0, _gauss_f, _gauss_neg_lap),
    "1b": (1.0, _lorentz_f,
           lambda x: _lorentz_neg_lap(x) + _lorentz_f(x)),
    "2b": (0.0, _lorentz_f, _lorentz_neg_lap),
}


def consistency_tolerance(test, n, L):
    """Relative-to-||g|| gate width for the sampled manufactured solution.

    Gaussian tails die at machine level inside any sensible box, so the gate
    is tight. The Lorentzian pair carries two measured error sources: the
    periodization mismatch of 1/x^2 tails, ~1/L^2, and coefficient aliasing
    ~exp(-pi n / L) once the grid stops resolving the spectrum. Constants
    give ~30x headroom at the defaults while any O(1) construction bug still
    fails the gate.
    """
    if test in ("1a", "2a"):
        return 1e-6
    return 3.0 / L ** 2 + 2.0 * np.exp(-np.pi * n / L) + 1e-12


def build_test_case(test, n=None, L=None):
    """Sample a built-in case onto the periodic grid and gate it.

    Kernel-bearing cases get the mean of both vectors subtracted (the datum
    must be attainable, the solution is then the minimal-norm one); the two
    subtracted constants are recorded in problem.notes.
    """
    if test not in _CASES:
        raise ValueError(f"unknown test id {test!r}, expected one of {TEST_IDS}")
    dn, dL = TEST_DEFAULTS[test]
    n = dn if n is None else int(n)
    L = dL if L is None else float(L)
    shift, f_fun, g_fun = _CASES[test]
    op = FourierOperator(n, L, shift=shift)
    x = op.grid()
    f = f_fun(x)
    g = g_fun(x)
    notes = {"test": test, "n": n, "L": L}
    if shift == 0.0:
        g_mean = float(g.mean())
        f_mean = float(f.mean())
        g = g - g_mean
        f = f - f_mean
        notes["subtracted_mean_g"] = g_mean
        notes["subtracted_mean_f"] = f_mean
    rel = consistency_tolerance(test, n, L)
    scale = op.norm_estimate() * float(np.linalg.norm(f)) + float(np.linalg.norm(g))
    consistency_tol = rel * float(np.linalg.norm(g)) / scale
    notes["consistency_tol"] = consistency_tol
    return InverseProblem(op, g, f0=np.zeros(n), known_solution=f,
                          consistency_tol=consistency_tol, notes=notes)


def build_custom_case(spec):
    """Diagonal problem from explicit data or a seeded draw.

    spec keys: either {"eigenvalues": [...], "error": [...]} (error = initial
    error coefficients at f0 = 0, so the solution is their negation) or
    {"dimension": d, "seed": s, "kappa": k} for a log-uniform spectrum in
    [1/k, 1] with a unit-scale random error. Raises ValueError on any other
    spec.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"custom spec must be a mapping, got {type(spec).__name__}")
    if "eigenvalues" in spec:
        if "error" not in spec:
            raise ValueError("custom spec with 'eigenvalues' needs 'error'")
        lam = np.asarray(spec["eigenvalues"], dtype=float)
        e0 = np.asarray(spec["error"], dtype=float)
        if lam.ndim != 1 or e0.shape != lam.shape:
            raise ValueError(
                f"custom spec: 'eigenvalues' and 'error' must be 1-d of equal "
                f"length, got shapes {lam.shape} and {e0.shape}")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(e0))):
            raise ValueError("custom spec: 'eigenvalues' and 'error' must be finite")
        order = np.argsort(lam)
        lam = lam[order]
        e0 = e0[order]
    elif "dimension" in spec:
        d = _cast("custom spec: 'dimension'", spec["dimension"], int)
        seed = _cast("custom spec: 'seed'", spec.get("seed", 0), int)
        kappa = _cast("custom spec: 'kappa'", spec.get("kappa", 1e3), float)
        if not (kappa > 0 and 0.0 < 1.0 / kappa < np.inf):
            raise ValueError(f"custom spec: 'kappa' must be finite and > 0, "
                             f"with 1/kappa finite, got {kappa}")
        rng = np.random.default_rng(seed)
        lam = np.sort(np.exp(rng.uniform(np.log(1.0 / kappa), 0.0, size=d)))
        e0 = rng.standard_normal(d)
    else:
        raise ValueError("custom spec needs 'eigenvalues' and 'error', "
                         "or 'dimension'")
    op = DiagonalOperator(lam)
    sol = -e0
    g = lam * sol
    return InverseProblem(op, g, f0=np.zeros(lam.size), known_solution=sol,
                          notes={"test": "custom"})


@dataclass
class RunConfig:
    test: str
    n: int = None
    L: float = None
    xi: float = 1.0
    n_max: int = 60
    sigmas: tuple = (0.0, 1.0, 2.0)
    out: str = None
    json_out: str = None
    custom: dict = None

    def _cast(self, name, kind):
        return _cast(f"config field {name!r}", getattr(self, name), kind)

    def resolve(self):
        if self.test in TEST_IDS:
            dn, dL = TEST_DEFAULTS[self.test]
            self.n = dn if self.n is None else self._cast("n", int)
            self.L = dL if self.L is None else self._cast("L", float)
            if self.n <= 0 or (self.n & (self.n - 1)) != 0:
                raise ValueError(f"n must be a power of two, got {self.n}")
            if not 0 < self.L < np.inf:
                raise ValueError(
                    f"L must be positive and finite, got {self.L}")
        elif self.test == "custom":
            if not self.custom:
                raise ValueError("custom test needs a custom problem spec")
            for name in ("n", "L"):
                if getattr(self, name) is not None:
                    raise ValueError(f"config field {name!r} has no meaning "
                                     f"for a custom test")
        else:
            raise ValueError(
                f"unknown test id {self.test!r}, expected {TEST_IDS + ('custom',)}")
        self.xi = self._cast("xi", float)
        if not 0 <= self.xi < np.inf:
            raise ValueError(f"xi must be finite and >= 0, got {self.xi}")
        self.n_max = self._cast("n_max", int)
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if self.test in TEST_IDS and self.n_max > self.n:
            raise ValueError(f"n_max {self.n_max} exceeds n = {self.n}")
        if not isinstance(self.sigmas, (list, tuple, np.ndarray)):
            raise ValueError(f"'sigmas' must be a list, got {self.sigmas!r}")
        self.sigmas = tuple(_cast(f"config field 'sigmas' item {i}", s, float)
                            for i, s in enumerate(self.sigmas))
        if not np.all(np.isfinite(self.sigmas)):
            raise ValueError(f"sigmas must be finite, got {self.sigmas}")
        for name in ("out", "json_out"):
            value = getattr(self, name)
            if not (value is None or isinstance(value, (str, os.PathLike))):
                raise ValueError(f"config field {name!r} must be a path, "
                                 f"got {value!r}")
        return self


# (name, default) of every ConvergenceRecord field but rho, taken once. A
# record's JSON object has one key per field; a float that is not finite is
# null, and rho is {repr(sigma): value}
_FIELDS = tuple((f.name, f.default) for f in fields(ConvergenceRecord)
                if f.name != "rho")


@dataclass
class RunRecord:
    records: list
    metadata: dict

    def to_dict(self):
        recs = []
        for r in self.records:
            obj = {"rho": {repr(s): _num(v) for s, v in sorted(r.rho.items())}}
            for name, _ in _FIELDS:
                v = getattr(r, name)
                obj[name] = _num(v) if isinstance(v, float) else v
            recs.append(obj)
        return {"schema_version": SCHEMA_VERSION,
                "metadata": self.metadata,
                "records": recs}


def _num(v):
    return float(v) if np.isfinite(v) else None


def _build_problem(config):
    if config.test == "custom":
        return build_custom_case(config.custom)
    return build_test_case(config.test, config.n, config.L)


def _measures(problem, xi, sigmas):
    """(base, {sigma: mu_sigma}, nu): base puts |e0|^2 on the problem's
    atoms, an eigenvalue's weight at or below WEIGHT_FLOOR adding nothing;
    mu_sigma and nu = mu_{xi+1}, the measure the residual polynomials are
    orthogonal to, are its power reweightings."""
    w = np.abs(problem.e0) ** 2
    w[w <= WEIGHT_FLOOR] = 0.0
    base = DiscreteSpectralMeasure(problem.atoms,
                                   np.bincount(problem.atom_index, weights=w))
    mu = {s: weight_by_power(base, s) for s in sigmas}
    return base, mu, weight_by_power(base, xi + 1.0)


def _add_chain(records, table, mu, xi):
    """Give records[N], N = 1..len(table.zeros), the node data of the
    table's degree N and the chain verdicts for every sigma of mu (never
    empty: sigma = 0 is always checked), one chain table per sigma over all
    those degrees."""
    reached = len(table.zeros)
    chain_ok = lemma_ok = True
    for s, m in mu.items():
        rhos = [r.rho[s] for r in records[1:reached + 1]]
        t = chain_table(rhos, table, m, xi, s)
        chain_ok = chain_ok & t.ok
        lemma_ok = lemma_ok & t.lemma_ok
    for r, z, d, ok, lem in zip(records[1:], table.zeros, table.delta,
                                chain_ok, lemma_ok):
        r.delta_n = float(d)
        r.ritz_min = float(z[0])
        r.ritz_max = float(z[-1])
        r.bound_chain_ok = bool(ok)
        r.lemma_ok = bool(lem)


def run(config):
    """Execute the configured experiment and assemble the record series.

    Every problem a config can name is spectral (a FourierOperator or a
    DiagonalOperator), so run() takes every xi through the eigenbasis
    minimizer, one least-squares ladder for all degrees. Krylov recurrences
    in floating point leak out of the exact Krylov space once the
    recurrence coefficients of the orthogonality measure collapse, and the
    leaked iterates break the rho / node-polynomial identity that the
    records are meant to exhibit. Each record the zero table reaches also
    carries its node data (smallest and largest zero, delta_n) and its
    chain verdicts, the chain taken once per sigma over all degrees.
    """
    config = config.resolve()
    t0 = time.perf_counter()
    problem = _build_problem(config)
    # lazy: its checks run here, but each iterate is made in the record
    # loop, after the zero table, and dropped before the next one is made;
    # n_max = 0 yields f0 alone, the N = 0 record
    iterates = spectral_iterates(problem, config.xi, config.n_max)
    sigmas = tuple(sorted(set(config.sigmas) | {0.0, 1.0, 2.0}))
    # built before any work, so a sigma whose power overflows fails here
    rho_of = rho_evaluator(problem, sigmas)
    base, mu, nu = _measures(problem, config.xi,
                             [s for s in sigmas if 0.0 <= s <= config.xi])
    # s is evaluated once per degree on base's support, which holds every
    # mu_sigma's atoms: weight_by_power only drops atoms
    table = residual_polynomials(nu, config.n_max, base.support)
    records = [ConvergenceRecord(N=N, rho=r, n_sq_rho1=float(N * N * r[1.0]))
               for N, r in enumerate(map(rho_of, iterates))]
    _add_chain(records, table, mu, config.xi)

    op = problem.operator
    metadata = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "test": config.test, "n": config.n, "L": config.L,
            "xi": config.xi, "n_max": config.n_max,
            "sigmas": list(config.sigmas),
        },
        "norm_estimate": float(op.norm_estimate()),
        "dimension": problem.dimension,
        "notes": problem.notes,
        "wall_time_s": time.perf_counter() - t0,
    }
    # lower spectral edge, for rates that depend on kappa
    live = op.eigenvalues()[~problem.kernel_mask]
    metadata["lambda_min"] = float(live.min()) if live.size else None
    out = RunRecord(records=records, metadata=metadata)
    if config.out:
        write_csv(out, config.out)
    if config.json_out:
        emit_json(out, config.json_out)
    return out


def _fmt(v):
    return repr(float(v))


def csv_lines(record):
    lines = [CSV_HEADER]
    for r in record.records:
        ok = "" if r.bound_chain_ok is None else ("true" if r.bound_chain_ok else "false")
        lines.append(", ".join([
            str(r.N), _fmt(r.rho[0.0]), _fmt(r.rho[1.0]), _fmt(r.n_sq_rho1),
            _fmt(r.rho[2.0]), _fmt(r.delta_n), _fmt(r.ritz_min),
            _fmt(r.ritz_max), ok]))
    return lines


def write_csv(record, path):
    with open(path, "w") as fh:
        fh.write("\n".join(csv_lines(record)) + "\n")


def read_csv(path):
    """Rows as dicts with parsed floats (nan round-trips; empty stays '')."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path} is empty, expected the header {CSV_HEADER!r}")
    header = [h.strip() for h in lines[0].split(",")]
    rows = []
    for i, ln in enumerate(lines[1:]):
        try:
            rows.append({key: int(v) if key == "N" else
                         v.strip() if key == "bound_chain_ok" else float(v)
                         for key, v in zip(header, ln.split(","), strict=True)})
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    return rows


def emit_json(record, path):
    # encoded before the file is opened: a float that is not finite raises
    # ValueError and leaves no partial file
    text = json.dumps(record.to_dict(), indent=1, sort_keys=True,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} holds a JSON {type(data).__name__}, not an object")
    ver = data.get("schema_version")
    if ver != SCHEMA_VERSION:
        raise VersionError(
            f"unsupported schema version {ver!r} in {path}, expected {SCHEMA_VERSION}")
    if not isinstance(data.get("records"), list) or "metadata" not in data:
        raise ValueError(f"{path} lacks a 'records' array or 'metadata'")
    records = []
    for i, obj in enumerate(data["records"]):
        # the inverse of to_dict: a null is nan unless the field's default
        # is None (a verdict), and a key the file lacks (written before the
        # field existed) takes the field's default; a record that is not an
        # object, or lacks rho or a field without a default, is refused
        try:
            kwargs = {"rho": {float(s): np.nan if v is None else v
                              for s, v in obj["rho"].items()}}
            for name, default in _FIELDS:
                v = obj[name] if name in obj or default is MISSING else default
                kwargs[name] = (np.nan if v is None and default is not None
                                else v)
            records.append(ConvergenceRecord(**kwargs))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: record {i} is malformed: "
                             f"{exc!r}") from None
    return RunRecord(records=records, metadata=data["metadata"])


def verify_case(config):
    """Construction gate plus fast invariants; list of (name, ok, detail)."""
    config = config.resolve()
    checks = []
    try:
        problem = _build_problem(config)
        checks.append(("consistency_gate", True,
                       f"tol {problem.consistency_tol:.3e}"))
    except (ConsistencyError, KernelComponentError) as exc:
        checks.append(("consistency_gate", False, str(exc)))
        return checks
    op = problem.operator
    rng = np.random.default_rng(20260814)
    nrm = op.norm_estimate()
    worst_sym = 0.0
    worst_pos = 0.0
    for _ in range(5):
        a = rng.standard_normal(op.dimension)
        b = rng.standard_normal(op.dimension)
        Aa = op.apply(a)
        gap = abs(float(np.dot(Aa, b)) - float(np.dot(a, op.apply(b))))
        scale = nrm * np.linalg.norm(a) * np.linalg.norm(b)
        worst_sym = max(worst_sym, gap / max(scale, 1e-300))
        quad = float(np.dot(a, Aa))
        worst_pos = min(worst_pos, quad / max(nrm * np.dot(a, a), 1e-300))
    sym_ok = worst_sym <= 1e-10
    pos_ok = worst_pos >= -1e-10
    checks.append(("operator_symmetry", sym_ok, f"max rel gap {worst_sym:.3e}"))
    checks.append(("operator_nonnegative", pos_ok, f"min rel quad {worst_pos:.3e}"))
    x = rng.standard_normal(op.dimension)
    m = spectral_measure(op, x)
    mass_gap = abs(m.total_mass() - float(np.dot(x, x))) / float(np.dot(x, x))
    checks.append(("measure_mass", mass_gap <= 1e-10,
                   f"rel gap {mass_gap:.3e}"))
    base, _, nu = _measures(problem, config.xi, ())
    k = min(8, max(1, len(nu) - 1))
    table = residual_polynomials(nu, k, base.support)
    seps = [check_separation(a, b)
            for a, b in zip(table.zeros, table.zeros[1:])]
    sep_ok = all(ok for ok, _ in seps)
    worst = max([0.0] + [v for _, v in seps])
    checks.append(("zeros_interlace", sep_ok, f"{len(table.zeros)} degrees, "
                   f"max violation {worst:.3e}"))
    worst = max([0.0] + orthogonality_gap(table.left, table.right).tolist())
    checks.append(("split_orthogonality", worst <= CHAIN_SLACK,
                   f"max rel gap {worst:.3e}"))
    edge_ok = all(z[0] * d >= 1.0 - EDGE_SLACK
                  for z, d in zip(table.zeros, table.delta))
    checks.append(("edge_times_delta", edge_ok, "z1 * delta >= 1"))
    return checks
