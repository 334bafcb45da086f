"""The three benchmark workloads and their correctness gate.

Every workload draws its inputs from a fixed pool, so that each input has a
reference rho_sigma series recorded from the seed commit in reference/; the
run seed picks which pool members a run uses. A unit is one built-in case,
one (spectrum, xi) series or one matrix-free theta series. run_pass runs
every unit once and check turns the outputs into verdicts, outside the
timed region.

The gate compares every rho_sigma value with its reference at the tolerance
the tier-1 tests pin for rho (1e-8 relative, denominators floored at 1e-12
of the N = 0 value), checks without any reference that rho_xi does not
increase in N (the iterate minimizes it over nested spaces), and for the
built-ins that the emitted CSV and JSON read back to the same series.
Bound-chain verdicts are counted, never gated: the benchmark reports how many
come out false.
"""

import contextlib
import io
import json
import os
import time

import numpy as np

RHO_RTOL = 1e-8
RHO_FLOOR = 1e-12
# rho_xi(N+1) <= rho_xi(N) up to this relative slack plus the same floor
MONOTONE_SLACK = 1e-8
SIGMAS = (0.0, 1.0, 2.0)
POOL_SEED = 20261017

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def series_errors(got, ref):
    """Failures of a {"rho<sigma>": [rho_N]} series against its reference."""
    errors = []
    for key, want in ref.items():
        have = got.get(key)
        if have is None or len(have) != len(want):
            errors.append(f"{key}: {0 if have is None else len(have)} values, "
                          f"reference has {len(want)}")
            continue
        floor = RHO_FLOOR * abs(want[0])
        for N, (a, b) in enumerate(zip(have, want)):
            if not abs(a - b) <= RHO_RTOL * max(abs(a), abs(b), floor):
                errors.append(f"{key} N={N}: {a!r} vs reference {b!r}")
                break
    return errors


def monotone_errors(values, label):
    floor = RHO_FLOOR * abs(values[0])
    for N in range(1, len(values)):
        if not values[N] <= values[N - 1] * (1 + MONOTONE_SLACK) + floor:
            return [f"{label} increases at N={N}: "
                    f"{values[N - 1]!r} -> {values[N]!r}"]
    return []


def rho_key(sigma):
    return f"rho{int(sigma)}"


def record_series(records):
    return {rho_key(s): [r.rho[s] for r in records] for s in SIGMAS}


def chain_counts(records):
    verdicts = false = 0
    for r in records:
        for v in (r.bound_chain_ok, r.lemma_ok):
            if v is not None:
                verdicts += 1
                false += not v
    return verdicts, false


class Workload:
    """A workload builds its inputs in setup(pc, seed, tiny, workdir), which
    returns a state holding "units": [(key, call, spec)], where call(pc) runs
    the unit and spec is what judge() needs. The caller stores the
    reference table in state["reference"] (None at tiny sizes)."""

    name = None

    def reference(self):
        with open(os.path.join(REFERENCE_DIR, self.name + ".json")) as fh:
            return json.load(fh)["units"]

    def run_pass(self, state, pc):
        """[(key, "ok" or "raised", value, seconds)], one per unit."""
        out = []
        for key, call, spec in state["units"]:
            t0 = time.perf_counter()
            try:
                kind, value = "ok", call(pc)
            except Exception as exc:  # a unit that raises is a failed unit
                kind, value = "raised", repr(exc)
            out.append((key, kind, value, time.perf_counter() - t0))
        return out

    def check(self, state, outputs, pc):
        """({key: [errors]} of failed units, verdicts, false verdicts)."""
        failures = {}
        verdicts = false = 0
        for (key, call, spec), (_, kind, value, _) in zip(state["units"],
                                                           outputs):
            if kind != "ok":
                failures[key] = [f"{kind}: {value}"]
                continue
            errs, series, records = self.judge(spec, value, pc)
            ref = state["reference"]
            if ref is not None and series is not None:
                errs += series_errors(series, ref[key])
            if errs:
                failures[key] = errs
            if records is not None:
                v, f = chain_counts(records)
                verdicts += v
                false += f
        return failures, verdicts, false


# built-in cases through the command line front end --------------------------

def _cli_unit(argv):
    def call(pc):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = pc.cli.main(argv)
        return code, err.getvalue().strip()
    return call


class BuiltinDefaults(Workload):
    name = "builtin-defaults"
    TESTS = ("1a", "2a", "1b", "2b")
    N_MAX = 60
    # tiny grids need the narrower Lorentzian box the tier-1 tests use
    TINY = {"n": 256, "nmax": 12, "L": {"1a": 40, "2a": 40, "1b": 25, "2b": 25}}

    def setup(self, pc, seed, tiny, workdir):
        # closed-form cases: the seed has nothing to choose
        units = []
        for test in self.TESTS:
            csv = os.path.join(workdir, f"{test}.csv")
            js = os.path.join(workdir, f"{test}.json")
            argv = ["solve", "--test", test, "--xi", "1",
                    "--nmax", str(self.TINY["nmax"] if tiny else self.N_MAX),
                    "--out", csv, "--json", js]
            if tiny:
                argv += ["--n", str(self.TINY["n"]),
                         "--L", str(self.TINY["L"][test])]
            units.append((test, _cli_unit(argv), (csv, js)))
        return {"units": units, "tiny": tiny, "reference": None}

    def sizes(self, state):
        if state["tiny"]:
            return {"tests": list(self.TESTS), **self.TINY, "xi": 1}
        return {"tests": list(self.TESTS), "n": "per-test default",
                "L": "per-test default", "nmax": self.N_MAX, "xi": 1}

    def judge(self, paths, value, pc):
        code, stderr = value
        if code != 0:
            return [f"exit {code}: {stderr}"], None, None
        try:
            rows = pc.runs.read_csv(paths[0])
            rec = pc.runs.read_json(paths[1])
        except Exception as exc:
            return [f"read back: {exc!r}"], None, None
        series = record_series(rec.records)
        errs = self._roundtrip_errors(rows, rec)
        errs += monotone_errors(series["rho1"], "rho1")
        return errs, series, rec.records

    @staticmethod
    def _roundtrip_errors(rows, rec):
        if [r.N for r in rec.records] != list(range(len(rec.records))):
            return ["json records are not N = 0, 1, 2, ..."]
        if len(rows) != len(rec.records):
            return [f"csv has {len(rows)} rows, json {len(rec.records)}"]
        for row, r in zip(rows, rec.records):
            want = {"N": r.N, "rho0": r.rho[0.0], "rho1": r.rho[1.0],
                    "rho2": r.rho[2.0], "rho1_N2": r.n_sq_rho1,
                    "bound_chain_ok": "" if r.bound_chain_ok is None
                    else str(r.bound_chain_ok).lower()}
            for key, value in want.items():
                if row[key] != value:
                    return [f"N={r.N} {key}: csv {row[key]!r} json {value!r}"]
        return []


# seeded diagonal spectra run to full dimension ------------------------------

def diag_spectrum(m, index):
    """Pool member (m, index): m distinct atoms log-uniform on [1e-3, 1e3],
    standard-normal initial error."""
    rng = np.random.default_rng([POOL_SEED, m, index])
    while True:
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=m))
        if np.unique(lam).size == m:
            return lam, rng.standard_normal(m)


class DiagSeries(Workload):
    name = "diag-series"
    # one spectrum per slot. Up to 16 atoms the zeros come from the mpmath
    # path; 72 and 96 atoms sit above the 64-atom cutoff on the double path
    SLOTS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 72, 96)
    TINY_SLOTS = (2, 3, 5, 8, 66)
    XIS = (1.0, 2.0)
    POOL = 8

    def setup(self, pc, seed, tiny, workdir):
        slots = self.TINY_SLOTS if tiny else self.SLOTS
        picks = np.random.default_rng(seed).integers(self.POOL, size=len(slots))
        units = []
        for m, index in zip(slots, picks):
            units += self.units(pc, m, int(index))
        return {"units": units, "tiny": tiny, "picks": picks.tolist(),
                "slots": list(slots), "reference": None}

    def units(self, pc, m, index):
        """Both xi series of pool spectrum (m, index)."""
        lam, e0 = diag_spectrum(m, index)
        out = []
        for xi in self.XIS:
            cfg = pc.runs.RunConfig(test="custom",
                                    custom={"eigenvalues": lam, "error": e0},
                                    xi=xi, n_max=m)
            out.append((f"m{m}/i{index}/xi{int(xi)}",
                        lambda pc, cfg=cfg: pc.runs.run(cfg), xi))
        return out

    def sizes(self, state):
        return {"atoms_per_spectrum": state["slots"],
                "pool_index_per_spectrum": state["picks"],
                "xi": list(self.XIS), "n_max": "atom count",
                "series": len(state["units"])}

    def judge(self, xi, rec, pc):
        series = record_series(rec.records)
        errs = monotone_errors(series[rho_key(xi)], rho_key(xi))
        return errs, series, rec.records


# dense operator, matrix-free Krylov -----------------------------------------

def dense_case(n, kernel, index):
    """Pool member: A = Q diag(lam) Q^T with Haar-random Q, lam log-uniform on
    [1e-6, 1] with `kernel` zeros; known solution in the range of A."""
    rng = np.random.default_rng([POOL_SEED, n, index])
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q *= np.sign(np.diag(r))
    lam = np.exp(rng.uniform(np.log(1e-6), 0.0, size=n))
    lam[:kernel] = 0.0
    coeff = rng.standard_normal(n)
    coeff[:kernel] = 0.0
    return (q * lam) @ q.T, q @ coeff


class MatrixFree(Workload):
    name = "matrix-free"
    N = 1000
    KERNEL = 3
    N_MAX = 60
    THETAS = (1, 2, 3)
    POOL = 8
    TINY = {"n": 120, "n_max": 10}

    def setup(self, pc, seed, tiny, workdir):
        index = int(np.random.default_rng(seed).integers(self.POOL))
        return self.build(pc, index, tiny)

    def build(self, pc, index, tiny):
        n = self.TINY["n"] if tiny else self.N
        n_max = self.TINY["n_max"] if tiny else self.N_MAX
        matrix, solution = dense_case(n, self.KERNEL, index)
        op = pc.linop.MatrixOperator(matrix)
        problem = pc.krylov.InverseProblem(op, matrix @ solution,
                                           known_solution=solution)
        units = [(self.unit_key(index, theta), self._unit(problem, theta, n_max),
                  (matrix, solution, theta, n_max))
                 for theta in self.THETAS]
        return {"units": units, "index": index, "n": n, "n_max": n_max,
                "tiny": tiny, "reference": None}

    @staticmethod
    def _unit(problem, theta, n_max):
        def call(pc):
            if theta == 1:
                iterates = pc.krylov.run_cg(problem, n_max).iterates
            else:
                iterates = [problem.f0.copy()]
                iterates += [pc.krylov.theta_iterate(problem, theta, N)
                             for N in range(1, n_max + 1)]
            return iterates, {rho_key(s): [pc.diagnostics.rho(problem, f, s)
                                           for f in iterates]
                              for s in SIGMAS}
        return call

    @staticmethod
    def unit_key(index, theta):
        return f"p{index}/theta{theta}"

    def sizes(self, state):
        return {"n": state["n"], "kernel_dim": self.KERNEL,
                "pool_index": state["index"], "n_max": state["n_max"],
                "thetas": list(self.THETAS), "sigmas": list(SIGMAS)}

    def judge(self, spec, value, pc):
        matrix, solution, theta, n_max = spec
        iterates, series = value
        errs = []
        if len(iterates) != n_max + 1:
            errs.append(f"{len(iterates)} iterates, want {n_max + 1}")
        # rho_theta straight from the matrix, independent of powercg
        weighted = []
        for f in iterates:
            d = f - solution
            for _ in range(theta // 2):
                d = matrix @ d
            weighted.append(float(d @ (matrix @ d)) if theta % 2
                            else float(d @ d))
        errs += monotone_errors(weighted, f"rho{theta}")
        return errs, series, None


WORKLOADS = {w.name: w for w in (BuiltinDefaults(), DiagSeries(), MatrixFree())}
