"""The three benchmark workloads.

Each workload is a batch job of one caller (a closed loop with one client).
`batch` runs the workload's fixed work once, as steps timed by a
`clock.Stopwatch`, and checks its answers; `finish` checks the answers
pooled over a run; `probe` runs the extra measurements of a traced run.
Work the CLI can express goes through `xistep.cli.main(argv)`; the library
API is used only where the CLI cannot express the work. The library is
called through module attributes (`moments.stationary_system`, not a bound
name) so that the tracer's wrappers see these calls.

Every replica stream, recorded path and grid order derives from the seed,
so the same seed gives the same work. The Monte Carlo workloads draw fresh
streams in every batch of a run, so the median over batches also averages
the sampling noise in their standard errors, and they check their answers
once per run on the estimates pooled over all batches.
"""

import collections
import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from xistep import cli, linalg, moments, simulator
from xistep.config import load_config
from xistep.setfun import DyadicSet, SetFunction, TensorFunction
from xistep.simplex import CollisionProfile, RateTable

CONFIGS = Path(__file__).resolve().parent / "configs"


class Ops:
    """Attempted and failed operations: replicas, CLI calls and answer
    checks. A truncated replica, a nonzero CLI exit or a failed check is a
    failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = collections.Counter()

    def add(self, n, failed=0, name=""):
        self.attempted += n
        if failed:
            self.failed += failed
            self.failures[name] += failed

    def check(self, name, ok):
        self.add(1, 0 if ok else 1, name)
        return ok


def run_cli(argv, ops):
    """`xistep.cli.main(argv)` with its output captured. Returns the parsed
    JSON report, or None when the command failed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as e:     # argparse and the worker-count check exit
        status = e.code
    except Exception as e:  # a crash is a failed operation, not a lost run
        status, err = None, io.StringIO(f"{type(e).__name__}: {e}")
    ok = ops.check(f"cli {argv[0]} exit status {status}: "
                   f"{err.getvalue().strip()[:200]}", status == 0)
    return json.loads(out.getvalue()) if ok else None


def batch_seed(seed, k):
    """The CLI seed of the k-th batch of a run."""
    return seed * 1000 + k


class Pooled:
    """Independent estimates of one quantity, pooled by replica count."""

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.var = 0.0

    def add(self, mean, se, n):
        self.n += n
        self.total += mean * n
        self.var += (se * n) ** 2

    @property
    def mean(self):
        return self.total / self.n

    @property
    def se(self):
        return math.sqrt(self.var) / self.n


def floated(f):
    """The float-coefficient copy of f that the estimators run on."""
    return TensorFunction(tuple(
        SetFunction(g.level, tuple(float(c) for c in g.coeffs))
        for g in f.factors))


def monomial(cfg, n, m):
    """Tensor and colony labels of the (n, m) moment monomial, as the CLI
    builds them."""
    return (TensorFunction.indicator_power(cfg.e_star, n + m),
            (1,) * n + (2,) * m)


def percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


def replica_probe(ops, tracer, seed, replicas, run_one, reported_mean):
    """Time public `run_until` once per replica on the estimator's own
    `replica_rng(seed, rep)` streams, take the event mix from the returned
    trajectories, and check that the mean of the per-replica values is the
    estimator's mean to the last bit."""
    values, micros, trajs = [], [], []
    with tracer.span("bench.replica_probe"):
        for rep in range(replicas):
            rng = simulator.replica_rng(seed, rep)
            with tracer.span("simulator.run_until") as s:
                value, traj = run_one(rng)
            micros.append((s["end_ns"] - s["start_ns"]) / 1e3)
            values.append(value)
            trajs.append(traj)
    truncated = sum(t.truncated for t in trajs)
    ops.add(replicas, truncated, "truncated probe replicas")
    matches = sum(values) / replicas == reported_mean
    ops.check("probe mean equals the estimator's mean", matches)
    events = [ev for t in trajs for ev in t.events]
    coal = [ev for ev in events if ev.kind == "coalescence"]
    # a multiple merger drops more than one lineage at once
    multi = sum(1 for ev in coal if sum(len(b) - 1 for b in ev.detail) > 1)
    micros.sort()
    return {"simulator.replica_p50_us": percentile(micros, 0.5),
            "simulator.replica_p99_us": percentile(micros, 0.99),
            "simulator.events_per_replica": len(events) / replicas,
            "simulator.coalescence_share": len(coal) / max(1, len(events)),
            "simulator.multi_merger_share": multi / max(1, len(coal)),
            "simulator.truncated": truncated,
            "simulator.replica_mean_matches": int(matches)}


class McStationary:
    """CLI `stationary --mode mc` on the atom model, indices (2,2), (4,0).
    Nearly all of its time is the dual run to absorption in `simulator`
    (through `partitions` and `setfun`); the rate table and the order-4
    exact reference take milliseconds."""

    name = "mc_stationary"
    config = "mc_stationary.json"
    throughput_name = "replicas_per_s"
    headline = "2,2"
    REPLICAS = {"full": 3000, "tiny": 200}

    def __init__(self, seed, size, expected):
        self.seed = seed
        self.batches = 0
        self.replicas = self.REPLICAS[size]
        self.expected = expected["mc_stationary"]
        self.path = str(CONFIGS / self.config)
        self.report = None
        self.pooled = collections.defaultdict(Pooled)

    @staticmethod
    def model_objects(cfg):
        return cfg.model_params()

    def batch(self, ops, sw):
        self.batch_seed = batch_seed(self.seed, self.batches)
        self.batches += 1
        with sw.step("stationary"):
            report = run_cli(["stationary", "--config", self.path,
                              "--seed", str(self.batch_seed),
                              "--replicas", str(self.replicas)], ops)
        self.report = report
        if report is None:
            return {"samples": 0, "busy": ("stationary",)}
        rows = report["estimates"]
        ops.add(sum(r["replicas"] for r in rows.values()))
        for idx, row in sorted(rows.items()):
            ops.check(f"{idx}: embedded exact is the recorded one",
                      Fraction(row["exact"]) == Fraction(self.expected[idx]))
            self.pooled[idx].add(row["mean"], row["std_error"],
                                 row["replicas"])
        head = rows[self.headline]
        return {"samples": sum(r["replicas"] for r in rows.values()),
                "busy": ("stationary",), "headline": "stationary",
                "headline_se": head["std_error"],
                "variance_per_replica":
                    head["std_error"] ** 2 * head["replicas"]}

    def finish(self, ops):
        for idx, est in sorted(self.pooled.items()):
            ops.check(f"{idx}: estimate within 4 se of the exact moment",
                      abs(est.mean - float(Fraction(self.expected[idx])))
                      <= 4 * est.se)

    def probe(self, ops, tracer):
        if self.report is None:
            return {}
        cfg = load_config(self.path)
        params = cfg.model_params()
        n, m = map(int, self.headline.split(","))
        f, eta = monomial(cfg, n, m)
        f = floated(f)
        # estimate_stationary's own event cap
        stop = simulator.StopRule(at_absorption=True, max_events=100_000)

        def run_one(rng):
            state, traj = simulator.run_until(
                simulator.initial_state(f, eta), params, stop, rng)
            return float(cfg.base.integrate(state.y.factors[0])), traj

        return replica_probe(
            ops, tracer, self.batch_seed, self.replicas, run_one,
            self.report["estimates"][self.headline]["mean"])


class McTransition:
    """CLI `qt` at t=1/2, (n,m)=(2,2), with skewed colony laws; the same
    inputs through `genealogical_evaluate`; then exact replay of recorded
    time-stopped paths with Fraction payloads. It uses the `simulator`
    layer differently from mc_stationary: short time-stopped paths, the
    skeleton-only chain and exact rational coefficients."""

    name = "mc_transition"
    config = "mc_transition.json"
    throughput_name = "replicas_per_s"
    SIZES = {"full": (4000, 2000, 200), "tiny": (200, 100, 5)}

    def __init__(self, seed, size, expected):
        self.seed = seed
        self.batches = 0
        self.replicas, self.genealogical, self.paths = self.SIZES[size]
        self.path = str(CONFIGS / self.config)
        self.report = None
        self.qt, self.gen = Pooled(), Pooled()

    @staticmethod
    def model_objects(cfg):
        return cfg.model_params()

    def _inputs(self, cfg):
        n, m = int(cfg.options["n"]), int(cfg.options["m"])
        f, eta = monomial(cfg, n, m)
        return f, eta, float(Fraction(cfg.options["t"]))

    def batch(self, ops, sw):
        self.batch_seed = batch_seed(self.seed, self.batches)
        self.batches += 1
        with sw.step("qt"):
            report = run_cli(["qt", "--config", self.path,
                              "--seed", str(self.batch_seed),
                              "--replicas", str(self.replicas)], ops)
        self.report = report
        with sw.step("api_setup"):
            cfg = load_config(self.path)
            params = cfg.model_params()
        f, eta, t = self._inputs(cfg)
        mu = (cfg.mu1, cfg.mu2)
        with sw.step("genealogical"):
            gen = simulator.genealogical_evaluate(
                f, eta, mu, t, self.genealogical, params, self.batch_seed)
        ops.add(self.genealogical)
        self.gen.add(gen.mean, gen.std_error, gen.replicas)
        with sw.step("replay"):
            self._replay_paths(ops, cfg, params, f, eta, t, mu)
        out = {"samples": self.genealogical,
               "busy": ("qt", "genealogical"),
               "replay_paths_per_s": self.paths / sw.raw(("replay",))}
        if report is not None:
            est = report["estimate"]
            ops.add(est["replicas"])
            self.qt.add(est["mean"], est["std_error"], est["replicas"])
            out.update({"samples": est["replicas"] + self.genealogical,
                        "headline": "qt", "headline_se": est["std_error"],
                        "variance_per_replica":
                            est["std_error"] ** 2 * est["replicas"]})
        return out

    def _replay_paths(self, ops, cfg, params, f, eta, t, mu):
        """Record the first qt paths (same streams) and replay each exactly
        on fa, fb, fa-with-last-slot-summed and the constant 1: coupling
        linearity and normalization must hold exactly."""
        e = cfg.e_star
        g1, g2 = SetFunction.indicator(e), SetFunction.indicator(
            e.complement())
        k = len(eta)
        fa = TensorFunction((g1,) * k)
        fb = TensorFunction((g1,) * (k - 1) + (g2,))
        fs = TensorFunction((g1,) * (k - 1) + (g1 + g2,))
        one = TensorFunction.indicator_power(DyadicSet.full(), k)
        stop = simulator.StopRule(at_time=t)
        linear = normalized = 0
        for rep in range(self.paths):
            _, traj = simulator.run_until(
                simulator.initial_state(f, eta), params, stop,
                simulator.replica_rng(self.batch_seed, rep))
            va, vb, vs, v1 = (simulator.evaluate_dual(
                simulator.replay(g, eta, traj, params, exact=True), mu)
                for g in (fa, fb, fs, one))
            linear += va + vb == vs
            normalized += v1 == 1
        ops.add(self.paths, self.paths - linear,
                "replayed paths breaking coupling linearity")
        ops.add(self.paths, self.paths - normalized,
                "replayed paths breaking normalization")

    def finish(self, ops):
        sigma = math.hypot(self.qt.se, self.gen.se) if self.qt.n else 0.0
        ops.check("qt and genealogical estimates agree within 4 sigma",
                  self.qt.n > 0
                  and abs(self.qt.mean - self.gen.mean) <= 4 * sigma)

    def probe(self, ops, tracer):
        if self.report is None:
            return {}
        cfg = load_config(self.path)
        params = cfg.model_params()
        f, eta, t = self._inputs(cfg)
        f = floated(f)
        mu = (cfg.mu1, cfg.mu2)
        stop = simulator.StopRule(at_time=t)

        def run_one(rng):
            state, traj = simulator.run_until(
                simulator.initial_state(f, eta), params, stop, rng)
            return float(simulator.evaluate_dual(state, mu)), traj

        return replica_probe(ops, tracer, self.batch_seed, self.replicas,
                             run_one, self.report["estimate"]["mean"])


def table_from_report(report):
    """The RateTable that a `rates` report prints, rebuilt from its rows."""
    rows = {}
    for b, entries in report["rates"].items():
        parsed = []
        for e in entries:
            n, ks, s = e["profile"].split(";")
            prof = CollisionProfile(int(n), tuple(map(int, ks.split("+"))),
                                    int(s))
            parsed.append((prof, Fraction(e["rate"]), e["multiplicity"]))
        rows[int(b)] = tuple(parsed)
    return RateTable(max(rows), rows)


class ExactSweep:
    """CLI `rates` at b_max=12 on a rich measure, an order-12 exact sweep
    over a fixed (theta, alpha, u1, u2) grid through the API (the CLI
    refuses exact orders above 4), then CLI `reversibility` and
    `hausdorff`. No simulator runs: `simplex`, `moments` and `linalg`
    carry the load."""

    name = "exact_sweep"
    config = "exact_sweep.json"
    throughput_name = "sweep_points_per_s"
    GRID = (("1", "1/2", "1", "2"), ("3/2", "1/3", "2", "1"),
            ("1/2", "3/4", "1", "1"), ("2", "1/4", "1", "3"),
            ("1", "1/8", "3", "2"), ("5/2", "5/8", "1/2", "1"),
            ("3", "1/2", "2", "2"))
    SIZES = {"full": ("exact_sweep.json", 12, 7),
             "tiny": ("exact_sweep_tiny.json", 6, 2)}

    def __init__(self, seed, size, expected):
        self.config, self.order, points = self.SIZES[size]
        self.path = str(CONFIGS / self.config)
        self.digest_expected = expected["exact_sweep"][size]
        # the seed sets only the visiting order: exact answers are unique
        self.grid = list(self.GRID[:points])
        random.Random(f"perfbench:{seed}").shuffle(self.grid)
        self.systems = []
        self.digest = None

    @staticmethod
    def model_objects(cfg):
        return cfg.scalar_params()

    def batch(self, ops, sw):
        with sw.step("rates"):
            report = run_cli(["rates", "--config", self.path], ops)
            table = table_from_report(report) if report else None
        if report is None:
            return {"samples": 0, "busy": ("rates",)}
        ops.check("rates consistency ok", report["consistency"]["ok"])
        self.systems, lines = [], []
        for point in self.grid:
            with sw.step("point"):
                lines.extend(self._solve_point(ops, table, point))
        self.digest = hashlib.sha256(
            "\n".join(sorted(lines)).encode()).hexdigest()
        ops.check("digest of the solved moments is the recorded one",
                  self.digest == self.digest_expected)
        with sw.step("reversibility"):
            rev = run_cli(["reversibility", "--config", self.path], ops)
        if rev is not None:
            ops.check("verdict is 'not reversible'",
                      rev["verdict"] == "not reversible")
        with sw.step("hausdorff"):
            haus = run_cli(["hausdorff", "--config", self.path], ops)
        if haus is not None:
            ops.check("CLI Hausdorff passes", haus["passed"])
        return {"samples": len(self.grid), "busy": ("point",)}

    def _solve_point(self, ops, table, point):
        """Solve and check one grid point; returns its digest lines."""
        p = moments.ScalarParams.from_rate_table(table, *map(Fraction, point))
        systems = moments.stationary_system(self.order, p, table)
        self.systems.extend(systems)
        values = {(0, 0): Fraction(1)}
        for s in systems:
            values.update(s.solution)
        ops.check(f"{point}: Hausdorff passes",
                  moments.hausdorff_check(values).passed)
        ops.check(f"{point}: generator residual 0 at every index",
                  all(moments.generator_on_monomial(idx, p, table)
                      .evaluate(values) == 0
                      for idx in values if idx != (0, 0)))
        return [f"{'/'.join(point)} {n},{m} {v}"
                for (n, m), v in values.items()]

    def finish(self, ops):
        """Exact answers are checked in every batch."""

    def probe(self, ops, tracer):
        """Re-solve every system of the last sweep from outside `moments`;
        the solution and determinant must come back identical."""
        identical = 0
        resolve_ns = 0
        with tracer.span("bench.resolve"):
            for s in self.systems:
                with tracer.span("linalg.solve_exact") as span:
                    solution, det = linalg.solve_exact(s.matrix, s.rhs)
                resolve_ns += span["end_ns"] - span["start_ns"]
                identical += (det == s.determinant and solution
                              == [s.solution[u] for u in s.unknowns])
        ops.add(len(self.systems), len(self.systems) - identical,
                "re-solved systems that differ")
        return {"linalg.solve_exact_s": resolve_ns / 1e9,
                "linalg.resolve_identical": int(
                    identical == len(self.systems))}

    @staticmethod
    def ceiling_note():
        """The CLI's exact-order ceiling (a known defect), observed live."""
        ops = Ops()
        report = run_cli(["hausdorff", "--config",
                          str(CONFIGS / "order5_ceiling.json")], ops)
        if report is not None:
            return "CLI hausdorff at order 5 now succeeds"
        return ("known defect: CLI exact order 5 refused: "
                + next(iter(ops.failures)))


WORKLOADS = {w.name: w for w in (McStationary, McTransition, ExactSweep)}
