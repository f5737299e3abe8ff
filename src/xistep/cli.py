"""Command-line harness: reproducible experiment runs with JSON/CSV
reports. Every report embeds the config hash, the master seed, and the
package version; a command rerun with the same inputs emits identical
bytes."""

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .config import ConfigError, load_config, parse_int
from .moments import (generator_on_monomial, hausdorff_check, order_indices,
                      solve_stationary)
from .partitions import profile_of
from .rationals import format_rational
from .records import replace
from .reversibility import (F1_PROBE, F2_PROBE, S1_PROBE, T1_PROBE,
                            final_contradiction, residual_with_denominator)
from .setfun import TensorFunction
from .simplex import build_rate_table, check_consistency

# `simulator` and `simhelpers` are imported inside the commands that run
# them, so that the exact commands start without the Monte Carlo engine


def _workers():
    n = parse_int(os.environ.get("XISTEP_THREADS", "1"), "XISTEP_THREADS",
                  low=1)
    return min(n, os.cpu_count() or 1)


def _meta(cfg):
    return {"config_sha256": cfg.digest, "seed": cfg.seed,
            "version": __version__}


def _emit(text, out_path):
    data = text if text.endswith("\n") else text + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(data)
        except OSError as e:
            raise OSError(f"--out: {e}") from None
    else:
        sys.stdout.write(data)


def _emit_json(report, out_path):
    _emit(json.dumps(report, indent=2, sort_keys=True), out_path)


def _profile_label(pi_prime):
    _, merge_sizes, s = profile_of(pi_prime)
    return "+".join(map(str, merge_sizes)) + f";{s}"


def _order(cfg, default):
    """options.order, or the command's default order, which must be
    covered by b_max as a given order is."""
    if "order" in cfg.options:
        return cfg.options["order"]
    if default > cfg.b_max:
        raise ConfigError("options.order",
                          f"not given, and the default order {default} "
                          f"exceeds b_max={cfg.b_max}")
    return default


def _monomial_inputs(cfg, n, m):
    f = TensorFunction.indicator_power(cfg.e_star, n + m)
    eta = (1,) * n + (2,) * m
    return f, eta


def _needs_coalescence(cfg, what):
    """Refuse a run to absorption under a xi without mass, naming xi."""
    if cfg.xi.total_mass == 0:
        raise ConfigError("xi", f"{what}, which needs coalescence (xi mass "
                          "> 0): migration alone never absorbs")


def cmd_rates(cfg, args):
    if cfg.b_max < 4:
        raise ConfigError("b_max", "the consistency check needs a table of "
                          "at least 4 blocks, so b_max must be at least 4, "
                          f"got {cfg.b_max}")
    table = build_rate_table(cfg.xi, cfg.b_max)
    report = _meta(cfg)
    rows = {}
    for b in range(2, cfg.b_max + 1):
        rows[str(b)] = [
            {"profile": f"{prof.n};{'+'.join(map(str, prof.merge_sizes))}"
                        f";{prof.s}",
             "rate": format_rational(rate),
             "multiplicity": mult}
            for prof, rate, mult in table.profiles(b)]
    check = check_consistency(table)
    failures = [name for name, _, _, ok in check.checks if not ok]
    report["rates"] = rows
    report["consistency"] = {"checked": len(check.checks),
                             "failures": failures,
                             "ok": check.all_pass}
    return report, 0 if check.all_pass else 1


def cmd_simulate(cfg, args):
    from .simulator import (EVENT_CAP, StopRule, initial_state, replica_rng,
                            run_until)
    if "eta" not in cfg.options and cfg.b_max < 2:
        raise ConfigError("b_max", "options.eta is not given, and the "
                          "default eta [1, 1] needs 2 blocks, so b_max must "
                          f"be at least 2, got {cfg.b_max}")
    eta = tuple(cfg.options.get("eta", [1, 1]))
    t = cfg.options.get("t")
    if t is None and len(eta) > 1:
        _needs_coalescence(cfg, "simulate without options.t runs to "
                           "absorption")
    f = TensorFunction.indicator_power(cfg.e_star, len(eta))
    stop = (StopRule(at_time=float(t)) if t is not None
            else StopRule(at_absorption=True))
    rng = replica_rng(cfg.seed, 0)
    params = cfg.model_params(len(eta))
    _, traj = run_until(initial_state(f, eta), params, stop, rng)
    lines = [f"# config_sha256={cfg.digest}",
             f"# seed={cfg.seed}",
             f"# version={__version__}",
             "time,kind,colony,profile_or_block,block_count"]
    for ev in traj.events:
        detail = (_profile_label(ev.detail) if ev.kind == "coalescence"
                  else str(ev.detail))
        lines.append(f"{ev.time!r},{ev.kind},{ev.colony},{detail},"
                     f"{ev.block_count}")
    _emit("\n".join(lines), args.out)
    if traj.truncated:
        print(f"simulate: the run stopped at the event cap of {EVENT_CAP} "
              "events; the trajectory is truncated", file=sys.stderr)
    return None, int(traj.truncated)


def cmd_qt(cfg, args):
    from .simulator import estimate_Qt
    n = cfg.options.get("n", 1)
    m = cfg.options.get("m", 0)
    if "t" not in cfg.options:
        raise ConfigError("options.t", "missing required field")
    t = float(cfg.options["t"])
    f, eta = _monomial_inputs(cfg, n, m)
    est = estimate_Qt(f, eta, (cfg.mu1, cfg.mu2), t, cfg.replicas,
                      cfg.model_params(n + m), cfg.seed, workers=_workers())
    report = _meta(cfg)
    report.update({"command": "qt",
                   "monomial": f"{n},{m}", "t": repr(t),
                   "estimate": {"mean": est.mean,
                                "std_error": est.std_error,
                                "replicas": est.replicas}})
    return report, 0


def cmd_stationary(cfg, args):
    mode = cfg.options.get("mode", "exact")
    report = _meta(cfg)
    report["command"] = "stationary"
    if mode == "exact":
        if args.replicas is not None:
            raise ConfigError("--replicas", "sets the Monte Carlo replica "
                              "count; exact mode draws none")
        order = _order(cfg, 2)
        moments = solve_stationary(order, cfg.scalar_params(order))
        report["moments"] = {f"{n},{m}": format_rational(v)
                             for (n, m), v in sorted(moments.items())}
        return report, 0
    _needs_coalescence(cfg, "the Monte Carlo estimate runs each replica to "
                       "absorption")
    from .simulator import estimate_stationary
    indices = cfg.options.get("indices")
    if indices is None:
        order = _order(cfg, 2)
        indices = [[i, order - i] for i in range(order + 1)]
    top = max(n + m for n, m in indices)
    exact = solve_stationary(top, cfg.scalar_params(top))
    params = cfg.model_params(top)
    rows = {}
    for n, m in indices:
        f, eta = _monomial_inputs(cfg, n, m)
        est = estimate_stationary(f, eta, cfg.base, cfg.replicas, params,
                                  cfg.seed, workers=_workers())
        rows[f"{n},{m}"] = {"mean": est.mean, "std_error": est.std_error,
                            "exact": format_rational(exact[(n, m)]),
                            "replicas": est.replicas}
    report["estimates"] = rows
    return report, 0


def cmd_hausdorff(cfg, args):
    order = _order(cfg, 4)
    moments = solve_stationary(order, cfg.scalar_params(order))
    check = hausdorff_check(moments)
    report = _meta(cfg)
    report.update({
        "command": "hausdorff", "order": order,
        "passed": check.passed,
        "min_alternating_difference": format_rational(check.min_value),
        "differences_checked": check.checked,
        "violations": [f"{','.join(map(str, m))};{','.join(map(str, n))};"
                       f"{format_rational(v)}"
                       for (m, n), v in check.violations]})
    return report, 0 if check.passed else 1


_PROBES = (("S1", S1_PROBE), ("T1", T1_PROBE), ("F1", F1_PROBE),
           ("F2", F2_PROBE))


def cmd_reversibility(cfg, args):
    need = max(probe.total_order for _, probe in _PROBES)
    if cfg.b_max < need:
        raise ConfigError("b_max", f"the probes need moments of order {need}, "
                          f"so b_max must be at least {need}, got {cfg.b_max}")
    p = cfg.scalar_params()
    report = _meta(cfg)
    probes = {}
    any_nonzero = False
    for name, probe in _PROBES:
        r, d = residual_with_denominator(probe, p)
        any_nonzero = any_nonzero or r != 0
        probes[name] = {"left": f"{probe.left[0]},{probe.left[1]}",
                        "right": f"{probe.right[0]},{probe.right[1]}",
                        "residual": format_rational(r),
                        "denominator": format_rational(d)}
    conditions = {"symmetric_migration": p.u1 == p.u2,
                  "reference_mass_half": p.alpha == Fraction(1, 2),
                  "no_triple_collisions": p.a3 == 0}
    if p.a3 == 0 and p.a2 > 0:
        contra = final_contradiction(p.a2, p.theta, p.u1)
        conditions["final_contradiction_nonzero"] = contra.nonzero
        any_nonzero = any_nonzero or contra.nonzero
        probes["final_contradiction"] = {
            "pair_rate": format_rational(contra.pair_rate),
            "residual": format_rational(contra.residual),
            "cubic_numerator": format_rational(contra.cubic_numerator)}
    if p.a2 == 0:
        verdict = "outside theorem hypotheses (no pairwise coalescence)"
    elif any_nonzero:
        verdict = "not reversible"
    else:
        verdict = "no probe detected irreversibility at tested orders"
    report.update({"command": "reversibility", "probes": probes,
                   "conditions": conditions, "verdict": verdict})
    return report, 0


def _selftest_suites(seed):
    from .simhelpers import (coupling_linearity_holds, normalization_holds,
                             random_scalar_params, random_xi,
                             semigroup_law_holds)
    rng = random.Random(f"xistep-selftest:{seed}")
    suites = []

    failures = []
    for _ in range(10):
        table = build_rate_table(random_xi(rng), 5)
        check = check_consistency(table)
        failures.extend(name for name, _, _, ok in check.checks if not ok)
    suites.append(("rate_consistency", not failures,
                   "; ".join(failures[:3])))

    # every pair (s, t) is drawn, pass or fail, as the later suites expect
    ok = all([semigroup_law_holds(rng) for _ in range(5)])
    suites.append(("semigroup_law", ok, ""))
    ok = all(coupling_linearity_holds(rng) for _ in range(5))
    suites.append(("coupling_linearity", ok, ""))
    ok = all(normalization_holds(rng) for _ in range(5))
    suites.append(("path_normalization", ok, ""))

    ok = True
    detail = ""
    for _ in range(5):
        p = random_scalar_params(rng)
        moments = solve_stationary(4, p)
        for idx in [i for k in range(1, 5) for i in order_indices(k)]:
            res = generator_on_monomial(idx, p).evaluate(moments)
            if res != 0:
                ok = False
                detail = f"generator residual {res} at {idx}"
        if not hausdorff_check(moments).passed:
            ok = False
            detail = "hausdorff violation on solved moments"
    suites.append(("stationary_moments", ok, detail))
    return suites


def cmd_selftest(cfg, args):
    seed = cfg.seed if cfg else (args.seed or 0)
    suites = _selftest_suites(seed)
    report = {"seed": seed, "version": __version__,
              "config_sha256": cfg.digest if cfg else None,
              "command": "selftest",
              "suites": [{"name": name, "passed": ok,
                          **({"detail": detail} if detail else {})}
                         for name, ok, detail in suites]}
    return report, 0 if all(ok for _, ok, _ in suites) else 1


COMMANDS = {"rates": cmd_rates, "simulate": cmd_simulate, "qt": cmd_qt,
            "stationary": cmd_stationary, "hausdorff": cmd_hausdorff,
            "reversibility": cmd_reversibility, "selftest": cmd_selftest}


# the commands that draw replicas, and so take --replicas
_MONTE_CARLO = ("qt", "stationary")


@functools.cache   # once per process: a parser holds reference cycles
def build_parser():
    parser = argparse.ArgumentParser(
        prog="xistep",
        description="Two-colony coalescent dual: simulation, exact moments,"
                    " and reversibility checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "selftest"))
        p.add_argument("--seed", default=None)
        if name in _MONTE_CARLO:
            p.add_argument("--replicas", default=None)
        p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else None
        if args.seed is not None:
            args.seed = parse_int(args.seed, "--seed")
        replicas = getattr(args, "replicas", None)
        if replicas is not None:
            args.replicas = replicas = parse_int(replicas, "--replicas",
                                                 low=1)
        # a directory, or a path under a missing one: fail before the work
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(
                os.path.dirname(args.out) or ".")):
            _emit("", args.out)   # `open` refuses it and writes nothing
        if cfg is not None:   # --seed and --replicas override the config
            cfg = replace(
                cfg, seed=cfg.seed if args.seed is None else args.seed,
                replicas=cfg.replicas if replicas is None else replicas)
        report, status = COMMANDS[args.command](cfg, args)
        if report is not None:
            _emit_json(report, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
