import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractions import Fraction

from xistep import (BaseMeasure, ScalarParams, build_rate_table,
                    format_rational, solve_stationary)
import xistep
from xistep import cli, simulator
from xistep.cli import _selftest_suites, main
from xistep.simulator import EVENT_CAP, genealogical_evaluate

from conftest import ATOM_HALF_QUARTER, indicator_power, kingman_model


KINGMAN_CFG = {
    "xi": {"kingman_mass": "1"},
    "theta": "1",
    "mutation": {"kind": "uniform", "base": {"densities": ["1"]}},
    "u1": "1", "u2": "1",
    "e_star": {"level": 1, "cells": [0]},
    "alpha": "1/2",
    "replicas": 200,
    "seed": 7,
    "b_max": 4,
}

ATOM_CFG = {
    "xi": {"atoms": [{"coords": ["1/2", "1/4"], "weight": "1"}]},
    "theta": "1",
    "mutation": {"kind": "uniform", "base": {"densities": ["1"]}},
    "u1": "1", "u2": "1",
    "e_star": {"level": 1, "cells": [0]},
    "alpha": "1/2",
    "replicas": 100,
    "seed": 3,
    "b_max": 4,
}

# the exact_sweep benchmark measure: a 6-coordinate and a 5-coordinate atom
SWEEP_CFG = {
    "xi": {"kingman_mass": "1",
           "atoms": [{"coords": ["1/8"] * 6, "weight": "1"},
                     {"coords": ["1/4", "1/5", "1/6", "1/7", "1/9"],
                      "weight": "1/2"}]},
    "theta": "1",
    "mutation": {"kind": "uniform", "base": {"densities": ["1"]}},
    "u1": "1", "u2": "2",
    "e_star": {"level": 1, "cells": [0]},
    "b_max": 12,
}

# the mc_stationary benchmark config: the atom model with Kingman mass 1/2
MC_STATIONARY_CFG = {
    "xi": {"kingman_mass": "1/2",
           "atoms": [{"coords": ["1/2", "1/4"], "weight": "1"}]},
    "theta": "1",
    "mutation": {"kind": "uniform", "base": {"densities": ["1"]}},
    "u1": "1", "u2": "2",
    "e_star": {"level": 1, "cells": [0]},
    "b_max": 6,
    "options": {"mode": "mc", "indices": [[2, 2], [4, 0]]},
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, argv):
    out = tmp_path / "out.json"
    status = main(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return status, text


class TestRates:
    def test_kingman_rates(self, tmp_path):
        cfg = write_cfg(tmp_path, KINGMAN_CFG)
        status, text = run(tmp_path, ["rates", "--config", cfg])
        assert status == 0
        report = json.loads(text)
        assert report["consistency"]["ok"]
        by_profile = {row["profile"]: row["rate"]
                      for row in report["rates"]["2"]}
        assert by_profile["2;2;0"] == "1"
        by_profile3 = {row["profile"]: row["rate"]
                       for row in report["rates"]["3"]}
        assert by_profile3["3;2;1"] == "1"
        assert by_profile3.get("3;3;0", "0") == "0"

    def test_atom_rates(self, tmp_path):
        cfg = write_cfg(tmp_path, ATOM_CFG)
        status, text = run(tmp_path, ["rates", "--config", cfg])
        assert status == 0
        report = json.loads(text)
        by_profile = {row["profile"]: row["rate"]
                      for row in report["rates"]["3"]}
        assert by_profile["3;2;1"] == "11/20"
        assert by_profile["3;3;0"] == "9/20"

    def test_rates_at_the_b_max_cap(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(ATOM_CFG, b_max=20))
        status, text = run(tmp_path, ["rates", "--config", cfg])
        assert status == 0
        report = json.loads(text)
        assert report["consistency"]["ok"]
        assert len(report["rates"]["20"]) == 626

    def test_b_max_past_the_cap_names_it(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(ATOM_CFG, b_max=21))
        status, _ = run(tmp_path, ["rates", "--config", cfg])
        assert status == 2
        err = capsys.readouterr().err
        assert "b_max" in err and "20" in err and "Traceback" not in err

    def test_malformed_rational_names_field(self, tmp_path, capsys):
        bad = dict(KINGMAN_CFG, theta="1/0")
        cfg = write_cfg(tmp_path, bad)
        status, _ = run(tmp_path, ["rates", "--config", cfg])
        assert status == 2
        err = capsys.readouterr().err
        assert "theta" in err


class TestStationary:
    def test_exact_first_moments(self, tmp_path):
        payload = dict(KINGMAN_CFG, options={"mode": "exact", "order": 1})
        cfg = write_cfg(tmp_path, payload)
        status, text = run(tmp_path, ["stationary", "--config", cfg])
        assert status == 0
        moments = json.loads(text)["moments"]
        assert moments["1,0"] == "1/2" and moments["0,1"] == "1/2"

    def test_exact_second_moments(self, tmp_path):
        payload = dict(KINGMAN_CFG, options={"mode": "exact", "order": 2})
        cfg = write_cfg(tmp_path, payload)
        status, text = run(tmp_path, ["stationary", "--config", cfg])
        moments = json.loads(text)["moments"]
        assert moments["2,0"] == "11/32"
        assert moments["1,1"] == "5/16"

    def test_mc_reports_exact_comparison(self, tmp_path):
        payload = dict(KINGMAN_CFG, options={"mode": "mc", "order": 1,
                                             "indices": [[1, 0]]})
        cfg = write_cfg(tmp_path, payload)
        status, text = run(tmp_path, ["stationary", "--config", cfg])
        assert status == 0
        row = json.loads(text)["estimates"]["1,0"]
        assert row["exact"] == "1/2"
        assert row["mean"] == 0.5 and row["std_error"] == 0

    def test_mc_single_replica_has_zero_std_error(self, tmp_path):
        payload = dict(ATOM_CFG, options={"mode": "mc", "indices": [[2, 1]]})
        cfg = write_cfg(tmp_path, payload)
        status, text = run(tmp_path, ["stationary", "--config", cfg,
                                      "--replicas", "1"])
        assert status == 0
        row = json.loads(text)["estimates"]["2,1"]
        assert row["replicas"] == 1 and row["std_error"] == 0.0

    @pytest.mark.parametrize("command", ["stationary", "hausdorff"])
    def test_exact_orders_up_to_b_max(self, tmp_path, command):
        atom = dict(ATOM_CFG, b_max=6, u2="2")
        table = build_rate_table(ATOM_HALF_QUARTER, 6)
        p = ScalarParams.from_rate_table(table, Fraction(1), Fraction(1, 2),
                                         Fraction(1), Fraction(2))
        for order in (5, 6):
            cfg = write_cfg(tmp_path, dict(atom, options={"order": order}))
            status, text = run(tmp_path, [command, "--config", cfg])
            assert status == 0
            report = json.loads(text)
            if command == "hausdorff":
                assert report["passed"] and report["order"] == order
            else:
                assert report["moments"] == {
                    f"{n},{m}": format_rational(v)
                    for (n, m), v in sorted(solve_stationary(order,
                                                             p).items())}

    def test_exact_order_two_on_a_two_block_table(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(KINGMAN_CFG, b_max=2,
                                       options={"order": 2}))
        status, text = run(tmp_path, ["stationary", "--config", cfg])
        assert status == 0
        assert json.loads(text)["moments"]["2,0"] == "11/32"


class TestMutationBase:
    def test_base_with_an_atom(self, tmp_path):
        # the atom at 1/4 adds mass 1/2 on e_star = [0, 1/2) to the
        # density's 1/4, so alpha, the first moment, is 3/4
        base = {"densities": ["1/2"], "atoms": [{"at": "1/4", "mass": "1/2"}]}
        payload = dict(KINGMAN_CFG, mutation={"kind": "uniform", "base": base},
                       options={"order": 1})
        del payload["alpha"]
        status, text = run(tmp_path, ["stationary", "--config",
                                      write_cfg(tmp_path, payload)])
        assert status == 0
        assert json.loads(text)["moments"]["1,0"] == "3/4"


class TestReversibility:
    def test_symmetric_kingman_verdict(self, tmp_path):
        cfg = write_cfg(tmp_path, KINGMAN_CFG)
        status, text = run(tmp_path, ["reversibility", "--config", cfg])
        assert status == 0
        report = json.loads(text)
        assert report["verdict"] == "not reversible"
        assert report["conditions"]["symmetric_migration"]
        assert report["conditions"]["reference_mass_half"]
        assert report["conditions"]["final_contradiction_nonzero"]
        assert report["probes"]["S1"]["residual"] == "0"
        assert report["probes"]["final_contradiction"]["residual"] != "0"

    def test_no_coalescence_is_outside_the_hypotheses(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(KINGMAN_CFG, xi={}))
        status, text = run(tmp_path, ["reversibility", "--config", cfg])
        assert status == 0
        assert json.loads(text)["verdict"] == \
            "outside theorem hypotheses (no pairwise coalescence)"

    def test_reference_mass_one_detects_nothing(self, tmp_path):
        # with e_star = [0, 1] every moment is 1, so every residual vanishes;
        # the atom's triple collisions leave out the final contradiction
        payload = dict(ATOM_CFG, e_star={"level": 0, "cells": [0]},
                       alpha="1")
        cfg = write_cfg(tmp_path, payload)
        status, text = run(tmp_path, ["reversibility", "--config", cfg])
        assert status == 0
        report = json.loads(text)
        assert report["verdict"] == \
            "no probe detected irreversibility at tested orders"
        assert all(report["probes"][name]["residual"] == "0"
                   for name in ("S1", "T1", "F1", "F2"))
        assert "final_contradiction" not in report["probes"]


class TestHausdorffCommand:
    def test_kingman_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, KINGMAN_CFG)
        status, text = run(tmp_path, ["hausdorff", "--config", cfg])
        assert status == 0
        report = json.loads(text)
        assert report["passed"] and report["differences_checked"] > 0


    def test_violations_print_indices_and_rationals(self, tmp_path,
                                                    monkeypatch):
        increasing = {(0, 0): Fraction(1), (1, 0): Fraction(2),
                      (0, 1): Fraction(1, 2)}
        monkeypatch.setattr("xistep.cli.solve_stationary",
                            lambda order, params: increasing)
        cfg = write_cfg(tmp_path, dict(KINGMAN_CFG, options={"order": 1}))
        status, text = run(tmp_path, ["hausdorff", "--config", cfg])
        assert status == 1
        report = json.loads(text)
        assert report["violations"] == ["0,0;1,0;-1"]
        assert report["min_alternating_difference"] == "-1"


class TestDeterminism:
    def test_report_goes_to_stdout_without_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, KINGMAN_CFG)
        _, text = run(tmp_path, ["rates", "--config", cfg])
        capsys.readouterr()
        assert main(["rates", "--config", cfg]) == 0
        assert capsys.readouterr().out == text

    def test_parser_is_built_once(self, tmp_path):
        # a later call reuses the first call's parser, so it leaves no
        # parser in reference cycles for the cyclic collector to free
        cfg = write_cfg(tmp_path, KINGMAN_CFG)
        run(tmp_path, ["rates", "--config", cfg])
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run(tmp_path, ["rates", "--config", cfg])
            gc.collect()
            parsers = [o for o in gc.garbage
                       if isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not parsers

    def test_flags_act_as_the_config_fields(self, tmp_path):
        payload = dict(ATOM_CFG, options={"mode": "mc", "order": 2})
        flagged = write_cfg(tmp_path, payload, "flagged.json")
        direct = write_cfg(tmp_path, dict(payload, seed=11, replicas=40),
                           "direct.json")
        _, by_flags = run(tmp_path, ["stationary", "--config", flagged,
                                     "--seed", "11", "--replicas", "40"])
        _, by_config = run(tmp_path, ["stationary", "--config", direct])
        a, b = json.loads(by_flags), json.loads(by_config)
        assert a.pop("config_sha256") != b.pop("config_sha256")
        assert a == b and a["seed"] == 11

    def test_byte_identical_reruns(self, tmp_path):
        payload = dict(KINGMAN_CFG, options={"mode": "mc", "order": 2})
        cfg = write_cfg(tmp_path, payload)
        _, first = run(tmp_path, ["stationary", "--config", cfg])
        _, second = run(tmp_path, ["stationary", "--config", cfg])
        assert first == second

    def test_reports_embed_config_hash(self, tmp_path):
        cfg = write_cfg(tmp_path, KINGMAN_CFG)
        _, text = run(tmp_path, ["rates", "--config", cfg])
        report = json.loads(text)
        assert len(report["config_sha256"]) == 64
        assert report["seed"] == 7


class TestPinnedOutput:
    """SHA-256 digests of seeded and exact outputs. Unlike TestDeterminism,
    which compares two runs of one build, these hold across versions: a
    change to the event stream, the payload arithmetic or the exact rates
    and moments changes them."""

    DIGESTS = {
        "simulate_absorption":
            "3307a1a12d3a714a5d9e6646e2e792352f2d0d421772569412d966c5ee687973",
        "simulate_time_stop":
            "975028199e87709762a16dfbcdbde24422a9acbf1be7c545b06ebb278ae195f8",
        "stationary_mc":
            "9c8640f515bffb6c7bf5ee69af7dcc79b582c144c39177c7c044486728175e81",
        "qt":
            "7a5367ade8ee3110939f4e333c69184619676766115aeef63a2eaeb317c3fbc2",
        "genealogical":
            "4111045e1f6e93dd531f883173507d3214e1ef4dc11f2330046f01809b53421c",
        "rates":
            "81ca779f71f23662bb31d25f31d4dae31fc5301ed7a8a423c61ff3d66d591130",
        "hausdorff":
            "cac431192a7582b8f44667506dfec31d0f8743d5e0a90f9b05765d0f5896ff1d",
        "stationary_exact_12":
            "1641896ff2a4eed1c04bf0ecb80ac8e990f38be187fc8cd775c77c2382deb7f2",
        "hausdorff_12":
            "0cd2c1a6406a55434527271147244e74bd35bc6f5c0b19bdc8df5e9720647ed0",
        # a standard error on which `statistics.stdev` of Python 3.10
        # differs in the last bit from the correctly rounded value
        "stationary_mc_seed4":
            "35eb701fd34447ab0ba626e18b144920f6f6ce4623d03514e260186c1bd0d308",
        "reversibility":
            "23356f9385373320bd84a90ee593b0d130b1a9af25d983e264748d21b5464a2d",
        # Kingman reaches the final contradiction
        "reversibility_kingman":
            "c3de07236c90a11fe190a9a8cdc257e479813f55bd98e66f73cd9de47c3c2922",
        # the sweep measure at the block cap, where the numbers are largest
        "stationary_exact_20":
            "921a48d5b42110a74d564712655932dc6e92672c06d3fd414f3fab6a4c3e079a",
        "hausdorff_20":
            "8e98555fc5c8f92e51810875fed8af3b40b5ad8b9576e67fd52c9193e45f1887",
    }

    def test_seeded_outputs_pinned(self, tmp_path):
        atom = dict(ATOM_CFG, b_max=6, u2="2")
        eta = [1, 2, 1, 2, 1]
        runs = {
            "simulate_absorption": (dict(atom, options={"eta": eta}),
                                    ["simulate", "--seed", "4"]),
            "simulate_time_stop": (dict(atom, options={"eta": eta,
                                                       "t": "1/2"}),
                                   ["simulate", "--seed", "4"]),
            "stationary_mc": (dict(atom, options={
                "mode": "mc", "indices": [[2, 1], [1, 1]]}), ["stationary"]),
            "qt": (dict(atom, replicas=200,
                        mu1={"grid_level": 1, "densities": ["3/2", "1/2"]},
                        mu2={"grid_level": 1, "densities": ["1/2", "3/2"]},
                        options={"t": "1/2", "n": 2, "m": 1}), ["qt"]),
            "rates": (dict(SWEEP_CFG, b_max=8), ["rates"]),
            "hausdorff": (dict(SWEEP_CFG, b_max=8, options={"order": 8}),
                          ["hausdorff"]),
            "stationary_exact_12": (dict(SWEEP_CFG, options={
                "mode": "exact", "order": 12}), ["stationary"]),
            "hausdorff_12": (dict(SWEEP_CFG, options={"order": 12}),
                             ["hausdorff"]),
            "stationary_mc_seed4": (MC_STATIONARY_CFG, [
                "stationary", "--seed", "4", "--replicas", "500"]),
            "reversibility": (SWEEP_CFG, ["reversibility"]),
            "reversibility_kingman": (KINGMAN_CFG, ["reversibility"]),
            "stationary_exact_20": (dict(SWEEP_CFG, b_max=20, options={
                "mode": "exact", "order": 20}), ["stationary"]),
            "hausdorff_20": (dict(SWEEP_CFG, b_max=20, options={
                "order": 20}), ["hausdorff"]),
        }
        outputs = {}
        for name, (payload, argv) in runs.items():
            cfg = write_cfg(tmp_path, payload)
            out = tmp_path / f"{name}.out"
            assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
            outputs[name] = out.read_bytes()
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        est = genealogical_evaluate(indicator_power(3), (1, 2, 1), mu, 0.4,
                                    300, kingman_model(), seed=5)
        outputs["genealogical"] = repr((est.mean, est.std_error)).encode()
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in outputs.items()} == self.DIGESTS

    # `xistep selftest --seed N` for N = 0..5: each seed replays fresh
    # random paths exactly
    SELFTEST_DIGESTS = (
        "08863d472b096b44eb337956250a77c7bac96e649c9f4142bec93b71bf2d8ac4",
        "235f723598fd5f52f055cae89b03fc03dbe97acf78925721fac9262274732c70",
        "620a7c6a46888f52d6835528b9822b46999a1af62801872cb76ccc29458c389b",
        "0e7d22d2cff69abb1eb55f33b17809d7177f4e1358e37ff823752fe95860fa35",
        "830a9a05edcc4098406b78685f7c0b900741ff9b87a725945b5687e45ef22a12",
        "9778248fd1fda8e608af85900b39dda6b851bc2a3978ffe7e9615a07e2dd1fa1",
    )

    def test_selftest_pinned(self, tmp_path):
        digests = []
        for seed in range(len(self.SELFTEST_DIGESTS)):
            out = tmp_path / f"selftest_{seed}.json"
            assert main(["selftest", "--seed", str(seed),
                         "--out", str(out)]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert tuple(digests) == self.SELFTEST_DIGESTS


class TestSimulate:
    def test_csv_shape(self, tmp_path):
        payload = dict(KINGMAN_CFG, options={"eta": [1, 1, 2]})
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "traj.csv"
        status = main(["simulate", "--config", cfg, "--out", str(out)])
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[3] == "time,kind,colony,profile_or_block,block_count"
        body = lines[4:]
        assert body
        kinds = {line.split(",")[1] for line in body}
        assert kinds <= {"coalescence", "migration"}
        assert body[-1].endswith(",1")   # absorbed at one block

    def test_event_cap_says_so(self, tmp_path, capsys):
        # migration alone up to a far time stop: the run stops at the cap,
        # writes the truncated trajectory, exits 1 and says why on stderr
        payload = dict(KINGMAN_CFG, xi={}, options={"t": "100000"})
        out = tmp_path / "traj.csv"
        status = main(["simulate", "--config", write_cfg(tmp_path, payload),
                       "--out", str(out)])
        assert status == 1
        assert len(out.read_text().splitlines()) == 4 + EVENT_CAP
        assert f"event cap of {EVENT_CAP} events" in capsys.readouterr().err

    def test_one_block_needs_no_coalescence(self, tmp_path):
        payload = dict(KINGMAN_CFG, xi={}, options={"eta": [2]})
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, payload),
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4


class TestSelftest:
    def test_passes(self, tmp_path):
        out = tmp_path / "self.json"
        status = main(["selftest", "--seed", "5", "--out", str(out)])
        assert status == 0
        report = json.loads(out.read_text())
        assert all(s["passed"] for s in report["suites"])
        assert {s["name"] for s in report["suites"]} == {
            "rate_consistency", "semigroup_law", "coupling_linearity",
            "path_normalization", "stationary_moments"}

    def test_broken_flow_detected(self, monkeypatch):
        # the law is checked through `replay` on the payload the replicas
        # run: a decay linear in the time, flowed at once in `advance`,
        # breaks it
        class Linear(simulator._FloatPayload):
            __slots__ = ()

            def advance(self, dt):
                p = 1 - self.theta * dt / 2
                self.cells = [p * v + (1 - p) * c
                              for v, c in zip(self.cells, self.ints)]

        monkeypatch.setattr(simulator, "_FloatPayload", Linear)
        suites = dict((name, ok) for name, ok, _ in _selftest_suites(5))
        assert not suites["semigroup_law"]

    def test_broken_deferred_flow_detected(self, monkeypatch):
        # the same decay in the deferred flow itself: the merge at s
        # forces a flow after s and `replay` reads both sides flowed, so
        # the unflowed starts are never what it compares
        class Linear(simulator._FloatPayload):
            __slots__ = ()

            def flow(self):
                p = 1 - self.theta * self.pending / 2
                self.cells = [p * v + (1 - p) * c
                              for v, c in zip(self.cells, self.ints)]
                self.pending = 0.0

        monkeypatch.setattr(simulator, "_FloatPayload", Linear)
        suites = dict((name, ok) for name, ok, _ in _selftest_suites(5))
        assert not suites["semigroup_law"]

    def test_broken_exact_flow_detected(self, monkeypatch):
        # an exact flow that leaves the integrals' numerators unscaled:
        # they stay over the old denominator, so a second flow of a block
        # that merged with none adds too little of the integral, while
        # one flow over both decay factors is right
        class Unscaled(simulator._ExactPayload):
            __slots__ = ()

            def flow(self):
                A, T = self.pending
                a, b, tk = A * self.scale, T - A, T * self.scale
                self.cells = [a * v + b * j
                              for v, j in zip(self.cells, self.ints)]
                self.dens = [tk * d for d in self.dens]
                self.pending = self.idle

        monkeypatch.setattr(simulator, "_ExactPayload", Unscaled)
        suites = dict((name, ok) for name, ok, _ in _selftest_suites(5))
        assert not suites["semigroup_law"]

    def test_perturbed_rates_detected(self, monkeypatch):
        def perturbed(xi, b_max):
            table = build_rate_table(xi, b_max)
            table.rows[3] = tuple((prof, rate + Fraction(1, 7), mult)
                                  for prof, rate, mult in table.rows[3])
            return table

        monkeypatch.setattr(cli, "build_rate_table", perturbed)
        suites = dict((name, ok) for name, ok, _ in _selftest_suites(5))
        assert not suites["rate_consistency"]


ROOT = Path(__file__).resolve().parent.parent
EXACT_SWEEP = str(ROOT / "perfbench" / "configs" / "exact_sweep.json")

# runs each argv of argv[1] through `main` in a fresh interpreter, then
# prints which of the Monte Carlo modules are loaded
START_PROBE = """
import json, sys
import xistep.cli
for argv in json.loads(sys.argv[1]):
    assert xistep.cli.main(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules if name in
                        ("xistep.simulator", "xistep.simhelpers"))))
"""

# per stage of one process, which of `dataclasses` and `inspect` are loaded
RECORDS_PROBE = """
import json, sys
loaded = {}
def note(stage):
    loaded[stage] = [name for name in ("dataclasses", "inspect")
                     if name in sys.modules]
note("start")
import xistep.cli
note("import xistep.cli")
for argv in json.loads(sys.argv[1]):
    assert xistep.cli.main(argv) == 0, argv
    note(argv[0])
import xistep.simulator
note("import xistep.simulator")
print(json.dumps(loaded))
"""


class TestStartUp:
    """The exact commands run without importing the Monte Carlo engine;
    the commands that draw replicas load it on first use."""

    EXACT = ("rates", "hausdorff", "reversibility", "stationary")

    def loaded_after(self, tmp_path, *argvs, probe=START_PROBE):
        out = ["--out", str(tmp_path / "out")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        return json.loads(subprocess.run(
            [sys.executable, "-c", probe,
             json.dumps([argv + out for argv in argvs])],
            env=env, capture_output=True, text=True, check=True).stdout)

    def test_exact_commands_leave_the_simulator_unloaded(self, tmp_path):
        assert self.loaded_after(
            tmp_path, *([cmd, "--config", EXACT_SWEEP]
                        for cmd in self.EXACT)) == []

    def test_no_stage_loads_dataclasses_or_inspect(self, tmp_path):
        # the records are built without `dataclasses`, whose import pulls
        # in `inspect`, `ast` and `dis` (`xistep.records`)
        stages = ("start", "import xistep.cli", *self.EXACT,
                  "import xistep.simulator")
        assert self.loaded_after(
            tmp_path, *([cmd, "--config", EXACT_SWEEP] for cmd in self.EXACT),
            probe=RECORDS_PROBE) == {stage: [] for stage in stages}

    def test_simulator_loads_neither_typing_nor_copy(self):
        # -S: no site packages, whose start-up files may load `typing`
        probe = ("import sys, xistep.simulator; print(sorted(name for name "
                 "in ('typing', 'copy') if name in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    @pytest.mark.parametrize("argv,options,loaded", [
        (["qt", "--replicas", "20"], {"t": "1/2"}, ["xistep.simulator"]),
        (["simulate"], {}, ["xistep.simulator"]),
        (["stationary", "--replicas", "20"], {"mode": "mc", "order": 1},
         ["xistep.simulator"]),
        (["selftest"], {}, ["xistep.simhelpers", "xistep.simulator"]),
    ], ids=["qt", "simulate", "stationary-mc", "selftest"])
    def test_monte_carlo_commands_load_it(self, tmp_path, argv, options,
                                          loaded):
        cfg = write_cfg(tmp_path, dict(KINGMAN_CFG, options=options))
        assert self.loaded_after(tmp_path, argv + ["--config", cfg]) == loaded

    @pytest.mark.parametrize("name", [
        "DualState", "McEstimate", "ModelParams", "StopRule", "Trajectory",
        "estimate_Qt", "estimate_stationary", "evaluate_dual",
        "genealogical_evaluate", "initial_state", "replay", "run_until"])
    def test_package_exports_are_the_simulators_objects(self, name):
        assert getattr(xistep, name) is getattr(simulator, name)
        assert name in dir(xistep)

    def test_unknown_package_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            xistep.no_such_name


# `TestErrors.BAD_INPUT` case ids, one per row and fixed when the row is
# written, so that correcting a needle renames no test. These rows keep
# the ids they were first given (number, XISTEP_THREADS value and needle
# as first written); a row past them is named by its number and command.
BAD_INPUT_IDS = (
    "change0-None-options.order",
    "change1-None-options.order",
    "change2-None-options.order",
    "change3-None-options.order",
    "change4-None-b_max",
    "change5-None-options.indices[0]",
    "change6-None-replicas",
    "change7-None-seed",
    "change8-None-b_max",
    "change9-None-u1",
    "change10-None-u2",
    "change11-abc-XISTEP_THREADS",
    "change12-0-XISTEP_THREADS",
    "change13--2-XISTEP_THREADS",
    "change14-None-options.mode",
    "change15-None-options.eta[0]",
    "change16-None-options.eta[1]",
    "change17-None-options.eta",
    "change18-None-options.t",
    "change19-None-options.t",
    "change20-None-options.t",
    "change21-None-options.n",
    "change22-None-options.m",
    "change23-None-options.n+m",
    "change24-None-b_max=4",
    "change25-None-options.order",
    "change26-None-options.order",
    "change27-None-at least 4",
    "change28-None-b_max: options.eta",
    "change29-None---replicas",
    "change30-None---replicas",
    "change31-None---replicas",
    "change32-None---replicas",
    "change33-None---replicas",
    "change34-None-replicas: --replicas",
    "change35-None-b_max: ",
    "change36-None-config error: theta: ",
    "change37-None-config error: theta: ",
    "change38-None-config error: theta: ",
    "change39-None-config error: theta: ",
    "change40-None-config error: theta: ",
    "change41-None-config error: theta: ",
    "change42-None-config error: xi: ",
    "change43-None-config error: xi: ",
    "change44-None-config error: options.ordr: unknown field",
    "change45-None-config error: sed: unknown field",
    "change46-None-config error: xi.atom: unknown field",
    "change47-None-config error: e_star.cell: unknown field",
    "change48-None-config error: mutation.base.level: unknown field",
    "change49-None-config error: xi: kingman_mass must be nonnegative",
    "change50-None-config error: e_star: cell index out of range",
    "change51-None-config error: mutation.base.densities: need one "
    "density per grid cell, 2^grid_level = 2, got 1",
    "change52-None-config error: mu1.densities: need one density per grid "
    "cell, 2^grid_level = 1, got 2",
    "change53-None-config error: mu2.densities: need one density per grid "
    "cell, 2^grid_level = 4, got 3",
    "change54-rates",
    "change55-stationary",
    "change56-theta-not-rational",
    "change57-u1-not-rational",
    "change58-options.t-decimal",
)


class TestErrors:
    def test_qt_requires_t(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, KINGMAN_CFG)
        status, _ = run(tmp_path, ["qt", "--config", cfg])
        assert status == 2
        assert "options.t" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"xi": ')
        status, _ = run(tmp_path, ["rates", "--config", str(path)])
        err = capsys.readouterr().err
        assert status == 2
        assert "config error: (file): invalid JSON" in err
        assert "Traceback" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        status = main(["rates", "--config", str(tmp_path / "nope.json")])
        assert status == 2

    def test_more_blocks_than_b_max(self, tmp_path, capsys):
        payload = dict(KINGMAN_CFG, options={"eta": [1] * 6})
        cfg = write_cfg(tmp_path, payload)
        status, _ = run(tmp_path, ["simulate", "--config", cfg])
        assert status == 2
        assert "b_max" in capsys.readouterr().err

    def test_unwritable_out_refused_before_the_command(self, tmp_path,
                                                      capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("estimate_Qt ran")

        monkeypatch.setattr(simulator, "estimate_Qt", never)
        cfg = write_cfg(tmp_path, dict(KINGMAN_CFG, options={"t": "1/2"}))
        (tmp_path / "file").write_text("")
        # under a missing directory, a directory, under a file: each
        # refused with the message `open` gives for the same path
        for out in ("missing/dir/r.json", ".", "file/r.json"):
            path = str(tmp_path / out)
            with pytest.raises(OSError) as got:
                open(path, "w")
            assert main(["qt", "--config", cfg, "--out", path]) == 2
            assert capsys.readouterr().err == f"error: --out: {got.value}\n"
        # a failed command writes no report
        out = tmp_path / "r.json"
        assert main(["qt", "--config", write_cfg(tmp_path, KINGMAN_CFG),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_replicas_below_one(self, tmp_path, capsys):
        payload = dict(KINGMAN_CFG, options={"mode": "mc", "order": 1})
        zero = write_cfg(tmp_path, dict(payload, replicas=0), "zero.json")
        cfg = write_cfg(tmp_path, payload)
        for argv in (["--config", zero],
                     ["--config", cfg, "--replicas", "-3"]):
            status, _ = run(tmp_path, ["stationary"] + argv)
            assert status == 2
            assert "replicas" in capsys.readouterr().err

    BAD_INPUT = [    # command, config change, XISTEP_THREADS, field named
        ("stationary", {"options": {"order": 0}}, None, "options.order"),
        ("stationary", {"options": {"order": -3}}, None, "options.order"),
        ("stationary", {"options": {"order": 2.5}}, None, "options.order"),
        ("stationary", {"options": {"order": "abc"}}, None, "options.order"),
        ("stationary", {"options": {"order": 5}}, None, "b_max"),
        ("stationary", {"options": {"mode": "mc", "indices": [[1]]}}, None,
         "options.indices[0]"),
        ("stationary", {"replicas": [1]}, None, "replicas"),
        ("stationary", {"seed": "x"}, None, "seed"),
        ("stationary", {"b_max": [8]}, None, "b_max"),
        ("stationary", {"u1": "-1"}, None, "u1"),
        ("stationary", {"u2": "0"}, None, "u2"),
        ("stationary", {"options": {"mode": "mc", "order": 1}}, "abc",
         "XISTEP_THREADS"),
        ("stationary", {"options": {"mode": "mc", "order": 1}}, "0",
         "XISTEP_THREADS"),
        ("stationary", {"options": {"mode": "mc", "order": 1}}, "-2",
         "XISTEP_THREADS"),
        ("stationary", {"options": {"mode": "fast"}}, None, "options.mode"),
        ("simulate", {"options": {"eta": [[1]]}}, None, "options.eta[0]"),
        ("simulate", {"options": {"eta": [1, 3]}}, None, "options.eta[1]"),
        ("simulate", {"options": {"eta": []}}, None, "options.eta"),
        ("simulate", {"options": {"t": "-1"}}, None, "options.t"),
        ("qt", {"options": {"t": [1]}}, None, "options.t"),
        ("qt", {"options": {"t": "-1"}}, None, "options.t"),
        ("qt", {"options": {"t": "1/2", "n": "x"}}, None, "options.n"),
        ("qt", {"options": {"t": "1/2", "m": -1}}, None, "options.m"),
        ("qt", {"options": {"t": "1/2", "n": 0, "m": 0}}, None,
         "options.n+m"),
        ("qt", {"options": {"t": "1/2", "n": 3, "m": 2}}, None, "b_max=4"),
        # the default orders (hausdorff 4, stationary 2) and the order-4
        # reversibility probes past b_max
        ("hausdorff", {"b_max": 3}, None, "options.order"),
        ("stationary", {"b_max": 1}, None, "options.order"),
        ("reversibility", {"b_max": 3}, None, "at least 4"),
        # simulate's default eta [1, 1] past b_max
        ("simulate", {"b_max": 1}, None, "b_max: options.eta"),
        # --replicas only on the commands that draw replicas: argparse
        # refuses it elsewhere, exact stationary names the field
        ("rates --replicas 5", {}, None, "--replicas"),
        ("simulate --replicas 5", {}, None, "--replicas"),
        ("hausdorff --replicas 5", {}, None, "--replicas"),
        ("reversibility --replicas 5", {}, None, "--replicas"),
        ("selftest --replicas 5", {}, None, "--replicas"),
        ("stationary --replicas 5", {}, None,
         "config error: --replicas: sets the Monte Carlo replica count"),
        # the consistency check needs a 4-block table
        ("rates", {"b_max": 3}, None, "b_max: "),
        # theta below 0 fails where the config is parsed, theta = 0 where
        # the exact engine (also mc mode's exact reference) is asked for
        ("rates", {"theta": "-1"}, None, "config error: theta: "),
        ("qt", {"theta": "-1", "options": {"t": "1/2"}}, None,
         "config error: theta: "),
        ("stationary", {"theta": "0"}, None, "config error: theta: "),
        ("stationary", {"theta": "0", "options": {"mode": "mc", "order": 1}},
         None, "config error: theta: "),
        ("hausdorff", {"theta": "0"}, None, "config error: theta: "),
        ("reversibility", {"theta": "0"}, None, "config error: theta: "),
        # a run to absorption needs coalescence
        ("stationary", {"xi": {}, "options": {"mode": "mc", "order": 1}},
         None, "config error: xi: "),
        ("simulate", {"xi": {}}, None, "config error: xi: "),
        # a key that no parser reads is refused with its path
        ("stationary", {"options": {"ordr": 6}}, None,
         "config error: options.ordr: unknown field"),
        ("stationary", {"sed": 5, "options": {"ordr": 6}}, None,
         "config error: sed: unknown field"),
        ("rates", {"xi": {"kingman_mass": "1", "atom": []}}, None,
         "config error: xi.atom: unknown field"),
        ("qt", {"e_star": {"level": 1, "cell": [0]},
                "options": {"t": "1/2"}}, None,
         "config error: e_star.cell: unknown field"),
        ("simulate", {"mutation": {"kind": "uniform",
                                   "base": {"densities": ["1"],
                                            "level": 0}}}, None,
         "config error: mutation.base.level: unknown field"),
        # values that the model's types would refuse, named by their full
        # field path where the parser reads them
        ("rates", {"xi": {"kingman_mass": "-1"}}, None,
         "config error: xi.kingman_mass: must be nonnegative, got -1"),
        ("rates", {"e_star": {"level": 1, "cells": [5]}}, None,
         "config error: e_star.cells[0]: must be at most 1, got 5"),
        # a density count other than 2^grid_level, in each base measure
        ("rates", {"mutation": {"kind": "uniform",
                                "base": {"grid_level": 1,
                                         "densities": ["1"]}}}, None,
         "config error: mutation.base.densities: need one density per grid "
         "cell, 2^grid_level = 2, got 1"),
        ("rates", {"mu1": {"densities": ["1", "1"]}}, None,
         "config error: mu1.densities: need one density per grid cell, "
         "2^grid_level = 1, got 2"),
        ("rates", {"mu2": {"grid_level": 2,
                           "densities": ["1", "1", "1"]}}, None,
         "config error: mu2.densities: need one density per grid cell, "
         "2^grid_level = 4, got 3"),
        # a repeated entry is refused where a set or a dict of rows would
        # drop it without a word
        ("rates", {"e_star": {"level": 1, "cells": [0, 0]}}, None,
         "config error: e_star.cells[1]: repeats e_star.cells[0]"),
        ("stationary", {"options": {"mode": "mc",
                                    "indices": [[2, 2], [2, 2]]}}, None,
         "config error: options.indices[1]: repeats options.indices[0]"),
        # a value that is not a rational is quoted, with the forms accepted
        ("stationary", {"theta": "1/2."}, None,
         "config error: theta: expected a \"p/q\" string or an integer, "
         "got '1/2.'"),
        ("rates", {"u1": "abc"}, None,
         "config error: u1: expected a \"p/q\" string or an integer, "
         "got 'abc'"),
        ("qt", {"options": {"t": "0.1"}}, None,
         "config error: options.t: expected a \"p/q\" string or an "
         "integer, got '0.1'"),
        # numerals that `int` reads, in a rational, an integer field and
        # XISTEP_THREADS
        ("rates", {"theta": "1_0/3"}, None,
         "config error: theta: expected a \"p/q\" string or an integer, "
         "got '1_0/3'"),
        ("stationary", {"u1": "1 / 3"}, None,
         "config error: u1: expected a \"p/q\" string or an integer, "
         "got '1 / 3'"),
        ("stationary", {"seed": "1_0"}, None,
         "config error: seed: must be an integer, got '1_0'"),
        ("rates", {"b_max": "\u0661\u0662"}, None,
         "config error: b_max: must be an integer, got '\u0661\u0662'"),
        ("stationary", {"options": {"mode": "mc", "order": 1}}, "1_0",
         "config error: XISTEP_THREADS: must be an integer, got '1_0'"),
        # an --out that cannot be written, a directory or a path under a
        # missing one ({tmp} is the test's own directory)
        ("rates --out {tmp}", {}, None, "error: --out: "),
        ("simulate --out {tmp}/missing/out.csv", {}, None, "error: --out: "),
        ("qt --out {tmp}", {"options": {"t": "1/2"}}, None, "error: --out: "),
        ("stationary --out {tmp}/missing/out.json", {}, None,
         "error: --out: "),
        ("hausdorff --out {tmp}", {}, None, "error: --out: "),
        ("reversibility --out {tmp}/missing/out.json", {}, None,
         "error: --out: "),
        ("selftest --out {tmp}", {}, None, "error: --out: "),
        # the integer flags take the numerals that config fields take
        ("qt --seed 1_0", {"options": {"t": "1/2"}}, None,
         "config error: --seed: must be an integer, got '1_0'"),
        ("qt --replicas \u0661\u0660", {"options": {"t": "1/2"}}, None,
         "config error: --replicas: must be an integer, got "
         "'\u0661\u0660'"),
        ("stationary --replicas \u0661\u0660 --seed \u0663",
         {"options": {"mode": "mc", "order": 1}}, None,
         "config error: --seed: must be an integer, got '\u0663'"),
        ("stationary --replicas 2.5", {"options": {"mode": "mc", "order": 1}},
         None, "config error: --replicas: must be an integer, got '2.5'"),
        ("selftest --seed \u0663", {}, None,
         "config error: --seed: must be an integer, got '\u0663'"),
    ]

    @pytest.mark.parametrize("command,change,env,needle", BAD_INPUT, ids=[
        BAD_INPUT_IDS[i] if i < len(BAD_INPUT_IDS) else f"change{i}-{command}"
        for i, (command, *_) in enumerate(BAD_INPUT)])
    def test_bad_input_exits_2_without_traceback(self, tmp_path, capsys,
                                                 monkeypatch, command,
                                                 change, env, needle):
        if env is not None:
            monkeypatch.setenv("XISTEP_THREADS", env)
        cfg = write_cfg(tmp_path, dict(KINGMAN_CFG, **change))
        argv = command.format(tmp=tmp_path).split() + ["--config", cfg]
        try:
            if "--out" in argv:   # the row's own, not the one `run` adds
                status = main(argv)
            else:
                status, _ = run(tmp_path, argv)
        except SystemExit as e:   # argparse's usage error
            status = e.code
        err = capsys.readouterr().err
        assert status == 2
        assert needle in err and "Traceback" not in err
