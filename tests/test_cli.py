"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import _parse_assignment, build_parser, main
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.events import Event, RATE_EVENTS
from repro.fleet import FleetSpec, MachineGroup
from repro.io import save_power_model


class TestParsing:
    def test_parse_assignment(self):
        parsed = _parse_assignment(["0=mcf", "1=gzip,art"])
        assert parsed == {0: ("mcf",), 1: ("gzip", "art")}

    def test_parse_assignment_rejects_bad_fragment(self):
        with pytest.raises(ValueError):
            _parse_assignment(["0"])

    def test_parse_assignment_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError):
            _parse_assignment(["0=linpack"])

    def test_parse_assignment_rejects_duplicate_core(self):
        with pytest.raises(ValueError, match="core 0 assigned twice"):
            _parse_assignment(["0=mcf", "0=gzip"])

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["machines"])
        assert args.command == "machines"


class TestListingCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "4-core-server" in out
        assert "2-core-workstation" in out

    def test_machines_json(self, capsys):
        assert main(["machines", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        workstation = data["machines"]["2-core-workstation"]
        assert workstation["cores"] == 2
        assert all(
            {"cores", "ways", "sets"} == set(d) for d in workstation["domains"]
        )

    def test_machines_json_schema_has_heterogeneity_fields(self, capsys):
        # Schema pin: every machine document carries the same key set,
        # including the per-core clock scales and the hetero flag.
        assert main(["machines", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        expected = {
            "cores",
            "frequency_hz",
            "core_frequency_scales",
            "heterogeneous",
            "domains",
        }
        for name, machine in data["machines"].items():
            assert set(machine) == expected, name
        homogeneous = data["machines"]["4-core-server"]
        assert homogeneous["heterogeneous"] is False
        assert homogeneous["core_frequency_scales"] == []
        hetero = data["machines"]["hetero-server"]
        assert hetero["heterogeneous"] is True
        assert hetero["core_frequency_scales"] == [1.0, 0.5, 1.0, 0.5]

    def test_benchmarks(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "equake" in out


class TestRunCommand:
    def test_run_small(self, capsys):
        code = main(["--sets", "32", "run", "--machine", "2-core-workstation",
                     "0=gzip", "1=gzip"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Measured steady state" in out
        assert "gzip" in out

    def test_run_error_path(self, capsys):
        code = main(["run", "--machine", "2-core-workstation", "0=nosuch"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestProfilePredictFlow:
    def test_profile_then_predict(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        code = main(
            ["--sets", "32", "profile", "--machine", "2-core-workstation",
             "--out", str(suite), "gzip"]
        )
        assert code == 0
        assert suite.exists()
        data = json.loads(suite.read_text())
        assert data["kind"] == "profile_suite"

        capsys.readouterr()
        code = main(["predict", "--suite", str(suite), "--ways", "4",
                     "gzip", "gzip"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Co-run prediction" in out

        capsys.readouterr()
        code = main(["predict", "--suite", str(suite), "--ways", "4",
                     "--json", "gzip", "gzip"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "mix_prediction"
        names = [p["name"] for p in data["prediction"]["processes"]]
        assert names == ["gzip", "gzip"]


class TestBatchPredictFlow:
    @pytest.fixture(scope="class")
    def suite(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("batch") / "suite.json"
        code = main(
            ["--sets", "32", "profile", "--machine", "2-core-workstation",
             "--out", str(path), "gzip"]
        )
        assert code == 0
        return path

    def test_batch_json_output(self, tmp_path, capsys, suite):
        batch = tmp_path / "mixes.json"
        batch.write_text(json.dumps([["gzip"], ["gzip", "gzip"]]))
        capsys.readouterr()
        code = main(["predict", "--suite", str(suite), "--ways", "4",
                     "--batch", str(batch), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "mix_prediction_batch"
        assert len(data["predictions"]) == 2
        names = [p["name"] for p in data["predictions"][1]["prediction"]["processes"]]
        assert names == ["gzip", "gzip"]

    def test_batch_table_output_and_mixes_wrapper(self, tmp_path, capsys, suite):
        batch = tmp_path / "mixes.json"
        batch.write_text(json.dumps({"mixes": [["gzip"], ["gzip", "gzip"]]}))
        capsys.readouterr()
        code = main(["predict", "--suite", str(suite), "--ways", "4",
                     "--batch", str(batch)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Mix" in out
        assert "gzip" in out

    def test_names_and_batch_are_mutually_exclusive(self, tmp_path, capsys, suite):
        batch = tmp_path / "mixes.json"
        batch.write_text(json.dumps([["gzip"]]))
        capsys.readouterr()
        code = main(["predict", "--suite", str(suite), "--ways", "4",
                     "--batch", str(batch), "gzip"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_neither_names_nor_batch_is_an_error(self, capsys, suite):
        capsys.readouterr()
        code = main(["predict", "--suite", str(suite), "--ways", "4"])
        assert code == 2
        assert "--batch" in capsys.readouterr().err

    def test_malformed_batch_file_rejected(self, tmp_path, capsys, suite):
        batch = tmp_path / "mixes.json"
        batch.write_text(json.dumps({"mixes": "gzip"}))
        capsys.readouterr()
        code = main(["predict", "--suite", str(suite), "--ways", "4",
                     "--batch", str(batch)])
        assert code == 2


@pytest.fixture(scope="module")
def synthetic_power_model():
    """A fitted Eq. 9 model without paying for train-power at the CLI."""
    rng = np.random.default_rng(0)
    training = PowerTrainingSet()
    for _ in range(40):
        rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
        power = 11.0 + 8e-8 * rates[Event.L1_REFS] + 2e-7 * rates[Event.L2_MISSES]
        training.add(rates, power)
    return CorePowerModel().fit(training, idle_core_watts=11.0)


class TestAssignFlow:
    def test_assign_end_to_end(self, tmp_path, capsys, synthetic_power_model):
        suite = tmp_path / "suite.json"
        model = tmp_path / "power.json"
        save_power_model(synthetic_power_model, model)
        assert main(
            ["--sets", "32", "--quick", "profile",
             "--machine", "2-core-workstation", "--out", str(suite),
             "mcf", "gzip"]
        ) == 0
        capsys.readouterr()
        code = main(
            ["--sets", "32", "assign", "--machine", "2-core-workstation",
             "--suite", str(suite), "--power-model", str(model),
             "mcf", "gzip"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "assignment_pick"
        assert data["strategy"] == "exhaustive"
        placed = sorted(
            name
            for names in data["decision"]["assignment"].values()
            for name in names
        )
        assert placed == ["gzip", "mcf"]
        assert data["decision"]["predicted_watts"] > 0

    def test_assign_fleet_flags_route_to_solver(
        self, tmp_path, capsys, synthetic_power_model
    ):
        suite = tmp_path / "suite.json"
        model = tmp_path / "power.json"
        save_power_model(synthetic_power_model, model)
        assert main(
            ["--sets", "32", "--quick", "profile",
             "--machine", "2-core-workstation", "--out", str(suite),
             "mcf", "gzip"]
        ) == 0
        capsys.readouterr()
        code = main(
            ["--sets", "32", "assign", "--machine", "2-core-workstation",
             "--suite", str(suite), "--power-model", str(model),
             "--solver", "greedy", "--objective", "min-power",
             "mcf", "gzip"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "fleet_assignment"
        assert data["solver"] == "greedy"
        assert data["objective"] == "min-power"
        # A canonical objective alone also routes to the fleet solver.
        code = main(
            ["--sets", "32", "assign", "--machine", "2-core-workstation",
             "--suite", str(suite), "--power-model", str(model),
             "--objective", "throughput-under-watts-budget",
             "--power-budget", "500", "mcf", "gzip"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "fleet_assignment"
        assert data["predicted_watts"] <= 500.0
        # --greedy belongs to the legacy pick; combining it with the
        # fleet path is a clean usage error, not a silent reroute.
        code = main(
            ["--sets", "32", "assign", "--machine", "2-core-workstation",
             "--suite", str(suite), "--power-model", str(model),
             "--solver", "anneal", "--greedy", "mcf", "gzip"]
        )
        assert code == 2
        assert "--solver greedy" in capsys.readouterr().err

    def test_assign_fleet_file_with_hetero_spec(
        self, tmp_path, capsys, synthetic_power_model
    ):
        from repro.hetero import big_little_spec

        suite = tmp_path / "suite.json"
        model = tmp_path / "power.json"
        fleet_file = tmp_path / "fleet.json"
        save_power_model(synthetic_power_model, model)
        assert main(
            ["--sets", "32", "--quick", "profile",
             "--machine", "2-core-workstation", "--out", str(suite),
             "mcf", "gzip"]
        ) == 0
        fleet = FleetSpec(
            groups=(
                MachineGroup(
                    machine="2-core-workstation",
                    sets=32,
                    hetero=big_little_spec("2-core-workstation"),
                ),
            )
        )
        fleet_file.write_text(json.dumps(fleet.to_dict()))
        capsys.readouterr()
        code = main(
            ["assign", "--machine", "2-core-workstation",
             "--suite", str(suite), "--power-model", str(model),
             "--fleet", str(fleet_file), "--solver", "exhaustive",
             "--objective", "throughput-under-watts-budget",
             "--power-budget", "500", "mcf", "gzip"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "fleet_assignment"
        assert data["fleet"]["groups"][0]["hetero"]["core_type_of"] == [0, 1]
        busy = [m for m in data["machines"] if m["assignment"]]
        assert busy and all(m["pstates"] is not None for m in busy)


class TestObservabilityFlags:
    def test_trace_and_metrics_files(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            ["--sets", "32", "--quick", "profile",
             "--machine", "2-core-workstation", "--out", str(suite),
             "--trace", str(trace), "--metrics", str(metrics), "gzip"]
        )
        assert code == 0
        capsys.readouterr()

        trace_doc = json.loads(trace.read_text())
        assert trace_doc["kind"] == "trace"
        assert trace_doc["version"] == 1
        span_names = {span["name"] for span in trace_doc["spans"]}
        assert {"profile.suite", "profile.process", "simulate"} <= span_names

        metrics_doc = json.loads(metrics.read_text())
        assert metrics_doc["kind"] == "metrics"
        assert metrics_doc["version"] == 1
        counters = metrics_doc["counters"]
        assert counters["profile.processes"] == 1.0
        assert counters["sim.instructions"] > 0

    def test_files_written_even_on_failure(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(
            ["run", "--machine", "2-core-workstation",
             "--metrics", str(metrics), "0=nosuch"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert json.loads(metrics.read_text())["kind"] == "metrics"
