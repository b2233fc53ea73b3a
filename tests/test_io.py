"""Unit tests for JSON persistence of profiles and models."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import AssignmentDecision
from repro.core.equilibrium import EquilibriumResult, SolverTelemetry
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.performance_model import CoRunPrediction, ProcessPrediction
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.errors import ConfigurationError
from repro.events import Event, RATE_EVENTS
from repro.io import (
    _KINDS,
    from_document,
    load_feature,
    load_json,
    load_power_model,
    load_profile_suite,
    sanitize_non_finite,
    save_feature,
    save_json,
    save_power_model,
    save_profile_suite,
)
from repro.workloads.spec import BENCHMARKS


@pytest.fixture
def feature():
    return FeatureVector.oracle(BENCHMARKS["mcf"], 2e8)


@pytest.fixture
def profile():
    return ProfileVector(
        name="mcf", p_alone=23.5, l1rpi=0.42, l2rpi=0.055, brpi=0.19, fppi=0.0
    )


@pytest.fixture
def power_model():
    rng = np.random.default_rng(0)
    training = PowerTrainingSet()
    ranges = {
        Event.L1_REFS: 1e8,
        Event.L2_REFS: 1.5e7,
        Event.L2_MISSES: 5e6,
        Event.BRANCHES: 5e7,
        Event.FP_OPS: 6e7,
    }
    for _ in range(40):
        rates = {event: rng.uniform(0, ranges[event]) for event in RATE_EVENTS}
        power = 11.0 + 8e-8 * rates[Event.L1_REFS] - 4e-7 * rates[Event.L2_MISSES]
        training.add(rates, power)
    return CorePowerModel().fit(training, idle_core_watts=11.0)


class TestFeatureRoundtrip:
    def test_dict_roundtrip(self, feature):
        recovered = FeatureVector.from_dict(feature.to_dict())
        assert recovered.name == feature.name
        assert recovered.api == pytest.approx(feature.api)
        assert recovered.alpha == pytest.approx(feature.alpha)
        assert recovered.beta == pytest.approx(feature.beta)
        assert recovered.histogram.close_to(feature.histogram, atol=1e-12)

    def test_file_roundtrip(self, feature, tmp_path):
        path = tmp_path / "mcf.json"
        save_feature(feature, path)
        recovered = load_feature(path)
        assert recovered.histogram.mpa(8) == pytest.approx(feature.histogram.mpa(8))

    def test_wrong_kind_rejected(self, feature, profile):
        data = profile.to_dict()
        with pytest.raises(ConfigurationError, match="expected kind"):
            FeatureVector.from_dict(data)

    def test_bad_version_rejected(self, feature):
        data = feature.to_dict()
        data["version"] = 999
        with pytest.raises(ConfigurationError, match="version"):
            FeatureVector.from_dict(data)

    def test_missing_field_rejected(self, feature):
        data = feature.to_dict()
        del data["api"]
        with pytest.raises(ConfigurationError, match="missing"):
            FeatureVector.from_dict(data)


class TestProfileRoundtrip:
    def test_dict_roundtrip(self, profile):
        recovered = ProfileVector.from_dict(profile.to_dict())
        assert recovered == profile


class TestSuiteRoundtrip:
    def test_suite_roundtrip(self, feature, profile, tmp_path):
        path = tmp_path / "suite.json"
        save_profile_suite({"mcf": feature}, {"mcf": profile}, path)
        features, profiles = load_profile_suite(path)
        assert set(features) == {"mcf"}
        assert profiles["mcf"].p_alone == profile.p_alone

    def test_mismatched_names_rejected(self, feature, profile, tmp_path):
        with pytest.raises(ConfigurationError):
            save_profile_suite({"mcf": feature}, {}, tmp_path / "x.json")

    def test_loaded_features_usable_by_model(self, feature, profile, tmp_path):
        from repro.core.performance_model import PerformanceModel

        path = tmp_path / "suite.json"
        save_profile_suite({"mcf": feature}, {"mcf": profile}, path)
        features, _ = load_profile_suite(path)
        model = PerformanceModel(ways=16)
        model.register(features["mcf"])
        assert model.predict(["mcf", "mcf"]).total_size == pytest.approx(16, abs=0.1)


class TestPowerModelRoundtrip:
    def test_dict_roundtrip_exact(self, power_model):
        recovered = CorePowerModel.from_dict(power_model.to_dict())
        assert recovered.p_idle == power_model.p_idle
        assert recovered.coefficients == power_model.coefficients
        assert recovered.r_squared == power_model.r_squared

    def test_document_roundtrip_is_identity(self, power_model):
        doc = power_model.to_dict()
        assert CorePowerModel.from_dict(doc).to_dict() == doc

    def test_predictions_preserved(self, power_model, tmp_path):
        path = tmp_path / "model.json"
        save_power_model(power_model, path)
        recovered = load_power_model(path)
        rates = {event: 1e6 for event in RATE_EVENTS}
        assert recovered.core_power(rates) == pytest.approx(
            power_model.core_power(rates), rel=1e-6
        )


# ----------------------------------------------------------------------
# Result-type round-trips
# ----------------------------------------------------------------------
finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(
    min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def telemetries(draw):
    return SolverTelemetry(
        strategy=draw(st.sampled_from(["auto", "newton", "bisection"])),
        solver=draw(st.sampled_from(["newton", "bisection", "uncontended"])),
        jacobian=draw(st.sampled_from([None, "analytic", "fd"])),
        iterations=draw(st.integers(min_value=0, max_value=10_000)),
        residual_norm=draw(st.floats(min_value=0, max_value=1.0)),
        warm_started=draw(st.booleans()),
        fallback_reason=draw(st.one_of(st.none(), st.text(max_size=40))),
    )


@st.composite
def equilibrium_results(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return EquilibriumResult(
        sizes=tuple(draw(positive_floats) for _ in range(n)),
        mpas=tuple(draw(st.floats(min_value=0, max_value=1)) for _ in range(n)),
        spis=tuple(draw(positive_floats) for _ in range(n)),
        solver=draw(st.sampled_from(["newton", "bisection", "uncontended"])),
        iterations=draw(st.integers(min_value=0, max_value=10_000)),
        contended=draw(st.booleans()),
        telemetry=draw(st.one_of(st.none(), telemetries())),
    )


@st.composite
def assignment_decisions(draw):
    cores = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True))
    names = st.sampled_from(sorted(BENCHMARKS))
    return AssignmentDecision(
        assignment={
            core: tuple(draw(st.lists(names, min_size=1, max_size=3)))
            for core in cores
        },
        predicted_watts=draw(positive_floats),
        predicted_ips=draw(positive_floats),
        objective=draw(st.sampled_from(["power", "throughput"])),
        score=draw(finite_floats),
        candidates_evaluated=draw(st.integers(min_value=1, max_value=10_000)),
    )


class TestResultRoundtrips:
    """to_dict -> json -> from_dict is the identity for result types."""

    @settings(max_examples=30, deadline=None)
    @given(telemetry=telemetries())
    def test_telemetry_property(self, telemetry):
        doc = json.loads(json.dumps(telemetry.to_dict()))
        assert SolverTelemetry.from_dict(doc) == telemetry

    @settings(max_examples=30, deadline=None)
    @given(result=equilibrium_results())
    def test_equilibrium_result_property(self, result):
        doc = json.loads(json.dumps(result.to_dict()))
        assert EquilibriumResult.from_dict(doc) == result

    @settings(max_examples=30, deadline=None)
    @given(decision=assignment_decisions())
    def test_assignment_decision_property(self, decision):
        doc = json.loads(json.dumps(decision.to_dict()))
        assert AssignmentDecision.from_dict(doc) == decision

    def test_corun_prediction_roundtrip(self):
        prediction = CoRunPrediction(
            processes=(
                ProcessPrediction(
                    name="mcf", effective_size=5.0, mpa=0.7, spi=4e-8
                ),
                ProcessPrediction(
                    name="gzip", effective_size=3.0, mpa=0.2, spi=4e-9
                ),
            ),
            solver="newton",
            contended=True,
        )
        doc = json.loads(json.dumps(prediction.to_dict()))
        assert CoRunPrediction.from_dict(doc) == prediction

    def test_methods_mirror_converters(self):
        telemetry = SolverTelemetry(
            strategy="auto", solver="newton", jacobian="analytic",
            iterations=4, residual_norm=1e-10,
        )
        assert SolverTelemetry.from_dict(telemetry.to_dict()) == telemetry
        prediction = ProcessPrediction(
            name="art", effective_size=2.0, mpa=0.5, spi=1e-8
        )
        assert ProcessPrediction.from_dict(prediction.to_dict()) == prediction

    def test_wrong_kind_rejected(self):
        telemetry = SolverTelemetry(
            strategy="auto", solver="newton", jacobian=None,
            iterations=1, residual_norm=0.0,
        )
        with pytest.raises(ConfigurationError, match="expected kind"):
            EquilibriumResult.from_dict(telemetry.to_dict())


class TestNonFiniteRejection:
    """save_json must never emit bare NaN/Infinity tokens (invalid JSON)."""

    def test_nan_rejected_with_key_path(self, tmp_path):
        doc = {"kind": "x", "nested": {"rows": [1.0, float("nan")]}}
        with pytest.raises(ConfigurationError, match=r"\$\.nested\.rows\[1\]"):
            save_json(doc, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinities_rejected(self, value, tmp_path):
        with pytest.raises(ConfigurationError, match="non-finite"):
            save_json({"watts": value}, tmp_path / "bad.json")

    def test_numpy_scalars_checked(self, tmp_path):
        # np.float64 subclasses float, so the walk must catch it too.
        with pytest.raises(ConfigurationError, match="non-finite"):
            save_json({"v": float(np.float64("nan"))}, tmp_path / "bad.json")

    def test_finite_documents_unaffected(self, tmp_path):
        doc = {"a": 1.5, "b": [0.0, -2.25], "c": {"d": 1e308}, "e": "NaN-ish"}
        save_json(doc, tmp_path / "good.json")
        assert load_json(tmp_path / "good.json") == doc

    def test_saved_files_are_strict_json(self, tmp_path, feature):
        save_feature(feature, tmp_path / "f.json")
        json.loads(
            (tmp_path / "f.json").read_text(),
            parse_constant=lambda token: pytest.fail(
                f"non-strict JSON token {token!r} in saved file"
            ),
        )


class TestSanitizeNonFinite:
    def test_markers_substituted(self):
        doc = {
            "nan": float("nan"),
            "pos": float("inf"),
            "neg": float("-inf"),
            "fine": 3.5,
            "deep": [{"v": float("nan")}],
        }
        clean = sanitize_non_finite(doc)
        assert clean["nan"] == "NaN"
        assert clean["pos"] == "Infinity"
        assert clean["neg"] == "-Infinity"
        assert clean["fine"] == 3.5
        assert clean["deep"][0]["v"] == "NaN"

    def test_finite_data_untouched(self):
        doc = {"a": [1, 2.5, "x", None, True], "b": {"c": 0.0}}
        clean = sanitize_non_finite(doc)
        assert clean == {"a": [1, 2.5, "x", None, True], "b": {"c": 0.0}}

    def test_original_not_mutated(self):
        doc = {"v": float("nan")}
        sanitize_non_finite(doc)
        assert math.isnan(doc["v"])

    def test_sanitized_document_round_trips(self, tmp_path):
        doc = sanitize_non_finite({"v": float("nan"), "w": [float("inf")]})
        save_json(doc, tmp_path / "ok.json")
        assert load_json(tmp_path / "ok.json") == {"v": "NaN", "w": ["Infinity"]}


# ----------------------------------------------------------------------
# Golden corpus and codec rules
# ----------------------------------------------------------------------
CORPUS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "io_documents.json").read_text()
)


class TestGoldenCorpus:
    """Documents written by the hand-written converters the codec replaced.

    ``written`` holds one document per kind; ``reencoded`` holds what
    those converters wrote after decoding a document whose histograms
    renormalise by an ulp; ``defaults`` pairs each minimal document
    with the full document it must decode to.
    """

    @pytest.mark.parametrize("name", sorted(CORPUS["written"]))
    def test_decode_then_encode_is_byte_identical(self, name):
        document = CORPUS["written"][name]
        expected = CORPUS["reencoded"].get(name, document)
        assert json.dumps(from_document(document).to_dict()) == json.dumps(expected)

    @pytest.mark.parametrize("name", sorted(CORPUS["defaults"]))
    def test_minimal_document_decodes_to_full_twin(self, name):
        pair = CORPUS["defaults"][name]
        minimal = from_document(pair["minimal"]).to_dict()
        assert json.dumps(minimal) == json.dumps(from_document(pair["full"]).to_dict())

    def test_every_kind_is_covered(self):
        assert {doc["kind"] for doc in CORPUS["written"].values()} == set(_KINDS)

    def test_saved_profile_suite_loads(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(CORPUS["defaults"]["profile_suite_file"]["minimal"]))
        features, profiles = load_profile_suite(path)
        assert sorted(features) == sorted(profiles) == ["gzip", "mcf"]


class TestCodecRules:
    def test_each_kind_owns_its_methods(self):
        for cls in _KINDS.values():
            assert "to_dict" in vars(cls) and "from_dict" in vars(cls), cls

    def test_missing_field_names_its_path(self):
        document = CORPUS["written"]["corun_prediction"]
        broken = json.loads(json.dumps(document))
        del broken["processes"][1]["mpa"]
        with pytest.raises(
            ConfigurationError, match=r"^corun_prediction\.processes\[1\]\.mpa is missing$"
        ):
            CoRunPrediction.from_dict(broken)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), "x", None, [1]])
    def test_uncastable_int_names_its_path(self, bad):
        document = dict(CORPUS["written"]["solver_telemetry"], iterations=bad)
        with pytest.raises(
            ConfigurationError, match=r"^solver_telemetry\.iterations has invalid value"
        ):
            SolverTelemetry.from_dict(document)

    def test_dict_keys_are_cast(self):
        document = CORPUS["written"]["assignment_decision"]
        decision = AssignmentDecision.from_dict(document)
        assert all(isinstance(core, int) for core in decision.assignment)
        broken = dict(document, assignment={"zero": ["mcf"]})
        with pytest.raises(
            ConfigurationError, match=r"assignment_decision\.assignment\['zero'\]"
        ):
            AssignmentDecision.from_dict(broken)

    def test_sequence_must_be_a_list(self):
        document = dict(CORPUS["written"]["mix_prediction"], names=7)
        with pytest.raises(ConfigurationError, match=r"^mix_prediction\.names must be a list$"):
            from_document(document)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown document kind 'trace'"):
            from_document({"kind": "trace", "version": 1})
