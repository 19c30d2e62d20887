"""Registry completeness and interface-contract property tests.

Every paper Table II/III truth-inference name must resolve through the
registry, registry-built suite tables must match what the suites used to
hard-code, and every registered method must satisfy the shared interface
contract: correct shapes, normalized rows, no NaNs, determinism under a
fixed seed.
"""

import inspect

import numpy as np
import pytest

from repro.crowd import (
    sample_annotator_pool,
    sample_ner_pool,
    simulate_classification_crowd,
    simulate_ner_crowd,
)
from repro.data import NERCorpusConfig, make_ner_task
from repro.inference import (
    BSCSeq,
    CATD,
    DawidSkene,
    GLAD,
    HMMCrowd,
    IBCC,
    MajorityVote,
    PM,
    TokenLevelInference,
    available_methods,
    build_method_table,
    get_method,
    register,
)
from repro.inference.registry import _REGISTRY, MethodSpec

# Paper Table II truth-inference block (sentiment) and Table III block (NER).
PAPER_TABLE2_NAMES = ["MV", "DS", "GLAD", "PM", "CATD"]
PAPER_TABLE3_NAMES = ["MV", "DS", "IBCC", "BSC-seq", "HMM-Crowd"]

# Iteration-budget keywords: a budget below 1 is refused at construction.
BUDGET_KEYWORDS = ("max_iterations", "em_iterations", "gradient_steps")


@pytest.fixture(scope="module")
def small_classification_crowd():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 2, size=120)
    pool = sample_annotator_pool(rng, 10, 2)
    return simulate_classification_crowd(rng, truth, pool, mean_labels_per_instance=4.0)


@pytest.fixture(scope="module")
def small_sequence_crowd():
    rng = np.random.default_rng(1)
    task = make_ner_task(
        rng, NERCorpusConfig(num_train=25, num_dev=5, num_test=5, embedding_dim=8)
    )
    return simulate_ner_crowd(rng, task.train.tags, sample_ner_pool(rng, 6), 3.0)


class TestCompleteness:
    def test_all_paper_names_resolve(self):
        for name in PAPER_TABLE2_NAMES + ["IBCC"]:
            assert get_method(name, kind="classification") is not None
        for name in PAPER_TABLE3_NAMES:
            assert get_method(name, kind="sequence") is not None

    def test_registry_table_matches_previous_hardcoded_sentiment(self):
        table = build_method_table(PAPER_TABLE2_NAMES, kind="classification")
        expected = {"MV": MajorityVote, "DS": DawidSkene, "GLAD": GLAD, "PM": PM, "CATD": CATD}
        assert list(table) == PAPER_TABLE2_NAMES
        for name, method in table.items():
            assert type(method) is expected[name]

    def test_registry_table_matches_previous_hardcoded_ner(self):
        overrides = {"BSC-seq": {"max_iterations": 15}, "HMM-Crowd": {"max_iterations": 15}}
        table = build_method_table(PAPER_TABLE3_NAMES, kind="sequence", overrides=overrides)
        assert list(table) == PAPER_TABLE3_NAMES
        for name in ("MV", "DS", "IBCC"):
            assert type(table[name]) is TokenLevelInference
        assert type(table["MV"].method) is MajorityVote
        assert type(table["DS"].method) is DawidSkene
        assert type(table["IBCC"].method) is IBCC
        assert type(table["BSC-seq"]) is BSCSeq
        assert type(table["HMM-Crowd"]) is HMMCrowd
        assert table["BSC-seq"].max_iterations == 15
        assert table["HMM-Crowd"].max_iterations == 15

    def test_suites_build_from_registry(self):
        from repro.experiments import (
            NER_INFERENCE_METHODS,
            SENTIMENT_INFERENCE_METHODS,
            ner_inference_table,
            sentiment_inference_table,
        )

        assert SENTIMENT_INFERENCE_METHODS == PAPER_TABLE2_NAMES
        assert NER_INFERENCE_METHODS == PAPER_TABLE3_NAMES
        assert list(sentiment_inference_table()) == SENTIMENT_INFERENCE_METHODS
        assert list(ner_inference_table()) == NER_INFERENCE_METHODS

    def test_available_methods_filters_by_kind(self):
        classification = available_methods("classification")
        sequence = available_methods("sequence")
        assert set(PAPER_TABLE2_NAMES) <= set(classification)
        assert set(PAPER_TABLE3_NAMES) <= set(sequence)
        assert set(classification) | set(sequence) <= set(available_methods())


class TestRegistryAPI:
    def test_unknown_name_raises_keyerror_with_known_names(self):
        with pytest.raises(KeyError, match="MV"):
            get_method("nope")
        with pytest.raises(KeyError):
            get_method("nope", kind="sequence")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            get_method("MV", kind="token")
        with pytest.raises(ValueError):
            register("X", "token", MajorityVote)

    def test_no_silent_redefinition(self):
        with pytest.raises(ValueError, match="already registered"):
            register("MV", "classification", MajorityVote)

    def test_register_and_overwrite(self):
        key = ("classification", "_test_method")
        try:
            spec = register("_test_method", "classification", MajorityVote, "test")
            assert isinstance(spec, MethodSpec)
            assert isinstance(get_method("_test_method"), MajorityVote)
            register("_test_method", "classification", DawidSkene, overwrite=True)
            assert isinstance(get_method("_test_method"), DawidSkene)
        finally:
            _REGISTRY.pop(key, None)

    def test_overrides_forwarded(self):
        method = get_method("DS", max_iterations=7)
        assert method.max_iterations == 7
        wrapped = get_method("DS", kind="sequence", max_iterations=7)
        assert wrapped.method.max_iterations == 7


def _budget_cases():
    """(kind, name, keyword) for every budget keyword a registered
    classification, sequence, sharded, or streaming constructor takes."""
    cases = []
    for kind in ("classification", "sequence", "sharded", "streaming"):
        for name in available_methods(kind):
            parameters = inspect.signature(_REGISTRY[kind, name].factory).parameters
            for keyword in BUDGET_KEYWORDS:
                if keyword in parameters:
                    cases.append(
                        pytest.param(kind, name, keyword, id=f"{kind}-{name}-{keyword}")
                    )
    return cases


# Out-of-range non-budget values. PM's error clamp [floor, 1 - floor] must
# be a nonempty interval inside (0, 1): from floor 0.5 up np.clip returns
# the upper bound for every annotator (uniform weights), and floor 0
# admits -log(0). HMM-Crowd's smoothing is a pseudo-count, as DS's is.
# GLAD's learning rate must be positive and finite: at 0 every ability
# stays at 1, and a negative rate clips every ability to +8. The
# streaming GLAD refuses it through its batch twin.
HOSTILE_VALUES = [
    ("classification", "PM", "floor", 0.7),
    ("classification", "PM", "floor", 0.5),
    ("sharded", "PM", "floor", 0.0),
    ("classification", "PM", "floor", -0.1),
    ("sequence", "HMM-Crowd", "smoothing", -1.0),
    ("classification", "GLAD", "learning_rate", 0.0),
    ("classification", "GLAD", "learning_rate", -0.05),
    ("classification", "GLAD", "learning_rate", float("nan")),
    ("streaming", "GLAD", "learning_rate", 0.0),
]


class TestConstructorValidation:
    @pytest.mark.parametrize("kind,name,keyword", _budget_cases())
    def test_zero_budget_rejected_at_construction(self, kind, name, keyword):
        with pytest.raises(ValueError):
            get_method(name, kind, **{keyword: 0})

    @pytest.mark.parametrize(
        "kind,name,keyword,value",
        [pytest.param(*case, id="-".join(map(str, case))) for case in HOSTILE_VALUES],
    )
    def test_hostile_value_rejected_at_construction(self, kind, name, keyword, value):
        with pytest.raises(ValueError, match=keyword):
            get_method(name, kind, **{keyword: value})


class TestOneClassPerMethod:
    """Each sharded method is its classification method: one class, one EM
    loop, and ``infer(crowd)`` is the one-shard run."""

    @pytest.mark.parametrize("name", available_methods("sharded"))
    def test_sharded_and_classification_kinds_share_the_class(
        self, name, small_classification_crowd
    ):
        method = get_method(name, "classification")
        assert type(get_method(name, "sharded")) is type(method)
        assert method.infer(small_classification_crowd).extras["shards"] == 1


class TestInterfaceContract:
    """Shape / normalization / NaN / determinism for every registered method."""

    @pytest.mark.parametrize("name", available_methods("classification"))
    def test_classification_contract(self, name, small_classification_crowd):
        crowd = small_classification_crowd
        result = get_method(name, kind="classification").infer(crowd)
        assert result.posterior.shape == (crowd.num_instances, crowd.num_classes)
        np.testing.assert_allclose(result.posterior.sum(axis=1), 1.0, atol=1e-8)
        assert np.isfinite(result.posterior).all()
        if result.confusions is not None:
            assert result.confusions.shape == (
                crowd.num_annotators,
                crowd.num_classes,
                crowd.num_classes,
            )
            assert np.isfinite(result.confusions).all()

    @pytest.mark.parametrize("name", available_methods("classification"))
    def test_classification_deterministic(self, name, small_classification_crowd):
        crowd = small_classification_crowd
        first = get_method(name, kind="classification").infer(crowd)
        second = get_method(name, kind="classification").infer(crowd)
        np.testing.assert_array_equal(first.posterior, second.posterior)

    @pytest.mark.parametrize("name", available_methods("sequence"))
    def test_sequence_contract(self, name, small_sequence_crowd):
        crowd = small_sequence_crowd
        result = get_method(name, kind="sequence").infer(crowd)
        assert len(result.posteriors) == crowd.num_instances
        for i, posterior in enumerate(result.posteriors):
            assert posterior.shape == (crowd.labels[i].shape[0], crowd.num_classes)
            np.testing.assert_allclose(posterior.sum(axis=1), 1.0, atol=1e-8)
            assert np.isfinite(posterior).all()

    @pytest.mark.parametrize("name", available_methods("sequence"))
    def test_sequence_deterministic(self, name, small_sequence_crowd):
        crowd = small_sequence_crowd
        first = get_method(name, kind="sequence").infer(crowd)
        second = get_method(name, kind="sequence").infer(crowd)
        for a, b in zip(first.posteriors, second.posteriors):
            np.testing.assert_array_equal(a, b)


class TestDiagnosticsContract:
    """Every *iterative* method must expose the shared ConvergenceMonitor
    keys — the contract the PR-3 sweep extended to GLAD/PM/CATD (which used
    to report ad-hoc extras or none at all)."""

    ITERATIVE_CLASSIFICATION = ["DS", "IBCC", "GLAD", "PM", "CATD"]

    @pytest.mark.parametrize("name", ITERATIVE_CLASSIFICATION)
    def test_monitor_keys_present_and_sane(self, name, small_classification_crowd):
        extras = get_method(name, kind="classification").infer(small_classification_crowd).extras
        assert {"iterations", "last_change", "converged"} <= set(extras)
        assert extras["iterations"] >= 1
        assert np.isfinite(extras["last_change"])
        assert isinstance(extras["converged"], bool)

    @pytest.mark.parametrize("name", ["DS", "IBCC"])
    def test_confusion_family_traces_e_step_log_normalizer(
        self, name, small_classification_crowd
    ):
        # One entry per round from the shared DS loop; for IBCC it is one
        # term of the variational bound, so only its shape is pinned.
        extras = get_method(name, kind="classification").infer(small_classification_crowd).extras
        assert len(extras["log_likelihood_trace"]) == extras["iterations"]
        assert np.isfinite(extras["log_likelihood_trace"]).all()

    @pytest.mark.parametrize("name", ["GLAD", "PM", "CATD"])
    def test_method_specific_extras_preserved(self, name, small_classification_crowd):
        extras = get_method(name, kind="classification").infer(small_classification_crowd).extras
        if name == "GLAD":
            assert extras["alpha"].shape == (small_classification_crowd.num_annotators,)
            assert extras["beta"].shape == (small_classification_crowd.num_instances,)
        else:
            assert extras["weights"].shape == (small_classification_crowd.num_annotators,)

    def test_mv_is_intentionally_monitor_free(self, small_classification_crowd):
        # MV is closed-form; the diagnostics contract applies to iterative
        # methods only, and MV advertising fake iteration counts would lie.
        extras = get_method("MV", kind="classification").infer(small_classification_crowd).extras
        assert "iterations" not in extras

    def test_converged_methods_report_subtolerance_change(self, small_classification_crowd):
        for name in ("PM", "CATD"):
            method = get_method(name, kind="classification")
            extras = method.infer(small_classification_crowd).extras
            if extras["converged"]:
                assert extras["last_change"] < method.tolerance

    def test_registered_kinds_match_paper_applicability(self):
        # GLAD/PM/CATD are instance-level methods (GLAD binary-only — "GLAD,
        # which is inapplicable on NER"); none of them is a sequence method.
        sequence = set(available_methods("sequence"))
        classification = set(available_methods("classification"))
        assert {"GLAD", "PM", "CATD"} <= classification
        assert not ({"GLAD", "PM", "CATD"} & sequence)
        assert "MV" in classification and "MV" in sequence
