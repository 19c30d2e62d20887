"""The contract-lint engine's own test suite.

Three layers, mirroring how the engine is trusted:

* **self-checked rules** — every registered rule ships a known-bad and a
  known-good fixture, and the meta-test refuses rules without both. The
  ``dtype-literal`` fixtures carry over the exact sample from the retired
  ``tests/tooling/test_no_float64_literals.py`` (PR 7), so the detector
  that guarded the precision policy is still proven to detect before it
  is trusted — now for all eight contracts, not one. Rules that consume
  the dataflow tier (``uses_flow``) must additionally ship a *guarded*
  fixture: same shape as the bad one but saved by a path fact (a
  dominating None-check, an intervening ``.copy()``, mutate-before-
  publish ordering) — proof the rule is actually path-sensitive rather
  than a syntactic pattern match.
* **engine mechanics** — registry semantics (duplicates raise, reserved
  ids refused, KeyError names the catalog), inline ``# lint: ok(...)``
  suppression consumption and staleness, syntax-error resilience, and the
  CLI's text/JSON/profile output and usage errors on a throwaway tree.
* **the repo itself** — ``src``+``tests`` lint with zero findings under
  every rule in under 10 s. A stale waiver or a file that does not parse
  is itself a finding, so the one check covers both. The contract rules
  and the dtype rule are also run by class, not through the registry, so
  a rule that drops out of the catalog cannot take its zero with it.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis import (
    SourceFile,
    SYNTAX_ERROR_ID,
    UNUSED_SUPPRESSION_ID,
    analyze_paths,
    analyze_sources,
    available_rules,
    get_rule,
    register_rule,
)
from repro.analysis.__main__ import main as cli_main
from repro.analysis.rules import (
    BroadExceptRule,
    DtypeLiteralRule,
    LockDisciplineRule,
    OptionalGuardRule,
    PickleBoundaryRule,
    PublishEscapeRule,
    ViewMutationRule,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

SRC_FIXTURE = "src/repro/_fixture.py"
TEST_FIXTURE = "tests/test_fixture.py"

# The PR 7 self-check sample, verbatim from test_no_float64_literals.py:
# one violation of each detected shape (import, attribute, string literal).
_S1_BAD = (
    "import numpy as np\n"
    "from numpy import float64\n"
    "a = np.float32(1.0)\n"
    'b = x.astype("float64")\n'
)

# Every rule must prove it fires on bad and stays silent on good — the
# meta-test below keeps this table in lockstep with the registry.
FIXTURES = {
    "dtype-literal": {
        "bad": (_S1_BAD, SRC_FIXTURE, 2),
        "good": (
            "from repro.autodiff.dtypes import resolve_dtype\n"
            "dtype = resolve_dtype(None)\n",
            SRC_FIXTURE,
        ),
    },
    "optional-guard": {
        "bad": (
            "class TrainerConfig:\n"
            "    grad_clip: float | None = None\n"
            "\n"
            "def step(config, grads):\n"
            "    if config.grad_clip:\n"
            "        return grads\n"
            "    return grads\n",
            SRC_FIXTURE,
            5,
        ),
        "good": (
            "class TrainerConfig:\n"
            "    grad_clip: float | None = None\n"
            "\n"
            "def step(config, grads):\n"
            "    if config.grad_clip is not None:\n"
            "        return grads\n"
            "    return grads\n",
            SRC_FIXTURE,
        ),
        # Same truthiness test as bad, but dominated by an `is not None`
        # check via short-circuit — the path-sensitive upgrade's point.
        "guarded": (
            "class TrainerConfig:\n"
            "    grad_clip: float | None = None\n"
            "\n"
            "def step(config, grads):\n"
            "    if config.grad_clip is not None and config.grad_clip:\n"
            "        return grads\n"
            "    return grads\n",
            SRC_FIXTURE,
        ),
    },
    "view-mutation": {
        "bad": (
            "def renumber(crowd):\n"
            "    rows, cols, given = crowd.flat_label_pairs()\n"
            "    rows[0] = 0\n"
            "    return rows\n",
            SRC_FIXTURE,
            3,
        ),
        "good": (
            "def renumber(crowd):\n"
            "    rows = crowd.flat_label_pairs()[0].copy()\n"
            "    rows[0] = 0\n"
            "    return rows\n",
            SRC_FIXTURE,
        ),
        # The mutation only sits on the path where the borrow was
        # laundered — the re-binding kills the taint on that path.
        "guarded": (
            "def renumber(crowd, fresh):\n"
            "    rows = crowd.flat_label_pairs()[0]\n"
            "    if fresh:\n"
            "        rows = rows.copy()\n"
            "        rows[0] = 0\n"
            "    return rows\n",
            SRC_FIXTURE,
        ),
    },
    "publish-escape": {
        "bad": (
            "def publish(entry, version, result):\n"
            "    entry.snapshot = (version, result)\n"
            "    result['state'] = 'stale'\n",
            SRC_FIXTURE,
            3,
        ),
        "good": (
            "def publish(entry, version, result):\n"
            "    entry.snapshot = (version, dict(result))\n"
            "    result['state'] = 'stale'\n",
            SRC_FIXTURE,
        ),
        # Publication is a program point: the build-up mutation happens
        # before the snapshot swap, so nothing escapes.
        "guarded": (
            "def publish(entry, version, result):\n"
            "    result['state'] = 'ready'\n"
            "    entry.snapshot = (version, result)\n",
            SRC_FIXTURE,
        ),
    },
    "lock-discipline": {
        "bad": (
            "import threading\n"
            "\n"
            "class Service:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._entries = {}  # guarded-by: _lock\n"
            "\n"
            "    def peek(self, name):\n"
            "        return self._entries[name]\n",
            SRC_FIXTURE,
            9,
        ),
        "good": (
            "import threading\n"
            "\n"
            "class Service:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._entries = {}  # guarded-by: _lock\n"
            "\n"
            "    def peek(self, name):\n"
            "        with self._lock:\n"
            "            return self._entry_locked(name)\n"
            "\n"
            "    def _entry_locked(self, name):\n"
            "        return self._entries[name]\n",
            SRC_FIXTURE,
        ),
    },
    "pickle-boundary": {
        "bad": (
            "def run_all(executor, items):\n"
            "    return [executor.submit(lambda item: item + 1, item) for item in items]\n",
            SRC_FIXTURE,
            2,
        ),
        "good": (
            "def _task(item):\n"
            "    return item + 1\n"
            "\n"
            "def run_all(executor, items):\n"
            "    return [executor.submit(_task, item) for item in items]\n",
            SRC_FIXTURE,
        ),
    },
    "broad-except": {
        "bad": (
            "def probe():\n"
            "    try:\n"
            "        import scipy.sparse\n"
            "    except Exception:\n"
            "        return False\n"
            "    return True\n",
            SRC_FIXTURE,
            4,
        ),
        "good": (
            "def probe():\n"
            "    try:\n"
            "        import scipy.sparse\n"
            "    except Exception:\n"
            "        # Capability probe: degrade to the slow path on any surprise.\n"
            "        return False\n"
            "    return True\n",
            SRC_FIXTURE,
        ),
    },
    "allclose-atol": {
        "bad": (
            "import numpy as np\n"
            "\n"
            "def test_roundtrip():\n"
            "    np.testing.assert_allclose(1.0, 1.0)\n",
            TEST_FIXTURE,
            4,
        ),
        "good": (
            "import numpy as np\n"
            "\n"
            "def test_roundtrip():\n"
            "    np.testing.assert_allclose(1.0, 1.0, atol=1e-10)\n",
            TEST_FIXTURE,
        ),
    },
}


def run_engine(text, rel):
    """Full-registry analysis of one fabricated source file."""
    return analyze_sources([SourceFile.from_source(text, rel)])


# --------------------------------------------------------------------- #
# Self-checked rules: the meta-test and the per-rule fixtures.
# --------------------------------------------------------------------- #


def test_every_registered_rule_has_fixtures():
    assert len(available_rules()) >= 8
    assert set(available_rules()) == set(FIXTURES), (
        "rule registry and fixture table out of sync — every rule ships "
        "with a known-bad and a known-good fixture, no exceptions"
    )
    for rule_id in available_rules():
        rule = get_rule(rule_id)
        assert rule.description
        assert {"bad", "good"} <= set(FIXTURES[rule_id])
        if getattr(rule, "uses_flow", False):
            assert "guarded" in FIXTURES[rule_id], (
                f"{rule_id} consumes flow facts but ships no guarded-path "
                "fixture — a flow rule must prove it stays silent when a "
                "path fact (dominating check, laundering copy, publish "
                "ordering) saves the bad shape"
            )


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_fires_on_bad_fixture(rule_id):
    text, rel, line = FIXTURES[rule_id]["bad"]
    findings = run_engine(text, rel)
    assert any(f.rule_id == rule_id and f.line == line for f in findings), (
        f"{rule_id} missed its known-bad fixture: {[str(f) for f in findings]}"
    )
    # Findings render as clickable file:line for the CLI.
    hit = next(f for f in findings if f.rule_id == rule_id and f.line == line)
    assert str(hit).startswith(f"{rel}:{line}: [{rule_id}]")


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_rule_silent_on_good_fixture(rule_id):
    text, rel = FIXTURES[rule_id]["good"]
    assert run_engine(text, rel) == []


@pytest.mark.parametrize(
    "rule_id", sorted(r for r in FIXTURES if "guarded" in FIXTURES[r])
)
def test_flow_rule_silent_on_guarded_fixture(rule_id):
    # The bad shape saved by a path fact — what distinguishes a dataflow
    # rule from a syntactic pattern match.
    text, rel = FIXTURES[rule_id]["guarded"]
    assert run_engine(text, rel) == []


@pytest.mark.parametrize("accessor", ["as_shard", "token_shard"])
def test_view_mutation_flags_writes_into_a_containers_shard(accessor):
    # A container's cached shard is the kernel surface every method
    # reads; writing into its triples corrupts them all.
    text = f"def renumber(crowd):\n    crowd.{accessor}()._labels[0] = 0\n"
    findings = run_engine(text, SRC_FIXTURE)
    assert [(f.rule_id, f.line) for f in findings] == [("view-mutation", 2)]


def test_dtype_rule_keeps_migrated_self_check():
    # The retired test asserted exactly these three detections; the
    # migrated rule must keep them (plus the bare-name shape).
    findings = run_engine(_S1_BAD, SRC_FIXTURE)
    messages = [f.message for f in findings]
    assert len(findings) == 3
    assert any("import of float64" in m for m in messages)
    assert any("attribute .float32" in m for m in messages)
    assert any("string literal 'float64'" in m for m in messages)


def test_dtype_rule_exempts_policy_module_and_tests():
    assert run_engine(_S1_BAD, "src/repro/autodiff/dtypes.py") == []
    # tests/ may name dtypes freely (they assert on them); only the
    # allclose-atol rule watches the test tree, and this sample has none.
    assert run_engine(_S1_BAD, TEST_FIXTURE) == []


def test_optional_guard_matches_fields_across_files():
    # The PR 4 shape: annotation in a config module, truthiness guard in
    # a consumer module — the prepare() pass must connect them.
    config = SourceFile.from_source(
        "class TrainerConfig:\n    lr_decay_every: int | None = None\n",
        "src/repro/core/config_fixture.py",
    )
    consumer = SourceFile.from_source(
        "def maybe_decay(config, step):\n"
        "    if config.lr_decay_every:\n"
        "        return step\n"
        "    return None\n",
        "src/repro/baselines/consumer_fixture.py",
    )
    findings = analyze_sources([config, consumer])
    assert [f.file for f in findings] == ["src/repro/baselines/consumer_fixture.py"]
    assert findings[0].rule_id == "optional-guard"
    assert findings[0].line == 2


def test_optional_guard_bare_names_stay_file_local():
    # Regression pin: ShardHandle.stop (int | None) must not contaminate
    # an unrelated module's local `stop` bool — bare names only match
    # annotations from the same file.
    decl = SourceFile.from_source(
        "class ShardHandle:\n    stop: int | None = None\n",
        "src/repro/crowd/handle_fixture.py",
    )
    other = SourceFile.from_source(
        "def loop(stopper, score):\n"
        "    stop = stopper.update(score)\n"
        "    if stop:\n"
        "        return True\n"
        "    return False\n",
        "src/repro/core/loop_fixture.py",
    )
    assert analyze_sources([decl, other]) == []


def test_allclose_kwargs_forwarding_is_compliant():
    text = (
        "import numpy as np\n"
        "\n"
        "def check(a, b, **kwargs):\n"
        "    np.testing.assert_allclose(a, b, **kwargs)\n"
    )
    assert run_engine(text, TEST_FIXTURE) == []


# --------------------------------------------------------------------- #
# Engine mechanics: suppressions, registry, syntax errors.
# --------------------------------------------------------------------- #


def test_suppression_consumes_finding():
    text = "import numpy as np\na = np.float32(1.0)  # lint: ok(dtype-literal)\n"
    assert run_engine(text, SRC_FIXTURE) == []


def test_unused_suppression_is_flagged():
    findings = run_engine("x = 1  # lint: ok(dtype-literal)\n", SRC_FIXTURE)
    assert [f.rule_id for f in findings] == [UNUSED_SUPPRESSION_ID]
    assert "stale" in findings[0].message


def test_unknown_rule_suppression_is_flagged():
    findings = run_engine("x = 1  # lint: ok(no-such-rule)\n", SRC_FIXTURE)
    assert [f.rule_id for f in findings] == [UNUSED_SUPPRESSION_ID]
    assert "does not exist" in findings[0].message


def test_comma_separated_suppressions_tracked_independently():
    # One id matches, the other is stale — only the stale one surfaces.
    text = "import numpy as np\na = np.float32(1.0)  # lint: ok(dtype-literal, broad-except)\n"
    findings = run_engine(text, SRC_FIXTURE)
    assert [f.rule_id for f in findings] == [UNUSED_SUPPRESSION_ID]
    assert "broad-except" in findings[0].message


def test_suppression_does_not_double_as_justification():
    # A waived broad-except stays waived through the suppression
    # machinery, not by the waiver comment counting as a justification
    # (which would immediately flag the waiver itself as stale).
    text = (
        "def probe():\n"
        "    try:\n"
        "        import scipy.sparse\n"
        "    except Exception:  # lint: ok(broad-except)\n"
        "        return False\n"
        "    return True\n"
    )
    assert run_engine(text, SRC_FIXTURE) == []


def test_registry_refuses_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_rule(DtypeLiteralRule())


def test_registry_reserves_engine_ids():
    class Impostor:
        rule_id = UNUSED_SUPPRESSION_ID
        description = "nope"

        def check(self, source):
            return []

    with pytest.raises(ValueError, match="reserved"):
        register_rule(Impostor())


def test_registry_rejects_non_kebab_ids():
    class BadId:
        rule_id = "Not_Kebab"
        description = "nope"

        def check(self, source):
            return []

    with pytest.raises(ValueError, match="kebab-case"):
        register_rule(BadId())


def test_get_rule_names_the_known_catalog():
    with pytest.raises(KeyError, match="dtype-literal"):
        get_rule("no-such-rule")


def test_syntax_error_reported_not_fatal(tmp_path):
    _seed_repo(tmp_path, "def broken(:\n")
    findings = analyze_paths(["src"], root=tmp_path)
    assert [f.rule_id for f in findings] == [SYNTAX_ERROR_ID]
    assert findings[0].file == "src/repro/mod.py"


# --------------------------------------------------------------------- #
# The CLI: file:line output, JSON, profile and usage errors.
# --------------------------------------------------------------------- #


def _seed_repo(tmp_path, source):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "mod.py").write_text(source)
    return pkg / "mod.py"


def test_cli_reports_file_line_rule(tmp_path, capsys):
    _seed_repo(tmp_path, "import numpy as np\nx = np.float64(3.0)\n")
    assert cli_main(["--root", str(tmp_path), "src"]) == 1
    assert "src/repro/mod.py:2: [dtype-literal]" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    _seed_repo(tmp_path, "import numpy as np\nx = np.float64(3.0)\n")
    args = ["--root", str(tmp_path), "--format", "json", "src"]
    assert cli_main(args) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 1
    assert payload["counts_by_rule"] == {"dtype-literal": 1}
    finding = payload["findings"][0]
    assert finding["file"] == "src/repro/mod.py"
    assert finding["line"] == 2
    assert finding["rule_id"] == "dtype-literal"
    assert payload["elapsed_seconds"] >= 0


def test_cli_profile_reports_every_rule(tmp_path, capsys):
    _seed_repo(tmp_path, "x = 1\n")
    assert cli_main(["--root", str(tmp_path), "--profile", "src"]) == 0
    out = capsys.readouterr().out
    for rule_id in available_rules():
        assert rule_id in out


def test_cli_json_profile_carries_rule_seconds(tmp_path, capsys):
    _seed_repo(tmp_path, "x = 1\n")
    args = ["--root", str(tmp_path), "--format", "json", "--profile", "src"]
    assert cli_main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["rule_seconds"]) == set(available_rules())


def test_cli_refuses_a_missing_path_as_a_usage_error(tmp_path, capsys):
    # A typo in a CI invocation must not read as "findings" (exit 1): it
    # is argparse's usage error (exit 2), whose error line names the path.
    _seed_repo(tmp_path, "x = 1\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["--root", str(tmp_path), "srcc"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: not a python file or directory:" in captured.err
    assert "srcc" in captured.err


def test_cli_with_no_findings_exits_zero(tmp_path, capsys):
    # The one mode: a clean tree prints the zero count and exits 0, and
    # the run writes nothing into the tree it lints.
    _seed_repo(tmp_path, "x = 1\n")
    before = sorted(tmp_path.rglob("*"))
    assert cli_main(["--root", str(tmp_path), "src"]) == 0
    assert capsys.readouterr().out.startswith("0 finding(s) in ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "flag",
    [["--baseline", "b.json"], ["--no-baseline"], ["--write-baseline"], ["--force"]],
    ids=lambda flag: flag[0],
)
def test_cli_refuses_the_removed_ratchet_flags(tmp_path, capsys, flag):
    # The baseline ratchet is gone: its flags are usage errors (exit 2),
    # not silently ignored options.
    _seed_repo(tmp_path, "import numpy as np\nx = np.float64(3.0)\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["--root", str(tmp_path), *flag, "src"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag[0]}" in captured.err


def test_cli_lists_the_catalog(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in available_rules():
        assert rule_id in out


# --------------------------------------------------------------------- #
# The repo itself: every rule holds at zero.
# --------------------------------------------------------------------- #


def test_full_repo_lints_clean():
    started = time.perf_counter()
    findings = analyze_paths(["src", "tests"], root=REPO_ROOT)
    elapsed = time.perf_counter() - started
    # Stale waivers and unparseable files are findings too, so this one
    # check also keeps every waiver live and every file parseable.
    assert findings == [], "\n".join(str(f) for f in findings)
    assert elapsed < 10.0, f"lint took {elapsed:.2f}s — tier-1 budget is 10s"


def test_src_contract_rules_hold_at_zero():
    # The S2-S7 contracts, run by class: no None-guard gap, no unlocked
    # shared state, no pickle across the serving boundary, no unjustified
    # broad except, no in-place write on a borrowed view and no mutation
    # after publication anywhere in src/.
    rules = [
        OptionalGuardRule(),
        LockDisciplineRule(),
        PickleBoundaryRule(),
        BroadExceptRule(),
        ViewMutationRule(),
        PublishEscapeRule(),
    ]
    findings = analyze_paths(["src"], root=REPO_ROOT, rules=rules)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_autodiff_holds_dtype_rule_at_zero():
    # The package that defines the precision policy never regresses to
    # raw dtype literals.
    findings = analyze_paths(
        ["src/repro/autodiff"], root=REPO_ROOT, rules=[DtypeLiteralRule()]
    )
    assert findings == [], "\n".join(str(f) for f in findings)
