"""Goldens and integration tests for the interprocedural lint passes.

Covers the R6 provenance pass (cross-module and callback laundering),
the R7 neutrality prover (violations *and* the certificate list), the
R8 worker-boundary pass, the SARIF emitter, the incremental cache
(round-trip, invalidation, anti-poisoning), and the seeded-violation
positive controls.  Fixture goldens pin exact (rule, path, line)
triples, same discipline as ``test_lint.py``.
"""

import json
from pathlib import Path

from repro.lint import run_lint
from repro.lint.__main__ import main as lint_main
from repro.lint.cache import (
    load_cache,
    run_lint_incremental,
)
from repro.lint.mutants import MUTANTS, run_self_test
from repro.lint.sarif import report_to_sarif

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_SRC = Path(__file__).parent.parent / "src" / "repro"


def lint_case(name):
    root = FIXTURES / name
    return run_lint([root], root=root)


def triples(findings, rule=None):
    return sorted(
        (f.rule, f.path, f.line)
        for f in findings
        if rule is None or f.rule == rule
    )


class TestR6Provenance:
    def test_cross_module_laundering(self):
        """A helper-returned RNG is flagged at the draw AND the hand-off."""
        report = lint_case("case_r6_crossmodule")
        assert triples(report.findings) == [
            ("R6", "core/engine.py", 10),  # draw on the smuggled stream
            ("R6", "core/engine.py", 16),  # ambient() into the rng param
        ]
        assert report.problems == []
        messages = {f.line: f.message for f in report.findings}
        assert "unseeded provenance" in messages[10]
        assert "parameter 'rng'" in messages[16]

    def test_registry_substream_is_not_flagged(self):
        """The blessed seeds.python(...) hand-off in the same fixture."""
        report = lint_case("case_r6_crossmodule")
        assert all(f.line != 15 for f in report.findings)

    def test_callback_carried_taint(self):
        """A factory passed as a callback taints the invoking scope."""
        report = lint_case("case_r6_callback")
        assert triples(report.findings, rule="R6") == [
            ("R6", "core/pipeline.py", 11)
        ]
        # the raw construction inside the factory is R1's finding, not R6's
        assert triples(report.findings, rule="R1") == [
            ("R1", "core/pipeline.py", 6)
        ]


class TestR7Neutrality:
    def test_guard_dropped_and_unguarded_probe(self):
        report = lint_case("case_r7")
        assert triples(report.findings) == [
            ("R7", "faults/decisions.py", 8),  # rng handed to plan.sample
            ("R7", "faults/decisions.py", 11),  # rng draw, no short-circuit
            ("R7", "faults/decisions.py", 18),  # rng handed to plan.decide
            ("R7", "faults/decisions.py", 21),  # rng to an unproved method
            ("R7", "faults/injector.py", 8),  # super() into the unsafe base
            ("R7", "sim/engine.py", 10),  # probe() without None guard
        ]
        messages = {(f.path, f.line): f.message for f in report.findings}
        assert "RNG draw" in messages[("faults/decisions.py", 11)]
        assert "FaultDecisions.__init__" in messages[("faults/decisions.py", 8)]
        assert "FaultInjector.__init__" in messages[("faults/injector.py", 8)]
        assert "hook invocation" in messages[("sim/engine.py", 10)]

    def test_unsafe_surfaces_earn_no_certificates(self):
        report = lint_case("case_r7")
        assert report.certified == []

    def test_shipped_tree_is_fully_certified(self):
        """Acceptance: R7 proves the real hook surfaces null-plan neutral."""
        report = run_lint([REPO_SRC], root=REPO_SRC.parent)
        assert triples(report.findings, rule="R7") == []
        surfaces = {c.split(".")[0] for c in report.certified}
        assert surfaces == {
            "FaultDecisions",
            "AdversaryDecisions",
            "FaultInjector",
            "AdversaryInjector",
            "FastFaultMasks",
            "FastAdversaryMasks",
            "Simulator",
        }
        certified = {c.split(":")[0] for c in report.certified}
        # The decisions the live runtime calls are proved where they live,
        # and the subclasses' constructors through super() into them.
        assert {
            "FaultDecisions.__init__",
            "FaultDecisions.drop_gossip",
            "FaultDecisions.drop_pull",
            "FaultDecisions.pollutes",
            "FaultDecisions.maybe_pollute",
            "FaultDecisions.pull_attempts",
            "AdversaryDecisions._sample_roles",
            "FaultInjector.__init__",
            "AdversaryInjector.capture_pull",
            "FastFaultMasks.__init__",
            "FastFaultMasks.gossip_loss_mask",
            "FastAdversaryMasks.__init__",
            "Simulator.run_until",
        } <= certified


class TestR8WorkerBoundary:
    def test_fork_boundary_captures(self):
        report = lint_case("case_r8")
        assert triples(report.findings) == [
            ("R8", "runner/pool.py", 4),  # module-level mutable dict
            ("R8", "runner/pool.py", 11),  # global rebinding
            ("R8", "runner/pool.py", 19),  # nested def as process target
            ("R8", "runner/pool.py", 20),  # lambda as process target
        ]
        # immutable module constants pass (the tuple and the int)
        assert all(f.line not in (5, 7) for f in report.findings)

    def test_waived_readonly_registry(self):
        report = lint_case("case_r8")
        assert triples(report.waived) == [("R8", "chaos/registry.py", 4)]
        assert report.waived[0].justification == (
            "frozen at import, never mutated"
        )
        assert report.problems == []


class TestSarif:
    def test_log_shape_and_suppressions(self):
        report = lint_case("case_r8")
        log = report_to_sarif(report)
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert len(rule_ids) == len(set(rule_ids))
        assert {"R6", "R7", "R8"} <= set(rule_ids)
        results = run["results"]
        suppressed = [r for r in results if "suppressions" in r]
        assert len(results) == 5 and len(suppressed) == 1
        assert suppressed[0]["suppressions"][0]["kind"] == "inSource"
        assert suppressed[0]["suppressions"][0]["justification"] == (
            "frozen at import, never mutated"
        )
        for result in results:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_certificates_ride_in_properties(self):
        report = run_lint([REPO_SRC], root=REPO_SRC.parent)
        log = report_to_sarif(report)
        certified = log["runs"][0]["properties"]["certified"]
        assert certified == report.certified
        assert len(certified) >= 3

    def test_cli_writes_valid_json(self, tmp_path):
        out = tmp_path / "lint.sarif"
        code = lint_main(
            ["--quiet", "--sarif", str(out), str(FIXTURES / "case_clean")]
        )
        assert code == 0
        log = json.loads(out.read_text(encoding="utf-8"))
        assert log["runs"][0]["results"] == []


class TestIncrementalCache:
    def _tree(self, tmp_path):
        root = tmp_path / "tree"
        (root / "experiments").mkdir(parents=True)
        offender = root / "experiments" / "bad.py"
        offender.write_text(
            "import random\n\n\ndef wire():\n"
            "    rng = random.Random(1234)\n"
            "    return rng.random()\n",
            encoding="utf-8",
        )
        (root / "clean.py").write_text("VALUE = 7\n", encoding="utf-8")
        return root, offender

    def test_round_trip_replays_identical_report(self, tmp_path):
        root, _ = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        first, stats1 = run_lint_incremental(
            [root], root=root, cache_path=cache
        )
        assert stats1 == {
            "ran": 2,
            "cached": 0,
            "skipped": 0,
            "project_cached": False,
        }
        second, stats2 = run_lint_incremental(
            [root], root=root, cache_path=cache
        )
        assert stats2 == {
            "ran": 0,
            "cached": 2,
            "skipped": 0,
            "project_cached": True,
        }
        assert second.to_json() == first.to_json()

    def test_edited_file_reruns_and_updates(self, tmp_path):
        root, offender = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        run_lint_incremental([root], root=root, cache_path=cache)
        offender.write_text("VALUE = 8\n", encoding="utf-8")
        report, stats = run_lint_incremental(
            [root], root=root, cache_path=cache
        )
        assert stats["ran"] == 1 and stats["cached"] == 1
        assert report.findings == []

    def test_scoped_run_without_cache_skips_but_never_poisons(
        self, tmp_path
    ):
        root, _ = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        # scoped run, cold cache: the offender is skipped, not marked clean
        report, stats = run_lint_incremental(
            [root],
            root=root,
            cache_path=cache,
            changed={"clean.py"},
        )
        assert stats["skipped"] == 1 and stats["ran"] == 1
        # per-module rules never saw the offender (no R1)...
        assert all(f.rule != "R1" for f in report.findings)
        # ...but the project passes still scan the full tree (R6 fires)
        assert any(f.rule == "R6" for f in report.findings)
        data = load_cache(cache)
        assert data is None or "experiments/bad.py" not in data.get(
            "files", {}
        )
        # a later full run still reports the skipped file's R1
        full, _ = run_lint_incremental([root], root=root, cache_path=cache)
        assert ("R1", "experiments/bad.py") in {
            (f.rule, f.path) for f in full.findings
        }

    def test_corrupt_cache_is_ignored(self, tmp_path):
        root, _ = self._tree(tmp_path)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json", encoding="utf-8")
        report, stats = run_lint_incremental(
            [root], root=root, cache_path=cache
        )
        assert stats["ran"] == 2
        assert {f.rule for f in report.findings} == {"R1", "R6"}

    def test_cli_cache_flag(self, tmp_path):
        root, _ = self._tree(tmp_path)
        cache = tmp_path / "cli-cache.json"
        assert (
            lint_main(["--quiet", "--cache", str(cache), str(root)]) == 1
        )
        assert load_cache(cache) is not None


class TestPositiveControls:
    def test_mutant_catalog_shape(self):
        assert {m.rule for m in MUTANTS} == {"R6", "R7", "R8"}
        names = [m.name for m in MUTANTS]
        assert len(names) == len(set(names))

    def test_all_seeded_violations_detected(self):
        """Acceptance: each mutant is caught by its rule in its file."""
        assert run_self_test(verbose=False) == 0

    def test_unknown_mutant_name_rejected(self):
        assert run_self_test(names=["no-such-mutant"], verbose=False) == 2
