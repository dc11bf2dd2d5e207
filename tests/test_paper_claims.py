"""The paper's published claims, checked against full-input driver results.

Every registered experiment except ``accuracy`` runs once, through a
module-scoped fixture, on the paper's own inputs.  Each claim must land
within its registered tolerance, and the shape properties that carry the
paper's arguments (which phase dominates, what rises with what) must hold.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.analysis.claims import EXPERIMENTS, claim, report
from repro.results import (
    PHASE_FFN,
    PHASE_LAYERNORM,
    PHASE_RESIDUAL,
    PHASE_SELF_ATTENTION,
    PHASE_SYNC,
)

ROOT = Path(__file__).resolve().parents[1]

#: The accuracy driver takes ~26 s and registers no claims.
CHECKED = tuple(experiment for experiment in EXPERIMENTS if experiment.key != "accuracy")
CLAIM_CASES = [(experiment.key, entry) for experiment in CHECKED for entry in experiment.claims]


def _load(relative_path: str):
    path = ROOT / relative_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _experiment(key: str):
    return next(experiment for experiment in EXPERIMENTS if experiment.key == key)


@pytest.fixture(scope="module")
def results():
    return {experiment.key: experiment.driver() for experiment in CHECKED}


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_keys_and_claim_names_are_unique(self):
        keys = [experiment.key for experiment in EXPERIMENTS]
        assert len(keys) == len(set(keys))
        names = [entry.name for experiment in EXPERIMENTS for entry in experiment.claims]
        assert len(names) == len(set(names))

    def test_tolerances_are_relative_fractions(self):
        for experiment in EXPERIMENTS:
            for entry in experiment.claims:
                assert 0.0 <= entry.tolerance < 1.0, entry.name

    def test_accuracy_registers_no_claims(self):
        assert _experiment("accuracy").claims == ()

    def test_claim_lookup(self):
        assert claim("table2.dfx_tok_s").published == 72.68
        with pytest.raises(KeyError):
            claim("no.such.claim")

    def test_benchmark_copy_matches_registry(self):
        """perfbench keeps its own copy of 11 published values; they must not
        drift from the registry's."""
        bench = _load("perfbench/workloads.py")
        published = [
            (name, value)
            for claims in bench.CLAIMS.values()
            for name, _, value in claims
        ]
        assert len(published) == 11
        for name, value in published:
            assert claim(name).published == value, name


@pytest.mark.parametrize(
    "key, entry", CLAIM_CASES, ids=[entry.name for _, entry in CLAIM_CASES]
)
def test_claim_within_tolerance(results, key, entry):
    value = entry.extract(results[key])
    assert entry.holds(value), (
        f"{entry.name}: ours {value:.5g}, paper {entry.published:.5g}, "
        f"error {100 * entry.error(value):+.1f}% outside {100 * entry.tolerance:.0f}%"
    )


# ------------------------------------------------------------------- report
class TestReport:
    def test_all_claims_hold(self, results, capsys):
        for experiment in CHECKED:
            assert report(experiment, results[experiment.key]) == 0
        assert "FLAGGED" not in capsys.readouterr().out

    def test_flags_claim_outside_tolerance(self, results, capsys):
        figure16 = _experiment("figure16")
        gain = figure16.claims[0]
        off = dataclasses.replace(gain, published=gain.published * (1 + 2 * gain.tolerance))
        perturbed = dataclasses.replace(figure16, claims=(off, figure16.claims[1]))
        assert report(perturbed, results["figure16"]) == 1
        output = capsys.readouterr().out
        assert output.count("FLAGGED") == 1 and output.count(" ok") == 1

    def test_prints_summary_lines(self, results, capsys):
        report(_experiment("figure8"), results["figure8"])
        output = capsys.readouterr().out
        assert "  Pareto front (d, l): [(128, 8), (64, 16)]" in output
        assert "  chosen point (d, l): (64, 16)" in output


class TestReportScript:
    def test_list_prints_titles_in_paper_order(self, capsys):
        script = _load("scripts/run_all_experiments.py")
        assert script.main(["--list"]) == 0
        titles = capsys.readouterr().out.splitlines()
        assert titles == [experiment.title for experiment in EXPERIMENTS]

    def test_unknown_section(self, capsys):
        script = _load("scripts/run_all_experiments.py")
        assert script.main(["--section", "figure 99"]) == 2

    def test_flagged_claim_fails_the_run(self, monkeypatch, capsys):
        script = _load("scripts/run_all_experiments.py")
        table1 = _experiment("table1")
        layers = dataclasses.replace(table1.claims[0], published=25)
        monkeypatch.setattr(script, "EXPERIMENTS",
                            (dataclasses.replace(table1, claims=(layers,)),))
        assert script.main(["--section", "table i"]) == 1
        captured = capsys.readouterr()
        assert "FLAGGED" in captured.out
        assert "1 claim(s) outside their tolerance" in captured.err


# ------------------------------------------------------------------- shapes
def test_figure3_output_tokens_dominate(results):
    fig3 = results["figure3"]
    assert fig3.marginal_output_token_ms > 40.0
    assert fig3.marginal_input_token_ms < 0.2
    assert fig3.marginal_output_token_ms > 300 * fig3.marginal_input_token_ms


def test_figure4_layernorm_and_residual_cost_time_not_operations(results):
    fig4 = results["figure4"]
    assert fig4.latency_fractions[PHASE_SELF_ATTENTION] > 0.4
    assert fig4.operation_fractions[PHASE_FFN] > 0.6
    slow_time = (fig4.latency_fractions[PHASE_LAYERNORM]
                 + fig4.latency_fractions[PHASE_RESIDUAL])
    cheap_ops = (fig4.operation_fractions[PHASE_LAYERNORM]
                 + fig4.operation_fractions[PHASE_RESIDUAL])
    assert slow_time > 0.2
    assert cheap_ops < 0.01


def test_figure14_speedup_rises_with_model_size(results):
    speedups = results["figure14"].speedups()
    assert speedups["gpt2-345m"] < speedups["gpt2-774m"] < speedups["gpt2-1.5b"]


def test_figure15_matrix_phases_dominate_and_sync_is_double_digit(results):
    fractions = results["figure15"].fractions
    assert fractions[PHASE_SELF_ATTENTION] + fractions[PHASE_FFN] > 0.55
    assert 0.05 < fractions[PHASE_SYNC] < 0.30
    assert fractions[PHASE_RESIDUAL] < 0.05
    assert fractions[PHASE_LAYERNORM] < 0.20


def test_figure16_dfx_amortizes_and_gpu_stays_flat(results):
    rows = results["figure16"].rows
    gpu = {row.workload.label: row.baseline.tokens_per_second for row in rows}
    dfx = {row.workload.label: row.dfx.tokens_per_second for row in rows}
    assert dfx["[32:256]"] > dfx["[32:4]"]
    assert gpu["[32:256]"] < 3 * gpu["[32:4]"]


def test_figure17_only_dfx_sustains_generation_gflops(results):
    fig17 = results["figure17"]
    assert fig17.gpu.summarization_gflops > 10 * fig17.gpu.generation_gflops
    assert fig17.tpu.summarization_gflops > 10 * fig17.tpu.generation_gflops
    assert abs(fig17.dfx.summarization_gflops - fig17.dfx.generation_gflops) < (
        0.2 * fig17.dfx.summarization_gflops
    )
    assert fig17.dfx.generation_gflops > 2 * fig17.gpu.generation_gflops
    assert fig17.dfx.generation_gflops > 5 * fig17.tpu.generation_gflops


def test_figure18_scales_sublinearly(results):
    fig18 = results["figure18"]
    tokens = fig18.tokens_per_second
    assert tokens[0] < tokens[1] < tokens[2]
    for factor in fig18.scaling_factors():
        assert 1.2 < factor < 1.9
