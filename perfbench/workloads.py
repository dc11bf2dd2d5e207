"""The benchmark's workloads: seeded inputs, set-up, timed passes, checks.

Every workload is driven closed-loop: the benchmark makes one call into the
program, waits for it to return, checks what it returned, and only then
makes the next.  A *pass* is one sweep over the workload's fixed, seeded
input set; a run repeats passes until its time is up.  The serving traces
are open-loop in *simulated* time (requests arrive on their own schedule),
which is a property of the input, not of the host load.

Each workload reports its work in its own unit (``work_unit``): simulated
requests completed, generated tokens, or analytic token steps.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

import numpy as np

from repro.analysis import experiments
from repro.analysis.workload_presets import (
    PAPER_EVALUATION_SETUPS,
    PRIMARY_SETUP,
    SCALABILITY_SETUP,
)
from repro.core.functional import DFXFunctionalSimulator
from repro.model.config import GPT2_TEST_SMALL
from repro.model.numerics import FP16_DFX
from repro.model.weights import generate_weights
from repro.serving import (
    ARTICLE_MIX,
    CHATBOT_MIX,
    DATACENTER_MIX,
    ApplianceFleet,
    ApplianceServer,
    FaultSchedule,
    FleetMember,
    NetworkLink,
    NetworkModel,
    RetryPolicy,
    bursty_trace,
    diurnal_trace,
    merge_traces,
    poisson_trace,
    with_service_levels,
)
from repro.workloads import BALANCED_64_64_WORKLOAD, PAPER_WORKLOAD_GRID

#: The seed the pinned outputs in ``pins.json`` were made with.  Other seeds
#: run the invariant checks only.
DEFAULT_SEED = 0
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Relative tolerance for simulated statistics that are sums of floats; a
#: change of summation order may move their last bits, nothing else may.
SUM_RTOL = 1e-9


def load_pins(workload: str, seed: int) -> dict | None:
    """The workload's pinned outputs, or ``None`` off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(PINS_PATH.read_text())[workload]


class Checker:
    """Collects output-check failures, each tagged with its operation."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def equal(self, label: str, got, want) -> bool:
        return self.expect(got == want, f"{label}: got {got!r}, expected {want!r}")

    def close(self, label: str, got: float, want: float) -> bool:
        ok = abs(got - want) <= SUM_RTOL * max(abs(want), 1e-300)
        return self.expect(ok, f"{label}: got {got!r}, expected {want!r}")


class PassRecord:
    """What one pass did: its work, its timed calls and its checked ops."""

    def __init__(self) -> None:
        self.work = 0
        #: (key, clock call index) of every timed call.  A key names the same
        #: call in every pass (a stream, a driver, a step position), so a run
        #: can take each call's median over its passes.
        self.calls: list[tuple[object, int]] = []
        self.ops = 0
        self.failed_ops = 0


class Workload:
    """One benchmark workload: seeded inputs, set-up, passes and checks."""

    name = ""
    work_unit = ""
    #: Whether every timed call is one generation step (step latencies).
    calls_are_steps = False
    #: Set by the traced run while its spans are being recorded.
    tracer = None

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self, seed: int):
        raise NotImplementedError

    def run_pass(self, state, clock, checker: Checker) -> PassRecord:
        raise NotImplementedError

    def gauges(self, state) -> dict:
        """Per-layer values read from the program's public state after the
        traced pass (counts the wrappers cannot see)."""
        return {}

    def final_checks(self, state, checker: Checker) -> None:
        """Checks that need the whole run (after timing stops)."""

    def summary(self, state) -> dict:
        """Deterministic figures printed with the metrics (not metrics)."""
        return {}

    def _op(self, record: PassRecord, checker: Checker, label: str, key, clock,
            fn, *args):
        """One checked closed-loop call; an exception fails the op."""
        before = len(checker.failures)
        record.ops += 1
        try:
            result, index = clock.call(fn, *args)
        except Exception as error:  # the run must go on and report the failure
            checker.failures.append(f"{label}: raised {error!r}")
            record.failed_ops += 1
            return None
        record.calls.append((key, index))
        return result, before

    @staticmethod
    def _close_op(record: PassRecord, checker: Checker, before: int) -> None:
        if len(checker.failures) > before:
            record.failed_ops += 1


# ------------------------------------------------------------------ serving
def _rank_band_ok(value: float, band: dict) -> bool:
    """A sketch answer is right when its rank lies in the pinned band.

    ``band`` holds the exact order statistics at the band's edges, the
    target rank minus and plus ``rank_error_bound() + 1``; checking by rank,
    not by value, accepts every answer the sketch's contract allows.
    """
    return band["lo"] <= value <= band["hi"]


class _TracedTrace:
    """Iterator over a lazy trace whose ``next`` calls are spans."""

    def __init__(self, trace, tracer) -> None:
        self._next = tracer.wrap(
            trace.__next__, "requests.next", "requests",
            ident=lambda args, result: getattr(result, "request_id", None),
        )

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class _ServeWorkload(Workload):
    """Shared pass loop of the two serving workloads."""

    work_unit = "req"

    def _serve_op(self, state):
        report = state["target"].serve(self._trace(state))
        if self.tracer is not None:
            values = self.tracer.call("server.query", "query", self.read, report)
        else:
            values = self.read(report)
        return report, values

    def run_pass(self, state, clock, checker):
        record = PassRecord()
        label = f"{self.name} pass {state['passes']}"
        outcome = self._op(record, checker, label, "pass", clock, self._serve_op, state)
        state["passes"] += 1
        if outcome is None:
            return record
        (report, values), before = outcome
        checker.equal(
            f"{label}: completed + abandoned + failed",
            values["completed"] + values["abandoned"] + values["failed"],
            state["offered"],
        )
        if state["first"] is None:
            state["first"] = values
            self._check_pins(state, values, checker, label)
        else:
            checker.equal(f"{label}: same statistics as the first pass",
                          values, state["first"])
        self._close_op(record, checker, before)
        record.work = values["completed"]
        state["report"] = report
        return record

    def _check_pins(self, state, values, checker, label):
        pins = state["pins"]
        if pins is None:
            return
        for key in pins["exact"]:
            checker.equal(f"{label}: {key}", values[key], pins["exact"][key])
        for key in pins["sums"]:
            checker.close(f"{label}: {key}", values[key], pins["sums"][key])
        for key, band in pins.get("rank_bands", {}).items():
            checker.expect(
                _rank_band_ok(values[key], band),
                f"{label}: {key} = {values[key]!r} outside the pinned rank "
                f"band [{band['lo']!r}, {band['hi']!r}]",
            )

    def gauges(self, state):
        report = state["report"]
        gauges = {
            "faults.retries": report.num_retries,
            "faults.failed": report.num_failed,
            "faults.availability": report.availability,
            "network.cross_rack_frac": report.cross_rack_dispatch_fraction,
            "batching.batches": report.num_batches,
            "batching.mean_batch_size": report.mean_batch_size,
            "stats.sketch_entries": 0,
        }
        if report.stats is not None:
            stats = report.stats
            sketches = [stats.response, stats.queueing, stats.gather,
                        stats.failover, stats.transfer, stats.cross_rack_response,
                        *stats.response_by_class.values()]
            # The sketch exposes no size accessor; its summary list is the
            # memory the streaming accounting holds.
            gauges["stats.sketch_entries"] = sum(
                len(sketch._entries) for sketch in sketches
            )
        return gauges


class ServeStream(_ServeWorkload):
    """Lazy diurnal trace through the streaming (non-retaining) server."""

    name = "serve-stream"
    PEAK_RATE_PER_S = 9.0
    PERIOD_S = 3600.0
    NUM_CLUSTERS = 8
    REQUESTS_PER_PASS = 10_000
    WARMUP_REQUESTS = 300

    def params(self):
        return {
            "trace": "diurnal, lazy", "mix": DATACENTER_MIX.name,
            "peak_rate_per_s": self.PEAK_RATE_PER_S, "period_s": self.PERIOD_S,
            "requests_per_pass": self.REQUESTS_PER_PASS,
            "server": f"ApplianceServer('dfx', num_clusters={self.NUM_CLUSTERS}, "
                      "retain_records=False)",
        }

    def lazy_trace(self, seed, limit):
        return diurnal_trace(
            self.PEAK_RATE_PER_S, 1e12, period_s=self.PERIOD_S,
            mix=DATACENTER_MIX, seed=seed, limit=limit, lazy=True,
        )

    def setup(self, seed):
        server = ApplianceServer(
            "dfx", num_clusters=self.NUM_CLUSTERS, retain_records=False
        )
        state = {"target": server, "seed": seed, "offered": self.REQUESTS_PER_PASS,
                 "passes": 0, "first": None, "report": None, "generated": 0,
                 "pins": load_pins(self.name, seed)}
        # Price the mix's request shapes once, as a long-running server has.
        server.serve(self._trace(state, self.WARMUP_REQUESTS))
        return state

    def _trace(self, state, limit=REQUESTS_PER_PASS):
        trace = self.lazy_trace(state["seed"], limit)
        if self.tracer is None:
            return trace
        state["generated"] += limit
        return _TracedTrace(trace, self.tracer)

    @staticmethod
    def read(report) -> dict:
        """The pinned statistics of a streaming report."""
        stats = report.stats
        return {
            "completed": report.num_requests,
            "abandoned": report.num_abandoned,
            "failed": report.num_failed,
            "offered": report.num_offered,
            "output_tokens": stats.output_tokens,
            "batches": report.num_batches,
            "makespan_s": report.makespan_s,
            "mean_response_s": report.mean_response_time_s,
            "energy_j": report.total_energy_joules,
            "utilization": report.utilization,
            "response_p50_s": report.response_time_percentile_s(50),
            "response_p99_s": report.response_time_percentile_s(99),
            "queueing_p99_s": report.queueing_delay_percentile_s(99),
        }

    def gauges(self, state):
        gauges = super().gauges(state)
        gauges["requests.generated"] = state["generated"]
        gauges["simulator.arrivals"] = state["generated"]
        return gauges


class ServeFleet(_ServeWorkload):
    """A materialized two-class trace on a faulty, networked, batching fleet."""

    name = "serve-fleet"
    #: Short, frequent bursts and outages: the fleet queues in every burst
    #: and each burst ends before the queue grows long, so every seed loads
    #: the simulator alike (long bursts let the O(queue) dispatch cost of
    #: one unlucky seed dominate its run).  The chat class's patience does
    #: not bound the queue: the pinned seed 0 abandons no request.
    DURATION_S = 1800.0
    WARMUP_REQUESTS = 1500

    def params(self):
        return {
            "trace": "materialized: bursty chat (10/s bursts of mean 5 s, 2/s "
                     "idle of mean 10 s; priority 0, slo 4 s, patience 10 s) + "
                     "poisson article (1.5/s, priority 1)",
            "duration_s": self.DURATION_S,
            "fleet": "3 x dfx-4u + gpu (max_batch_size=8), continuous batching, "
                     "priority scheduler, 2-rack star (50 ms, 125 MB/s), poisson "
                     "faults (mtbf 300 s, mttr 20 s), retries (3 attempts, "
                     "backoff 0.5 s x2, cap 8 s), records retained",
        }

    def build_trace(self, seed):
        chat = with_service_levels(
            bursty_trace(10.0, 2.0, self.DURATION_S, mean_burst_s=5.0,
                         mean_idle_s=10.0, mix=CHATBOT_MIX, seed=seed),
            priority=0, slo_s=4.0, patience_s=10.0, service_class="chat",
        )
        article = with_service_levels(
            poisson_trace(1.5, self.DURATION_S, mix=ARTICLE_MIX, seed=seed + 1),
            priority=1, service_class="article",
        )
        return merge_traces(chat, article)

    def setup(self, seed):
        if self.tracer is not None:
            trace = self.tracer.call("requests.build", "requests",
                                     self.build_trace, seed)
        else:
            trace = self.build_trace(seed)
        fleet = self.build_fleet(seed)
        # Price the trace's shapes on every member once.
        fleet.serve(trace[: self.WARMUP_REQUESTS])
        return {"target": fleet, "trace": trace, "offered": len(trace),
                "passes": 0, "first": None, "report": None,
                "pins": load_pins(self.name, seed)}

    def build_fleet(self, seed):
        members = [FleetMember(f"dfx{i}", "dfx-4u") for i in range(3)]
        members.append(FleetMember("gpu0", "gpu", max_batch_size=8))
        network = NetworkModel.star(
            {"rack0": ("dfx0", "dfx1"), "rack1": ("dfx2", "gpu0")},
            ingress="rack0",
            link=NetworkLink(latency_s=0.05, bandwidth_bytes_per_s=1.25e8),
        )
        return ApplianceFleet(
            members,
            scheduler="priority",
            batch_policy="continuous",
            faults=FaultSchedule.poisson(300.0, 20.0, self.DURATION_S, seed=seed + 2),
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.5,
                                     backoff_multiplier=2.0, max_backoff_s=8.0),
            network=network,
        )

    def _trace(self, state):
        return state["trace"]

    @staticmethod
    def read(report) -> dict:
        """The pinned statistics of a retained fleet report."""
        return {
            "completed": report.num_requests,
            "abandoned": report.num_abandoned,
            "failed": report.num_failed,
            "offered": report.num_offered,
            "retries": report.num_retries,
            "batches": report.num_batches,
            "cross_rack_dispatches": report.num_cross_rack_dispatches,
            "slo_violations": report.slo_violations,
            "response_p50_s": report.response_time_percentile_s(50),
            "response_p95_s": report.response_time_percentile_s(95),
            "response_p99_s": report.response_time_percentile_s(99),
            "chat_p99_s": report.response_time_percentile_s(99, "chat"),
            "article_p99_s": report.response_time_percentile_s(99, "article"),
            "makespan_s": report.makespan_s,
            "mean_response_s": report.mean_response_time_s,
            "energy_j": report.total_energy_joules,
            "availability": report.availability,
            "mean_batch_size": report.mean_batch_size,
        }

    def gauges(self, state):
        gauges = super().gauges(state)
        trace_length = len(state["trace"])
        gauges["requests.generated"] = trace_length
        gauges["simulator.arrivals"] = min(self.WARMUP_REQUESTS, trace_length) + trace_length
        return gauges


# ------------------------------------------------------------------- decode
def token_digest(tokens: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, tokens)).encode()).hexdigest()[:16]


class _DecodeWorkload(Workload):
    """Shared inputs and set-up of the two functional-simulator workloads."""

    work_unit = "tok"
    CONFIG = GPT2_TEST_SMALL
    WEIGHTS_SEED = 7
    NUM_DEVICES = 4
    STREAMS = 8
    PROMPT_TOKENS = (8, 48)
    NEW_TOKENS = (32, 128)

    def params(self):
        return {
            "model": self.CONFIG.name, "weights_seed": self.WEIGHTS_SEED,
            "devices": self.NUM_DEVICES, "numerics": "FP16_DFX",
            "streams": self.STREAMS, "prompt_tokens": list(self.PROMPT_TOKENS),
            "new_tokens": list(self.NEW_TOKENS),
        }

    def inputs(self, seed):
        """Seeded prompts and token budgets, in admission order.

        Prompt lengths and budgets are evenly spaced over their ranges, and
        the seed pairs them, orders the streams and draws the tokens.  Every
        seed thus asks for the same amount of work in a different ragged
        arrangement, so runs on different seeds measure the engine, not the
        luck of the draw.
        """
        rng = np.random.default_rng(seed)
        lengths = np.linspace(*self.PROMPT_TOKENS, self.STREAMS).round().astype(int)
        budgets = np.linspace(*self.NEW_TOKENS, self.STREAMS).round().astype(int)
        lengths = rng.permutation(lengths)
        budgets = rng.permutation(budgets)
        prompts = [
            [int(token) for token in rng.integers(0, self.CONFIG.vocab_size, size=length)]
            for length in lengths
        ]
        return prompts, [int(budget) for budget in budgets]

    def setup(self, seed):
        prompts, budgets = self.inputs(seed)
        weights = generate_weights(self.CONFIG, seed=self.WEIGHTS_SEED)
        simulator = DFXFunctionalSimulator(
            weights, num_devices=self.NUM_DEVICES, numerics=FP16_DFX
        )
        self._warm(simulator, prompts)
        pins = load_pins("decode", seed)
        if pins is not None and (pins["prompt_lengths"] != [len(p) for p in prompts]
                                 or pins["budgets"] != budgets):
            raise RuntimeError("the seeded decode inputs differ from the pinned "
                               "ones: pins.json is stale")
        return {"simulator": simulator, "prompts": prompts, "budgets": budgets,
                "pins": pins, "first": None, "passes": 0, "samples": []}

    def _check_streams(self, state, outputs, checker, label):
        """Per-stream checks shared by both decode paths."""
        pins = state["pins"]
        for stream, tokens in outputs.items():
            where = f"{label} stream {stream}"
            checker.equal(f"{where}: tokens generated", len(tokens),
                          state["budgets"][stream])
            if pins is not None:
                checker.equal(f"{where}: token digest", token_digest(tokens),
                              pins["digests"][stream])


class Decode(_DecodeWorkload):
    """Each prompt alone through ``generate``, then ``reset_cache``."""

    name = "decode"

    @staticmethod
    def _warm(simulator, prompts):
        # Compile and link the prefill program of every prompt length.
        for prompt in prompts:
            simulator.generate(prompt, 2)
            simulator.reset_cache()

    @staticmethod
    def _generate(simulator, prompt, budget, stream):
        # ``stream`` only labels the traced span.
        tokens = simulator.generate(prompt, budget)
        simulator.reset_cache()
        return tokens

    def run_pass(self, state, clock, checker):
        record = PassRecord()
        simulator = state["simulator"]
        first = state["first"]
        generate = self._generate
        if self.tracer is not None:
            generate = self.tracer.wrap(generate, "functional.generate", "generate",
                                        ident=lambda args, result: args[3])
        outputs = {}
        for stream, (prompt, budget) in enumerate(zip(state["prompts"], state["budgets"])):
            label = f"decode pass {state['passes']} stream {stream}"
            outcome = self._op(record, checker, label, stream, clock, generate,
                               simulator, prompt, budget, stream)
            if outcome is None:
                continue
            tokens, before = outcome
            self._check_streams(state, {stream: tokens}, checker, f"decode pass {state['passes']}")
            if first is not None:
                checker.equal(f"{label}: same tokens as the first pass",
                              tokens, first[stream])
            self._close_op(record, checker, before)
            outputs[stream] = tokens
            record.work += len(tokens)
        if first is None:
            state["first"] = outputs
        state["passes"] += 1
        return record


class DecodeBatched(_DecodeWorkload):
    """The same prompts through one continuous-batching session per pass."""

    name = "decode-batched"
    calls_are_steps = True

    @staticmethod
    def _warm(simulator, prompts):
        # Compile and link the batched prefill of every prompt length and
        # grow the KV slot arenas to the pass's high-water mark.
        session = simulator.batched_session()
        for prompt in prompts:
            session.admit(prompt, 2)
        session.run()

    @staticmethod
    def _step(session, admit):
        """Admit the next stream, if any, then advance the session one step."""
        stream_id = session.admit(*admit) if admit is not None else None
        return stream_id, session.step()

    def run_pass(self, state, clock, checker):
        record = PassRecord()
        label = f"decode-batched pass {state['passes']}"
        record.ops = 1
        before = len(checker.failures)
        simulator = state["simulator"]
        tracer = self.tracer
        step = self._step
        if tracer is not None:
            step = tracer.wrap(step, "session.step", "step",
                               ident=lambda args, result: result and result[0])
        observe = tracer is not None
        try:
            session = simulator.batched_session()
            pending = list(zip(state["prompts"], state["budgets"]))
            stream_ids = []
            more = True
            while pending or more:
                admit = pending.pop(0) if pending else None
                (stream_id, more), index = clock.call(step, session, admit)
                record.calls.append((len(record.calls), index))
                if stream_id is not None:
                    stream_ids.append(stream_id)
                if observe:
                    state["samples"].append(self._sample(session, state, stream_ids))
            outputs = {stream: session.outputs(stream_id)
                       for stream, stream_id in enumerate(stream_ids)}
        except Exception as error:  # the run must go on and report the failure
            checker.failures.append(f"{label}: raised {error!r}")
            record.failed_ops = 1
            state["passes"] += 1
            return record
        self._check_streams(state, outputs, checker, label)
        if state["first"] is None:
            state["first"] = outputs
        else:
            checker.equal(f"{label}: same tokens as the first pass",
                          outputs, state["first"])
        if len(checker.failures) > before:
            record.failed_ops = 1
        record.work = sum(len(tokens) for tokens in outputs.values())
        state["passes"] += 1
        return record

    def _sample(self, session, state, stream_ids):
        """Cohort shape and KV occupancy after one traced step."""
        cohorts = session.cohort_sizes
        used_positions = 0
        for stream, stream_id in enumerate(stream_ids):
            generated = len(session.outputs(stream_id))
            if generated < state["budgets"][stream]:
                used_positions += len(state["prompts"][stream]) + generated - 1
        return (len(cohorts), session.active_streams,
                state["simulator"].batched_kv_memory_bytes, used_positions)

    def final_checks(self, state, checker):
        """Batched outputs must equal single-stream generation per stream."""
        if state["pins"] is not None or state["first"] is None:
            return  # the pinned digests are the single-stream outputs
        simulator = state["simulator"]
        for stream, (prompt, budget) in enumerate(zip(state["prompts"], state["budgets"])):
            single = simulator.generate(prompt, budget)
            simulator.reset_cache()
            checker.equal(f"decode-batched stream {stream}: batched == single-stream",
                          state["first"][stream], single)

    def gauges(self, state):
        samples = state["samples"]
        stepping = [sample for sample in samples if sample[0] > 0]
        config = self.CONFIG
        itemsize = 4 if FP16_DFX.accumulate_fp32 else 2
        bytes_per_position = 2 * config.n_layer * config.n_embd * itemsize
        ratios = [reserved / (used * bytes_per_position)
                  for _, _, reserved, used in samples if used > 0]
        return {
            "session.cohorts_per_step": (
                statistics.fmean(s[0] for s in stepping) if stepping else 0.0),
            "session.rows_per_forward": (
                statistics.fmean(s[1] / s[0] for s in stepping) if stepping else 0.0),
            "kv.reserved_vs_used": statistics.fmean(ratios) if ratios else 0.0,
        }


# ------------------------------------------------------------- paper claims
def _fig14_dfx_latency_ms(result, model: str, label: str) -> float:
    column = next(c for c in result.columns if c.setup.config.name == model)
    return next(r for r in column.rows if r.workload.label == label).dfx.latency_ms


#: driver -> [(claim, extract(result), published value)].  The published
#: values are the paper's (Figs. 14, 16, 18 and Table II).
CLAIMS = {
    "figure14": [
        ("fig14.speedup.gpt2-345m", lambda r: r.speedups()["gpt2-345m"], 3.20),
        ("fig14.speedup.gpt2-774m", lambda r: r.speedups()["gpt2-774m"], 4.46),
        ("fig14.speedup.gpt2-1.5b", lambda r: r.speedups()["gpt2-1.5b"], 5.58),
        ("fig14.dfx_latency_ms.gpt2-1.5b.[32:64]",
         lambda r: _fig14_dfx_latency_ms(r, "gpt2-1.5b", "[32:64]"), 660.4),
    ],
    "figure16": [
        ("fig16.throughput_gain", lambda r: r.throughput_gain, 3.78),
        ("fig16.energy_gain", lambda r: r.energy_efficiency_gain, 3.99),
    ],
    "figure18": [
        ("fig18.tok_s.1fpga", lambda r: r.tokens_per_second[0], 93.10),
        ("fig18.tok_s.2fpga", lambda r: r.tokens_per_second[1], 146.25),
        ("fig18.tok_s.4fpga", lambda r: r.tokens_per_second[2], 207.56),
    ],
    "table2": [
        ("table2.cost_effectiveness_gain", lambda r: r.cost_effectiveness_gain, 8.21),
        ("table2.gpu_tok_s", lambda r: r.gpu.tokens_per_second, 13.01),
    ],
}
DRIVERS = {
    "figure14": experiments.run_figure14,
    "figure16": experiments.run_figure16,
    "figure18": experiments.run_figure18,
    "table2": experiments.run_table2,
}


def fidelity_max_err_pct(values: dict[str, float]) -> float:
    """Largest |ours - paper| / paper over the claims, in percent."""
    return max(
        abs(values[claim] - published) / published * 100.0
        for claims in CLAIMS.values()
        for claim, _, published in claims
    )


def analytic_token_steps_per_pass() -> int:
    """Token steps the four drivers price, from their inputs.

    A DFX request of ``i`` input and ``o`` output tokens is ``i + o - 1``
    token steps: one per prompt position, one per generated token after the
    first.  Fig. 14 prices the grid on each model, Fig. 16 the grid on the
    primary setup, Fig. 18 the balanced request on 1, 2 and 4 devices, and
    Table II the balanced request once.
    """
    def steps(workload):
        return workload.input_tokens + workload.output_tokens - 1

    grid = sum(steps(workload) for workload in PAPER_WORKLOAD_GRID)
    balanced = steps(BALANCED_64_64_WORKLOAD)
    return len(PAPER_EVALUATION_SETUPS) * grid + grid + 3 * balanced + balanced


class PaperClaims(Workload):
    """The paper's Fig. 14/16/18 and Table II drivers, scored against it."""

    name = "paper-claims"
    work_unit = "step"

    def params(self):
        return {
            "drivers": list(DRIVERS),
            "models": [setup.config.name for setup in PAPER_EVALUATION_SETUPS],
            "primary_setup": PRIMARY_SETUP.config.name,
            "scalability_model": SCALABILITY_SETUP.config.name,
            "claims": sum(len(claims) for claims in CLAIMS.values()),
            "token_steps_per_pass": analytic_token_steps_per_pass(),
            "seed": "unused: the paper fixes the inputs",
        }

    def setup(self, seed):
        experiments.run_table2()  # touch every lazily built table once
        return {"pins": load_pins(self.name, DEFAULT_SEED), "passes": 0, "values": {}}

    def summary(self, state):
        return {"fidelity_max_err_pct": fidelity_max_err_pct(state["values"])}

    def _run(self, driver):
        if self.tracer is not None:
            return self.tracer.call(f"experiments.{driver}", "experiments",
                                    DRIVERS[driver])
        return DRIVERS[driver]()

    def run_pass(self, state, clock, checker):
        record = PassRecord()
        pins = state["pins"]["values"]
        for driver, claims in CLAIMS.items():
            label = f"paper-claims pass {state['passes']} {driver}"
            outcome = self._op(record, checker, label, driver, clock, self._run, driver)
            if outcome is None:
                continue
            result, before = outcome
            for claim, extract, _ in claims:
                value = extract(result)
                state["values"][claim] = value
                checker.equal(f"{label}: {claim}", value, pins[claim])
            self._close_op(record, checker, before)
        if len(state["values"]) == len(pins):
            checker.equal(f"paper-claims pass {state['passes']}: fidelity_max_err_pct",
                          fidelity_max_err_pct(state["values"]),
                          state["pins"]["fidelity_max_err_pct"])
        record.work = analytic_token_steps_per_pass()
        state["passes"] += 1
        return record


WORKLOADS = {
    workload.name: workload
    for workload in (ServeStream(), ServeFleet(), Decode(), DecodeBatched(),
                     PaperClaims())
}
