"""The PRIME executor: analytical cost model + functional inference.

Two complementary execution paths share one mapping plan:

* :meth:`PrimeExecutor.estimate` — the analytical latency/energy model
  behind Figures 8-11: counts analog rounds per layer (accounting for
  intra-pair replication, whole-layer copies, split-merge tiling, and
  inter-bank pipelining), charges buffer/memory traffic, and applies
  bank-level parallelism for batched workloads.
* :meth:`PrimeExecutor.run_functional` — bit-accurate inference through
  real :class:`~repro.crossbar.CrossbarMVMEngine` instances with
  dynamic-fixed-point quantisation, for accuracy studies (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import ExecutionError
from repro.baselines.common import ExecutionReport, record_report
from repro.core.mapping import LayerMapping, MappingPlan, NetworkScale
from repro.crossbar.engine import CrossbarMVMEngine
from repro.nn.layers import Conv2D, Dense
from repro.nn.network import Sequential
from repro.params.prime import PrimeConfig, DEFAULT_PRIME_CONFIG
from repro.crossbar.layer import ProgrammedLayer
from repro.perf.plan import CALIBRATION_SAMPLES, CompiledPlan, fused_enabled
from repro.precision.dynamic_fixed_point import (
    DynamicFixedPoint,
    quantize_with_bias,
)
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import DegradationSummary, LayerDegradation
from repro.units import ns

#: Digital merge cost per extra row block in a split-merge layer.
T_MERGE_PER_BLOCK = 2.0 * ns
#: Groups evaluated per analog round during 4:1 max pooling
#: (min(256 rows / 4 candidates, 256 bitlines / 6 difference columns)).
POOL_GROUPS_PER_ROUND = 42
#: Streaming budget for functional activations, unless a call passes
#: its own ``chunk_bytes``.
DEFAULT_CHUNK_BYTES = 256 * 1024 * 1024


@dataclass
class _LayerCosts:
    """Per-sample cost components of one mapped layer."""

    latency_s: float
    compute_s: float
    buffer_stall_s: float
    bottleneck_s: float
    compute_j: float
    buffer_j: float
    buffer_bytes: int


class PrimeExecutor:
    """Executes mapping plans analytically and functionally."""

    def __init__(self, config: PrimeConfig = DEFAULT_PRIME_CONFIG) -> None:
        self.config = config
        #: DegradationSummary of the most recent resilience-enabled
        #: program_network/run_functional, None otherwise.
        self.last_degradation: DegradationSummary | None = None

    # ------------------------------------------------------------------
    # analytical model
    # ------------------------------------------------------------------

    def estimate(
        self,
        plan: MappingPlan,
        batch: int = 64,
        use_bank_parallelism: bool = True,
    ) -> ExecutionReport:
        """Latency/energy report for ``batch`` samples of ``plan``."""
        if batch < 1:
            raise ExecutionError("batch must be >= 1")
        with telemetry.span(
            "executor.estimate", workload=plan.workload, batch=batch
        ) as tspan:
            return self._estimate_inner(
                plan, batch, use_bank_parallelism, tspan
            )

    def _estimate_inner(
        self,
        plan: MappingPlan,
        batch: int,
        use_bank_parallelism: bool,
        tspan,
    ) -> ExecutionReport:
        xbar = self.config.crossbar
        t_round = xbar.t_full_mvm
        costs = [self._layer_costs(m, t_round) for m in plan.layers]

        sample_latency = sum(c.latency_s for c in costs)
        sample_compute_j = sum(c.compute_j for c in costs)
        sample_buffer_j = sum(c.buffer_j for c in costs)
        # The steady-state sample rate is set by the slowest stage:
        # a layer's analog/buffer occupancy, the bank's input feed, or
        # (large scale) the slowest whole-bank pipeline stage.
        stages = [
            (m.traffic.name, c.bottleneck_s)
            for m, c in zip(plan.layers, costs)
        ]
        stages.append(("input_feed", self._feed_time(plan)))

        # Inter-bank pipeline hops for large-scale networks.
        interbank_s = 0.0
        interbank_j = 0.0
        if plan.scale is NetworkScale.LARGE:
            interbank_s, interbank_j = self._interbank_costs(plan)
            sample_latency += interbank_s
            stages.append(
                ("bank_pipeline_stage", self._stage_bottleneck(plan, costs))
            )

        # Naive-serial ablation: FF subarrays reprogrammed per stage.
        reprogram_stages = plan.extras.get("reprogram_stages", 0)
        reprogram_s = 0.0
        if reprogram_stages:
            reprogram_s = self._reprogram_time(plan) * reprogram_stages
            sample_latency += reprogram_s
            stages.append(("ff_reprogram", sample_latency))
        bottleneck_stage, bottleneck = max(stages, key=lambda nv: nv[1])

        replicas = plan.bank_replicas if use_bank_parallelism else 1
        per_replica = -(-batch // replicas)
        latency = sample_latency + (per_replica - 1) * bottleneck

        org = self.config.organization
        # Host-side memory traffic: first input fetched Mem→Buffer and
        # last output committed back, per sample.  Overlapped with
        # compute across samples (hidden), but its energy counts.
        first = plan.layers[0].traffic
        last = plan.layers[-1].traffic
        io_bytes = (first.input_elems + last.output_elems) * batch
        memory_j = io_bytes * (
            org.e_array_read_per_byte + org.e_gdl_per_byte
        ) + interbank_j * batch

        buffer_stall = sum(c.buffer_stall_s for c in costs)
        compute_time = (
            latency - buffer_stall * per_replica - interbank_s * per_replica
        )
        report = ExecutionReport(
            system="PRIME",
            workload=plan.workload,
            batch=batch,
            latency_s=latency,
            compute_time_s=max(compute_time, 0.0),
            buffer_time_s=buffer_stall * per_replica,
            memory_time_s=interbank_s * per_replica,
            compute_energy_j=sample_compute_j * batch,
            buffer_energy_j=sample_buffer_j * batch,
            memory_energy_j=memory_j,
            extras={
                "sample_latency_s": sample_latency,
                "bottleneck_s": bottleneck,
                "bottleneck_stage": bottleneck_stage,
                "replicas": replicas,
                "utilization_before": plan.utilization_before_replication,
                "utilization_after": plan.utilization_after_replication,
                "reprogram_s": reprogram_s,
            },
        )
        if telemetry.enabled():
            self._record_estimate(
                plan,
                batch,
                costs,
                report,
                per_replica=per_replica,
                interbank=(interbank_s, interbank_j),
                reprogram_s=reprogram_s,
                io_memory_j=memory_j - interbank_j * batch,
            )
            tspan.set(
                bottleneck_stage=bottleneck_stage,
                bottleneck_ns=bottleneck * 1e9,
                replicas=replicas,
                latency_ns=latency * 1e9,
            )
        return report

    def _record_estimate(
        self,
        plan: MappingPlan,
        batch: int,
        costs: list[_LayerCosts],
        report: ExecutionReport,
        per_replica: int,
        interbank: tuple[float, float],
        reprogram_s: float,
        io_memory_j: float,
    ) -> None:
        """Emit the analytical model as a second, per-stage accounting.

        One model-time track per workload carries a gap-free event per
        layer (plus inter-bank / reprogram / pipeline tail events).
        The summed event durations reconstruct ``report.latency_s`` and
        the summed per-event energies reconstruct the three energy
        categories — the telemetry tests cross-validate both.
        """
        track = f"PRIME:{plan.workload}"
        for mapping, c in zip(plan.layers, costs):
            telemetry.model_event(
                mapping.traffic.name,
                c.latency_s,
                track=track,
                stage="compute",
                compute_energy_nj=c.compute_j * batch * 1e9,
                buffer_energy_nj=c.buffer_j * batch * 1e9,
                buffer_stall_ns=c.buffer_stall_s * 1e9,
                rounds=mapping.rounds_per_sample,
            )
        interbank_s, interbank_j = interbank
        if interbank_s > 0.0:
            telemetry.model_event(
                "interbank.transfer",
                interbank_s,
                track=track,
                stage="memory",
                memory_energy_nj=interbank_j * batch * 1e9,
            )
        if reprogram_s > 0.0:
            telemetry.model_event(
                "ff.reprogram", reprogram_s, track=track, stage="compute"
            )
        # Host-side I/O is hidden behind compute (zero model time) but
        # its energy belongs to the memory category.
        telemetry.model_event(
            "memory.host_io",
            0.0,
            track=track,
            stage="memory",
            memory_energy_nj=io_memory_j * 1e9,
        )
        tail = (per_replica - 1) * report.extras["bottleneck_s"]
        if tail > 0.0:
            telemetry.model_event(
                "pipeline.steady_state",
                tail,
                track=track,
                stage="pipeline",
                waves=per_replica - 1,
            )
        record_report(report)
        telemetry.gauge(
            "model.bottleneck_ns",
            report.extras["bottleneck_s"] * 1e9,
            workload=plan.workload,
        )
        telemetry.gauge(
            "model.replicas", report.extras["replicas"],
            workload=plan.workload,
        )

    def _layer_costs(
        self, mapping: LayerMapping, t_round: float
    ) -> _LayerCosts:
        xbar = self.config.crossbar
        org = self.config.organization
        traffic = mapping.traffic
        if traffic.is_pool:
            # 4:1 max pooling runs in the output stage: the six
            # difference dot products stream through the SA bank and
            # the winner-code unit as results are converted (§III-E).
            groups = traffic.output_elems
            latency = (
                -(-groups // xbar.sense_amps) * xbar.t_sa
            )
            e_group = (
                4 * xbar.e_driver_per_row
                + 6 * (xbar.e_sa_conversion + xbar.e_sub_sigmoid)
            )
            compute_j = groups * e_group
            throughput_s = latency
            buffer_bytes = traffic.input_elems + traffic.output_elems
        else:
            rounds = mapping.rounds_per_sample
            merge = (mapping.row_blocks - 1) * T_MERGE_PER_BLOCK
            latency = rounds * (t_round + merge)
            throughput_s = mapping.stage_rounds * (t_round + merge)
            row_frac = self._row_fraction(mapping)
            col_frac = self._col_fraction(mapping)
            compute_j = (
                mapping.analog_ops_per_sample
                * 2.0
                * xbar.e_mvm_active(row_frac, col_frac)
            )
            reuse = max(traffic.reuse, 1)
            buffer_bytes = reuse * traffic.matrix_rows + traffic.output_elems
        buffer_time = (
            self.config.t_buffer_access
            + buffer_bytes / self.config.buffer_port_bandwidth
        )
        buffer_j = buffer_bytes * (
            org.e_buffer_port_per_byte + org.e_array_read_per_byte
        )
        # Double buffering overlaps buffer traffic with analog rounds;
        # only the excess shows up as a stall.
        stall = max(buffer_time - latency, 0.0)
        effective = latency + stall
        bottleneck = max(throughput_s, buffer_time)
        return _LayerCosts(
            latency_s=effective,
            compute_s=latency,
            buffer_stall_s=stall,
            bottleneck_s=bottleneck,
            compute_j=compute_j,
            buffer_j=buffer_j,
            buffer_bytes=buffer_bytes,
        )

    def _row_fraction(self, mapping: LayerMapping) -> float:
        rows_cap = self.config.crossbar.rows
        per_tile = -(-mapping.rows // mapping.row_blocks)
        return min(1.0, per_tile * mapping.intra_replication / rows_cap)

    def _col_fraction(self, mapping: LayerMapping) -> float:
        cols_cap = self.config.crossbar.logical_cols
        per_tile = -(-mapping.cols // mapping.col_blocks)
        return min(1.0, per_tile * mapping.intra_replication / cols_cap)

    def _feed_time(self, plan: MappingPlan) -> float:
        """Per-sample GDL occupancy feeding inputs and draining outputs.

        Each sample's input crosses Mem subarray → global row buffer →
        Buffer subarray (two serialised row operations per row-buffer's
        worth of data, §III-B), and the final output takes the reverse
        path.  This traffic hides behind computation but bounds the
        steady-state sample rate of one bank.
        """
        timing = self.config.timing
        row_bytes = self.config.organization.row_buffer_bytes
        in_bytes = plan.layers[0].traffic.input_elems
        out_bytes = plan.layers[-1].traffic.output_elems
        rows = -(-in_bytes // row_bytes) + -(-out_bytes // row_bytes)
        return rows * (timing.row_read_latency + timing.row_write_latency)

    def _interbank_costs(self, plan: MappingPlan) -> tuple[float, float]:
        """(per-sample transfer time, per-sample transfer energy)."""
        time_s = 0.0
        energy_j = 0.0
        prev_bank = plan.layers[0].bank
        for mapping in plan.layers[1:]:
            if mapping.bank != prev_bank:
                bytes_moved = mapping.traffic.input_elems
                time_s += bytes_moved / self.config.interbank_bandwidth
                energy_j += bytes_moved * self.config.e_interbank_per_byte
            prev_bank = mapping.bank
        return time_s, energy_j

    def _stage_bottleneck(
        self, plan: MappingPlan, costs: list[_LayerCosts]
    ) -> float:
        """Slowest bank stage of a large-scale pipeline.

        ``costs`` is the per-layer cost list already computed for the
        plan (aligned with ``plan.layers``); grouping it by bank here
        avoids recomputing every layer's costs once per bank.
        """
        per_bank: dict[int, float] = {}
        for mapping, c in zip(plan.layers, costs):
            per_bank[mapping.bank] = per_bank.get(
                mapping.bank, 0.0
            ) + c.latency_s / max(mapping.copies, 1)
        return max(per_bank.values(), default=0.0)

    def _reprogram_time(self, plan: MappingPlan) -> float:
        """Time to reprogram one bank's FF subarrays (naive-serial)."""
        device = self.config.crossbar.device
        rows = self.config.crossbar.rows
        return self.config.pairs_per_bank * rows * device.t_write

    # ------------------------------------------------------------------
    # functional execution
    # ------------------------------------------------------------------

    def run_functional(
        self,
        network: Sequential,
        plan: MappingPlan,
        x: np.ndarray,
        rng: np.random.Generator | None = None,
        with_noise: bool = False,
        input_bits: int | None = None,
        weight_bits: int | None = None,
        programmed: list[ProgrammedLayer] | None = None,
        chunk_bytes: int | None = None,
    ) -> np.ndarray:
        """Run ``network`` through real crossbar engines.

        ``x`` is a float batch in the network's native input layout.
        Weight layers must appear in ``network`` in the same order as
        the plan's weight layers.  ``programmed`` (from
        :meth:`program_network`) reuses already-programmed engines —
        e.g. engines living inside real bank mats.  Returns the (float)
        output logits as computed by the quantised analog pipeline.

        Every chunk, the first of a freshly programmed network
        included, executes through a
        :class:`~repro.perf.plan.CompiledPlan` — one flat precompiled
        schedule with no per-layer Python bookkeeping.
        ``PRIME_FUSED=0``, read once per call, sends every weight layer
        of that plan down the per-engine tile walk, the semantic
        reference.  The batch streams in chunks sized so the widest
        layer's activations stay under ``chunk_bytes`` (default
        :data:`DEFAULT_CHUNK_BYTES`, 256 MiB) — conv patches never
        materialise the whole batch.  Per-layer calibration (input
        format and SA output window) is frozen from the first
        ``CALIBRATION_SAMPLES`` samples by
        :func:`~repro.perf.plan.freeze_calibration` as each weight step
        first runs, and cached on the programmed plan, so the first
        chunk always covers the calibration prefix and chunked output
        equals unchunked output for every chunk size.
        """
        xbar = self.config.crossbar
        pin = input_bits or xbar.effective_input_bits
        pw = weight_bits or xbar.effective_weight_bits
        x = np.asarray(x, dtype=np.float64)
        batch = int(x.shape[0])
        with telemetry.span(
            "executor.run_functional",
            workload=plan.workload,
            batch=batch,
        ):
            if programmed is None:
                programmed = self.program_network(
                    network, plan, rng=rng, pw=pw
                )
            self._surface_degradation(plan, programmed)
            fused = fused_enabled()
            chunk = self._chunk_samples(plan, batch, chunk_bytes)
            if chunk >= batch:
                out = self._forward(
                    network, programmed, x, pin, with_noise, fused
                )
            else:
                # The first chunk must contain the calibration prefix,
                # or chunked and unchunked runs would freeze different
                # input formats / output windows.
                first = max(chunk, min(CALIBRATION_SAMPLES, batch))
                pieces = []
                start = 0
                while start < batch:
                    size = first if start == 0 else chunk
                    pieces.append(
                        self._forward(
                            network,
                            programmed,
                            x[start : start + size],
                            pin,
                            with_noise,
                            fused,
                        )
                    )
                    start += size
                out = np.concatenate(pieces, axis=0)
            telemetry.count("executor.functional_runs")
            return out

    def _surface_degradation(
        self, plan: MappingPlan, layers: list[ProgrammedLayer]
    ) -> None:
        """Publish the run's DegradationSummary (None when the plan was
        programmed open-loop) on :attr:`last_degradation`."""
        verified = any(
            engine.program_report is not None
            for entry in layers
            for row in entry.tiles
            for engine in row
        )
        if not verified:
            self.last_degradation = None
            return
        summary = self.summarize_degradation(plan, layers)
        self.last_degradation = summary
        if telemetry.enabled():
            telemetry.gauge(
                "resilience.degraded_tiles",
                summary.degraded_tiles,
                workload=plan.workload,
            )
            telemetry.gauge(
                "resilience.masked_columns",
                summary.masked_columns,
                workload=plan.workload,
            )

    def _forward(
        self,
        network: Sequential,
        layers: list[ProgrammedLayer],
        act: np.ndarray,
        pin: int,
        with_noise: bool,
        fused: bool,
    ) -> np.ndarray:
        """One chunk through the chain's compiled plan.

        The first chunk of a freshly programmed network compiles the
        plan, whose weight steps freeze calibration as they first run;
        ``fused=False`` walks the engines at every weight step.
        """
        compiled = self._compiled_plan(network, layers, pin)
        return compiled.execute(act, with_noise, fused)

    def _compiled_plan(
        self,
        network: Sequential,
        layers: list[ProgrammedLayer],
        pin: int,
    ) -> CompiledPlan:
        """The cached CompiledPlan for this programmed chain.

        The plan memoises on the chain's first ProgrammedLayer and is
        validated against the live programmed state on every chunk —
        recalibration, reprogramming, or layer invalidation all break
        :meth:`CompiledPlan.matches` and force a recompile.  An
        uncalibrated chain compiles too: its steps freeze calibration
        on their first run.
        """
        host = layers[0]
        compiled = host.compiled_plan
        if compiled is None or not compiled.matches(network, layers, pin):
            compiled = CompiledPlan.compile(network, layers, pin)
            host.compiled_plan = compiled
        return compiled

    def max_chunk_samples(
        self, plan: MappingPlan, chunk_bytes: int | None = None
    ) -> int:
        """Largest batch ``run_functional`` evaluates in one chunk.

        The serving layer sizes its micro-batches against this — a
        micro-batch at or under the chunk budget reaches the compiled
        plan as one wide matmul instead of being re-split inside the
        executor.
        """
        return self._chunk_samples(plan, 1 << 62, chunk_bytes)

    def _chunk_samples(
        self, plan: MappingPlan, batch: int, chunk_bytes: int | None
    ) -> int:
        """Samples per streaming chunk under the memory budget.

        Sized from the widest mapped layer's per-sample footprint: a
        few float64 copies (codes, drive phases, counts) of each of its
        input vectors and outputs, one vector per sample for a dense
        layer and one per output pixel for a conv layer.
        ``chunk_bytes <= 0`` disables streaming.
        """
        if chunk_bytes is None:
            chunk_bytes = DEFAULT_CHUNK_BYTES
        if chunk_bytes <= 0:
            return batch
        per_sample = max(
            (
                8
                * max(m.traffic.reuse, 1)
                * (m.rows + 1 + m.cols)
                * 4
                for m in plan.weight_layers
            ),
            default=1,
        )
        return max(1, min(batch, chunk_bytes // per_sample))

    def quantize_layer_matrices(
        self,
        network: Sequential,
        plan: MappingPlan,
        pw: int | None = None,
    ) -> list[tuple[np.ndarray, DynamicFixedPoint]]:
        """Per weight layer: (signed integer matrix incl. bias row, format).

        The bias is appended as one extra weight row driven with input
        "1" (§III-E); the dynamic-fixed-point exponent is chosen per
        layer over the augmented matrix
        (:func:`~repro.precision.dynamic_fixed_point.quantize_with_bias`,
        whose integers come in the narrowest dtype that holds them).
        """
        pw = pw or self.config.crossbar.effective_weight_bits
        weight_layers = [
            l for l in network.layers if isinstance(l, (Dense, Conv2D))
        ]
        plan_layers = plan.weight_layers
        if len(weight_layers) != len(plan_layers):
            raise ExecutionError(
                f"network has {len(weight_layers)} weight layers but the "
                f"plan maps {len(plan_layers)}"
            )
        out = []
        for layer, mapping in zip(weight_layers, plan_layers):
            w_int, w_fmt = quantize_with_bias(
                layer.weight, layer.bias, bits=pw + 1
            )
            rows, cols = w_int.shape
            if rows != mapping.rows or cols != mapping.cols:
                raise ExecutionError(
                    f"layer {mapping.traffic.name}: weight matrix "
                    f"{(rows, cols)} does not match plan "
                    f"{(mapping.rows, mapping.cols)}"
                )
            out.append((w_int, w_fmt))
        return out

    @property
    def _tile_cols(self) -> int:
        """Logical columns per tile after the spare-column reservation."""
        return (
            self.config.crossbar.logical_cols
            - self.config.resilience.spare_columns
        )

    def iter_tiles(
        self, mapping: LayerMapping, w_int: np.ndarray
    ):
        """Yield ``(row_block, col_block, tile)`` for one layer matrix."""
        xbar = self.config.crossbar
        tile_cols = self._tile_cols
        rows, cols = w_int.shape
        for rb in range(mapping.row_blocks):
            r0 = rb * xbar.rows
            r1 = min(r0 + xbar.rows, rows)
            for cb in range(mapping.col_blocks):
                c0 = cb * tile_cols
                c1 = min(c0 + tile_cols, cols)
                yield rb, cb, w_int[r0:r1, c0:c1]

    def program_network(
        self,
        network: Sequential,
        plan: MappingPlan,
        rng: np.random.Generator | None = None,
        pw: int | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> list[ProgrammedLayer]:
        """Program every layer into fresh standalone engines.

        Each entry is a :class:`~repro.crossbar.layer.ProgrammedLayer`,
        built once its tiles are programmed; reusing the list across
        :meth:`run_functional` calls also reuses the compiled plan and
        the frozen per-layer calibration.

        ``resilience`` overrides ``config.resilience``.  With
        ``verify_writes`` on, every tile programs through the
        closed-loop verify path; tiles still degraded after column
        sparing are re-programmed onto healthy spare pairs of their
        bank while the per-bank ``spare_pairs_per_bank`` budget lasts,
        and the aggregate outcome lands in :attr:`last_degradation`.
        """
        xbar = self.config.crossbar
        policy = (
            resilience if resilience is not None else self.config.resilience
        )
        verify = policy if policy.verify_writes else None
        programmed = []
        with telemetry.span(
            "executor.program_network", workload=plan.workload
        ):
            quantized = self.quantize_layer_matrices(network, plan, pw)
            spare_budget: dict[int, int] = {}
            for mapping, (w_int, w_fmt) in zip(
                plan.weight_layers, quantized
            ):
                tiles: list[list[CrossbarMVMEngine]] = [
                    [None] * mapping.col_blocks
                    for _ in range(mapping.row_blocks)
                ]
                remapped = 0
                for rb, cb, tile in self.iter_tiles(mapping, w_int):
                    engine = CrossbarMVMEngine(xbar, rng=rng)
                    engine.program(tile, resilience=verify)
                    if verify is not None and engine.degraded:
                        engine, remaps = self._remap_tile(
                            engine, tile, mapping, rng, verify,
                            spare_budget,
                        )
                        remapped += remaps
                    tiles[rb][cb] = engine
                programmed.append(ProgrammedLayer(tiles, w_fmt, remapped))
            if verify is not None:
                self.last_degradation = self.summarize_degradation(
                    plan, programmed
                )
                if telemetry.enabled():
                    telemetry.count(
                        "resilience.degraded_tiles",
                        self.last_degradation.degraded_tiles,
                        workload=plan.workload,
                    )
            else:
                self.last_degradation = None
        return programmed

    def _remap_tile(
        self,
        engine: CrossbarMVMEngine,
        tile: np.ndarray,
        mapping: LayerMapping,
        rng: np.random.Generator | None,
        policy: ResiliencePolicy,
        spare_budget: dict[int, int],
    ) -> tuple[CrossbarMVMEngine, int]:
        """Re-program a degraded tile onto spare pairs of its bank.

        Each attempt consumes one of the bank's reserved spare pairs
        (a fresh physical pair, hence a fresh fault draw); the engine
        with the fewest masked columns wins.  With the budget
        exhausted the best engine so far stays, zero-masked.  Returns
        that engine and the number of attempts (the layer's
        ``remapped_tiles`` share).
        """
        bank = mapping.bank
        budget = spare_budget.setdefault(
            bank, policy.spare_pairs_per_bank
        )
        best = engine
        remaps = 0
        while best.degraded and budget > 0:
            budget -= 1
            remaps += 1
            if telemetry.enabled():
                telemetry.count("resilience.tile_remaps", bank=bank)
            candidate = CrossbarMVMEngine(self.config.crossbar, rng=rng)
            candidate.program(tile, resilience=policy)
            if candidate.masked_columns < best.masked_columns:
                best = candidate
        spare_budget[bank] = budget
        return best, remaps

    def summarize_degradation(
        self, plan: MappingPlan, programmed: list[ProgrammedLayer]
    ) -> DegradationSummary:
        """Aggregate per-engine resilience state into a per-run view."""
        layers = []
        for mapping, entry in zip(plan.weight_layers, programmed):
            engines = [e for row in entry.tiles for e in row]
            reports = [
                e.program_report
                for e in engines
                if e.program_report is not None
            ]
            layers.append(
                LayerDegradation(
                    layer=mapping.traffic.name,
                    tiles=len(engines),
                    degraded_tiles=sum(e.degraded for e in engines),
                    masked_columns=sum(e.masked_columns for e in engines),
                    spared_columns=sum(e.spared_columns for e in engines),
                    remapped_tiles=entry.remapped_tiles,
                    retried_cells=sum(r.retried_cells for r in reports),
                    failed_cells=sum(r.failed_cells for r in reports),
                    compensated_cells=sum(
                        r.compensated_cells for r in reports
                    ),
                )
            )
        return DegradationSummary(workload=plan.workload, layers=layers)
