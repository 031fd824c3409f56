"""The software/hardware interface of Figure 7.

A :class:`PrimeSession` walks a developer through the five API calls
the paper exposes::

    session = PrimeSession(memory)
    session.map_topology(topology)      # Map_Topology
    session.program_weight(network)     # Program_Weight
    session.config_datapath()           # Config_Datapath
    logits = session.run(images)        # Run
    labels = session.post_proc(logits)  # Post_Proc

``map_topology`` invokes the compile-time optimiser; ``program_weight``
morphs the target bank's FF subarrays to computation mode and writes
the quantised synaptic weights into real mats; ``config_datapath``
emits the Table I datapath-configuration command stream; ``run``
executes bit-accurate inference through the programmed mats; and
``post_proc`` converts output activations to predictions.  ``release``
morphs the FF subarrays back to memory mode when the application is
done (the OS can then hand the space to other workloads).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError, MappingError
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.core.mapping import MappingPlan
from repro.memory.controller import (
    DatapathCommand,
    InputSource,
    MatFunction,
    PrimeController,
)
from repro.memory.main_memory import MainMemory
from repro.nn.network import Sequential
from repro.nn.topology import NetworkTopology
from repro.baselines.common import ExecutionReport
from repro.crossbar.layer import ProgrammedLayer


class PrimeSession:
    """One deployment of one NN onto one bank of the memory."""

    def __init__(
        self,
        memory: MainMemory | None = None,
        bank_index: int = 0,
        seed: int | None = 0,
    ) -> None:
        self.memory = memory if memory is not None else MainMemory(seed=seed)
        self.bank_index = bank_index
        self.bank = self.memory.bank(bank_index)
        self.controller = PrimeController(self.bank)
        self.compiler = PrimeCompiler(self.memory.config)
        self.executor = PrimeExecutor(self.memory.config)
        self.plan: MappingPlan | None = None
        self.network: Sequential | None = None
        self._programmed: list | None = None
        self._used_subarrays: list[int] = []
        self._backup_offsets: dict[int, int] = {}

    # -- 1. Map_Topology -------------------------------------------------

    def map_topology(self, topology: NetworkTopology) -> MappingPlan:
        """Compile the NN topology onto the FF mat pairs."""
        plan = self.compiler.compile(topology)
        pairs_available = sum(
            sub.pair_count for sub in self.bank.ff_subarrays
        )
        if plan.scale.value != "large" and plan.total_pairs > pairs_available:
            raise MappingError(
                f"plan needs {plan.total_pairs} pairs, bank offers "
                f"{pairs_available}"
            )
        self.plan = plan
        return plan

    # -- 2. Program_Weight ------------------------------------------------

    def program_weight(self, network: Sequential) -> None:
        """Morph FF subarrays to compute mode and program the weights.

        Weight tiles are placed pair-by-pair across the bank's FF
        subarrays in layer order; each subarray is morphed exactly once
        with all its tiles (migrating its memory contents first).
        """
        if self.plan is None:
            raise ExecutionError("map_topology must run first")
        quantized = self.executor.quantize_layer_matrices(network, self.plan)
        per_sub: dict[int, dict[int, np.ndarray]] = {}
        placements: list[list[list[tuple[int, int]]]] = []
        next_pair = 0
        pairs_per_sub = self.bank.ff_subarrays[0].pair_count
        for mapping, (w_int, _) in zip(self.plan.weight_layers, quantized):
            grid = [
                [None] * mapping.col_blocks
                for _ in range(mapping.row_blocks)
            ]
            for rb, cb, tile in self.executor.iter_tiles(mapping, w_int):
                sub_idx = next_pair // pairs_per_sub
                pair_idx = next_pair % pairs_per_sub
                if sub_idx >= len(self.bank.ff_subarrays):
                    raise MappingError(
                        "bank ran out of FF pairs while programming"
                    )
                per_sub.setdefault(sub_idx, {})[pair_idx] = tile
                grid[rb][cb] = (sub_idx, pair_idx)
                next_pair += 1
            placements.append(grid)
        backup = 0
        self._backup_offsets: dict[int, int] = {}
        for sub_idx, weights in sorted(per_sub.items()):
            self._backup_offsets[sub_idx] = backup
            migrated = self.controller.morph_to_compute(
                sub_idx, weights, backup_offset=backup
            )
            backup += migrated
        # Bind the engines living inside the mats to the run path.
        self._programmed = []
        for grid, (w_int, w_fmt), mapping in zip(
            placements, quantized, self.plan.weight_layers
        ):
            tiles = []
            for row in grid:
                engines = []
                for sub_idx, pair_idx in row:
                    host, _ = self.bank.ff_subarrays[sub_idx].pair(pair_idx)
                    engines.append(host.engine)
                tiles.append(engines)
            self._programmed.append(ProgrammedLayer(tiles, w_fmt))
        self.network = network
        self._used_subarrays = sorted(per_sub)

    # -- 3. Config_Datapath ------------------------------------------------

    def config_datapath(self) -> list[str]:
        """Emit and execute the Table I datapath configuration."""
        if self.plan is None or self._programmed is None:
            raise ExecutionError("program_weight must run first")
        commands: list[DatapathCommand] = []
        mats_per_sub = len(self.bank.ff_subarrays[0].mats)
        weight_layers = self.plan.weight_layers
        for li, layer in enumerate(self._programmed):
            mapping = weight_layers[li]
            last_layer = li == len(self._programmed) - 1
            sigmoid_bypass = (
                1
                if (mapping.row_blocks > 1 or mapping.traffic.is_conv
                    or last_layer)
                else 0
            )
            for row in layer.tiles:
                for engine in row:
                    mat_adr = self._mat_address(engine, mats_per_sub)
                    commands.append(
                        DatapathCommand("function", mat_adr, MatFunction.COMP.value)
                    )
                    commands.append(
                        DatapathCommand("bypass_sigmoid", mat_adr, sigmoid_bypass)
                    )
                    commands.append(DatapathCommand("bypass_sa", mat_adr, 0))
                    commands.append(
                        DatapathCommand(
                            "input_source",
                            mat_adr,
                            InputSource.BUFFER.value,
                        )
                    )
        for cmd in commands:
            self.controller.execute(cmd)
        return [c.encode() for c in commands]

    def _mat_address(self, engine, mats_per_sub: int) -> int:
        for sub_idx, sub in enumerate(self.bank.ff_subarrays):
            for mat_idx, mat in enumerate(sub.mats):
                if mat.engine is engine:
                    return sub_idx * mats_per_sub + mat_idx
        raise ExecutionError("engine is not hosted by this bank")

    # -- 4. Run ------------------------------------------------------------

    def run(
        self, x: np.ndarray, with_noise: bool = False
    ) -> np.ndarray:
        """Bit-accurate inference through the programmed mats."""
        if (
            self.network is None
            or self.plan is None
            or self._programmed is None
        ):
            raise ExecutionError("program_weight must run first")
        return self.executor.run_functional(
            self.network,
            self.plan,
            x,
            with_noise=with_noise,
            programmed=self._programmed,
        )

    # -- 5. Post_Proc --------------------------------------------------------

    def post_proc(self, outputs: np.ndarray) -> np.ndarray:
        """Class predictions from output activations."""
        return np.argmax(outputs, axis=-1)

    # -- performance estimation & teardown -----------------------------------

    def estimate(self, batch: int = 64) -> ExecutionReport:
        """Analytical latency/energy report for the mapped plan."""
        if self.plan is None:
            raise ExecutionError("map_topology must run first")
        return self.executor.estimate(self.plan, batch=batch)

    def release(self) -> None:
        """Morph the used FF subarrays back to memory mode.

        The data migrated away during ``program_weight`` is restored
        from its Mem-subarray backup (the wrap-up step of §III-A2).
        """
        for sub_idx in self._used_subarrays:
            self.controller.morph_to_memory(
                sub_idx,
                backup_offset=self._backup_offsets.get(sub_idx),
            )
        self._used_subarrays = []
        self._programmed = None
