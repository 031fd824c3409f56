"""Data-flow command-stream execution (Table I, right column).

The executor's fast path moves activations as numpy arrays; this module
drives the *same inference* entirely through the PRIME controller's
data-flow commands, byte-for-byte through the functional memory:

1. ``fetch [mem adr] to [buf adr]`` — the input sample crosses from a
   Mem subarray to the Buffer subarray over the GDL;
2. per layer: ``load [buf adr] to [FF adr]`` delivers input codes to
   the wordline latches, the mats fire, and ``store [FF adr] to
   [buf adr]`` drains the outputs back into the buffer;
3. ``commit [buf adr] to [mem adr]`` returns the final activations to
   main memory, where the host reads them.

Useful for validating that the architectural model (banks, buffer
port, controller) and the numeric model (engines, composing, formats)
agree end-to-end, and for inspecting realistic command traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError
from repro.memory.controller import DataFlowCommand
from repro.nn.layers import Conv2D, Dense
from repro.perf.plan import _conv_geometry, _input_codes, freeze_calibration


@dataclass(frozen=True)
class BufferRegion:
    """One allocated region of the Buffer subarray."""

    offset: int
    size: int


@dataclass
class BufferLayout:
    """Double-buffered per-layer regions inside the Buffer subarray."""

    regions: list[BufferRegion]

    @classmethod
    def plan(cls, sizes: list[int], capacity: int) -> "BufferLayout":
        """Allocate consecutive regions for the given byte sizes."""
        regions = []
        offset = 0
        for size in sizes:
            if offset + size > capacity:
                raise ExecutionError(
                    f"buffer layout needs {offset + size} bytes, "
                    f"subarray offers {capacity}"
                )
            regions.append(BufferRegion(offset, size))
            offset += size
        return cls(regions=regions)


class CommandStreamRunner:
    """Runs one sample through a programmed session via commands.

    Requires a :class:`~repro.core.api.PrimeSession` whose
    ``program_weight``/``config_datapath`` already ran.
    """

    def __init__(self, session) -> None:
        if session.plan is None or session._programmed is None:
            raise ExecutionError(
                "session must be mapped and programmed first"
            )
        self.session = session
        self.controller = session.controller
        self.bank = session.bank
        self.input_region: BufferRegion | None = None
        self.layer_regions: list[BufferRegion] = []

    # -- public API ---------------------------------------------------

    def run_sample(
        self, x: np.ndarray, mem_offset: int = 1 << 20
    ) -> np.ndarray:
        """Infer one sample, moving every byte via Table I commands.

        ``x`` is one input in the network's native layout; the sample
        is first written to main memory at ``mem_offset`` (as if the
        OS placed it in this bank), and the logits are read back from
        memory at the end.  Returns the float logits.
        """
        session = self.session
        net = session.network
        plan = session.plan
        x = np.asarray(x, dtype=np.float64)

        # stage the input in main memory, as the OS would
        raw = x.astype(np.float32).tobytes()
        self.bank.mem_write(
            mem_offset, np.frombuffer(raw, dtype=np.uint8)
        )

        # fetch it into the Buffer subarray
        in_region = BufferRegion(0, len(raw))
        self.controller.execute(
            DataFlowCommand("fetch", mem_offset, in_region.offset, len(raw))
        )
        fetched = self.bank.buffer.read(in_region.offset, in_region.size)
        act = (
            np.frombuffer(fetched.tobytes(), dtype=np.float32)
            .astype(np.float64)
            .reshape((1, *x.shape))
        )

        # walk the network: weight layers via load/fire/store
        programmed = list(session._programmed)
        buf_cursor = in_region.size
        for layer in net.layers:
            if isinstance(layer, (Dense, Conv2D)):
                act, buf_cursor = self._fire_weight_layer(
                    layer, programmed.pop(0), act, buf_cursor
                )
            else:
                act = layer.forward(act)

        # commit the logits back to main memory and read them there
        out_bytes = act.astype(np.float32).tobytes()
        out_region = BufferRegion(buf_cursor, len(out_bytes))
        self.controller.store_data(
            np.frombuffer(out_bytes, dtype=np.uint8), out_region.offset
        )
        result_offset = mem_offset + (1 << 16)
        self.controller.execute(
            DataFlowCommand(
                "commit", out_region.offset, result_offset, len(out_bytes)
            )
        )
        final = self.bank.mem_read(result_offset, len(out_bytes))
        return np.frombuffer(final.tobytes(), dtype=np.float32).astype(
            np.float64
        )

    @property
    def command_log(self) -> list[str]:
        """The controller's textual command trace."""
        return list(self.controller.command_log)

    # -- internals ------------------------------------------------------

    def _fire_weight_layer(self, layer, entry, act, buf_cursor):
        """One weight layer: the layer's frozen calibration (frozen
        from this sample by :func:`~repro.perf.plan.freeze_calibration`
        when the layer has none yet, as ``run_functional`` freezes it
        from its first chunk), codes through the buffer to the FF
        latches, and the per-engine tile walk."""
        if entry.in_fmt is None:
            pin = self.session.executor.config.crossbar.effective_input_bits
            freeze_calibration(layer, entry, act, pin)
        in_fmt, output_shift = entry.in_fmt, entry.output_shift
        codes = _input_codes(layer, act, in_fmt)

        # store the (≤6-bit) codes in the buffer, then load them to
        # the FF latches through the private port
        code_bytes = codes.astype(np.uint8).reshape(-1)
        region = BufferRegion(buf_cursor, code_bytes.size)
        self.controller.store_data(code_bytes, region.offset)
        loaded = self.controller.execute(
            DataFlowCommand("load", region.offset, 0, region.size)
        )
        codes = (
            np.asarray(loaded, dtype=np.int64).reshape(codes.shape)
        )
        buf_cursor = region.offset + region.size

        outputs = entry.mvm_batch(
            codes, with_noise=False, output_shift=output_shift
        )
        scale = (
            (2.0 ** output_shift) * in_fmt.resolution * entry.w_fmt.resolution
        )
        result = outputs * scale
        if isinstance(layer, Conv2D):
            oh, ow = _conv_geometry(layer, act)
            result = result.reshape(len(act), oh, ow, -1)
        else:
            result = result.reshape(1, -1)
        return result, buf_cursor
