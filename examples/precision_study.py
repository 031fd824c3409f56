"""Figure 6 walk-through: how little precision does inference need?

Trains the CNN-1 (LeNet-style) topology on the synthetic digit set and
sweeps dynamic-fixed-point input/weight precision — the experiment
that justifies PRIME's 3-bit drivers, 4-bit MLC cells, and the
input/synapse composing scheme.  Ends by running the same network
through the bit-accurate crossbar pipeline at PRIME's operating point.

Run:  python examples/precision_study.py        (~1 minute)
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.eval.precision_study import precision_study
from repro.eval.reference import train_reference_network
from repro.eval.reporting import render_table

INPUT_BITS = (1, 2, 3, 4, 6, 8)
WEIGHT_BITS = (2, 3, 4, 8)


def main() -> None:
    print("== Figure 6: accuracy vs input/weight precision ==")
    study = precision_study(
        input_bit_range=INPUT_BITS, weight_bit_range=WEIGHT_BITS
    )
    rows = [
        [f"weight {wb}b"]
        + [f"{study.grid[(ib, wb)]:.3f}" for ib in INPUT_BITS]
        for wb in WEIGHT_BITS
    ]
    print(
        render_table(
            f"accuracy (float reference {study.float_accuracy:.3f})",
            ["series", *[f"in {ib}b" for ib in INPUT_BITS]],
            rows,
        )
    )
    sat = study.saturation_point(tolerance=0.02)
    print(
        f"\naccuracy saturates (within 2% of float) at "
        f"{sat[0]}-bit inputs / {sat[1]}-bit weights — the paper's "
        "observation that NNs tolerate very low precision."
    )

    print("\n== the same CNN through the bit-accurate crossbar model ==")
    net, x_test, y_test = train_reference_network()
    topology_net = net  # trained float network
    from repro.eval.workloads import get_workload

    topology = get_workload("CNN-1").topology()
    plan = PrimeCompiler().compile(topology)
    executor = PrimeExecutor()
    out = executor.run_functional(
        topology_net,
        plan,
        x_test[:300],
        rng=np.random.default_rng(1),
        with_noise=True,
    )
    acc = float(np.mean(np.argmax(out, axis=1) == y_test[:300]))
    print(
        f"crossbar inference (6b inputs, 8b composed weights, device "
        f"variation + read noise): {acc:.3f}"
    )
    print(f"float reference: {net.accuracy(x_test[:300], y_test[:300]):.3f}")


if __name__ == "__main__":
    main()
