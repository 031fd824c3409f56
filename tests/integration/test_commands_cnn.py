"""Command-stream execution of a convolutional network."""

import numpy as np
import pytest

from repro.core.api import PrimeSession
from repro.core.commands import CommandStreamRunner


@pytest.fixture(scope="module")
def cnn_session(trained_tiny_cnn):
    topology, net, x_test, y_test = trained_tiny_cnn
    session = PrimeSession(seed=21)
    session.map_topology(topology)
    session.program_weight(net)
    session.config_datapath()
    return session, x_test, y_test


class TestCnnCommandStream:
    def test_conv_sample_matches_fast_path(self, trained_tiny_cnn):
        # run_functional freezes every layer's calibration on these 64
        # samples; the stream reads it and walks the same engines, so
        # its float32 logits are the fast path's, byte for byte, on
        # ideal arrays (seed None) and arrays with variation.
        topology, net, x_test, _ = trained_tiny_cnn
        x = x_test[:64].astype(np.float32).astype(np.float64)
        for seed in (None, 21):
            session = PrimeSession(seed=seed)
            session.map_topology(topology)
            session.program_weight(net)
            session.config_datapath()
            ideal = [p.on_lattice for p in session._programmed]
            assert all(ideal) == (seed is None) and any(ideal) == all(ideal)
            fast = session.run(x).astype(np.float32).astype(np.float64)
            runner = CommandStreamRunner(session)
            for sample, expected in zip(x, fast):
                logits = runner.run_sample(sample)
                assert logits.tobytes() == expected.tobytes()

    def test_conv_load_moves_im2col_codes(self, cnn_session):
        session, x_test, _ = cnn_session
        runner = CommandStreamRunner(session)
        before = len(runner.command_log)
        runner.run_sample(x_test[0])
        trace = runner.command_log[before:]
        loads = [t for t in trace if t.startswith("load")]
        # conv layer loads the full im2col expansion: 26*26 patches x
        # (3*3*1 + bias) codes
        conv_load = loads[0]
        size = int(conv_load.rpartition("x")[2])
        assert size == 26 * 26 * 10

    def test_pooling_happens_between_commands(self, cnn_session):
        session, x_test, y_test = cnn_session
        runner = CommandStreamRunner(session)
        logits = runner.run_sample(x_test[1])
        assert logits.shape == (10,)
        assert np.isfinite(logits).all()
