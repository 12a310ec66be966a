"""The equivalence contract: fast paths change nothing, byte for byte.

Every case in :mod:`tests.sim.equivalence` runs against the committed
pre-optimization golden digests (trace stream hash, per-host message
stats, oracle fingerprint/verdict, executed-event count), so the timer
wheel and the inline delivery path are pinned to the behaviour of the
classic event heap they replaced.

A failure here means a hot-path change altered observable behaviour.
Never regenerate the goldens to make a perf refactor pass.
"""

import pytest

from tests.sim import equivalence

GOLDEN = equivalence.load_golden()

_CASE_BY_LABEL = {label: (config, index) for label, config, index in equivalence.CASES}


class TestGoldenDigests:
    @pytest.mark.parametrize(
        "label", [label for label, _, _ in equivalence.CASES]
    )
    def test_default_flags_match_golden(self, label):
        config, index = _CASE_BY_LABEL[label]
        digest = equivalence.core_digest(equivalence.scenario_for(config, index))
        assert digest == GOLDEN[label]


class TestCaseSet:
    def test_golden_file_covers_every_case(self):
        assert set(GOLDEN) == {label for label, _, _ in equivalence.CASES}
        assert len(equivalence.CASES) >= 20

    def test_case_set_covers_fault_space(self):
        """The pinned set must exercise every fault channel the fast
        paths could mishandle — and fully quiet runs where they engage
        on every single leg."""
        seen = set()
        for label, config, index in equivalence.CASES:
            scenario = equivalence.scenario_for(config, index)
            if scenario.loss_rate > 0:
                seen.add("loss")
            if scenario.duplicate_rate > 0:
                seen.add("duplicate")
            if not scenario.faults and scenario.loss_rate == 0:
                seen.add("quiet")
            for fault in scenario.faults:
                if fault.kind == "crash":
                    seen.add("server_crash" if fault.host == "server" else "client_crash")
                elif fault.kind == "partition":
                    seen.add("partition")
                elif fault.kind == "loss":
                    seen.add("loss")
                elif fault.kind in ("clock_step", "clock_drift"):
                    seen.add("clock")
        assert seen >= {
            "quiet",
            "loss",
            "duplicate",
            "partition",
            "client_crash",
            "server_crash",
            "clock",
        }
