"""Figure 6: prefetch accuracy (prefetches used / prefetches made).

Expected shape: following the predictor stream (PSB) raises accuracy
over fixed-stride streaming on the pointer programs, and confidence
allocation prevents the accuracy collapse on sis.
"""

from _shared import CONFIG_LABELS, run

from repro.analysis.report import ascii_table
from repro.workloads import PAPER_WORKLOADS, workload_names

_PREFETCHERS = [label for label in CONFIG_LABELS if label != "Base"]


def test_fig06_prefetch_accuracy(benchmark):
    def experiment():
        return {
            name: {
                label: run(name, label).prefetch_accuracy
                for label in _PREFETCHERS
            }
            for name in workload_names()
        }

    accuracy = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [name] + [f"{accuracy[name][label] * 100:.0f}%" for label in _PREFETCHERS]
        for name in PAPER_WORKLOADS
    ]
    print()
    print(
        ascii_table(
            ["program"] + list(_PREFETCHERS),
            rows,
            title="Figure 6 (reproduced): prefetch accuracy (used / issued)",
        )
    )
    print(
        "Paper expectation: PSB with confidence raises accuracy over "
        "stride on pointer programs (~2x for deltablue); sis accuracy "
        "collapses without confidence."
    )
    for name in workload_names():
        for label in _PREFETCHERS:
            assert 0.0 <= accuracy[name][label] <= 1.0
    # deltablue: the predictor-directed stream buffer delivers far more
    # *useful* prefetches than fixed-stride streaming at comparable
    # accuracy.  (The stride machine can only follow deltablue's small
    # stride component, so its accuracy ratio is computed over a tiny
    # volume — coverage is the meaningful comparison.)
    psb_run = run("deltablue", "ConfAlloc-Priority")
    stride_run = run("deltablue", "Stride")
    assert psb_run.prefetches_used > 2 * stride_run.prefetches_used
    assert accuracy["deltablue"]["ConfAlloc-Priority"] > 0.5
    # sis: confidence allocation keeps accuracy well above two-miss
    # (a multiplicative claim: the absolute numbers shrink with run
    # length as the thrash window grows).
    assert (
        accuracy["sis"]["ConfAlloc-Priority"]
        > 1.4 * accuracy["sis"]["2Miss-RR"]
    )
