"""Whole-engine pin: literal results of a stratified set of ``simulate()`` calls.

The golden test (``test_golden_simulation.py``) pins drop-tail runs
without ECN, batching or random loss.  This module pins the rest of the
packet engine: every congestion control under every queue discipline,
classic and L4S ECN, paced Reno/Cubic, a small MSS, event batching on
and off, a churn source, a finite transfer, a second bottleneck in
series, a random-loss path and the calendar scheduler.  Each case runs
1.5 simulated seconds.

The expected values were captured from the engine before its hot path
was flattened; any optimisation of the scheduler, senders, queues,
packet pool or network glue must reproduce them exactly — every float
bit for bit, every counter of :class:`~repro.obs.metrics.EngineCounters`.
"""

import pytest

from repro.netsim.packet.network import PathConfig, QueueConfig
from repro.netsim.packet.simulation import FlowConfig, simulate
from repro.netsim.traffic import ParetoSizes, PoissonArrivals, TrafficSource

CCS = ("reno", "cubic", "bbr")
DISCIPLINES = ("droptail", "red", "codel", "fq_codel", "dualpi2")


def _grid_case(cc: str, discipline: str) -> dict:
    """Two apps of ``cc`` on ``discipline``; AQMs get one ECN app."""
    ecn = {"droptail": False, "dualpi2": "l4s"}.get(discipline, "classic")
    return {
        "flows": (
            FlowConfig(0, cc=cc, connections=2, ecn=ecn, treated=True),
            FlowConfig(1, cc=cc, connections=1),
        ),
        "queue_discipline": discipline,
        "seed": 11,
    }


def _cases() -> dict[str, dict]:
    cases = {f"{cc}-{d}": _grid_case(cc, d) for cc in CCS for d in DISCIPLINES}
    cases["paced-reno-cubic"] = {
        "flows": (
            FlowConfig(0, cc="reno", connections=2, paced=True, treated=True),
            FlowConfig(1, cc="cubic", connections=2, paced=True),
        ),
    }
    cases["mss500-batched-reno"] = {
        "flows": (
            FlowConfig(0, cc="reno", connections=2, treated=True),
            FlowConfig(1, cc="reno", connections=3),
        ),
        "capacity_mbps": 10.0,
        "mss_bytes": 500,
        "event_batching": True,
    }
    cases["batched-cubic-red-classic"] = {
        "flows": (
            FlowConfig(0, cc="cubic", connections=3, ecn="classic", treated=True),
            FlowConfig(1, cc="cubic", connections=2),
        ),
        "queue_discipline": "red",
        "event_batching": True,
        "seed": 5,
    }
    cases["batched-bbr-fq_codel"] = {
        "flows": (
            FlowConfig(0, cc="bbr", connections=2, treated=True),
            FlowConfig(1, cc="reno", connections=2),
        ),
        "queue_discipline": "fq_codel",
        "event_batching": True,
        "batch_segments": 4,
    }
    cases["batched-dualpi2-l4s"] = {
        "flows": (
            FlowConfig(0, cc="reno", connections=2, ecn="l4s", treated=True),
            FlowConfig(1, cc="cubic", connections=2, paced=True),
        ),
        "queue_discipline": "dualpi2",
        "event_batching": True,
    }
    cases["churn-finite"] = {
        "flows": (
            FlowConfig(0, cc="cubic", connections=2, treated=True),
            FlowConfig(1, cc="reno", transfer_bytes=150_000.0),
        ),
        "traffic_sources": (
            TrafficSource(
                arrivals=PoissonArrivals(rate_per_s=8.0),
                sizes=ParetoSizes(min_bytes=20_000.0),
                label="churn",
            ),
        ),
        "seed": 3,
    }
    cases["second-bottleneck"] = {
        "flows": (
            FlowConfig(0, cc="reno", connections=2, treated=True,
                       path=PathConfig(queues=("bottleneck", "edge2"))),
            FlowConfig(1, cc="bbr", connections=1),
        ),
        "extra_queues": (
            QueueConfig(name="edge2", capacity_mbps=6.0, buffer_bdp=1.0,
                        discipline="codel"),
        ),
        "queue_discipline": "red",
        "seed": 9,
    }
    cases["random-loss"] = {
        "flows": (
            FlowConfig(0, cc="reno", connections=2, treated=True,
                       path=PathConfig(rtt_ms=30.0, loss_rate=0.01)),
            FlowConfig(1, cc="cubic", connections=1, rtt_ms=10.0),
        ),
        "seed": 17,
    }
    cases["calendar-cubic-red-classic"] = {
        **_grid_case("cubic", "red"),
        "scheduler": "calendar",
    }
    common = {"capacity_mbps": 20.0, "base_rtt_ms": 20.0, "duration_s": 1.5,
              "warmup_s": 0.5}
    return {name: {**common, **kwargs} for name, kwargs in cases.items()}


CASES = _cases()


def observe(result) -> tuple:
    """Every pinned quantity of one run, as plain literals."""
    flows = tuple(
        (f.flow_id, f.treated, f.throughput_mbps, f.retransmit_fraction,
         f.packets_sent, f.packets_lost, f.packets_marked, f.completed, f.fct_s)
        for f in result.flows
    )
    traffic = tuple(
        (label, t.flows_started, t.flows_completed, t.completion_times_s, t.bytes_acked)
        for label, t in sorted(result.traffic.items())
    )
    e = result.engine
    engine = (e.scheduler, e.events_processed, e.events_scheduled,
              e.pool_acquired, e.pool_reused, e.random_losses)
    return (flows, result.queue_drops, result.queue_marks, traffic, engine)


EXPECTED: dict[str, tuple] = {
    'batched-bbr-fq_codel': (
        (
            (0, True, 9.012, 0.3021718602455146, 1961, 741, 0, None, None),
            (1, False, 11.004000000000001, 0.013918629550321198, 1352, 44, 0, None, None),
        ),
        {'bottleneck': 218},
        {'bottleneck': 0},
        (),
        ('heap', 2778, 2796, 1288, 1244, 0),
    ),
    'batched-cubic-red-classic': (
        (
            (0, True, 14.052, 0.0, 1778, 38, 44, None, None),
            (1, False, 5.952, 0.02564102564102564, 797, 38, 0, None, None),
        ),
        {'bottleneck': 32},
        {'bottleneck': 28},
        (),
        ('heap', 4083, 4115, 2073, 2029, 0),
    ),
    'batched-dualpi2-l4s': (
        (
            (0, True, 3.2279999999999998, 0.0, 420, 0, 294, None, None),
            (1, False, 16.764, 0.004243281471004243, 2141, 40, 0, None, None),
        ),
        {'bottleneck': 8},
        {'bottleneck': 295},
        (),
        ('heap', 2117, 2132, 959, 927, 0),
    ),
    'bbr-codel': (
        (
            (0, True, 12.18, 0.027777777777777776, 1751, 160, 27, None, None),
            (1, False, 7.824, 0.0617816091954023, 1058, 118, 0, None, None),
        ),
        {'bottleneck': 280},
        {'bottleneck': 27},
        (),
        ('heap', 7894, 7933, 2809, 2693, 0),
    ),
    'bbr-droptail': (
        (
            (0, True, 10.992, 0.037154989384288746, 1645, 167, 0, None, None),
            (1, False, 9.012, 0.04055766793409379, 1154, 105, 0, None, None),
        ),
        {'bottleneck': 272},
        {'bottleneck': 0},
        (),
        ('heap', 7852, 7889, 2799, 2683, 0),
    ),
    'bbr-dualpi2': (
        (
            (0, True, 19.008, 0.014934660858743, 2711, 312, 2324, None, None),
            (1, False, 0.996, 0.04597701149425287, 178, 46, 0, None, None),
        ),
        {'bottleneck': 360},
        {'bottleneck': 2356},
        (),
        ('heap', 7955, 7993, 2889, 2748, 0),
    ),
    'bbr-fq_codel': (
        (
            (0, True, 10.175999999999998, 0.007017543859649123, 1401, 119, 57, None, None),
            (1, False, 9.828, 0.034523809523809526, 1339, 97, 0, None, None),
        ),
        {'bottleneck': 216},
        {'bottleneck': 58},
        (),
        ('heap', 7625, 7660, 2740, 2618, 0),
    ),
    'bbr-red': (
        (
            (0, True, 19.692, 0.011425135297654841, 2727, 249, 2226, None, None),
            (1, False, 0.312, 0.975177304964539, 926, 871, 0, None, None),
        ),
        {'bottleneck': 1125},
        {'bottleneck': 2289},
        (),
        ('heap', 9492, 9534, 3653, 3510, 0),
    ),
    'calendar-cubic-red-classic': (
        (
            (0, True, 15.323999999999998, 0.0, 1741, 33, 26, None, None),
            (1, False, 4.68, 0.012658227848101266, 585, 41, 0, None, None),
        ),
        {'bottleneck': 74},
        {'bottleneck': 26},
        (),
        ('calendar', 4535, 4569, 2326, 2224, 0),
    ),
    'churn-finite': (
        (
            (0, True, 16.656, 0.0014184397163120568, 1882, 35, 0, None, None),
            (1, False, 0.0, 0.0, 120, 20, 0, True, 0.23006666666666684),
        ),
        {'bottleneck': 87},
        {'bottleneck': 0},
        (
            ('churn', 10, 9, (
                0.09999999999999898,
                0.0476611907283544,
                0.13084440979880185,
                0.20236184232725507,
                0.14616981779654425,
                0.07320634496691847,
                0.06313621112762702,
                0.16450717663444503,
                0.1640616080369044,
            ), 490500),
        ),
        ('heap', 4589, 4624, 2371, 2269, 0),
    ),
    'cubic-codel': (
        (
            (0, True, 13.236, 0.0, 1591, 33, 7, None, None),
            (1, False, 6.768, 0.0034904013961605585, 809, 22, 0, None, None),
        ),
        {'bottleneck': 55},
        {'bottleneck': 7},
        (),
        ('heap', 4686, 4720, 2400, 2298, 0),
    ),
    'cubic-droptail': (
        (
            (0, True, 13.475999999999999, 0.0017528483786152498, 1628, 35, 0, None, None),
            (1, False, 6.528, 0.0018083182640144665, 789, 21, 0, None, None),
        ),
        {'bottleneck': 56},
        {'bottleneck': 0},
        (),
        ('heap', 4687, 4721, 2417, 2315, 0),
    ),
    'cubic-dualpi2': (
        (
            (0, True, 10.128, 0.0, 1092, 1, 125, None, None),
            (1, False, 9.828, 0.0012062726176115801, 1159, 26, 0, None, None),
        ),
        {'bottleneck': 27},
        {'bottleneck': 125},
        (),
        ('heap', 4426, 4460, 2251, 2157, 0),
    ),
    'cubic-fq_codel': (
        (
            (0, True, 10.008, 0.0, 1222, 34, 8, None, None),
            (1, False, 9.996, 0.002380952380952381, 1325, 6, 0, None, None),
        ),
        {'bottleneck': 40},
        {'bottleneck': 8},
        (),
        ('heap', 5001, 5035, 2547, 2445, 0),
    ),
    'cubic-red': (
        (
            (0, True, 15.323999999999998, 0.0, 1741, 33, 26, None, None),
            (1, False, 4.68, 0.012658227848101266, 585, 41, 0, None, None),
        ),
        {'bottleneck': 74},
        {'bottleneck': 26},
        (),
        ('heap', 4535, 4569, 2326, 2224, 0),
    ),
    'mss500-batched-reno': (
        (
            (0, True, 4.728, 0.007462686567164179, 1736, 51, 0, None, None),
            (1, False, 5.264, 0.015232292460015232, 2148, 72, 0, None, None),
        ),
        {'bottleneck': 32},
        {'bottleneck': 0},
        (),
        ('heap', 3411, 3439, 1746, 1701, 0),
    ),
    'paced-reno-cubic': (
        (
            (0, True, 11.076, 0.005382131324004306, 1434, 32, 0, None, None),
            (1, False, 8.928, 0.006648936170212766, 1082, 21, 0, None, None),
        ),
        {'bottleneck': 53},
        {'bottleneck': 0},
        (),
        ('heap', 6102, 6136, 2516, 2409, 0),
    ),
    'random-loss': (
        (
            (0, True, 4.584, 0.02577319587628866, 653, 29, 0, None, None),
            (1, False, 15.432, 0.0007710100231303007, 1805, 16, 0, None, None),
        ),
        {'bottleneck': 32},
        {'bottleneck': 0},
        (),
        ('heap', 4811, 4836, 2458, 2374, 13),
    ),
    'reno-codel': (
        (
            (0, True, 13.332, 0.0, 1684, 33, 7, None, None),
            (1, False, 6.672, 0.007259528130671506, 832, 24, 0, None, None),
        ),
        {'bottleneck': 57},
        {'bottleneck': 7},
        (),
        ('heap', 4912, 4946, 2516, 2414, 0),
    ),
    'reno-droptail': (
        (
            (0, True, 13.452, 0.005366726296958855, 1697, 39, 0, None, None),
            (1, False, 6.552, 0.005504587155963303, 822, 23, 0, None, None),
        ),
        {'bottleneck': 62},
        {'bottleneck': 0},
        (),
        ('heap', 4917, 4951, 2519, 2417, 0),
    ),
    'reno-dualpi2': (
        (
            (0, True, 10.74, 0.0, 1244, 1, 265, None, None),
            (1, False, 9.264, 0.0012804097311139564, 1164, 21, 0, None, None),
        ),
        {'bottleneck': 22},
        {'bottleneck': 268},
        (),
        ('heap', 4727, 4761, 2408, 2319, 0),
    ),
    'reno-fq_codel': (
        (
            (0, True, 10.272, 0.0, 1298, 34, 10, None, None),
            (1, False, 9.708, 0.0037359900373599006, 1201, 7, 0, None, None),
        ),
        {'bottleneck': 41},
        {'bottleneck': 10},
        (),
        ('heap', 4918, 4952, 2499, 2397, 0),
    ),
    'reno-red': (
        (
            (0, True, 13.332, 0.0, 1669, 33, 32, None, None),
            (1, False, 6.084, 0.009671179883945842, 740, 43, 0, None, None),
        ),
        {'bottleneck': 76},
        {'bottleneck': 32},
        (),
        ('heap', 4699, 4733, 2409, 2307, 0),
    ),
    'second-bottleneck': (
        (
            (0, True, 4.272, 0.05080213903743316, 556, 43, 0, None, None),
            (1, False, 15.732, 0.04172767203513909, 2213, 228, 0, None, None),
        ),
        {'bottleneck': 267, 'edge2': 5},
        {'bottleneck': 0, 'edge2': 0},
        (),
        ('heap', 7842, 7879, 2769, 2667, 0),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_results_are_pinned(name):
    assert observe(simulate(**CASES[name])) == EXPECTED[name]


def test_cases_cover_the_stratification():
    assert sorted(CASES) == sorted(EXPECTED)
    discipline_of = {n: c.get("queue_discipline", "droptail") for n, c in CASES.items()}
    for cc in CCS:
        for discipline in DISCIPLINES:
            assert discipline_of[f"{cc}-{discipline}"] == discipline
    flows = [f for c in CASES.values() for f in c["flows"]]
    assert {f.ecn for f in flows} == {False, "classic", "l4s"}
    assert any(f.paced and f.cc == "reno" for f in flows)
    assert any(f.paced and f.cc == "cubic" for f in flows)
    assert any(f.path is not None and f.path.loss_rate > 0 for f in flows)
    assert any(c.get("mss_bytes") == 500 for c in CASES.values())
    assert {bool(c.get("event_batching")) for c in CASES.values()} == {False, True}
    assert any("traffic_sources" in c for c in CASES.values())
    assert any("extra_queues" in c for c in CASES.values())
