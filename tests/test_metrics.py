import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsim.errors import UndefinedMetricError
from relsim.metrics import (
    FlowStats,
    ground_truth_route_mrr,
    mean_end_to_end_delay,
    packet_loss,
    starved_flow_count,
    throughput_ratio,
)

from conftest import blackhole, line_sim, warm_up

TOL = 1e-9


def _flow(app_id=0, sent=0, received=0, send_tp=0.0, recv_tp=0.0, delay=0.0):
    return FlowStats(
        app_id=app_id,
        packets_sent=sent,
        packets_received=received,
        send_throughput=send_tp,
        recv_throughput=recv_tp,
        mean_delay_s=delay,
    )


# -- throughput ratio ---------------------------------------------------------


def test_single_flow_76_percent():
    flows = [_flow(sent=100, received=76, send_tp=100.0, recv_tp=76.0)]
    assert abs(throughput_ratio(flows) - 76.0) < TOL


def test_single_flow_65_percent():
    flows = [_flow(sent=100, received=65, send_tp=100.0, recv_tp=65.0)]
    assert abs(throughput_ratio(flows) - 65.0) < TOL


def test_equal_send_receive_is_identity():
    flows = [
        _flow(app_id=0, send_tp=40.0, recv_tp=40.0),
        _flow(app_id=1, send_tp=60.0, recv_tp=60.0),
    ]
    assert abs(throughput_ratio(flows) - 100.0) < TOL


def test_zero_send_throughput_is_undefined():
    with pytest.raises(UndefinedMetricError):
        throughput_ratio([_flow()])


# -- packet loss ---------------------------------------------------------------


def test_half_lost_is_fifty_percent():
    assert abs(packet_loss([_flow(sent=100, received=50)]) - 50.0) < TOL


def test_twenty_percent_loss():
    assert abs(packet_loss([_flow(sent=100, received=80)]) - 20.0) < TOL


def test_lossless_run_is_zero():
    assert packet_loss([_flow(sent=500, received=500)]) == 0.0


def test_loss_with_nothing_sent_is_undefined():
    with pytest.raises(UndefinedMetricError):
        packet_loss([_flow()])


# -- end-to-end delay -----------------------------------------------------------


def test_single_flow_delay_065():
    flows = [_flow(sent=10, received=10, delay=0.065)]
    assert abs(mean_end_to_end_delay(flows) - 0.065) < TOL


def test_equal_value_mean_092():
    flows = [
        _flow(app_id=0, sent=10, received=10, delay=0.092),
        _flow(app_id=1, sent=10, received=10, delay=0.092),
    ]
    assert abs(mean_end_to_end_delay(flows) - 0.092) < TOL


def test_three_flow_hand_sum():
    flows = [
        _flow(app_id=0, sent=1, received=1, delay=0.010),
        _flow(app_id=1, sent=1, received=1, delay=0.020),
        _flow(app_id=2, sent=1, received=1, delay=0.030),
    ]
    assert abs(mean_end_to_end_delay(flows) - 0.020) < TOL


def test_starved_flows_are_excluded_and_counted():
    flows = [
        _flow(app_id=0, sent=10, received=10, delay=0.050),
        _flow(app_id=1, sent=10, received=0),
    ]
    assert abs(mean_end_to_end_delay(flows) - 0.050) < TOL
    assert starved_flow_count(flows) == 1


def test_all_starved_is_undefined():
    with pytest.raises(UndefinedMetricError):
        mean_end_to_end_delay([_flow(sent=5)])


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=500),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_loss_and_throughput_agree_when_nothing_drops(flows_spec):
    """With every packet delivered and uniform sizes, loss 0 means 100%."""
    flows = []
    for i, (sent, _) in enumerate(flows_spec):
        flows.append(
            _flow(app_id=i, sent=sent, received=sent,
                  send_tp=sent * 64 / 10.0, recv_tp=sent * 64 / 10.0)
        )
    assert packet_loss(flows) == 0.0
    assert abs(throughput_ratio(flows) - 100.0) < TOL


# -- ground-truth route score ----------------------------------------------------


def test_honest_route_scores_unity_after_warmup():
    sim = line_sim(4)
    warm_up(sim)
    assert ground_truth_route_mrr(sim, (0, 1, 2, 3)) == 1.0


def test_route_through_blackhole_scores_zero():
    sim = line_sim(4, {2: blackhole()})
    warm_up(sim)
    assert ground_truth_route_mrr(sim, (0, 1, 2, 3)) == 0.0


def test_direct_neighbor_route_scores_unity():
    sim = line_sim(3)
    assert ground_truth_route_mrr(sim, (0, 1)) == 1.0
