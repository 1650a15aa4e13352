import pytest

from relsim.packets import DataPayload, Packet, PacketKind


def test_data_payload_is_immutable():
    payload = DataPayload(3, 1_500, (0, 1, 2))
    for name in ("flow_id", "created_us", "path"):
        with pytest.raises(AttributeError):
            setattr(payload, name, 0)
    assert payload == DataPayload(3, 1_500, (0, 1, 2))


def test_data_payload_repr_names_its_fields_in_order():
    payload = DataPayload(flow_id=-1, created_us=50_000, path=(4, 9))
    assert repr(payload) == "DataPayload(flow_id=-1, created_us=50000, path=(4, 9))"


def test_packet_pos_defaults_to_zero():
    assert Packet(PacketKind.ACK, 2, 7).pos == 0
