"""Message layouts: every message type states its payload once, as one
field codec per dataclass field."""

import dataclasses

from mpcmarket.protocol.messages import MESSAGE_TYPES


def test_every_layout_covers_its_fields():
    for cls in MESSAGE_TYPES.values():
        assert len(cls.LAYOUT) == len(dataclasses.fields(cls)), cls.__name__
