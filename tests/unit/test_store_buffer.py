"""Unit tests for the coalescing store buffer."""

import pytest

from repro.mem.store_buffer import StoreBuffer


def test_push_and_forward():
    buffer = StoreBuffer(16)
    buffer.push(0x100, 0b11, {0: 5, 1: 6})
    assert buffer.forward(0x100, 0b11) == {0: 5, 1: 6}
    assert buffer.forward(0x100, 0b111) is None      # not fully covered


def test_coalescing_same_line():
    buffer = StoreBuffer(16)
    buffer.push(0x100, 0b01, {0: 5})
    buffer.push(0x100, 0b10, {1: 6})
    entry = buffer.entries[0x100]
    assert entry.mask == 0b11
    assert buffer.words == 2
    assert len(buffer) == 1


def test_coalescing_overwrite_same_word():
    buffer = StoreBuffer(16)
    buffer.push(0x100, 0b1, {0: 5})
    buffer.push(0x100, 0b1, {0: 9})
    assert buffer.words == 1
    assert buffer.forward(0x100, 0b1) == {0: 9}


def test_capacity_accounting():
    buffer = StoreBuffer(2)
    assert buffer.can_accept(0b11, 0x100)
    buffer.push(0x100, 0b11, {0: 1, 1: 2})
    assert not buffer.can_accept(0b1, 0x200)
    # coalescing into existing words is free
    assert buffer.can_accept(0b01, 0x100)


def test_issue_and_complete_cycle():
    buffer = StoreBuffer(16)
    buffer.push(0x100, 0b1, {0: 5})
    entry = buffer.next_unissued()
    assert entry.line == 0x100
    buffer.mark_issued(0x100)
    assert buffer.next_unissued() is None
    done = buffer.complete(0x100)
    assert done.values == {0: 5}
    assert buffer.empty


def test_push_to_issued_line_rejected():
    buffer = StoreBuffer(16)
    buffer.push(0x100, 0b1, {0: 5})
    buffer.mark_issued(0x100)
    with pytest.raises(RuntimeError):
        buffer.push(0x100, 0b10, {1: 6})


def test_complete_absent_rejected():
    buffer = StoreBuffer(16)
    with pytest.raises(RuntimeError):
        buffer.complete(0x100)


def test_fifo_issue_order():
    buffer = StoreBuffer(16)
    buffer.push(0x100, 0b1, {0: 1})
    buffer.push(0x200, 0b1, {0: 2})
    assert buffer.next_unissued().line == 0x100
    buffer.mark_issued(0x100)
    assert buffer.next_unissued().line == 0x200


def test_issued_entry_still_forwards():
    buffer = StoreBuffer(16)
    buffer.push(0x100, 0b1, {0: 5})
    buffer.mark_issued(0x100)
    assert buffer.forward(0x100, 0b1) == {0: 5}
