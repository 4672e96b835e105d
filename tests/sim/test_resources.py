"""Unit tests for Resource / Store."""

import pytest

from repro.sim import Resource, Store


class TestResource:
    def test_capacity_validated(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grants_up_to_capacity(self, sim):
        res = Resource(sim, capacity=2)
        grabbed = []

        def proc(sim, i):
            with res.request() as req:
                yield req
                grabbed.append((sim.now, i))
                yield sim.timeout(1)

        for i in range(4):
            sim.process(proc(sim, i))
        sim.run()
        assert grabbed == [(0.0, 0), (0.0, 1), (1.0, 2), (1.0, 3)]

    def test_queue_length_reflects_waiters(self, sim):
        res = Resource(sim, capacity=1)

        def holder(sim):
            with res.request() as req:
                yield req
                yield sim.timeout(10)

        def waiter(sim):
            with res.request() as req:
                yield req

        sim.process(holder(sim))
        sim.process(waiter(sim))
        sim.run(until=1.0)
        assert len(res.users) == 1
        assert len(res._waiting) == 1

    def test_release_is_idempotent(self, sim):
        res = Resource(sim)
        req = res.request()
        sim.run()
        res.release(req)
        res.release(req)   # no error
        assert len(res.users) == 0

    def test_cancel_pending_request(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()
        res.release(second)   # withdraws the un-granted request
        res.release(first)
        assert len(res.users) == 0  # cancelled request never granted


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("a")

        def getter(sim):
            item = yield store.get()
            return item

        assert sim.run(until=sim.process(getter(sim))) == "a"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def getter(sim):
            item = yield store.get()
            return (sim.now, item)

        def putter(sim):
            yield sim.timeout(3)
            store.put("late")

        p = sim.process(getter(sim))
        sim.process(putter(sim))
        assert sim.run(until=p) == (3.0, "late")

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        out = []

        def getter(sim):
            for _ in range(5):
                out.append((yield store.get()))

        sim.run(until=sim.process(getter(sim)))
        assert out == [0, 1, 2, 3, 4]

    def test_none_is_a_valid_item(self, sim):
        store = Store(sim)
        store.put(None)

        def getter(sim):
            item = yield store.get()
            return ("got", item)

        assert sim.run(until=sim.process(getter(sim))) == ("got", None)
