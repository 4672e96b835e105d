"""``TraceStore`` eviction against the linear scan it replaced.

The store finds its eviction victim — the oldest-created trace with no
open span — on a min-heap of traces that went non-live, skipping entries
for traces since evicted or live again.  The oracle below is the scan it
replaced, kept here only as a specification: walk the traces in creation
order and take the first non-live one.  Generated schedules of new
traces, extra spans, span ends, job bindings and late spans for evicted
trace ids must leave both stores holding the same traces in the same
order, with the same job index and eviction count.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.store import TraceStore


class ScanStore(TraceStore):
    """The replaced eviction: a linear walk past every live trace."""

    def _evict_over_capacity(self) -> None:
        while len(self._traces) > self.max_traces:
            victim_id = None
            for trace_id, trace in self._traces.items():
                if not trace.is_live:
                    victim_id = trace_id
                    break
            if victim_id is None:
                return
            victim = self._traces.pop(victim_id)
            for job_id in victim.job_ids:
                if self._job_index.get(job_id) == victim_id:
                    del self._job_index[job_id]
            self.total_evicted += 1


class FakeSpan:
    def __init__(self, trace_id):
        self.trace_id = trace_id


ops = st.one_of(
    st.tuples(st.just("new")),
    st.tuples(st.just("new")),
    st.tuples(st.just("span"), st.integers(0, 30)),
    st.tuples(st.just("end"), st.integers(0, 30)),
    st.tuples(st.just("end"), st.integers(0, 30)),
    st.tuples(st.just("bind"), st.integers(0, 30)),
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 4), schedule=st.lists(ops, max_size=80))
# t1 goes idle three times and is evicted, leaving stale heap entries;
# t0 goes idle and is evicted when t1's id comes back; the new t1 and t2
# then go idle, and the next trace must evict t2, the older one — not
# the new t1 under its evicted namesake's old place in the heap.
@example(capacity=2, schedule=[
    ("new",), ("new",), ("end", 1), ("span", 1), ("end", 1), ("span", 1),
    ("end", 1), ("new",), ("end", 0), ("span", 1), ("end", 0), ("end", 0),
    ("new",)])
def test_heap_eviction_picks_the_scans_victim(capacity, schedule):
    stores = (TraceStore(max_traces=capacity), ScanStore(max_traces=capacity))
    ids = []            # every trace id ever used, evicted ones included
    open_spans = []

    def both(method, *args):
        for store in stores:
            getattr(store, method)(*args)

    for op, *args in schedule:
        if op == "new":
            ids.append(f"t{len(ids)}")
            span = FakeSpan(ids[-1])
            both("add_span", span)
            open_spans.append(span)
        elif op == "span" and ids:
            # A span for any id, possibly one already evicted (it then
            # comes back as a new trace under the old id).
            span = FakeSpan(ids[args[0] % len(ids)])
            both("add_span", span)
            open_spans.append(span)
        elif op == "end" and open_spans:
            both("note_end", open_spans.pop(args[0] % len(open_spans)))
        elif op == "bind" and ids:
            trace_id = ids[args[0] % len(ids)]
            both("bind_job", f"job-{trace_id}", trace_id)
        heap_store, scan_store = stores
        assert list(heap_store._traces) == list(scan_store._traces)
        assert heap_store._job_index == scan_store._job_index
        assert heap_store.total_evicted == scan_store.total_evicted
        assert [t.open_spans for t in heap_store.traces()] == \
            [t.open_spans for t in scan_store.traces()]
