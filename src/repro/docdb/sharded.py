"""The name the benchmark's layer tracer patches (bench/tracing.py:84).

``submissions`` is one plain :class:`~repro.docdb.database.Collection`
at every shard count; this alias keeps the tracer's entry-point table
importable until that table drops its three ``ShardedCollection`` rows.
"""

from repro.docdb.database import Collection as ShardedCollection

__all__ = ["ShardedCollection"]
