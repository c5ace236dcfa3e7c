"""The former Young-diagram layer; it defines nothing.

No report reads a partition, a hook length or a tableau count: the hooks
of each weight are one binomial convolution (``schur.hook_sum``), and the
singular locus is the one 2x2 class of ``invariants.porteous_class``.  The
partition functions are reference implementations in ``tests/oracles.py``.
The module stays importable because ``bench/tracing.py`` imports every
layer it names, this one included; it goes with that entry.
"""
