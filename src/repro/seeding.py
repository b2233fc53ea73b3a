"""Deterministic, collision-free RNG stream derivation.

One master seed fans out into many independent streams: per-process
trace generators, per-core scheduler jitter, per-domain replacement
policies, the power meter, per-phase generators and the fleet
assignment search.  Child seeds used to be derived affinely
(``seed * 1_000_003 + pid`` for generators, ``seed * 7_919 + core``
for schedulers, ``seed + idx`` for policies), which collides across
domains for small master seeds: seed 0 hands process 0, core 0 and
cache domain 0 the *same* raw seed 0, so their "independent" streams
are byte-identical.

Every consumer now derives its seed from the
:class:`numpy.random.SeedSequence` tree instead.  Each stream is the
grandchild ``SeedSequence(master, spawn_key=(domain, index))`` — the
sequence ``SeedSequence(master).spawn(...)`` would hand out, addressed
directly so a stream can be recreated without materialising its
siblings.  SeedSequence mixes entropy and spawn key through a hash
with provable stream-separation properties, so streams differ even
when ``(master, domain, index)`` triples are small and overlapping.

The 128-bit integers returned by :func:`stream_seed` are fed to
``numpy.random.default_rng`` and ``random.Random`` unchanged; both
accept arbitrary-size ints.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Spawn-key domains.  Every consumer of a derived stream draws from
#: its own domain so streams never collide across subsystems.
STREAM_PROCESS = 0  #: per-process trace generators (index: pid)
STREAM_SCHEDULER = 1  #: per-core timeslice jitter (index: core id)
STREAM_POLICY = 2  #: per-domain replacement policies (index: domain)
STREAM_METER = 3  #: the power meter of one machine (index: 0)
STREAM_PHASE = 4  #: per-phase generators inside one process (index: phase)
# Domain 5 is unused: STREAM_FLEET stays 6 so fleet searches keep
# their seeds.
STREAM_FLEET = 6  #: fleet assignment search (index: restart / chain id)


def spawn_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The ``SeedSequence`` child of ``seed`` addressed by ``key``."""
    if seed < 0:
        raise ConfigurationError("master seed must be non-negative")
    return np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(int(k) for k in key)
    )


def _sequence_to_int(sequence: np.random.SeedSequence) -> int:
    words = sequence.generate_state(4, np.uint32)
    value = 0
    for word in reversed(words):
        value = (value << 32) | int(word)
    return value


def stream_seed(seed: int, *key: int) -> int:
    """A 128-bit child seed for the ``key`` stream of master ``seed``.

    Deterministic in ``(seed, key)``; distinct keys give independent
    streams (SeedSequence's guarantee), so e.g.
    ``stream_seed(0, STREAM_PROCESS, 1)`` and
    ``stream_seed(0, STREAM_SCHEDULER, 1)`` no longer coincide the way
    the old affine derivation made them.
    """
    return _sequence_to_int(spawn_sequence(seed, *key))
