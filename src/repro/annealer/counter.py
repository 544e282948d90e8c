"""Counter-based (Philox) random streams for order-independent annealing.

The engine's default ``rng="sequential"`` discipline draws every Metropolis
uniform from a NumPy ``Generator`` in a single well-defined consumption
order; it is bit-reproducible but fundamentally serial, because replica
``r+1``'s next draw depends on how many draws replica ``r`` consumed.  The
``rng="counter"`` contract replaces consumption order with *position*: every
potential draw of an anneal is addressed by a 128-bit counter

    ``(site, sweep, replica, move_tag)``

and its value is ``Philox4x32-10(counter, key)`` — a stateless keyed bijection
(the construction of Salmon et al., SC'11, also the basis of
``numpy.random.Philox``).  Because the value of a draw no longer depends on
*which other draws happened*, replicas (and blocks) may be evaluated in any
order — or in parallel — without changing a single bit of the trajectory.
That is the contract that makes the threaded kernel variants in
:mod:`repro.annealer.backends` legal.

Counter packing
---------------

``site``
    Position of the move within one sweep: the member's position in the
    concatenated colour-class order for single-spin sweeps, the cluster
    index for cluster-flip sweeps, and the block-local variable index for
    the initial-configuration draw.
``sweep``
    0-based temperature index within one ``anneal`` call (initial draws use
    sweep 0 under their own tag).
``replica``
    Replica row index.
``move_tag``
    Domain separator: :data:`TAG_SWEEP`, :data:`TAG_CLUSTER` or
    :data:`TAG_INIT` — so single-spin, cluster and initialisation draws can
    never collide even when their site/sweep indices do.

Keys
----

Each *block* of an anneal call gets its own 64-bit key, drawn once per call
from the block's sequential generator (:func:`block_key`).  Seeding therefore
still flows from the caller's ``random_state``; successive anneal calls (the
ICE batches of a QA run) get fresh keys automatically, and two blocks of a
pack can never share a stream.  Both kernel backends (numpy reference, C)
implement this exact function, so a counter-mode trajectory is
bit-identical across backends *and* across thread counts.

Cost
----

Every draw is one full Philox4x32-10 evaluation — ten rounds of two
32x32 -> 64-bit multiplies — of whose four output words the uniform uses
two (``x0``, ``x1``: the top 53 bits of ``x0 << 32 | x1``).  That is the
whole price of the discipline against a sequential generator's one multiply
per draw, and because a draw's value depends on nothing but its address it
can be paid in bulk: the C kernels value all of a move's draws together, a
vector register of Philox states at a time, and this module's
:func:`philox_uniform` stays the definition they are tested against.
Spending ``x2``/``x3`` on a second uniform would halve the evaluations, but
it re-addresses every draw — a different stream, new goldens — so it waits
for a statistical conformance suite that can vouch for a new stream.
"""

from __future__ import annotations

import numpy as np

#: Move-type domain separators (the ``c3`` counter word).
TAG_SWEEP = 0
TAG_CLUSTER = 1
TAG_INIT = 2

#: ``2**-53``: maps the top 53 bits of the Philox output to ``[0, 1)`` —
#: the same construction NumPy's ``Generator.random`` uses.
_UNIT = 1.0 / 9007199254740992.0

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85


def philox4x32(site, sweep, replica, tag, key: int) -> np.ndarray:
    """Philox4x32-10 output word pair as one ``uint64`` (vectorised).

    ``site``/``sweep``/``replica``/``tag`` are broadcastable integer
    arrays (or scalars) forming the counter; *key* is the block's 64-bit
    key.  Returns ``(x0 << 32) | x1`` of the final state — the two output
    words the uniform construction consumes.
    """
    c0 = np.asarray(site, dtype=np.uint32)
    c1 = np.asarray(sweep, dtype=np.uint32)
    c2 = np.asarray(replica, dtype=np.uint32)
    c3 = np.asarray(tag, dtype=np.uint32)
    k0 = int(key) & 0xFFFFFFFF
    k1 = (int(key) >> 32) & 0xFFFFFFFF
    for _ in range(10):
        p0 = c0.astype(np.uint64) * _M0
        p1 = c2.astype(np.uint64) * _M1
        hi0 = (p0 >> np.uint64(32)).astype(np.uint32)
        lo0 = p0.astype(np.uint32)
        hi1 = (p1 >> np.uint64(32)).astype(np.uint32)
        lo1 = p1.astype(np.uint32)
        c0 = hi1 ^ c1 ^ np.uint32(k0)
        c1 = lo1
        c2 = hi0 ^ c3 ^ np.uint32(k1)
        c3 = lo0
        k0 = (k0 + _W0) & 0xFFFFFFFF
        k1 = (k1 + _W1) & 0xFFFFFFFF
    return (c0.astype(np.uint64) << np.uint64(32)) | c1.astype(np.uint64)


def philox_uniform(site, sweep, replica, tag, key: int) -> np.ndarray:
    """Uniform ``[0, 1)`` draw(s) at the given counter position(s).

    The reference implementation of the counter contract: the C kernels
    in :mod:`repro.annealer.backends` compute the identical value for the
    identical counter, which is what the cross-backend and
    thread-count bit-identity suites pin.
    """
    bits = philox4x32(site, sweep, replica, tag, key)
    return (bits >> np.uint64(11)).astype(np.float64) * _UNIT


def block_key(rng: np.random.Generator) -> int:
    """Draw one 64-bit counter key from a block's sequential generator.

    One draw per block per ``anneal`` call: seeding still flows from the
    caller's ``random_state``, successive calls (ICE batches) get fresh
    keys, and the packed blocks of a multi-problem anneal each key their
    own stream.
    """
    return int(rng.integers(0, 2**64, dtype=np.uint64))


def counter_initial_spins(key: int, num_replicas: int, size: int
                          ) -> np.ndarray:
    """Initial ±1 configuration of one block under the counter contract.

    Drawn at counter positions ``(variable, 0, replica, TAG_INIT)`` — a
    pure function of the block key, so every backend (and every thread
    count) starts every trajectory from the identical configuration.
    """
    sites = np.arange(size, dtype=np.uint32)[None, :]
    replicas = np.arange(num_replicas, dtype=np.uint32)[:, None]
    u = philox_uniform(sites, 0, replicas, TAG_INIT, key)
    return np.where(u < 0.5, -1.0, 1.0)
