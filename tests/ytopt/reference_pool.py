"""Test-only reference: the optimizer's candidate pool as a Python loop.

This is how ``Optimizer._suggest`` built its pool before the index draw,
kept as the oracle the index pool (and the generic configuration pool) are
compared against. It draws ``n_candidates`` configurations one at a time,
drops each one whose encoded-row bytes were told, are in flight, or were
drawn before, then appends neighbors of the three best incumbents until the
pool holds ``n_candidates + n_neighbor_candidates``.
"""

from __future__ import annotations

import numpy as np


def reference_pool(opt, exclude=()) -> list:
    """The candidate pool of optimizer ``opt``, as configurations in order.

    Consumes the space RNG and the optimizer RNG exactly as the optimizer's
    own pool does.
    """
    seen = {x.tobytes() for x in opt._X}
    seen.update(c.get_array().tobytes() for c in exclude)
    candidates = []
    for _ in range(opt.n_candidates):
        c = opt.space.sample_configuration()
        key = c.get_array().tobytes()
        if key not in seen:
            seen.add(key)
            candidates.append(c)
    budget = opt.n_candidates + opt.n_neighbor_candidates
    for idx in np.argsort(opt._y)[:3]:
        for c in opt.space.neighbors(opt._configs[int(idx)], opt._rng):
            key = c.get_array().tobytes()
            if key not in seen:
                seen.add(key)
                candidates.append(c)
                if len(candidates) >= budget:
                    break
        if len(candidates) >= budget:
            break
    return candidates
