"""Test-only reference: the optimizer's candidate pool as a Python loop.

This is how ``Optimizer._suggest`` built its pool before the index draw,
kept as the oracle the index pool is compared against. It draws
``n_candidates`` configurations one at a time, drops each one whose
encoded-row bytes were told, are in flight, or were drawn before, then
appends neighbors of the three best incumbents until the pool holds
``n_candidates + n_neighbor_candidates``. The neighbors follow the
per-value rule local search used before it moved to index rows
(:func:`reference_neighbors`).
"""

from __future__ import annotations

import numpy as np

from repro.configspace import Configuration


def reference_neighbors(space, config) -> list[dict]:
    """One-parameter-changed neighbors of ``config``, as value dicts.

    For each hyperparameter in space order, step outward from the current
    value's position in its value list — one below, one above, then two
    below, two above — and keep the first two values that exist.
    """
    out = []
    for hp in space.get_hyperparameters():
        values = [hp.value_at(k) for k in range(int(hp.size()))]
        i = values.index(config[hp.name])
        nbs = []
        for step in (1, 2):
            if i - step >= 0:
                nbs.append(values[i - step])
            if i + step < len(values):
                nbs.append(values[i + step])
            if len(nbs) >= 2:
                break
        out += [dict(config, **{hp.name: v}) for v in nbs[:2]]
    return out


def reference_pool(opt, exclude=()) -> list:
    """The candidate pool of optimizer ``opt``, as configurations in order.

    Consumes the space RNG exactly as the optimizer's own pool does; neither
    pool draws from the optimizer RNG.
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
        for values in reference_neighbors(opt.space, opt._configs[int(idx)]):
            c = Configuration(opt.space, values)
            key = c.get_array().tobytes()
            if key not in seen:
                seen.add(key)
                candidates.append(c)
                if len(candidates) >= budget:
                    break
        if len(candidates) >= budget:
            break
    return candidates
