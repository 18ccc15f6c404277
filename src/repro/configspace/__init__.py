"""A from-scratch reimplementation of the ConfigSpace API subset ytopt uses.

The paper defines its parameter spaces with ConfigSpace
(``CSH.OrdinalHyperparameter`` over tiling-factor candidate lists); this
package provides that surface: :class:`OrdinalHyperparameter`, a seeded
:class:`ConfigurationSpace` with sampling, size computation and
[0,1]-encoding for surrogate models, and the space's
:class:`~repro.configspace.space.IndexView`, which numbers its
configurations as integer rows and int64 codes. The tuners de-duplicate,
search and take local-search neighbours on those rows and codes.
"""

from repro.configspace.hyperparameters import OrdinalHyperparameter
from repro.configspace.space import Configuration, ConfigurationSpace, space_hash

__all__ = [
    "OrdinalHyperparameter",
    "Configuration",
    "ConfigurationSpace",
    "space_hash",
]
