import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))


def random_gradient(rng, n, smin=0.2, smax=5.0):
    """Random n x n matrix with det > 0 and singular values in [smin, smax]."""
    from oracles import random_rotation

    s = rng.uniform(smin, smax, size=n)
    return random_rotation(rng, n) @ np.diag(s) @ random_rotation(rng, n)


def frozen_point(base, F):
    """The pushforward of the material base frozen at one point with
    forward gradient F: row 0 of the pushforward over the unit square or
    cube deformed by the affine map x -> F x."""
    from rigidity_cert import fem, pushforward

    F = np.asarray(F, dtype=float)
    mesh = fem.rectangle_mesh(1, 1) if len(F) == 2 else fem.box_mesh(1, 1, 1)
    cfg = pushforward.deform_configuration(
        mesh, pushforward.AnalyticDeformation(lambda x: F @ x, lambda x: F))
    return pushforward.PushforwardMaterial(base, cfg).at_points(slice(0, 1))
