"""Named system configurations used throughout tests and demos.

Triple presets
--------------
``example1``   fractional-power system: sigma = sign_power(0.5),
               g = sign_power(0.3), h = sign_power(0.7).
``example2``   saturated system: sigma = tanh, g = sign_power(0.4),
               h = sin(4y) + sign_power(0.6).
``singular-g`` g(y) = y, whose reciprocal weight 1/y has no finite second
               moment under the stationary law; the trajectory is stable
               but the one-lag average blows up.  sigma = sign_power(0.5),
               h = tanh (identity g fixes p = 1, so h must carry no
               homogeneity exponent of its own).
``singular-h`` two nodes are pinned in the saturation region of a [-1, 1]
               limiter (sigma = tanh shifted up/down by 2), so two columns
               of h are constant +/-1 and the zero-lag moment matrix is
               singular.   g = 1 elsewhere keeps the weights trivial.
``linear``     sigma = h = identity, g = 1: the classical linear model.
"""

from __future__ import annotations

from . import nonlinearities as nl
from .dynamics import NonlinearityTriple

TRIPLE_PRESETS = ("example1", "example2", "singular-g", "singular-h", "linear")


def triple_preset(name: str, n_nodes: int) -> NonlinearityTriple:
    """Build a named nonlinearity triple over ``n_nodes`` nodes."""
    if name == "example1":
        return NonlinearityTriple.uniform(
            nl.sign_power(0.5), nl.sign_power(0.3), nl.sign_power(0.7),
            n_nodes, triple_id=name,
        )
    if name == "example2":
        return NonlinearityTriple.uniform(
            nl.tanh(), nl.sign_power(0.4), nl.sin_plus_sign_power(4.0, 0.6),
            n_nodes, triple_id=name,
        )
    if name == "singular-g":
        return NonlinearityTriple.uniform(
            nl.sign_power(0.5), nl.identity(), nl.tanh(),
            n_nodes, triple_id=name,
        )
    if name == "singular-h":
        if n_nodes < 3:
            raise ValueError("singular-h needs at least 3 nodes")
        sigma = [nl.tanh_shifted(2.0), nl.tanh_shifted(-2.0)]
        sigma += [nl.tanh()] * (n_nodes - 2)
        return NonlinearityTriple(
            sigma=tuple(sigma),
            g=(nl.constant_one(),) * n_nodes,
            h=(nl.limiter(-1.0, 1.0),) * n_nodes,
            triple_id=name,
        )
    if name == "linear":
        return NonlinearityTriple.uniform(
            nl.identity(), nl.constant_one(), nl.identity(),
            n_nodes, triple_id=name,
        )
    raise ValueError(
        f"unknown triple preset {name!r}; expected one of {TRIPLE_PRESETS}"
    )


def triple_to_spec(triple: NonlinearityTriple) -> dict:
    """Fully explicit plain-data form of a triple (no preset names)."""
    def family(fns):
        specs = [nl.to_spec(fn) for fn in fns]
        if all(s == specs[0] for s in specs):
            return {"uniform": specs[0]}
        return {"per_node": specs}
    return {
        "sigma": family(triple.sigma),
        "g": family(triple.g),
        "h": family(triple.h),
        "triple_id": triple.triple_id,
    }


def triple_from_spec(spec: "str | dict", n_nodes: int) -> NonlinearityTriple:
    """Build a triple from a preset name or an explicit plain-data spec.

    A spec maps ``sigma``, ``g`` and ``h`` to a family each, and may name
    a string ``triple_id``; no other key is allowed.  A family is a nonlinearity
    spec for every node, or a mapping whose one key is ``uniform`` (one
    spec for every node) or ``per_node`` (a list of ``n_nodes`` specs).
    """
    if isinstance(spec, str):
        return triple_preset(spec, n_nodes)
    if not isinstance(spec, dict):
        raise ValueError(f"triple spec must be a name or mapping, got {spec!r}")

    def family(entry, name):
        if isinstance(entry, dict) and {"uniform", "per_node"} & entry.keys() \
                and len(entry) != 1:
            raise ValueError(f"{name} must hold only 'uniform' or only "
                             f"'per_node', got keys {sorted(entry)}")
        if isinstance(entry, dict) and "uniform" in entry:
            return (nl.from_spec(entry["uniform"]),) * n_nodes
        if isinstance(entry, dict) and "per_node" in entry:
            if not isinstance(entry["per_node"], list):
                raise ValueError(f"{name} per_node must be a list, "
                                 f"got {entry['per_node']!r}")
            fns = tuple(nl.from_spec(s) for s in entry["per_node"])
            if len(fns) != n_nodes:
                raise ValueError(
                    f"{name} lists {len(fns)} nodes but n_nodes={n_nodes}"
                )
            return fns
        # bare spec means uniform
        return (nl.from_spec(entry),) * n_nodes

    missing = {"sigma", "g", "h"} - spec.keys()
    if missing:
        raise ValueError(f"triple spec missing families: {sorted(missing)}")
    unknown = spec.keys() - {"sigma", "g", "h", "triple_id"}
    if unknown:
        raise ValueError(f"unknown triple spec keys: {sorted(unknown)}")
    triple_id = spec.get("triple_id", "custom")
    if not isinstance(triple_id, str):
        raise ValueError(f"triple_id must be a string, got {triple_id!r}")
    return NonlinearityTriple(
        sigma=family(spec["sigma"], "sigma"),
        g=family(spec["g"], "g"),
        h=family(spec["h"], "h"),
        triple_id=triple_id,
    )
