"""Deterministic constructors for the named graph families.

All generators emit the standard vertex numbering: cycle vertices first
(0..l-1 in cycle order), then tail-path vertices outward from the cycle,
then pendant vertices. Outputs are byte-reproducible. `FAMILIES` names
each family, with its builder and the parameters that builder takes.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import ParameterError
from .graph import Graph


class FamilyParams(NamedTuple):
    """Validated parameters for one family member."""

    family: str
    n: int | None = None
    l: int | None = None
    delta: int | None = None
    x: int | None = None
    hub_pos: int | None = None

    def build(self) -> Graph:
        return build_family(self)


def build_family(p: FamilyParams) -> Graph:
    """The member of `FAMILIES` that p names, built from the fields its
    builder takes; a cycle's l defaults to its n."""
    if p.family not in FAMILIES:
        raise ParameterError(f"unknown family {p.family!r}; known: {', '.join(FAMILIES)}")
    builder, fields = FAMILIES[p.family]
    if p.family == "cycle" and p.l is None:
        p = p._replace(l=p.n)
    args = [getattr(p, f) for f in fields]
    for f, value in zip(fields, args):
        if value is None:
            raise ParameterError(f"family requires parameter --{f.replace('_', '-')}")
    return builder(*args)


def _cycle_edges(l: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % l) for i in range(l)]


def make_cycle(l: int) -> Graph:
    if l < 3:
        raise ParameterError(f"cycle needs l >= 3, got {l}")
    return Graph(l, _cycle_edges(l))


def make_path(n: int) -> Graph:
    if n < 1:
        raise ParameterError(f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def make_s_n_l(n: int, l: int) -> Graph:
    """Cycle C_l with n-l pendant edges at one cycle vertex."""
    if not 3 <= l <= n:
        raise ParameterError(f"need 3 <= l <= n, got l={l}, n={n}")
    edges = _cycle_edges(l) + [(0, v) for v in range(l, n)]
    return Graph(n, edges)


def make_p_n_l(n: int, l: int) -> Graph:
    """Tadpole: cycle C_l with a path of n-l extra vertices at one cycle vertex."""
    if not 3 <= l <= n:
        raise ParameterError(f"need 3 <= l <= n, got l={l}, n={n}")
    edges = _cycle_edges(l)
    prev = 0
    for v in range(l, n):
        edges.append((prev, v))
        prev = v
    return Graph(n, edges)


def make_t_n_delta(n: int, delta: int) -> Graph:
    """Broom: path on n-delta+1 vertices with delta-1 pendants at one end.

    Vertex 0 is the hub (degree exactly delta).
    """
    if delta < 2 or n < delta + 1:
        raise ParameterError(f"broom needs n >= delta+1 >= 3, got n={n}, delta={delta}")
    edges = [(0, v) for v in range(1, delta)]  # pendants
    prev = 0
    for v in range(delta, n):  # path away from the hub
        edges.append((prev, v))
        prev = v
    return Graph(n, edges)


def make_p_family_member(n: int, l: int, delta: int, hub_pos: int) -> Graph:
    """Tadpole with pendants at one tail vertex so its degree is exactly delta.

    hub_pos indexes the admissible hub placements from the cycle outward:
    0 puts the hub on the cycle junction (tail length n-l-delta+3, delta-3
    pendants), the maximum n-l-delta+2 puts it at the tail end (tail length
    n-l-delta+1, delta-1 pendants), and intermediate values put it at that
    distance along a tail of length n-l-delta+2 with delta-2 pendants.
    For n-l-delta+2 >= 2 the last two positions build the same graph: at
    the second to last the hub's one tail child is a leaf, like its pendants.
    """
    if l < 3 or delta < 3:
        raise ParameterError(f"need l >= 3 and delta >= 3, got l={l}, delta={delta}")
    if n < l + delta - 2:
        raise ParameterError(f"need n >= l+delta-2, got n={n}, l={l}, delta={delta}")
    max_pos = n - l - delta + 2
    if not 0 <= hub_pos <= max_pos:
        raise ParameterError(f"hub_pos must be in 0..{max_pos}, got {hub_pos}")
    if hub_pos == 0:
        tail = n - l - delta + 3
    elif hub_pos == max_pos:
        tail = n - l - delta + 1
    else:
        tail = n - l - delta + 2
    if tail < 1:
        # n == l+delta-1 and hub_pos == max_pos == 1: the tail end would be
        # the junction, with degree delta+1
        raise ParameterError("requested degree unreachable at this position")
    edges = _cycle_edges(l)
    prev = 0
    for v in range(l, l + tail):
        edges.append((prev, v))
        prev = v
    if hub_pos == 0:
        hub = 0
    elif hub_pos == max_pos:
        hub = l + tail - 1
    else:
        hub = l + hub_pos - 1
    for v in range(l + tail, n):
        edges.append((hub, v))
    return Graph(n, edges)


def make_graph_a(n: int, l: int, delta: int) -> Graph:
    """Hub-on-cycle extreme of the pendant-tadpole family."""
    return make_p_family_member(n, l, delta, 0)


def make_graph_b(n: int, l: int, delta: int) -> Graph:
    """Hub-at-tail-end extreme of the pendant-tadpole family.

    Needs n >= l+delta (the tail-end broom is otherwise degenerate).
    """
    if n < l + delta:
        raise ParameterError(f"tail-end hub needs n >= l+delta, got n={n}, l={l}, delta={delta}")
    return make_p_family_member(n, l, delta, n - l - delta + 2)


def make_p3_extremal(n: int, delta: int) -> Graph:
    """Triangle whose vertex 0 carries delta-3 pendants and a pendant path.

    The Kf-maximizer among unicyclic graphs with max degree exactly delta.
    """
    if delta < 3 or n < delta + 1:
        raise ParameterError(f"need delta >= 3 and n >= delta+1, got n={n}, delta={delta}")
    return make_p_family_member(n, 3, delta, 0)


def make_conj_min_i(n: int, delta: int) -> Graph:
    """Conjectured Kf-minimizer, small-n branch: C_{n-delta+2} with
    delta-2 pendants at one cycle vertex."""
    if delta < 3 or n < delta + 1:
        raise ParameterError(f"need delta >= 3 and n >= delta+1, got n={n}, delta={delta}")
    return make_s_n_l(n, n - delta + 2)


def make_conj_min_ii(n: int, delta: int, x: int) -> Graph:
    """Conjectured Kf-minimizer, large-n branch: C_l (l = n - x(delta-2))
    with delta-2 pendants on each of x consecutive cycle vertices."""
    if delta < 3:
        raise ParameterError(f"need delta >= 3, got {delta}")
    if x < 1:
        raise ParameterError(f"need x >= 1, got {x}")
    l = n - x * (delta - 2)
    if l < 3 or x > l:
        raise ParameterError(f"cycle length l={l} too short for x={x} hubs")
    edges = _cycle_edges(l)
    v = l
    for hub in range(x):
        for _ in range(delta - 2):
            edges.append((hub, v))
            v += 1
    return Graph(n, edges)


# name -> (builder, the FamilyParams fields it takes, in argument order)
FAMILIES = {
    "cycle": (make_cycle, ("l",)),
    "path": (make_path, ("n",)),
    "snl": (make_s_n_l, ("n", "l")),
    "pnl": (make_p_n_l, ("n", "l")),
    "broom": (make_t_n_delta, ("n", "delta")),
    "pfamily": (make_p_family_member, ("n", "l", "delta", "hub_pos")),
    "graph-a": (make_graph_a, ("n", "l", "delta")),
    "graph-b": (make_graph_b, ("n", "l", "delta")),
    "p3": (make_p3_extremal, ("n", "delta")),
    "conj-i": (make_conj_min_i, ("n", "delta")),
    "conj-ii": (make_conj_min_ii, ("n", "delta", "x")),
}
