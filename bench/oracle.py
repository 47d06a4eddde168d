"""Reference answers the benchmark checks the program's outputs against.

Lifebars are checked against an exact computation that shares no code with
``swbundle``.  The pulled-back first Stiefel-Whitney class of a line-bundle
cloud is nonzero at index t exactly when the flag graph at scale sqrt(2) t
has a cycle along which the fiber line flips an odd number of times, an
edge ij flipping iff u_i . u_j < 0 for the top eigenvectors u of the matrix
parts.  A parity union-find over the edges in order of their filtration
value finds the first edge that closes such a cycle; its value is the exact
infimum t* of the lifebar.  Barcodes are compared with stored references.
"""

from __future__ import annotations

import json
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
TOLERANCE = 1e-9


class Cloud:
    """A cloud file read with plain JSON, plus its exact lifebar data."""

    def __init__(self, path) -> None:
        with open(path) as fh:
            obj = json.load(fh)
        self.gamma = float(obj["gamma"])
        self.xs = np.array([p["x"] for p in obj["points"]], dtype=float)
        self.mats = np.array([p["A"] for p in obj["points"]], dtype=float)
        sym = (self.mats + self.mats.transpose(0, 2, 1)) / 2.0
        vals, vecs = np.linalg.eigh(sym)
        # tmax = gamma * min medial distance = gamma * min gap / sqrt(2);
        # the index set ends at tmax / sqrt(2)
        self.bound = self.gamma * float(np.min(vals[:, -1] - vals[:, -2])) / 2.0
        self.onset = _class_onset(self, vecs[:, :, -1])


def _class_onset(cloud: Cloud, tops: np.ndarray) -> float:
    """Smallest index where an odd flip cycle appears (inf if none below the bound)."""
    emb = np.concatenate(
        [cloud.xs, cloud.gamma * cloud.mats.reshape(len(cloud.xs), -1)], axis=1)
    n = len(emb)
    iu, ju = np.triu_indices(n, k=1)
    dist = np.sqrt(np.sum((emb[iu] - emb[ju]) ** 2, axis=1))
    index = dist / (2.0 * SQRT2)  # edge value dist/2 enters at scale sqrt(2) t
    flips = np.einsum("ij,ij->i", tops[iu], tops[ju]) < 0.0
    parent = list(range(n))
    parity = [0] * n  # flip parity from a vertex to its parent

    def find(v):
        p = 0
        while parent[v] != v:
            p ^= parity[v]
            v = parent[v]
        return v, p

    for e in np.argsort(index, kind="stable"):
        if index[e] >= cloud.bound:
            break
        (ra, pa), (rb, pb) = find(int(iu[e])), find(int(ju[e]))
        if ra == rb:
            if pa ^ pb ^ int(flips[e]):
                return float(index[e])
        else:
            parent[ra] = rb
            parity[ra] = pa ^ pb ^ int(flips[e])
    return math.inf


def check_lifebar(cloud: Cloud, out: dict) -> list:
    """Problems with a lifebar JSON object; an empty list means it is right."""
    problems = []
    t_star, res, t_dagger = cloud.onset, out["resolution"], out["t_dagger"]
    if abs(out["t_max"] - cloud.bound) > TOLERANCE:
        problems.append(f"t_max {out['t_max']!r} != index bound {cloud.bound!r}")
    if t_dagger is None:
        if t_star < out["t_max"] - res - TOLERANCE:
            problems.append(f"empty lifebar but the class turns nonzero at t* = {t_star!r}")
    elif not (t_dagger < t_star + TOLERANCE and t_star <= t_dagger + res + TOLERANCE):
        problems.append(f"t_dagger {t_dagger!r} does not bracket t* = {t_star!r}")
    for ev in out["evaluations"]:
        if abs(ev["t"] - t_star) > TOLERANCE and ev["nonzero"] != (ev["t"] > t_star):
            problems.append(f"class at t = {ev['t']!r} reported nonzero={ev['nonzero']}, "
                            f"t* = {t_star!r}")
    return problems


def _intervals(rows) -> list:
    """[(dim, birth, death)] sorted, death inf for an open bar."""
    out = []
    for r in rows:
        if isinstance(r, dict):
            r = (r["dim"], r["birth"], r["death"])
        out.append((int(r[0]), float(r[1]), math.inf if r[2] is None else float(r[2])))
    return sorted(out)


def barcode_rows(bars: list) -> list:
    """Compact stored form of a barcode JSON list: [dim, birth, death|null]."""
    return [[d, b, None if e == math.inf else e] for (d, b, e) in _intervals(bars)]


def check_barcode(out: list, reference: list) -> list:
    """Problems with a barcode JSON list, compared interval by interval."""
    got, want = _intervals(out), _intervals(reference)
    if len(got) != len(want):
        return [f"{len(got)} intervals, reference has {len(want)}"]
    for (gd, gb, ge), (wd, wb, we) in zip(got, want):
        if gd != wd or abs(gb - wb) > TOLERANCE or not (
                ge == we or abs(ge - we) <= TOLERANCE):
            return [f"interval {(gd, gb, ge)} != reference {(wd, wb, we)}"]
    return []
