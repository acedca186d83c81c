"""One-way layout data container and CSV ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class AnovaData:
    """Responses with integer group codes 1..J; rows are stored grouped.

    group_labels, when present, maps code j to the original label at
    position j-1.
    """

    responses: np.ndarray
    groups: np.ndarray
    group_labels: tuple[str, ...] | None = None
    J: int = field(init=False)

    def __post_init__(self) -> None:
        y = np.asarray(self.responses, dtype=float)
        codes = np.asarray(self.groups)
        if codes.dtype.kind == "f" and not np.all(np.isfinite(codes) & (codes == np.round(codes))):
            raise ValueError("group codes must be whole numbers")
        g = codes.astype(int)
        if y.ndim != 1 or y.shape != g.shape or y.size == 0:
            raise ValueError("responses and groups must be matching nonempty vectors")
        if not np.all(np.isfinite(y)):
            raise ValueError("responses must be finite")
        J = int(g.max(initial=0))
        if g.min(initial=1) < 1 or set(np.unique(g)) != set(range(1, J + 1)):
            raise ValueError("groups must cover 1..J with every group nonempty")
        if self.group_labels is not None and len(self.group_labels) != J:
            raise ValueError("group_labels length must equal J")
        idx = np.argsort(g, kind="stable")
        self.responses = y[idx]
        self.groups = g[idx]
        self.J = J

    @property
    def n(self) -> int:
        return int(self.responses.shape[0])

    @property
    def group_sizes(self) -> tuple[int, ...]:
        # the rows are sorted by group, so each group starts where its code does
        return tuple(np.diff(np.searchsorted(self.groups, np.arange(1, self.J + 2))).tolist())


@dataclass(frozen=True, eq=False)
class GroupStats:
    """Group sizes, means and within-group sums of squares: all the normal model reads of y.

    Group j's mean is anchors[j] + offsets[j], anchors[j] its first response.
    Centring each group on its own response (Chan, Golub & LeVeque 1983)
    keeps ss and each difference of means exact to a few eps of its size, and
    gives constant responses ss and offsets of exactly 0.
    """

    sizes: tuple[int, ...]
    anchors: np.ndarray
    offsets: np.ndarray
    ss: np.ndarray

    @classmethod
    def of(cls, y, group_sizes) -> GroupStats:
        """One O(n) pass over responses stored group by group, group_sizes[j] rows for group j+1."""
        y, sizes = np.asarray(y, dtype=float), np.asarray(group_sizes)
        if y.shape != (sizes.sum(),) or not np.all(np.isfinite(y)):
            raise ValueError("y must be a finite vector matching the design rows")
        starts = np.cumsum(sizes) - sizes
        r = np.repeat(y[starts], sizes)
        np.subtract(y, r, out=r)
        offsets = np.add.reduceat(r, starts) / sizes
        r -= np.repeat(offsets, sizes)
        r *= r
        return cls(tuple(sizes.tolist()), y[starts], offsets, np.add.reduceat(r, starts))

    def pooled(self, class_index: np.ndarray, about: float) -> tuple[np.ndarray, float]:
        """Class means less `about` and the within-class sum of squares, in O(J).

        class_index[j] is group j+1's class, numbered from 0.  Each class is
        centred on one of its groups' anchors, so its sum of squares stays exact.
        """
        sizes, anchor = np.array(self.sizes, dtype=float), np.empty(class_index.max() + 1)
        anchor[class_index] = self.anchors
        dev = self.anchors - anchor[class_index] + self.offsets
        mean = np.bincount(class_index, sizes * dev) / np.bincount(class_index, sizes)
        dev -= mean[class_index]
        return anchor - about + mean, float(self.ss.sum() + sizes @ (dev * dev))


def ingest_csv(path) -> AnovaData:
    """Read `group,response` rows; group labels are recoded to contiguous 1..J.

    Labels are ordered by value when every one parses as a finite number,
    with labels of equal value (`1`, `1.0`) ordered by their text; otherwise
    they are ordered by their text.  group_labels keeps the coding: label
    group_labels[j - 1] is group j.  A response that does not parse as a
    finite number is refused with its file and line.
    """
    labels: list[str] = []
    values: list[float] = []
    # utf-8-sig drops the byte-order mark spreadsheet exports put before the header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        reader.fieldnames = fields = [name.strip() for name in reader.fieldnames]
        if "group" not in fields or "response" not in fields:
            raise ValueError(f"{path}: header must name 'group' and 'response' columns")
        for lineno, row in enumerate(reader, start=2):
            raw_group = (row.get("group") or "").strip()
            raw_resp = (row.get("response") or "").strip()
            if not raw_group or not raw_resp:
                raise ValueError(f"{path}: line {lineno}: missing group or response")
            try:
                value = float(raw_resp)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: bad response value {raw_resp!r}")
            values.append(value)
            labels.append(raw_group)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    unique = sorted(set(labels))
    try:
        if all(math.isfinite(float(lab)) for lab in unique):
            unique.sort(key=float)  # stable, so equal values keep their text order
    except ValueError:
        pass
    code = {lab: j for j, lab in enumerate(unique, start=1)}
    groups = np.array([code[lab] for lab in labels], dtype=int)
    return AnovaData(responses=np.array(values), groups=groups,
                     group_labels=tuple(unique))

