"""Seeded request streams and their oracle tables, one per workload.

A workload is the server's command-line configuration plus a function
``build(seed)`` returning the measured request list, a few warm-up
requests (distinct from every measured one, so a cold workload stays
cold), and the oracle table that says what each reply must be.  All
image generation and every expected output is prepared here, before the
timed window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from client import Request
from repro.image.pnm import dump_pnm
from repro.image.synthetic import watch_face_image
from repro.jpeg2000.params import EncoderParams

#: Query strings of the encode flavours the workloads use.
LOSSLESS = ""
LOSSY_Q = "lossy=1"
RATE_Q = "rate=0.25"
#: Asks the execution planner how to run a lossless encode.  A plan picks
#: backend and workers, never the bytes, so the oracle expects the same
#: codestream as for ``LOSSLESS``.
PLANNED_Q = "plan=auto"


@dataclass
class EncodeCheck:
    image: np.ndarray = field(repr=False)
    query: str
    verify: bool

    def params(self) -> EncoderParams:
        """The parameters ``repro serve`` derives from ``query``."""
        if self.query == RATE_Q:
            return EncoderParams(lossless=False, rate=0.25)
        if self.query == LOSSY_Q:
            return EncoderParams(lossless=False)
        return EncoderParams.lossless_default()


@dataclass
class Plan:
    requests: list[Request]
    warmup: list[Request]
    checks: dict
    #: True when no reply may come from the result cache.
    cold: bool


@dataclass(frozen=True)
class Workload:
    name: str
    serve_args: tuple[str, ...]
    shards: int
    build: object


def _encode_request(checks: dict, key: str, kind: str, image: np.ndarray,
                    query: str, verify: bool = False) -> Request:
    q = [p for p in (query, "verify=1" if verify else "") if p]
    path = "/encode" + ("?" + "&".join(q) if q else "")
    checks[key] = EncodeCheck(image, query, verify)
    h, w = image.shape[:2]
    return Request("POST", path, dump_pnm(image), kind, h * w / 1e6, key)


class _Faces:
    """Distinct watch faces, cheaply: seeded crops of one rendered base.

    Rendering a face costs ~10 ms and a run needs hundreds of distinct
    images.  Each variant is a different window (and mirror) of a base
    rendered :data:`MARGIN` pixels larger, so every image, and so every
    cache key, is unique while the content — and with it the coding cost
    and the PSNR a rate reaches — stays that of a watch face.
    """

    MARGIN = 48

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.unused: dict[tuple[int, int], list] = {}
        self.bases: dict[tuple[int, int], np.ndarray] = {}

    def __call__(self, side: int, channels: int) -> np.ndarray:
        key = (side, channels)
        if key not in self.bases:
            m = self.MARGIN
            self.bases[key] = watch_face_image(side + m, side + m,
                                               channels=channels,
                                               seed=self.seed)
            windows = [(dy, dx, flip) for dy in range(m) for dx in range(m)
                       for flip in (False, True)]
            self.unused[key] = [windows[i]
                                for i in self.rng.permutation(len(windows))]
        dy, dx, flip = self.unused[key].pop()
        crop = self.bases[key][dy:dy + side, dx:dx + side]
        return np.ascontiguousarray(crop[:, ::-1] if flip else crop)


def _rounds(rng, items):
    """Endless rounds over ``items``, each round in its own seeded order.

    Every item comes up once per round, so any stretch of a run sees the
    same mix; only the order — not the work — depends on the seed.
    """
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


# -- encode-cold --------------------------------------------------------------

#: One cycle of the cold mix: (channels, query).  Gray images are larger
#: than RGB ones so every class codes a similar number of samples
#: (12k-28k); mostly lossless, one in five lossy.  Rate control runs on RGB
#: only: on gray images this small the headers eat enough of a 0.25 budget
#: to land under the suite's 38 dB floor, which is set for larger images.
_COLD_CYCLE = (
    (1, LOSSLESS), (3, LOSSLESS), (1, LOSSLESS), (3, LOSSLESS), (3, RATE_Q),
    (1, LOSSLESS), (3, LOSSLESS), (1, LOSSLESS), (3, LOSSLESS), (1, LOSSY_Q),
)
_COLD_SIDES = {1: (112, 120, 136, 152, 168), 3: (64, 72, 80, 88, 96)}
#: Requests prepared per run: several times what the seed commit serves
#: in a window, so a faster encoder meets the deadline before the list.
_COLD_REQUESTS = 1600


def build_encode_cold(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    faces = _Faces(seed)
    checks: dict = {}
    requests = []
    sides = {ch: _rounds(rng, v) for ch, v in _COLD_SIDES.items()}
    for i in range(_COLD_REQUESTS):
        channels, query = _COLD_CYCLE[i % len(_COLD_CYCLE)]
        side = next(sides[channels])
        kind = f"enc-{'rgb' if channels == 3 else 'gray'}-{query or 'lossless'}"
        requests.append(_encode_request(checks, f"c{i}", kind,
                                        faces(side, channels), query))
    warmup = [
        _encode_request(checks, f"w{i}", "warmup", faces(side, ch), q)
        for i, (side, ch, q) in enumerate(
            [(136, 1, ""), (80, 3, ""), (136, 1, RATE_Q), (80, 3, LOSSY_Q)]
        )
    ]
    return Plan(requests, warmup, checks, cold=True)


# -- encode-hot ---------------------------------------------------------------

_HOT_SET = 8
_HOT_SIDE = 64
_HOT_REQUESTS = 6000
#: Per 20 requests: 16 repeat the hot set (H, h), 4 are fresh (c, C); 3 of
#: the 20 ask for ``verify=1`` (h, C: two hits and one miss).  Fresh
#: requests also ask for ``plan=auto``, so the planner decides every miss;
#: hits return before it is consulted.
_HOT_CYCLE = "HHHhHHHHHHHHHhHHcccC"


def build_encode_hot(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    faces = _Faces(seed)
    checks: dict = {}
    hot = [faces(_HOT_SIDE, 1) for _ in range(_HOT_SET)]
    hot_order = _rounds(rng, range(_HOT_SET))
    requests = []
    for i in range(_HOT_REQUESTS):
        slot = _HOT_CYCLE[i % len(_HOT_CYCLE)]
        verify = slot in "hC"
        if slot in "Hh":
            k = next(hot_order)
            requests.append(_encode_request(
                checks, f"h{k}{'v' if verify else ''}",
                "hot-verify" if verify else "hot", hot[k], LOSSLESS, verify,
            ))
        else:
            requests.append(_encode_request(
                checks, f"c{i}", "fresh-verify" if verify else "fresh",
                faces(_HOT_SIDE, 1), PLANNED_Q, verify,
            ))
    warmup = [
        _encode_request(checks, f"w{i}", "warmup", faces(_HOT_SIDE, 1),
                        PLANNED_Q, verify=i % 2 == 1)
        for i in range(4)
    ]
    return Plan(requests, warmup, checks, cold=False)


#: Server flags per workload; why each exists is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("encode-cold", (), 1, build_encode_cold),
        Workload("encode-hot", ("--shards", "2", "--batch-window", "0.005"),
                 2, build_encode_hot),
    )
}
