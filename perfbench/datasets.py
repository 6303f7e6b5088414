"""Seeded tables and operation streams for the three workloads.

Both the benchmark process (which needs the model to check answers) and
the server child (which loads the tables) call these, so a seed fixes
the data on both sides.  Nothing here imports repro.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from harness import ZipfSampler

#: point_read: ACCT rows, the Zipf exponent, and keys pre-drawn per
#: connection (enough for a 60 s run at several thousand requests/s).
POINT_ROWS = 100_000
ZIPF_S = 1.1
POINT_STREAM = 150_000

#: analytic: W rows, R/S/T rows (the E19 join shape), statements drawn.
WIDE_ROWS = 100_000
JOIN_ROWS = 20_000
#: Parameter ranges: distinct values only, so the result cache misses,
#: and narrow enough that every statement of a shape costs about the same
#: (a run's medians then do not depend on which values the seed drew).
REDUCE_K = (49_800, 50_200)
JOIN_D = (190, 210)
#: Statements per shape: every (a, d) pair of join3 once, enough for a
#: 60 s run.
ANALYTIC_STREAM = 7 * (JOIN_D[1] - JOIN_D[0])

#: txn_write: ACCT rows, transactions drawn per connection, the share of
#: transactions that roll back (one per block of ten), and the period
#: of the delete.
TXN_ROWS = 50_000
TXN_STREAM = 6_000
ROLLBACK_BLOCK = 10
DELETE_EVERY = 4
FRESH_KEY_BASE = 1_000_000

CONNECTIONS = 2

POINT_TEXT = "range of a is ACCT retrieve (a.V, a.W) where a.K = $k"
REPLACE_TEXT = "range of a is ACCT replace a (V = $v) where a.K = $k"
APPEND_TEXT = "append to ACCT (K = $k, G = $g, V = $v, W = $w)"
DELETE_TEXT = "range of a is ACCT delete a where a.K = $k"
SHAPES = {
    "scan_eq": "range of w is W retrieve (w.K, w.Z) where w.X = $x",
    "reduce": "range of w is W retrieve (w.Y, w.Z) where w.K < $k",
    "join3": (
        "range of r is R range of s is S range of t is T "
        "retrieve (r.A, s.Q, t.D) "
        "where r.B = s.B and s.C = t.C and r.A = $a and r.P <= s.Q "
        "and t.D < $d"
    ),
}

Row = Tuple[int, int, Optional[int], Optional[int]]


def _nullable(rng: random.Random, null_rate: float, domain: int) -> Optional[int]:
    return None if rng.random() < null_rate else rng.randrange(domain)


def acct_rows(count: int, seed: int) -> List[Row]:
    """ACCT(K, G, V, W): K unique, G = K mod 1000, V/W 20% null."""
    rng = random.Random(f"acct/{seed}")
    return [
        (k, k % 1000, _nullable(rng, 0.2, 1_000_000), _nullable(rng, 0.2, 1_000_000))
        for k in range(count)
    ]


def point_keys(seed: int, connection: int, count: int = POINT_STREAM) -> List[int]:
    return ZipfSampler(POINT_ROWS, ZIPF_S, seed * 1000 + connection).take(count)


def analytic_tables(seed: int, wide_rows: int = WIDE_ROWS,
                    join_rows: int = JOIN_ROWS) -> Dict[str, Tuple[Sequence[str], List[tuple]]]:
    """W(K, X, Y, Z) — X 1000-ary, Y/Z 40-ary at 25% null — and the E19
    join chain R(A, B, P) –B– S(B, C, Q) –C– T(C, D)."""
    rng = random.Random(f"analytic/{seed}")
    link = max(join_rows // 20, 2)
    wide = [
        (i, rng.randrange(1000), _nullable(rng, 0.25, 40), _nullable(rng, 0.25, 40))
        for i in range(wide_rows)
    ]
    r = [(i % 7, rng.randrange(link), _nullable(rng, 0.25, 100)) for i in range(join_rows)]
    s = [(rng.randrange(link), rng.randrange(link), _nullable(rng, 0.25, 100))
         for _ in range(join_rows)]
    t = [(rng.randrange(link), i) for i in range(join_rows)]
    return {
        "W": (("K", "X", "Y", "Z"), wide),
        "R": (("A", "B", "P"), r),
        "S": (("B", "C", "Q"), s),
        "T": (("C", "D"), t),
    }


def analytic_stream(seed: int, count: int = ANALYTIC_STREAM) -> List[Tuple[str, Dict[str, int]]]:
    """Round-robin scan_eq, reduce, join3 with parameters that never repeat."""
    rng = random.Random(f"analytic-stream/{seed}")
    xs = rng.sample(range(1000), count)
    ks = rng.sample(range(*REDUCE_K), count)
    pairs = rng.sample([(a, d) for a in range(7) for d in range(*JOIN_D)], count)
    stream = []
    for i in range(count):
        stream.append(("scan_eq", {"x": xs[i]}))
        stream.append(("reduce", {"k": ks[i]}))
        stream.append(("join3", {"a": pairs[i][0], "d": pairs[i][1]}))
    return stream


def scan_eq_reference(tables, x: int) -> set:
    """The scan_eq answer as item tuples: K is unique, so no answer row
    subsumes another and every matching row stays (a null Z is unbound)."""
    _, wide = tables["W"]
    return {(("w_K", k),) if z is None else (("w_K", k), ("w_Z", z))
            for k, wx, _y, z in wide if wx == x}


def reduce_reference(tables, k: int) -> set:
    """The reduce answer as item tuples: the (Y, Z) projections of the
    rows with K < k, minimised — a row with one null is dropped when a
    total row agrees on its other value, and the all-null row carries no
    information."""
    _, wide = tables["W"]
    pairs = {(y, z) for key, _x, y, z in wide if key < k}
    total = {(y, z) for y, z in pairs if y is not None and z is not None}
    ys = {y for y, _ in total}
    zs = {z for _, z in total}
    answer = {(("w_Y", y), ("w_Z", z)) for y, z in total}
    answer |= {(("w_Y", y),) for y, z in pairs if z is None and y is not None and y not in ys}
    answer |= {(("w_Z", z),) for y, z in pairs if y is None and z is not None and z not in zs}
    return answer


def join3_reference(tables, a: int, d: int) -> set:
    """The join3 answer by an independent hash join.  Under TRUE-only
    semantics ``r.P <= s.Q`` drops every row with a null P or Q, so the
    answer is null-free and a distinct set of ``(r.A, s.Q, t.D)``."""
    _, r_rows = tables["R"]
    _, s_rows = tables["S"]
    _, t_rows = tables["T"]
    t_by_c: Dict[int, List[int]] = {}
    for c, dd in t_rows:
        if dd < d:
            t_by_c.setdefault(c, []).append(dd)
    s_by_b: Dict[int, List[Tuple[int, int]]] = {}
    for b, c, q in s_rows:
        if q is not None and c in t_by_c:
            s_by_b.setdefault(b, []).append((c, q))
    answer = set()
    for ra, b, p in r_rows:
        if ra != a or p is None:
            continue
        for c, q in s_by_b.get(b, ()):
            if p <= q:
                for dd in t_by_c[c]:
                    answer.add((ra, q, dd))
    return answer


class Txn:
    """One generated transaction and its expected outcomes."""

    __slots__ = ("index", "read_key", "read_expect", "replace", "append",
                 "delete", "rollback")

    def __init__(self, index, read_key, read_expect, replace, append, delete, rollback):
        self.index = index
        self.read_key = read_key
        self.read_expect = read_expect
        self.replace = replace
        self.append = append
        self.delete = delete
        self.rollback = rollback

    def __repr__(self) -> str:
        return (f"Txn({self.index}, read={self.read_key}:{self.read_expect}, "
                f"replace={self.replace}, append={self.append}, "
                f"delete={self.delete}, rollback={self.rollback})")


class _LiveKeys:
    """A key set with O(1) random choice and removal."""

    def __init__(self, keys):
        self.keys = list(keys)
        self.position = {key: i for i, key in enumerate(self.keys)}

    def choice(self, rng: random.Random) -> int:
        return self.keys[rng.randrange(len(self.keys))]

    def add(self, key: int) -> None:
        self.position[key] = len(self.keys)
        self.keys.append(key)

    def remove(self, key: int) -> None:
        i = self.position.pop(key)
        last = self.keys.pop()
        if i < len(self.keys):
            self.keys[i] = last
            self.position[last] = i


def txn_stream(seed: int, connection: int, rows: Sequence[Row],
               count: int = TXN_STREAM) -> List[Txn]:
    """The transactions of one connection.  The connection owns the keys
    of its half of ``rows`` plus the fresh keys it appends, so its
    stream (and its share of the committed state) does not depend on
    the other connection.  The generator replays its own model: reads
    expect the committed values, and a rolled-back transaction leaves
    the model as it was."""
    rng = random.Random(f"txn/{seed}/{connection}")
    share = len(rows) // CONNECTIONS
    owned = rows[connection * share:(connection + 1) * share]
    state = {k: (v, w) for k, _g, v, w in owned}
    live = _LiveKeys(state)
    fresh = FRESH_KEY_BASE * (connection + 1)
    stream = []
    rollback_at = 0
    for index in range(count):
        if index % ROLLBACK_BLOCK == 0:
            rollback_at = index + rng.randrange(ROLLBACK_BLOCK)
        rollback = index == rollback_at
        read_key = live.choice(rng)
        read_expect = state[read_key]
        replace_key = live.choice(rng)
        replace = (replace_key, rng.randrange(1_000_000))
        append = (fresh, fresh % 1000, _nullable(rng, 0.2, 1_000_000),
                  _nullable(rng, 0.2, 1_000_000))
        fresh += 1
        undo = [(replace_key, state[replace_key])]
        state[replace_key] = (replace[1], state[replace_key][1])
        state[append[0]] = (append[2], append[3])
        live.add(append[0])
        delete = None
        if index % DELETE_EVERY == DELETE_EVERY - 1:
            delete = live.choice(rng)
            undo.append((delete, state.pop(delete)))
            live.remove(delete)
        if rollback:
            if delete is not None:
                live.add(delete)
            for key, value in reversed(undo):
                state[key] = value
            del state[append[0]]
            live.remove(append[0])
        stream.append(Txn(index, read_key, read_expect, replace, append, delete, rollback))
    return stream


def apply_committed(rows: Sequence[Row], streams: Sequence[Sequence[Txn]],
                    executed: Sequence[int]) -> Dict[int, Tuple[int, Optional[int], Optional[int]]]:
    """The ACCT state (K → (G, V, W)) after each connection ran the first
    ``executed[c]`` transactions of its stream."""
    state = {k: (g, v, w) for k, g, v, w in rows}
    for stream, done in zip(streams, executed):
        for txn in stream[:done]:
            if txn.rollback:
                continue
            key, value = txn.replace
            g, _v, w = state[key]
            state[key] = (g, value, w)
            k, g, v, w = txn.append
            state[k] = (g, v, w)
            if txn.delete is not None:
                del state[txn.delete]
    return state
