"""Uniform-grid quadrature, streamed time loops and mode-group parallelism.

On grids t_j = j*dt: composite trapezoid weights over [0, t_m], and running
integrals (trapezoid, and exponentially weighted) carried across row chunks.
Around them sit the row chunks and blocked scans of the time loops, the
cos/sin phase rows of a wave family on any rows of the grid, and the mode
groups that run each solution route on every core.  The fourth-order
Gregory rule and the product-quadrature convolution of the Volterra
referees are in tests/reference.py.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

# Values per (rows x columns) array of a chunk of a streamed time loop: 256 KiB
# of float64, so that a chunk's arrays stay in cache.
CHUNK_ELEMENTS = 2**15

# Modes per group below which a mode group's row loop is too narrow to pay
# for handing it to another thread: on a 2-vCPU host, 32 modes per group ran
# slower than one group and 64 or more ran faster.
GROUP_MODES = 64

# Anchor spacing of PhaseRows: trig on one row in 64 plus a 64-row offset
# table per mode group, both small next to a row chunk.
ANCHOR = 64

# prefix_exponential's blocks: up to EXP_BLOCK rows, and rebasing factors
# within 2^+-32
EXP_BLOCK = 128
_EXP_RANGE = 32 * math.log(2)


def composite_weights(m: int, dt: float) -> np.ndarray:
    """Trapezoid weights w_0..w_m of the integral of samples over [0, m*dt]."""
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0:
        return np.zeros(1)
    w = np.full(m + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def prefix_trapezoid(values: np.ndarray, dt: float, carry: dict | None = None) -> np.ndarray:
    """Running trapezoid integrals P_m = int_0^{t_m} along axis 0; P_0 = 0.

    The integrals overwrite values, a float array, which is returned: a
    caller that reads its samples again passes a copy.  carry, a dict that
    starts empty, continues the integrals over consecutive row chunks of one
    sequence: each call leaves there the first row and the last running
    sum.  The sums add one row at a time, so chunked calls give the bits of
    one call on all the rows.
    """
    carry = {} if carry is None else carry
    values = np.asarray(values, dtype=float)
    half = np.multiply(values, 0.5)
    first = carry.setdefault("first", values[0].copy())
    values[0] += carry.get("sum", 0.0)
    carry["sum"] = _running_sum(values, 0)[-1].copy()
    # dt * (sums - 0.5 values - 0.5 first), in place
    values -= half
    values -= 0.5 * first
    values *= dt
    return values


def _running_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """a's running sums along axis, in place, returned.  Two float columns
    of a C-contiguous a add as one complex: the same additions, half the
    lanes of numpy's one-lane-at-a-time cumsum."""
    if axis < a.ndim - 1 and a.shape[-1] % 2 == 0 and a.flags.c_contiguous:
        np.cumsum(lanes := a.view(np.complex128), axis=axis, out=lanes)
    else:
        np.cumsum(a, axis=axis, out=a)
    return a


def prefix_exponential(rate: float, values: np.ndarray, dt: float,
                       carry: dict | None = None) -> np.ndarray:
    """Running integrals of exp(rate*(t_m - s)) * values(s), exact for linear data.

    The per-step update uses the closed-form weights of an exponential
    integrator, so constant and linear sample profiles integrate exactly and
    the result is second-order accurate in dt for smooth data.  The update
    x[m+1] = e x[m] + u[m+1], u[m+1] = w_left values[m] + w_right
    values[m+1], runs along axis 0 from x[0] = 0, in blocks of rows s..s+L-1
    anchored at absolute row indices, L set by |rate*dt| alone: in a block,
    x[s+j] = e^j (y + sum_{i<=j} e^-i u[s+i]) with y = e x[s-1], a running
    sum of rebased inputs, and a loop carries y <- e^L (y + block end) from
    block to block.  carry, a dict that starts empty, continues the
    integrals over consecutive row chunks: it keeps the row offset, the last
    row, and the open block's partial sum and y.  Each value takes the same
    float operations wherever a call starts and whatever its column count,
    so chunked calls give the bits of one call.
    """
    values = np.asarray(values, dtype=float)
    if abs(rate) < 1e-14:
        return prefix_trapezoid(values.copy(), dt, carry)
    carry = {} if carry is None else carry
    rows = values.reshape(len(values), -1)
    count, cols = rows.shape
    e, w_left, w_right, pos, neg = _exp_weights(rate, dt, cols)
    length, first = len(pos), carry.get("rows", 0)
    carry["rows"] = first + count
    lead = first % length
    # whole blocks over the rows, zero outside them
    buf = np.empty((-(-(lead + count) // length) * length, cols))
    buf[:lead] = buf[lead + count:] = 0.0
    u = buf[lead:lead + count]
    np.multiply(rows, w_right, out=u)
    u[1:] += w_left * rows[:-1]
    u[0] = u[0] + w_left * carry["last"] if "last" in carry else 0.0
    carry["last"] = rows[-1].copy()
    blocks = buf.reshape(-1, length, cols)
    blocks *= neg
    if "sum" in carry:
        blocks[0, lead] += carry.pop("sum")
    _running_sum(blocks, 1)
    done, open_rows = divmod(lead + count, length)
    if open_rows:
        carry["sum"] = blocks[-1, open_rows - 1].copy()
    y, grow = carry.get("y", 0.0), e ** length
    for block, end in zip(blocks[:done], blocks[:done, -1:]):
        block += y
        y = grow * end
    blocks[done:] += y
    carry["y"] = y
    blocks *= pos
    return u.reshape(values.shape)


@functools.lru_cache(maxsize=64)
def _exp_weights(rate: float, dt: float,
                 cols: int) -> tuple[float, float, float, np.ndarray, np.ndarray]:
    """e = exp(rate*dt), w_left, w_right, and the read-only (L, cols) tables
    of e^j and e^-j, j < L, for prefix_exponential's blocks of L rows: up to
    EXP_BLOCK, while e^+-(L-1) stays within 2^+-32.  A table as wide as the
    rows multiplies them about a third faster than an (L, 1) one."""
    # int_{t_m}^{t_{m+1}} exp(rate*(t_{m+1}-s)) * linear(s) ds
    e = float(np.exp(rate * dt))
    i1 = (e - 1.0) / rate
    i2 = (e - 1.0) / rate**2 - dt / rate  # moment against (s - t_m)/dt scaled below
    length = min(EXP_BLOCK, 1 + int(_EXP_RANGE / abs(rate * dt)))
    tables = tuple(np.repeat([[e ** (sign * j)] for j in range(length)], cols, 1)
                   for sign in (1, -1))
    for table in tables:
        table.flags.writeable = False
    return (e, i1 - i2 / dt, i2 / dt) + tables


def _even_split(size: int, count: int) -> list[slice]:
    """count contiguous slices covering range(size) in order, of sizes as
    equal as they go."""
    edges = [size * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def row_chunks(rows: int, width: int) -> list[slice]:
    """Slices covering range(rows) in order, as equal as they go, of at most
    max(3, CHUNK_ELEMENTS // width) rows each and at least two unless rows is
    1: numpy rounds a one-row matrix product by another (vector) routine.
    No rows give no slices.

    Each mode group chunks its row loop by its own width, so that its chunk
    arrays stay in its core's cache; the running sums carried from chunk to
    chunk give the same bits however the rows are chunked.
    """
    count = -(-rows // max(1, CHUNK_ELEMENTS // width))
    if rows >= 2:
        count = min(count, rows // 2)
    return _even_split(rows, count) if rows else []


class PhaseRows:
    """cos(omega t) and sin(omega t) on any rows of a uniform grid.

    cos/sin are evaluated only at the anchor rows n = a*ANCHOR and at the
    in-block offsets j*dt; row a*ANCHOR + j is
        cos = cos_a cos_j - sin_a sin_j,  sin = sin_a cos_j + cos_a sin_j,
    so a row's bits depend on its absolute index alone, whichever rows a
    call asks for, and the trig work on a grid of S+1 rows and N modes is
    (ceil((S+1)/ANCHOR) + ANCHOR) N values instead of (S+1) N.  The result
    is within a few ulp of |omega t| of cos/sin of outer(times, omega).
    The tables are read-only, so that one PhaseRows can serve every solve
    on its grid (reduction.group_plan).
    """

    def __init__(self, omega: np.ndarray, times: np.ndarray, dt: float):
        self._anchor_cos, self._anchor_sin = _cos_sin(np.outer(times[::ANCHOR], omega))
        offsets = np.arange(min(ANCHOR, len(times))) * dt
        self._step_cos, self._step_sin = _cos_sin(np.outer(offsets, omega))
        for table in vars(self).values():
            table.flags.writeable = False

    def rows(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of omega t on the grid rows rows, (len, modes) each."""
        anchor, step = np.divmod(np.arange(rows.start, rows.stop), ANCHOR)
        ca, sa = self._anchor_cos[anchor], self._anchor_sin[anchor]
        cj, sj = self._step_cos[step], self._step_sin[step]
        # each product into a gathered table that it reads last
        cos = ca * cj
        sin = np.multiply(sa, cj, out=cj)
        np.subtract(cos, np.multiply(sa, sj, out=sa), out=cos)
        sin += np.multiply(ca, sj, out=sj)
        return cos, sin


def _cos_sin(phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(phase) and sin(phase), sin computed in the phase buffer."""
    return np.cos(phase), np.sin(phase, out=phase)


def block_length(rows: int) -> int:
    """The block length L = ceil(sqrt(rows)) of scan_blocks on rows rows."""
    return math.isqrt(rows - 1) + 1 if rows else 1


def scan_blocks(rows: np.ndarray) -> list[np.ndarray]:
    """Views of the leading axis of rows cut into blocks for a linear scan.

    A recurrence x_{m+1} = M x_m + u_m over S rows is evaluated in two
    levels: a zero-state pass runs inside every block of a run of blocks at
    once, then the block-start states are carried from block to block with
    powers of M.
    With blocks of length L = ceil(sqrt(S)) that is about 2 sqrt(S)
    vectorised steps where a step loop makes S.

    Returns a (S // L, L, ...) view of the full blocks, followed by a
    (1, r, ...) view of the r leftover rows when r > 0; writing to a block
    writes to rows, also when rows is a column slice of a wider array.
    """
    n = rows.shape[0]
    length = block_length(n)
    full = n - n % length
    # splitting the leading axis never needs a copy, whatever the strides of
    # the other axes: a column slice of a wider array scans in place
    views = [rows[:full].reshape((-1, length) + rows.shape[1:], copy=False)]
    if full < n:
        views.append(rows[full:][None])
    return views


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mode_groups(size: int) -> list[slice]:
    """Contiguous column slices of a size-mode basis, one per core used.

    There are min(cores, size // GROUP_MODES) groups, at least one, of sizes
    as equal as they go.  Modes are independent in both solution routes, so
    a group runs every per-mode operation of the whole basis in the same
    float order on the same values: the result does not depend on the count.
    Each solution route is one each_part pass over these groups, each group
    running the whole route on its own columns.
    """
    return _even_split(size, max(1, min(_cores(), size // GROUP_MODES)))


def each_part(work, parts: list) -> list:
    """[work(part) for part in parts], the parts concurrently.

    The first part runs on the calling thread, the others on a thread pool
    of their own, made for this call, each in a copy of the caller's
    context, so np.errstate carries over; numpy releases the GIL inside its
    loops.  Returns when every part is done, raising the first part's
    error.  One part runs on the calling thread alone, with no pool.
    """
    if len(parts) == 1:
        return [work(parts[0])]
    with ThreadPoolExecutor(len(parts) - 1, thread_name_prefix="mgtlab") as pool:
        futures = [pool.submit(contextvars.copy_context().run, work, part)
                   for part in parts[1:]]
        first = work(parts[0])
    return [first] + [future.result() for future in futures]


@functools.cache
def _openblas_threads():
    """OpenBLAS's get-num-threads entry of a numpy wheel, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get
    return None


def blas_threads() -> int | None:
    """Threads of numpy's BLAS, None when it cannot be asked.

    Full-width matrix products may round differently at another count;
    the mode-group count never moves a bit.
    """
    get = _openblas_threads()
    return None if get is None else get()


def power_increments(step: np.ndarray, count: int) -> np.ndarray:
    """M^i - I for i = 0..count, where M = I + step and step is (..., n, n).

    Returns shape (count + 1, ..., n, n), built by doubling with
    D_{a+b} = D_a + D_b + D_a D_b: about log2(count) batched products.  The
    one-step maps of a scan are close to the identity, and a rounding of M
    itself would repeat at every step; carrying M^i - I keeps the relative
    precision of the small increments.  The powers take step's float type.
    """
    out = np.zeros((count + 1,) + step.shape, dtype=step.dtype)
    if count:
        out[1] = step
    have = 1
    while have < count:
        take = min(have, count - have)
        new = out[have + 1:have + take + 1]
        np.matmul(out[have], out[1:take + 1], out=new)
        new += out[1:take + 1]
        new += out[have]
        have += take
    return out

