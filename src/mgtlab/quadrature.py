"""Quadrature weight families shared by the convolution and Volterra machinery.

All rules act on uniform grids t_j = j*dt and integrate over [0, t_m].  The
"trapezoid" rule is the order-2 workhorse; "gregory4" upgrades the endpoint
weights so that smooth integrands are resolved to fourth order, which the
direct Volterra solver needs for its tightest reproduction targets.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

RULES = ("trapezoid", "gregory4")

# glibc's malloc maps each block above its threshold (128 KiB at start)
# afresh, page faults and all, until it frees a mapped block; it then serves
# blocks up to that size from its heap.  Freeing 1 MiB here spares a small
# solve's temporaries those faults: a 400-step, 16-mode solve with both
# estimate probes made 275 of them without it, none with it.
np.empty(2**17)

# Values per (rows x columns) array of a chunk of a streamed time loop: 256 KiB
# of float64, so that a chunk's arrays stay in cache.
CHUNK_ELEMENTS = 2**15

# Modes per group below which a mode group's row loop is too narrow to pay
# for handing it to another thread: on a 2-vCPU host, 32 modes per group ran
# slower than one group and 64 or more ran faster.
GROUP_MODES = 64

# prefix_exponential's blocks: up to EXP_BLOCK rows, two levels of them, and
# rebasing factors within 2^+-32
EXP_BLOCK = 32
_EXP_RANGE = 32 * math.log(2)

# (executor, worker count), made by the first call with two or more parts;
# a forked child has none of the parent's threads, so it makes its own
_pool: tuple[ThreadPoolExecutor, int] | None = None

# Gregory endpoint weights of the order-4 rule (interior weight is 1).
_GREGORY_EDGE = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])

# Closed rows used while the Gregory stencil does not fit (m <= 5):
# trapezoid, Simpson, Simpson 3/8, composite Simpson, Simpson + 3/8.
_SHORT_ROWS = {
    0: np.array([0.0]),
    1: np.array([0.5, 0.5]),
    2: np.array([1.0, 4.0, 1.0]) / 3.0,
    3: np.array([3.0, 9.0, 9.0, 3.0]) / 8.0,
    4: np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 3.0,
    5: np.array([1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0 + 3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0]),
}


def composite_weights(m: int, dt: float, rule: str = "trapezoid") -> np.ndarray:
    """Weights w_0..w_m approximating the integral of samples over [0, m*dt]."""
    if rule not in RULES:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    if m < 0:
        raise ValueError("need m >= 0")
    if rule == "trapezoid":
        if m == 0:
            return np.zeros(1)
        w = np.full(m + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        return w
    if m <= 5:
        return dt * _SHORT_ROWS[m].copy()
    w = np.ones(m + 1)
    w[:3] = _GREGORY_EDGE
    w[-3:] = _GREGORY_EDGE[::-1]
    return dt * w


def prefix_trapezoid(values: np.ndarray, dt: float, carry: dict | None = None) -> np.ndarray:
    """Running trapezoid integrals P_m = int_0^{t_m} along axis 0; P_0 = 0.

    carry, a dict that starts empty, continues the integrals over consecutive
    row chunks of one sequence: each call leaves there the first row and the
    last running sum.  The sums add one row at a time, so chunked calls give
    the bits of one call on all the rows.
    """
    carry = {} if carry is None else carry
    cs = np.array(values, dtype=float)
    first = carry.setdefault("first", cs[0].copy())
    cs[0] += carry.get("sum", 0.0)
    carry["sum"] = _running_sum(cs, 0)[-1].copy()
    # dt * (cs - 0.5 values - 0.5 first), in place
    cs -= np.multiply(values, 0.5, dtype=float)
    cs -= 0.5 * first
    cs *= dt
    return cs


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
    out[m+1] = e out[m] + u[m+1], u[m+1] = w_left values[m] + w_right
    values[m+1], runs along axis 0 from out[0] = 0, in blocks anchored at
    absolute row indices, of a length set by |rate*dt| alone: in a block
    after row s, out[s+j] = e^j (out[s] + sum_{0<i<=j} e^-i u[s+i]), a
    running sum of rebased inputs.  The block-start states out[s] follow the
    same recurrence one level up (e^length for e, the blocks' zero-state
    ends for u), and a loop carries the top level's.  carry, a dict that
    starts empty, continues the integrals over consecutive row chunks: it
    keeps the row offset, the last row, and each level's partial sum and
    block-start state.  Each value takes the same float operations wherever
    a call starts and whatever its column count, so chunked calls give the
    bits of one call.
    """
    values = np.asarray(values, dtype=float)
    if abs(rate) < 1e-14:
        return prefix_trapezoid(values, dt, carry)
    carry = {} if carry is None else carry
    e, w_left, w_right, lengths = _exp_weights(rate, dt)
    rows = values.reshape(len(values), -1)
    first = carry.get("rows", 0)
    carry["rows"] = first + len(rows)
    buf, lead = _exp_buffer(first, len(rows), rows.shape[1], lengths)
    u = buf[lead:lead + len(rows)]
    np.multiply(rows, w_right, out=u)
    u[1:] += w_left * rows[:-1]
    u[0] = u[0] + w_left * carry["last"] if "last" in carry else 0.0
    carry["last"] = rows[-1].copy()
    return _exp_scan(e, buf, lead, lead + len(rows), first, lengths, carry).reshape(values.shape)


@functools.lru_cache(maxsize=64)
def _exp_weights(rate: float, dt: float) -> tuple[float, float, float, tuple[int, ...]]:
    """e = exp(rate*dt), w_left, w_right and the block lengths of
    prefix_exponential: two levels of up to EXP_BLOCK rows, each while its
    e^+-length stays within 2^+-32; none for |rate*dt| > 11."""
    # int_{t_m}^{t_{m+1}} exp(rate*(t_{m+1}-s)) * linear(s) ds
    e = float(np.exp(rate * dt))
    i1 = (e - 1.0) / rate
    i2 = (e - 1.0) / rate**2 - dt / rate  # moment against (s - t_m)/dt scaled below
    lengths = []
    for _ in range(2):
        length = min(EXP_BLOCK, int(_EXP_RANGE / (math.prod(lengths) * abs(rate * dt))))
        if length < 2:
            break
        lengths.append(length)
    return e, i1 - i2 / dt, i2 / dt, tuple(lengths)


def _exp_buffer(first: int, count: int, cols: int, lengths: tuple) -> tuple[np.ndarray, int]:
    """Whole blocks of lengths[0] rows over the absolute rows first.. of
    count rows, zero outside them, and the offset of row first."""
    length = lengths[0] if lengths else 1
    lead = first % length
    buf = np.empty((-(-(lead + count) // length) * length, cols))
    buf[:lead] = buf[lead + count:] = 0.0
    return buf, lead


@functools.lru_cache(maxsize=64)
def _exp_powers(e: float, step: int, length: int, cols: int) -> tuple[np.ndarray, ...]:
    """Read-only (length, cols) tables of e^(step*j) and e^(-step*j), j = 1..length."""
    tables = tuple(np.repeat([[e ** (sign * step * j)] for j in range(1, length + 1)], cols, 1)
                   for sign in (1, -1))
    for table in tables:
        table.flags.writeable = False
    return tables


def _exp_scan(e: float, buf: np.ndarray, lead: int, stop: int, first: int,
              lengths: tuple, carry: dict, step: int = 1) -> np.ndarray:
    """x_n = e^step x_{n-1} + u_n in place over buf[lead:stop] (from
    _exp_buffer), which holds u_n for the absolute rows n = first..; x
    before them is carry's, else 0."""
    if not lengths:
        f, x = e ** step, carry.get("x", 0.0)
        for n in range(lead, stop):
            x = buf[n] = f * x + buf[n]
        carry["x"] = x
        return buf[lead:stop]
    length, cols = lengths[0], buf.shape[1]
    pos, neg = _exp_powers(e, step, length, cols)
    blocks = buf.reshape(-1, length, cols)
    blocks *= neg
    if "sum" in carry:
        blocks[0, lead] += carry.pop("sum")
    _running_sum(blocks, 1)
    done = stop // length
    starts = carry.get("start", np.zeros((1, cols)))
    if done:
        # one level up, the zero-state values at the ends of the blocks done here
        ends, up = _exp_buffer(first // length, done, cols, lengths[1:])
        np.multiply(blocks[:done, -1], pos[-1], out=ends[up:up + done])
        starts = np.concatenate([starts, _exp_scan(e, ends, up, up + done, first // length,
                                                   lengths[1:], carry.setdefault("up", {}),
                                                   step * length)])
        carry["start"] = starts[done:done + 1]
    if done < len(blocks):
        carry["sum"] = blocks[done, (stop - 1) % length].copy()
    blocks += starts[:len(blocks), None]
    blocks *= pos
    return buf[lead:stop]


def _even_split(size: int, count: int) -> list[slice]:
    """count contiguous slices covering range(size) in order, of sizes as
    equal as they go."""
    edges = [size * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def row_chunks(rows: int, width: int) -> list[slice]:
    """Slices covering range(rows) in order, as equal as they go, of at most
    max(3, CHUNK_ELEMENTS // width) rows each and at least two unless rows is
    1: numpy rounds a one-row matrix product by another (vector) routine.

    Each mode group chunks its row loop by its own width, so that its chunk
    arrays stay in its core's cache; the running sums carried from chunk to
    chunk give the same bits however the rows are chunked.
    """
    count = -(-rows // max(1, CHUNK_ELEMENTS // width))
    if rows >= 2:
        count = min(count, rows // 2)
    return _even_split(rows, count)


def scan_blocks(rows: np.ndarray) -> list[np.ndarray]:
    """Views of the leading axis of rows cut into blocks for a linear scan.

    A recurrence x_{m+1} = M x_m + u_m over S rows is evaluated in two
    levels: a zero-state pass runs inside every block at once, then the
    block-start states are carried from block to block with powers of M.
    With blocks of length L = ceil(sqrt(S)) that is about 2 sqrt(S)
    vectorised steps where a step loop makes S.

    Returns a (S // L, L, ...) view of the full blocks, followed by a
    (1, r, ...) view of the r leftover rows when r > 0; writing to a block
    writes to rows, also when rows is a column slice of a wider array.
    """
    n = rows.shape[0]
    length = math.isqrt(n - 1) + 1 if n else 1
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
    made on first use, each in a copy of the caller's context, so
    np.errstate carries over; numpy releases the GIL inside its loops.
    Returns when every part is done, raising the first part's error.  One
    part runs on the calling thread alone.
    """
    futures = []
    if len(parts) > 1:
        pool = _pool_of(len(parts) - 1)
        futures = [pool.submit(contextvars.copy_context().run, work, part)
                   for part in parts[1:]]
    try:
        first = work(parts[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def _forget_pool() -> None:
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _pool_of(workers: int) -> ThreadPoolExecutor:
    """The module's thread pool, made or grown to at least workers threads."""
    global _pool
    if _pool is None or _pool[1] < workers:
        if _pool is not None:
            _pool[0].shutdown(wait=False)
        workers = max(workers, _cores() - 1)
        _pool = ThreadPoolExecutor(workers, thread_name_prefix="mgtlab"), workers
    return _pool[0]


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


def convolve_product(kernel_samples: np.ndarray, x: np.ndarray, dt: float,
                     rule: str = "trapezoid") -> np.ndarray:
    """Product-quadrature convolution (Wx)_m = sum_j w_j^{(m)} K_{m-j} x_j.

    Exactly the lower-triangular operator inverted by the direct Volterra
    solver with the same rule, so Neumann iteration on W reproduces the
    collocated solution.
    """
    if rule not in RULES:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    kernel = np.asarray(kernel_samples, dtype=float)
    xs = np.asarray(x, dtype=float)
    squeeze = False
    if xs.ndim == 1:
        xs = xs[:, None]
        squeeze = True
    if kernel.ndim == 1:
        kernel = kernel[:, None]
    if kernel.shape[1] == 1 and xs.shape[1] > 1:
        kernel = np.broadcast_to(kernel, xs.shape).copy()
    m_top = xs.shape[0] - 1
    n = 2 * (m_top + 1)  # zero padding past the linear convolution's 2 m_top + 1 rows
    full = np.fft.irfft(np.fft.rfft(kernel, n, axis=0) * np.fft.rfft(xs, n, axis=0), n,
                        axis=0)[: m_top + 1]
    if rule == "trapezoid":
        out = dt * (full - 0.5 * kernel * xs[0] - 0.5 * kernel[0] * xs)
        out[0] = 0.0
    else:
        corr = np.zeros_like(full)
        edge = _GREGORY_EDGE - 1.0
        for i, ei in enumerate(edge):
            corr[i:] += ei * kernel[: m_top + 1 - i] * xs[i]
            corr[i:] += ei * kernel[i] * xs[: m_top + 1 - i]
        out = dt * (full + corr)
        for m in range(min(5, m_top) + 1):
            w = composite_weights(m, dt, rule)
            out[m] = (w[:, None] * kernel[m::-1] * xs[: m + 1]).sum(axis=0)
    return out[:, 0] if squeeze else out
