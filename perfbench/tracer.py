"""Per-layer tracing of entrokit from outside the package.

The tracer wraps public functions of entrokit's modules for the duration of
one traced round.  Every wrapped call is a span: its duration is added to
the span's name, and to the running child time of the span that called it,
so a name's self time is its total time minus the time spent in wrapped
calls it made.  Counters are updated from each call's arguments and result
at the same boundary.  Spans are aggregated in memory (calls, total and
self seconds per name) and written out when the benchmark ends.

Functions are replaced wherever a module of the package binds them, since
entrokit's modules import each other's functions by name; the originals
are put back by ``uninstall``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _index_bits(size: int) -> int:
    return (size - 1).bit_length() if size > 1 else 0


def _specs():
    """(layer name, module, attribute, counter update) for every wrapped function.

    Counter updates take (counters, args, kwargs, result).  A layer name of
    None counts without a span, so the call's time stays its caller's.
    """
    from entrokit import analytics, cli, coder, experiments, manifest, models, stability, typeclass

    def sample_paths(c, a, k, r):
        c["models.sample_paths.symbols"] += int(r.size)

    def sample_blockwise(c, a, k, r):
        seq, log = r
        c["models.sample_blockwise.symbols"] += len(seq)
        c["models.tail_capped"] += log.n_tail_capped

    def type_class_size(c, a, k, r):
        c["typeclass.type_class_size.calls"] += 1
        c["typeclass.index_bits"] += _index_bits(r)

    def rank(c, a, k, r):
        seq, m = _arg(a, k, 0, "seq"), _arg(a, k, 1, "m")
        c["typeclass.steps"] += len(seq) - m

    def unrank(c, a, k, r):
        desc = _arg(a, k, 0, "desc")
        c["typeclass.steps"] += desc.n - desc.order

    def encode(c, a, k, r):
        c["coder.codeword_bits"] += len(r)

    def bits_written(c, a, k, r):
        c["coder.bitstream.bits"] += _arg(a, k, 2, "width")

    def bits_read(c, a, k, r):
        c["coder.bitstream.bits"] += _arg(a, k, 1, "width")

    def sigma_squared(c, a, k, r):
        c["analytics.sigma_squared.terms"] += r.truncation_index

    def delta_coefficients(c, a, k, r):
        c["stability.delta_coefficients.terms"] += r.truncation_index

    def run_clt(c, a, k, r):
        c["experiments.replicates"] += r.reps * len(r.n_grid)

    def run_concentration(c, a, k, r):
        c["experiments.replicates"] += r.reps

    def run_example1(c, a, k, r):
        c["experiments.replicates"] += 2 * r.reps * len(r.n_grid)

    return [
        ("models.sample_paths", models, "sample_paths", sample_paths),
        ("models.sample_blockwise", models, "sample_blockwise", sample_blockwise),
        ("typeclass.type_class_size", typeclass, "type_class_size", type_class_size),
        ("typeclass.rank_in_type_class", typeclass, "rank_in_type_class", rank),
        ("typeclass.unrank", typeclass, "unrank", unrank),
        ("typeclass.block_frequencies", typeclass, "block_frequencies", None),
        ("coder.encode", coder, "encode", encode),
        ("coder.decode", coder, "decode", None),
        ("coder.codelength_from_counts", coder, "codelength_from_counts", None),
        ("coder.bitstream", coder.Bitstream, "write_bits", bits_written),
        ("coder.bitstream", coder.Bitstream, "read_bits", bits_read),
        ("coder.bitstream", coder.Bitstream, "to_bytes", None),
        ("coder.bitstream", coder.Bitstream, "from_bytes", None),
        ("analytics.path_log_likelihoods", analytics, "path_log_likelihoods", None),
        ("analytics.long_run_variance_mc", analytics, "long_run_variance_mc", None),
        ("analytics.sigma_squared", analytics, "sigma_squared", sigma_squared),
        ("stability.compute_constants", stability, "compute_constants", None),
        (None, stability, "delta_coefficients", delta_coefficients),
        ("experiments.run_clt", experiments, "run_clt", run_clt),
        ("experiments.run_concentration", experiments, "run_concentration", run_concentration),
        ("experiments.run_example1", experiments, "run_example1", run_example1),
        ("cli.dispatch", cli, "dispatch", None),
        ("manifest.write_csv", manifest, "write_csv", None),
    ]


class Tracer:
    """Aggregated spans and counters of the rounds run while installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._child_time: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str | None, fn, count):
        clock = time.perf_counter
        child_time = self._child_time
        calls, total_s, self_s, counters = self.calls, self.total_s, self.self_s, self.counters

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counters, args, kwargs, result)
            return result

        if name is None:
            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, kwargs, result)
                return result
            finally:
                dt = clock() - t0
                inner = child_time.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - inner
                if child_time:
                    child_time[-1] += dt

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function by its wrapper, in every entrokit module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items()) if key == "entrokit" or key.startswith("entrokit.")]
        for name, owner, attr, count in _specs():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__, count))
                else:
                    new = self._wrap(name, raw, count)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def to_dict(self) -> dict:
        return {
            "spans": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name], "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "counters": dict(sorted(self.counters.items())),
        }
