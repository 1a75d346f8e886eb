"""Spans and counters recorded around calls into fofkit's modules.

The tracer measures each layer from outside: it replaces a public function
(or a class method) with a timing wrapper in every loaded ``fofkit`` module
namespace that holds it, and puts the originals back on ``close``. Spans are
kept in memory as (name, start, end, parent, trace id) and summarised when
the run ends.
"""

import contextlib
import logging
import sys
import time


def _count_ptd(tr, args, kwargs, result):
    tr.add("metrics.point_triangle_distance.calls", 1)
    tr.add("metrics.point_triangle_distance.pairs", len(args[0]))


def _count_query(tr, args, kwargs, result):
    tr.add("metrics.SurfaceDistanceIndex.query_points", len(result))


def _count_decode(tr, args, kwargs, result):
    h, w, d = result.shape
    fof = args[0]
    k = getattr(fof, "data", fof).shape[-1]
    tr.add("fof.decode_grid.samples", h * w * d)
    tr.add("fof.decode_grid.madds", h * w * d * k)
    # float64 coefficients read once, float64 samples written once
    tr.add("fof.decode_grid.bytes", 8 * (h * w * k + h * w * d))


def _count_mc(tr, args, kwargs, result):
    tr.add("surface.marching_cubes.faces", result.n_faces)


def _count_calls(name):
    def count(tr, args, kwargs, result):
        tr.add(name, 1)
    return count


def _count_raster(tr, args, kwargs, result):
    tr.add("raster.rasterize_coverage.calls", 1)
    tr.add("raster.rasterize_coverage.records", len(result.pixel))


def _count_draws(tr, args, kwargs, result):
    tr.add("rng.draws", len(result))


def _count_crc(tr, args, kwargs, result):
    tr.add("tensor_io.crc64.bytes", len(args[0]))


# (layer name, module, attribute, class or None, counter). The layer name is
# "<module>.<function>" or "<module>.<Class>.<method>"; the counter, when
# given, receives (tracer, args, kwargs, result) after each call.
LAYERS = (
    ("sweep.prepare_context", "fofkit.sweep", "prepare_context", None, None),
    ("shapes.make_shape", "fofkit.shapes", "make_shape", None, None),
    ("completion.degrade_prior", "fofkit.completion", "degrade_prior", None, None),
    ("completion.vgcc_blend", "fofkit.completion", "vgcc_blend", None, None),
    ("mesh.mesh_to_fof", "fofkit.mesh", "mesh_to_fof", None, None),
    ("mesh.load_obj", "fofkit.mesh", "load_obj", None, None),
    ("mesh.save_obj", "fofkit.mesh", "save_obj", None, None),
    ("mesh.BVH", "fofkit.mesh", "__init__", "BVH", _count_calls("mesh.BVH.calls")),
    ("raster.rasterize_coverage", "fofkit.raster", "rasterize_coverage", None, _count_raster),
    ("render.render_silhouette", "fofkit.render", "render_silhouette", None, None),
    ("render.render_normals", "fofkit.render", "render_normals", None,
     _count_calls("render.render_normals.calls")),
    ("occlusion.synthesize_occlusion", "fofkit.occlusion", "synthesize_occlusion", None, None),
    ("occlusion.occlude_field", "fofkit.occlusion", "occlude_field", None, None),
    ("fof.decode_grid", "fofkit.fof", "decode_grid", None, _count_decode),
    ("surface.field_to_grid", "fofkit.surface", "field_to_grid", None, None),
    ("surface.marching_cubes", "fofkit.surface", "marching_cubes", None, _count_mc),
    ("surface.sample_surface", "fofkit.surface", "sample_surface", None, None),
    ("rng.uniforms", "fofkit.rng", "uniforms", "Xoshiro256StarStar", _count_draws),
    ("rng.normals", "fofkit.rng", "normals", "Xoshiro256StarStar", _count_draws),
    ("metrics.evaluate_pair", "fofkit.metrics", "evaluate_pair", None, None),
    ("metrics.chamfer", "fofkit.metrics", "chamfer", None, None),
    ("metrics.p2s", "fofkit.metrics", "p2s", None, None),
    ("metrics.SurfaceDistanceIndex.build", "fofkit.metrics", "__init__",
     "SurfaceDistanceIndex", None),
    ("metrics.SurfaceDistanceIndex.query", "fofkit.metrics", "query",
     "SurfaceDistanceIndex", _count_query),
    ("metrics.point_triangle_distance", "fofkit.metrics", "point_triangle_distance", None,
     _count_ptd),
    ("tensor_io.write_tensor", "fofkit.tensor_io", "write_tensor", None, None),
    ("tensor_io.read_tensor", "fofkit.tensor_io", "read_tensor", None, None),
    ("tensor_io.crc64", "fofkit.tensor_io", "crc64", None, _count_crc),
)

# Counters reported per run; the ones never incremented read 0.
COUNTERS = (
    "metrics.point_triangle_distance.calls", "metrics.point_triangle_distance.pairs",
    "metrics.SurfaceDistanceIndex.query_points", "mesh.BVH.calls", "fof.decode_grid.samples",
    "surface.marching_cubes.faces", "render.render_normals.calls",
    "raster.rasterize_coverage.calls", "raster.rasterize_coverage.records", "rng.draws",
    "mesh.recasts", "mesh.dropped_rays", "tensor_io.crc64.bytes",
)

# Log messages of fofkit.mesh.ray_intervals that mark parity repair work.
_RECAST_PREFIX = "pixel %s recast"
_DROPPED_PREFIX = "pixel %s degenerate"


class _MeshLogCounter(logging.Handler):
    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if record.msg.startswith(_RECAST_PREFIX):
            self.tracer.add("mesh.recasts", 1)
        elif record.msg.startswith(_DROPPED_PREFIX):
            self.tracer.add("mesh.dropped_rays", 1)


class Tracer:
    """In-memory span recorder; ``install`` wraps the layers, ``close`` restores."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.trace_ids = []
        self.counts = {}
        self.trace_id = "setup"
        self._open = []
        self._restore = []
        self._handler = None

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name):
        return _Span(self, name)

    def _begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.trace_ids.append(self.trace_id)
        self.ends.append(None)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Wrap every layer in LAYERS wherever fofkit's modules bound it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fofkit" or n.startswith("fofkit."))]
        for name, modname, attr, cls_name, counter in LAYERS:
            home = sys.modules[modname]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, original, counter))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))
        self._handler = _MeshLogCounter(self)
        mesh_log = logging.getLogger("fofkit.mesh")
        mesh_log.addHandler(self._handler)
        if mesh_log.getEffectiveLevel() > logging.WARNING:
            mesh_log.setLevel(logging.WARNING)

    def close(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._handler is not None:
            logging.getLogger("fofkit.mesh").removeHandler(self._handler)
            self._handler = None

    def summary(self):
        """Per span name: call count, inclusive seconds and self seconds.

        Spans of one thread nest and do not overlap, so the part of a span
        its children cover is the sum of the children's durations. Inclusive
        time counts only the outermost span of a name, so a layer that calls
        itself is not counted twice.
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self._outermost(i):
                row["s"] += dur
        return out

    def by_trace(self):
        """Per trace id (one per unit, plus set-up): span count and the
        inclusive seconds of each outermost span name in that trace."""
        out = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(self.trace_ids[i], {"spans": 0, "s": {}})
            row["spans"] += 1
            if self._outermost(i):
                row["s"][name] = row["s"].get(name, 0.0) + self.ends[i] - self.starts[i]
        return out

    def _outermost(self, i):
        """True when no enclosing span of span i has the same name."""
        p = self.parents[i]
        while p >= 0 and self.names[p] != self.names[i]:
            p = self.parents[p]
        return p < 0


def span(tracer, name):
    """A span of ``tracer``, or a context that does nothing when it is None."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.idx = None

    def __enter__(self):
        self.idx = self.tracer._begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.idx)
        return False
