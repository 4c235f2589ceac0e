"""Turn a decoded serve request into an executable pipeline graph.

Two request shapes plan into a :class:`~repro.graph.PipelineGraph`:

* ``"pipeline": <name>`` — a named application pipeline from
  :data:`PIPELINES` (currently the paper's edge-detection chain and a
  denoise chain), parameterised only by the request image;
* ``"chain": [{"op": ...}, ...]`` — an inline linear chain built from
  the :data:`OPS` vocabulary via :func:`repro.graph.builder.pipe`; each
  element names an operator and its parameters, e.g.
  ``{"op": "gaussian", "size": 5}`` or ``{"op": "scale", "factor": 2}``.

Planning is **pure construction**: nothing compiles or executes here,
so a plan is cheap enough to build per request and a malformed spec
fails fast with :class:`PlanError` (HTTP 400) before touching the
worker pool.  Two requests with equal fingerprints plan into
structurally identical graphs, which is what lets the service share one
execution between them and lets every compile hit the shared cache.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List

import numpy as np

from ..dsl import (Accessor, Boundary, BoundaryCondition, Image,
                   IterationSpace, Mask)
from ..graph import PipelineGraph
from ..graph.builder import stage
from .protocol import ProtocolError

#: engines the scheduler accepts; re-validated here so a planner used
#: without the protocol layer still rejects bad values early
ENGINES = ("sim", "native", "auto")


class PlanError(ProtocolError):
    """A structurally valid request naming impossible work (unknown
    pipeline/op, bad parameter) — still the client's fault."""


@dataclasses.dataclass
class Plan:
    """An executable unit: the graph, its input and output images, and
    the scheduler options the request selected."""

    graph: PipelineGraph
    output: Image
    engine: str
    device: str
    backend: str
    #: the image the request's pixels were loaded into
    source: Image


def _f(spec: Dict[str, Any], field: str, default: float = None) -> float:
    value = spec.get(field, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise PlanError(f"op {spec.get('op')!r}: {field!r} must be a "
                        f"number, got {value!r}")
    return float(value)


def _boundary(spec: Dict[str, Any]) -> Boundary:
    try:
        return Boundary.coerce(spec.get("boundary", "clamp"))
    except Exception as exc:    # noqa: BLE001 - coerce raises DslError
        raise PlanError(f"op {spec.get('op')!r}: {exc}") from None


def _gaussian_stage(spec):
    from ..filters.gaussian import GaussianFilter, gaussian_mask_2d

    size = int(_f(spec, "size", 3))
    if size < 1 or size % 2 == 0 or size > 31:
        raise PlanError(f"gaussian size must be odd and <= 31, got {size}")
    sigma = spec.get("sigma")
    if sigma is not None:
        sigma = _f(spec, "sigma")
    mask = gaussian_mask_2d(size, sigma)
    return stage(lambda IS, acc: GaussianFilter(IS, acc, mask, size // 2),
                 window=(size, size), boundary=_boundary(spec),
                 constant=_f(spec, "constant", 0.0))


def _median_stage(spec):
    from ..filters.median import Median3x3

    return stage(Median3x3, window=(3, 3), boundary=_boundary(spec),
                 constant=_f(spec, "constant", 0.0))


def _sobel_stage(spec):
    from ..filters.sobel import SOBEL_X, SOBEL_Y, SobelX, SobelY

    axis = spec.get("axis", "x")
    if axis not in ("x", "y"):
        raise PlanError(f"sobel axis must be 'x' or 'y', got {axis!r}")
    cls, coeffs = ((SobelX, SOBEL_X) if axis == "x"
                   else (SobelY, SOBEL_Y))
    return stage(lambda IS, acc: cls(IS, acc, Mask(3, 3).set(coeffs)),
                 window=(3, 3), boundary=_boundary(spec))


def _laplacian_stage(spec):
    from ..filters.laplacian import (LAPLACIAN_4, LAPLACIAN_8,
                                     LaplacianFilter)

    connectivity = int(_f(spec, "connectivity", 4))
    if connectivity not in (4, 8):
        raise PlanError(
            f"laplacian connectivity must be 4 or 8, got {connectivity}")
    coeffs = LAPLACIAN_4 if connectivity == 4 else LAPLACIAN_8
    return stage(lambda IS, acc: LaplacianFilter(
        IS, acc, Mask(3, 3).set(coeffs)),
        window=(3, 3), boundary=_boundary(spec))


def _scale_stage(spec):
    from ..filters.point_ops import Scale

    factor = _f(spec, "factor")
    return stage(lambda IS, acc: Scale(IS, acc, factor))


def _gamma_stage(spec):
    from ..filters.point_ops import GammaCorrection

    gamma = _f(spec, "gamma")
    if gamma <= 0:
        raise PlanError(f"gamma must be positive, got {gamma}")
    return stage(lambda IS, acc: GammaCorrection(IS, acc, gamma))


def _threshold_stage(spec):
    from ..filters.point_ops import Threshold

    value = _f(spec, "value")
    return stage(lambda IS, acc: Threshold(IS, acc, value))


def _add_stage(spec):
    from ..filters.point_ops import AddConstant

    value = _f(spec, "value")
    return stage(lambda IS, acc: AddConstant(IS, acc, value))


#: op name -> builder(spec) -> pipe() stage descriptor
OPS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "gaussian": _gaussian_stage,
    "median": _median_stage,
    "sobel": _sobel_stage,
    "laplacian": _laplacian_stage,
    "scale": _scale_stage,
    "gamma": _gamma_stage,
    "threshold": _threshold_stage,
    "add": _add_stage,
}


def _plan_chain(chain: List[Any], src: Image, opts: Dict[str, Any]
                ) -> PipelineGraph:
    from ..graph.builder import pipe

    stages = []
    for i, spec in enumerate(chain):
        if not isinstance(spec, dict) or "op" not in spec:
            raise PlanError(f"chain[{i}] must be an object with an 'op'")
        op = spec["op"]
        builder = OPS.get(op)
        if builder is None:
            raise PlanError(
                f"chain[{i}]: unknown op {op!r}; known: "
                f"{sorted(OPS)}")
        st = builder(spec)
        st.name = f"{op}_{i}"
        stages.append(st)
    graph, out = pipe(src, *stages, name="chain")
    for node in graph.nodes:
        node.options.update(opts)
    return graph


def _plan_edge(src: Image, opts: Dict[str, Any]) -> PipelineGraph:
    """The paper's Section-VI edge chain: median -> sobel-x || sobel-y
    -> gradient magnitude -> scale -> gamma (matches the ``repro
    graph`` CLI pipeline, so serve output is differentially testable
    against it)."""
    from ..filters.median import Median3x3
    from ..filters.point_ops import GammaCorrection, Scale
    from ..filters.sobel import (SOBEL_X, SOBEL_Y, GradientMagnitude,
                                 SobelX, SobelY)

    w, h = src.width, src.height
    den = Image(w, h, float, name="denoised")
    gx = Image(w, h, float, name="grad_x")
    gy = Image(w, h, float, name="grad_y")
    mag = Image(w, h, float, name="magnitude")
    scaled = Image(w, h, float, name="scaled")
    out = Image(w, h, float, name="edges")

    g = PipelineGraph("edge")
    g.add_kernel(Median3x3(IterationSpace(den), Accessor(
        BoundaryCondition(src, 3, 3, Boundary.CLAMP))), name="median",
        **opts)
    bc = BoundaryCondition(den, 3, 3, Boundary.CLAMP)
    g.add_kernel(SobelX(IterationSpace(gx), Accessor(bc),
                        Mask(3, 3).set(SOBEL_X)), name="sobel_x", **opts)
    g.add_kernel(SobelY(IterationSpace(gy), Accessor(bc),
                        Mask(3, 3).set(SOBEL_Y)), name="sobel_y", **opts)
    g.add_kernel(GradientMagnitude(IterationSpace(mag), Accessor(gx),
                                   Accessor(gy)), name="magnitude",
                 **opts)
    g.add_kernel(Scale(IterationSpace(scaled), Accessor(mag), 0.25),
                 name="scale", **opts)
    g.add_kernel(GammaCorrection(IterationSpace(out), Accessor(scaled),
                                 0.8), name="gamma", **opts)
    g.mark_output(out)
    return g


def _plan_denoise(src: Image, opts: Dict[str, Any]) -> PipelineGraph:
    """Impulse + gaussian denoise: median -> gaussian 5x5."""
    return _plan_chain([{"op": "median", "boundary": "mirror"},
                        {"op": "gaussian", "size": 5}], src, opts)


def _plan_enhance(src: Image, opts: Dict[str, Any]) -> PipelineGraph:
    """Contrast enhancement: scale into range, then a square-law gamma.
    Every stage is a point op with an exactly-reducible intrinsic
    (``pow(x, 2.0)`` lowers to ``x*x``), so the whole chain is provable
    for the native tier."""
    return _plan_chain([{"op": "scale", "factor": 0.5},
                        {"op": "gamma", "gamma": 2.0}], src, opts)


#: named application pipelines: name -> builder(src_image, node_opts)
PIPELINES: Dict[str, Callable[[Image, Dict[str, Any]], PipelineGraph]] = {
    "edge": _plan_edge,
    "denoise": _plan_denoise,
    "enhance": _plan_enhance,
}


def plan_request(body: Dict[str, Any], data: np.ndarray) -> Plan:
    """Build the graph for *body* over the decoded image *data*.

    Raises :class:`PlanError`/:class:`ProtocolError` for anything the
    client got wrong; never executes or compiles.
    """
    from ..errors import MappingError
    from ..hwmodel.database import get_device

    device = body.get("device", "Tesla C2050")
    backend = body.get("backend", "cuda")
    engine = body.get("engine", "auto")
    if engine not in ENGINES:
        raise PlanError(f"engine {engine!r} must be one of {ENGINES}")
    try:
        dev = get_device(device)
    except MappingError as exc:
        raise PlanError(str(exc)) from None
    if not dev.supports_backend(backend):
        raise PlanError(
            f"{device} does not support the {backend} backend")

    h, w = data.shape
    if data.dtype != np.float32:
        # the DSL's default pixel type; other dtypes are accepted on
        # the wire but normalised here so every plan is float32-exact
        data = data.astype(np.float32)
    src = Image(w, h, float, name="request_src")
    src.set_data(data)
    opts = {"device": device, "backend": backend}

    pipeline = body.get("pipeline")
    if pipeline is not None:
        builder = PIPELINES.get(pipeline)
        if builder is None:
            raise PlanError(f"unknown pipeline {pipeline!r}; known: "
                            f"{sorted(PIPELINES)}")
        graph = builder(src, opts)
    else:
        chain = body.get("chain")
        if not isinstance(chain, list) or not chain:
            raise PlanError("'chain' must be a non-empty list")
        graph = _plan_chain(chain, src, opts)

    outputs = graph.outputs()
    if len(outputs) != 1:
        raise PlanError(
            f"pipeline produced {len(outputs)} outputs, expected 1")
    return Plan(graph=graph, output=outputs[0], engine=engine,
                device=device, backend=backend, source=src)
