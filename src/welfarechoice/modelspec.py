"""Model specification files: JSON documents describing a choice model.

A spec is a tree with a `kind` discriminator and kind-specific parameters.
Alternative indices inside spec files are 1-based to match the mu_1..mu_n
column convention of the CSV outputs; they are converted on load.

Kinds: mnl, nested_logit, gev_custom, ram_entropy, ram_quadratic,
ram_logbarrier, ram_mdm, ram_mmm, ram_cmm, transform_scale, transform_mix,
transform_cross.

A `gev_custom` spec, the generator H(y) = sum_k prod_i y_i^{E_ki} whose
rows of E sum to 1/eta, is evaluated as a crossed logit (logit over the rows
of E crossed with eta * E): w = eta * log H(e^mu) = eta * logsumexp(E mu).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import ram, transforms
from .welfare import WelfareModel, log_sum_welfare, mnl_welfare, nested_logit_welfare

KINDS = ("mnl", "nested_logit", "gev_custom", "ram_entropy", "ram_quadratic",
         "ram_logbarrier", "ram_mdm", "ram_mmm", "ram_cmm",
         "transform_scale", "transform_mix", "transform_cross")


class SpecError(ValueError):
    """A spec failed validation; the message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class ModelBundle:
    """A built welfare model and the spec it was built from."""

    model: WelfareModel
    spec: dict

    @property
    def regularizer(self) -> Optional[ram.Regularizer]:
        """The model's V: the regularizer of ram_* kinds, the conjugate of mnl
        and nested_logit, eta V of their transform_scale; else None."""
        return self.model.regularizer


def _require(spec: dict, field: str, path: str):
    if not isinstance(spec, dict):
        raise SpecError(path.rstrip(".") or "spec", "expected an object")
    if field not in spec:
        raise SpecError(f"{path}{field}", "missing required field")
    return spec[field]


def _number(spec: dict, field: str, path: str, positive: bool = False) -> float:
    val = _require(spec, field, path)
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise SpecError(f"{path}{field}", f"expected a number, got {val!r}")
    if not abs(val) <= sys.float_info.max:  # NaN, an infinity or an integer past float
        raise SpecError(f"{path}{field}", f"must be finite, got {val!r}")
    if positive and not val > 0:
        raise SpecError(f"{path}{field}", "must be positive")
    return float(val)


def _int(spec: dict, field: str, path: str, minimum: int) -> int:
    val = _require(spec, field, path)
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        raise SpecError(f"{path}{field}", f"expected an integer >= {minimum}")
    return val


def _matrix(spec: dict, field: str, path: str) -> np.ndarray:
    val = _require(spec, field, path)
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{path}{field}", f"not a numeric matrix: {exc}") from exc
    if arr.ndim != 2:
        raise SpecError(f"{path}{field}", "expected a matrix (list of rows)")
    if not np.all(np.isfinite(arr)):
        raise SpecError(f"{path}{field}", "entries must be finite")
    return arr


def _marginal(entry: dict, path: str) -> ram.Marginal:
    family = _require(entry, "family", path)
    if family == "uniform":
        return ram.uniform_marginal()
    if family == "exponential":
        return ram.exponential_marginal(_number(entry, "rate", path, positive=True))
    if family == "logistic":
        return ram.logistic_marginal(_number(entry, "scale", path, positive=True))
    if family == "normal":
        return ram.normal_marginal(_number(entry, "sd", path, positive=True))
    raise SpecError(f"{path}family", f"unknown marginal family {family!r}")


def build_model(spec: dict, path: str = "") -> ModelBundle:
    """Construct the model a spec describes, validating as we go."""
    kind = _require(spec, "kind", path)
    if kind not in KINDS:
        raise SpecError(f"{path}kind", f"unknown kind {kind!r}")
    try:
        return _build(kind, spec, path)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:  # TypeError: e.g. a number where a list belongs
        raise SpecError(f"{path}{kind}", str(exc)) from exc


def _build(kind: str, spec: dict, path: str) -> ModelBundle:
    if kind == "mnl":
        n = _int(spec, "n", path, 2)
        eta = _number(spec, "eta", path, positive=True)
        return ModelBundle(mnl_welfare(eta, n), spec)

    if kind == "nested_logit":
        n = _int(spec, "n", path, 2)
        nests_raw = _require(spec, "nests", path)
        lambdas = _require(spec, "lambdas", path)
        nests = [[i - 1 for i in block] for block in nests_raw]
        return ModelBundle(nested_logit_welfare(nests, lambdas, n), spec)

    if kind == "gev_custom":
        eta = _number(spec, "eta", path, positive=True)
        expo = _matrix(spec, "exponents", path)
        if np.any(expo < 0):
            raise SpecError(f"{path}exponents", "entries must be nonnegative")
        row_sums = expo.sum(axis=1)
        if not np.all(np.abs(row_sums - 1.0 / eta) <= 1e-10):
            raise SpecError(f"{path}exponents",
                            f"row sums must equal 1/eta = {1.0 / eta:g}")
        # the bound eta * log H(e_i) counts the rows supported on i alone
        model = transforms.cross(mnl_welfare(eta, len(expo)), expo / row_sums[:, None])
        alone = np.count_nonzero(expo[np.count_nonzero(expo, axis=1) == 1], axis=0)
        bounds = eta * np.log(alone) if np.all(alone) else None
        return ModelBundle(replace(model, superlinear_bounds=bounds,
                                   name=f"gev(eta={eta:g})"), spec)

    if kind == "ram_entropy":
        n = _int(spec, "n", path, 2)
        eta = _number(spec, "eta", path, positive=True)
        return ModelBundle(ram.ram_welfare(ram.entropy_regularizer(eta, n)), spec)

    if kind == "ram_quadratic":
        matrix = _matrix(spec, "matrix", path)
        return ModelBundle(ram.ram_welfare(ram.quadratic_regularizer(matrix)), spec)

    if kind == "ram_logbarrier":
        n = _int(spec, "n", path, 2)
        return ModelBundle(ram.ram_welfare(ram.log_barrier_regularizer(n)), spec)

    if kind == "ram_mdm":
        entries = _require(spec, "marginals", path)
        if not isinstance(entries, list) or len(entries) < 2:
            raise SpecError(f"{path}marginals", "expected a list of >= 2 marginals")
        marginals = [_marginal(e, f"{path}marginals[{k}].")
                     for k, e in enumerate(entries)]
        return ModelBundle(ram.ram_welfare(ram.mdm_regularizer(marginals)), spec)

    if kind == "ram_mmm":
        sigma = _require(spec, "sigma", path)
        return ModelBundle(ram.ram_welfare(ram.mmm_regularizer(sigma)), spec)

    if kind == "ram_cmm":
        cov = _matrix(spec, "covariance", path)
        return ModelBundle(ram.ram_welfare(ram.cmm_regularizer(cov)), spec)

    if kind == "transform_scale":
        eta = _number(spec, "eta", path, positive=True)
        inner = build_model(_require(spec, "inner", path), f"{path}inner.")
        return ModelBundle(transforms.scale(inner.model, eta), spec)

    if kind == "transform_mix":
        n = _int(spec, "n", path, 2)
        entries = _require(spec, "components", path)
        if not isinstance(entries, list) or not entries:
            raise SpecError(f"{path}components", "expected a nonempty list")
        comps = []
        for k, entry in enumerate(entries):
            sub_path = f"{path}components[{k}]."
            weight = _number(entry, "weight", sub_path)
            indices = _require(entry, "indices", sub_path)
            inner = build_model(_require(entry, "inner", sub_path),
                                f"{sub_path}inner.")
            comps.append(transforms.MixtureComponent(
                model=inner.model,
                indices=tuple(i - 1 for i in indices),
                weight=weight))
        return ModelBundle(transforms.mix(comps, n), spec)

    if kind == "transform_cross":
        matrix = _matrix(spec, "matrix", path)
        inner = build_model(_require(spec, "inner", path), f"{path}inner.")
        return ModelBundle(transforms.cross(inner.model, matrix), spec)

    raise SpecError(f"{path}kind", f"unhandled kind {kind!r}")


def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, or not readable
        raise SpecError("spec", f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError("spec", f"cannot read {path}: not UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise SpecError("spec", f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_model(path: str) -> ModelBundle:
    return build_model(load_spec(path))


# Built-in demonstration models used by the figure command: a three-product
# quadratic representative agent whose middle alternative couples the other
# two, and a four-term log-sum model where two alternatives share a brand
# component.

DEMO_QUADRATIC_COUPLING = np.array([[3.0, 2.0, 0.0],
                                    [2.0, 3.0, 2.0],
                                    [0.0, 2.0, 3.0]])

DEMO_BRAND_WEIGHTS = np.array([[1.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0],
                               [0.5, 0.5, 0.0]])


def demo_quadratic_model() -> ModelBundle:
    """Quadratic RAM demo; the solver sees half the coupling matrix so the
    choice probabilities match the published trajectories on [-2, 2]."""
    reg = ram.quadratic_regularizer(0.5 * DEMO_QUADRATIC_COUPLING)
    return ModelBundle(ram.ram_welfare(reg),
                       {"kind": "ram_quadratic",
                        "matrix": (0.5 * DEMO_QUADRATIC_COUPLING).tolist()})


def demo_brand_model() -> ModelBundle:
    """Log-sum demo with a shared-brand term over alternatives 1 and 2."""
    model = log_sum_welfare(DEMO_BRAND_WEIGHTS, name="brand_overlap")
    return ModelBundle(model,
                       {"kind": "transform_cross",
                        "matrix": DEMO_BRAND_WEIGHTS.tolist(),
                        "inner": {"kind": "mnl", "n": 4, "eta": 1.0}})
