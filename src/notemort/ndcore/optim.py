"""AMSGrad optimizer with bias correction.

Per parameter it keeps the first moment m, second moment v, and the
running elementwise maximum vhat of v; vhat never decreases. The update
uses bias-corrected m and vhat, as the variant is commonly implemented
in training frameworks. The moment decays BETA1 and BETA2 and the
denominator's floor EPS are the published defaults (Reddi et al. 2018).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AmsGrad:
    """AMSGrad over the named parameters; `lr` may change between steps."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.vhat = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """One update over all parameters; a missing grad counts as zero."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for key, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            m = self.m[key]
            v = self.v[key]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            np.maximum(self.vhat[key], v, out=self.vhat[key])
            p.data -= self.lr * (m / bc1) / (np.sqrt(self.vhat[key] / bc2) + EPS)
