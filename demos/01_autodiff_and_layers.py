"""The numeric core: taped tensors, reverse-mode gradients, and the
layer set the mortality models are built from.

Run with: python demos/01_autodiff_and_layers.py
"""

import numpy as np

from notemort.ndcore import (
    Conv1dParams, Tensor, backward, bigru, BiGruParams, GruDirectionParams,
    conv1d, dense_sigmoid, DenseParams, global_avg_pool, parameter,
)

# -- gradients fall out of the tape -------------------------------------------

w = parameter([1.0, -2.0, 3.0])
loss = (w * w).sum()
loss.backward()
print("d/dw sum(w^2) =", w.grad, "(expect 2w)")

# verify a composite expression against central finite differences; the
# sigmoid head reads an unbatched [D] vector and gives a 0-d probability
rng = np.random.default_rng(0)
x = parameter(rng.standard_normal(4))
probe = DenseParams(weight=parameter(rng.standard_normal((4, 1))), bias=parameter(np.zeros(1)))


def f():
    return dense_sigmoid(x * x - x, probe) + (x * x * 0.5).sum()


loss = f()
backward(loss, [x])
h = 1e-5
numeric = np.zeros(4)
for i in range(4):
    x.data[i] += h
    up = f().item()
    x.data[i] -= 2 * h
    down = f().item()
    x.data[i] += h
    numeric[i] = (up - down) / (2 * h)
print("max |analytic - numeric| =", np.max(np.abs(x.grad - numeric)))

# -- the note encoder's building blocks ----------------------------------------

rng = np.random.default_rng(1)
note = Tensor(rng.standard_normal((12, 5)))  # 12 token positions, 5 channels

conv = Conv1dParams(
    kernels=parameter(rng.standard_normal((3, 5, 8)) * 0.3),
    bias=parameter(np.zeros(8)),
)
feature_maps = conv1d(note, conv)  # same-length cross-correlation
print("conv1d: ", note.shape, "->", feature_maps.shape)

mask = np.ones(12, dtype=bool)
mask[9:] = False  # padded tail of the note
doc_vector = global_avg_pool(feature_maps, mask=mask)
print("masked pool ->", doc_vector.shape)


def gru_dir(d, h):
    z = lambda shape: parameter(rng.standard_normal(shape) * 0.2)
    return GruDirectionParams(
        w_z=z((d, h)), u_z=z((h, h)), b_z=parameter(np.zeros(h)),
        w_r=z((d, h)), u_r=z((h, h)), b_r=parameter(np.zeros(h)),
        w_h=z((d, h)), u_h=z((h, h)), b_h=parameter(np.zeros(h)),
    )


sequence = Tensor(rng.standard_normal((6, 8)))  # 6 documents over time
gru = BiGruParams(fwd=gru_dir(8, 4), bwd=gru_dir(8, 4))
outputs, final = bigru(sequence, gru)
print("bigru: outputs", outputs.shape, "final state", final.shape)

# one stay, unbatched: the probability is 0-d, and backward runs from it
head = DenseParams(weight=parameter(rng.standard_normal((8, 1)) * 0.3),
                   bias=parameter(np.zeros(1)))
prob = dense_sigmoid(final, head)
print("mortality probability:", prob.item())
prob.backward()
print("d prob / d head weight:", head.weight.grad.ravel().round(4))
print("gradient reaches the GRU:", gru.fwd.w_z.grad.shape, gru.bwd.u_h.grad.shape)
