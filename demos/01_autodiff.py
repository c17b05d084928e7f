"""A tour of the reverse-mode tensor core.

Builds a tiny computation, pulls gradients off the tape, and shows the
finite-difference audit that every model gradient in this package has to
survive.
"""

import numpy as np

from hdlm import Tape, Tensor, backward, seeded_rng
from hdlm.tensor import gradient_audit, linear, relu, sum_all


def main():
    rng = seeded_rng(0)
    w = Tensor(rng.normal(size=(3, 4)))
    x = Tensor(rng.normal(size=(2, 4)))  # two input rows

    with Tape() as tape:
        loss = sum_all(relu(linear(x, w)))
    grads = backward(tape, loss)

    print("loss:", f"{loss.item():.6f}")
    print("dloss/dw:")
    print(np.array_str(grads[tape.node_of(w)].data, precision=4))

    # the same closure, audited numerically coordinate by coordinate
    def f():
        return sum_all(relu(linear(x, w)))

    report = gradient_audit(f, {"w": w, "x": x})
    for name, (err, _) in report.items():
        print(f"worst relative error for {name}: {err:.2e}")
    print("(relative errors at this scale mean the tape agrees with"
          " central differences)")


if __name__ == "__main__":
    main()
