"""Build circuits by hand, validate them, and run log-space inference.

Run with:  python demos/01_circuits_and_inference.py
"""

import io
import math

import numpy as np

from circuq import Evidence, build_manual, deserialize, log_likelihood, serialize, validate

# A two-component mixture over one binary variable, written in the manual
# text format: one node per line, children referenced by id.
MIXTURE = """
a categorical 0 0.5 0.5     # P(X0 = 0) = 0.5
b categorical 0 0.25 0.75
s sum 0.6 a 0.4 b           # 0.6 * a + 0.4 * b
root s
"""

circuit = build_manual(MIXTURE)
print("validation:", "ok" if validate(circuit).ok else validate(circuit))

# Density at X0 = 0: 0.6 * 0.5 + 0.4 * 0.25 = 0.4
ll = log_likelihood(circuit, [0.0])
print(f"log p(X0=0) = {ll[0]:.6f}  (log 0.4 = {math.log(0.4):.6f})")

# Marginalizing every variable leaves the partition function, which is one
# for a normalized circuit.
print("fully marginalized:", log_likelihood(circuit, Evidence.marginal_all(1)))

# A three-variable circuit mixing sums and products of Gaussian leaves.
TREE = """
g1 gaussian 0 0.0 1.0       # variable mean std
g2 gaussian 1 0.5 1.0
g3 gaussian 0 -0.5 0.8
g4 gaussian 1 0.2 1.2
g5 gaussian 2 0.0 0.9
p1 product g1 g2
p2 product g3 g4
s1 sum 0.7 p1 0.3 p2
p3 product s1 g5
root p3
"""
tree = build_manual(TREE)
x = np.array([0.1, -0.2, 0.4])
print(f"\ntree log-likelihood at {x}: {log_likelihood(tree, x)[0]:.4f}")
print("with X1 marginalized:",
      f"{log_likelihood(tree, Evidence.of([0.1, None, 0.4]))[0]:.4f}")

# Circuits round-trip bit for bit through the circuit file: an .npz archive
# of columns (kind codes, child ids, weights, leaf parameters) of raw doubles.
blob = serialize(tree)
restored = deserialize(blob)
assert log_likelihood(restored, x)[0] == log_likelihood(tree, x)[0]
print(f"\ncircuit file: {len(blob)} bytes, an .npz archive of "
      f"{len(np.load(io.BytesIO(blob)).files)} arrays; round-trip is exact")
