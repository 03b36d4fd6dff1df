"""Reading an additive model: shape functions and term contributions.

Every EBM prediction is an intercept plus one number per feature (and
optionally per feature pair), each looked up from a learned step function.
That makes both the global model and any single decision inspectable
without approximation.
"""

import os
import tempfile

from glassbox_credit import synth
from glassbox_credit.ebm import EbmConfig, export_shape, fit_ebm

train, test, _ = synth.generate("additive", n_train=6000, n_test=2000)
top = train.select_features(train.feature_names[:6])
model = fit_ebm(top, EbmConfig())
print(f"fitted {model.d} shape functions, intercept {model.intercept:+.4f}, "
      f"{model.config['cycles_run']} boosting cycles kept")

# a single decision, term by term
x = test.select_features(top.feature_names).X[0]
print("\nfirst test applicant, margin addends:")
terms = model.term_contributions(x)
for name, value in terms:
    print(f"  {name}: {value:+.4f}")
print(f"  total margin: {sum(v for _, v in terms):+.4f}")

# the global shape of one feature, as a plottable CSV
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "shape_f00.csv")
    export_shape(model, 0, path)
    print(f"\nshape of {model.feature_names[0]} written to {path}:")
    with open(path) as fh:
        lines = fh.read().splitlines()
for line in lines[:4] + ["..."] + lines[-2:]:
    print(" ", line)
