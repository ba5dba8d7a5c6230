"""The validation harness: learners (``models``), their split kernel
(``kernels``) and cross-validation with under-sampling (``evaluate``).

The algorithm names are stated here, where importing them loads no numpy,
so a configuration can be checked without loading the learners."""

ALGORITHMS = (
    "one_r", "naive_bayes", "logistic", "decision_tree", "random_tree", "random_forest",
)
