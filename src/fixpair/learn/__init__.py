"""The validation harness: learners (``models``), their split kernel
(``kernels``) and cross-validation with under-sampling (``evaluate``)."""
