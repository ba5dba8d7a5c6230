"""fixpair: mine before-fix/after-fix bug datasets from git history and
validate them with a built-in learning and statistics harness."""
