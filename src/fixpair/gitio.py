"""Read-only access to git repositories via git plumbing.

:func:`git` runs one git command to completion.  Never touches the working
copy.  A :class:`GitRepo` starts at most three git processes for its whole
life: ``rev-parse`` once to check the path, ``rev-list --all`` once
(lazily) for reachability, and one long-lived ``cat-file --batch`` (lazily)
through which every tree and blob is read.
Tree listings are cached by tree sha, so a subtree shared by many commits is
read once.  Close the repository (or use it as a context manager) so no git
process outlives it.
"""

import subprocess

from .errors import CheckoutError, FixpairError

_TREE_MODE = b"40000"
_GITLINK_MODE = b"160000"


def git(repo, *args, check=True):
    """The finished ``git -C repo args`` process (``stdout`` in bytes); with
    ``check``, a non-zero exit is a :class:`FixpairError` quoting stderr."""
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if check and proc.returncode != 0:
        raise FixpairError(
            f"git {' '.join(args)} failed: "
            f"{proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    return proc


class GitRepo:
    def __init__(self, path):
        self.path = str(path)
        if git(self.path, "rev-parse", "--git-dir", check=False).returncode != 0:
            raise FixpairError(f"{path} is not a git repository")
        self._reachable = None
        self._batch = None
        self._trees = {}  # tree sha -> {relative path bytes: blob sha}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """End the ``cat-file --batch`` process, if one was started."""
        if self._batch is None:
            return
        batch, self._batch = self._batch, None
        batch.stdin.close()
        try:
            batch.wait(timeout=10)
        except subprocess.TimeoutExpired:
            batch.kill()
            batch.wait()
        batch.stdout.close()

    def _is_reachable(self, commit_hash):
        if self._reachable is None:
            out = git(self.path, "rev-list", "--all").stdout.decode()
            self._reachable = frozenset(out.split())
        return commit_hash in self._reachable

    def _read(self, spec):
        """``(sha, content)`` of one object, or ``None`` when git has no
        object by that name."""
        if "\n" in spec:
            return None
        if self._batch is None:
            self._batch = subprocess.Popen(
                ["git", "-C", self.path, "cat-file", "--batch"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        self._batch.stdin.write(spec.encode() + b"\n")
        self._batch.stdin.flush()
        header = self._batch.stdout.readline()
        if not header:
            raise FixpairError(f"git cat-file --batch ended while reading {spec}")
        parts = header.split()
        if len(parts) != 3:  # "<spec> missing" or "<spec> ambiguous"
            return None
        size = int(parts[2])
        data = self._batch.stdout.read(size + 1)[:size]  # drop the trailing newline
        return parts[0].decode(), data

    def _listing(self, tree_sha, data=None):
        """Flattened ``{path bytes: blob sha}`` of a tree, cached by its sha.

        Subtrees are read by sha and cached too; submodule entries are
        skipped, as ``ls-tree -r`` lists them as commits, not blobs.
        """
        if tree_sha in self._trees:
            return self._trees[tree_sha]
        if data is None:
            data = self.read_object(tree_sha)
        listing = {}
        sha_len = len(tree_sha) // 2
        pos = 0
        while pos < len(data):
            space = data.index(b" ", pos)
            nul = data.index(b"\x00", space)
            mode, name = data[pos:space], data[space + 1 : nul]
            sha = data[nul + 1 : nul + 1 + sha_len].hex()
            pos = nul + 1 + sha_len
            if mode == _TREE_MODE:
                for sub, blob in self._listing(sha).items():
                    listing[name + b"/" + sub] = blob
            elif mode != _GITLINK_MODE:
                listing[name] = sha
        self._trees[tree_sha] = listing
        return listing

    def tree_blobs(self, commit_hash) -> dict:
        """Blob shas of a commit's files as ``{path: sha}``.

        Raises :class:`CheckoutError` with kind ``unknown`` when no such
        commit object exists and kind ``unreachable`` when the object exists
        but no ref reaches it.
        """
        if not self._is_reachable(commit_hash):
            if self._read(f"{commit_hash}^{{commit}}") is None:
                raise CheckoutError(commit_hash, "unknown", "no such commit object")
            raise CheckoutError(
                commit_hash, "unreachable", "object exists but no ref reaches it"
            )
        tree_sha, data = self._read(f"{commit_hash}^{{tree}}")
        return {
            path.decode("utf-8", "replace"): sha
            for path, sha in self._listing(tree_sha, data).items()
        }

    def read_object(self, sha) -> bytes:
        """Content of one object (a blob's bytes) by its sha."""
        obj = self._read(sha)
        if obj is None:
            raise FixpairError(f"no git object {sha}")
        return obj[1]

    def checkout_tree(self, commit_hash) -> dict:
        """File tree of a commit as ``{path: bytes}`` (errors as
        :meth:`tree_blobs`)."""
        return {
            path: self.read_object(sha)
            for path, sha in self.tree_blobs(commit_hash).items()
        }
