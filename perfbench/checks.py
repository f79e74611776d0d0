"""Output checks for one round of a workload.

Every check returns a list of problems (empty when the artifact is right).
The method checks read snapshots with this module's own parser of the
documented format (an ASCII header of `key = value` lines after the magic
line, then a row-major little-endian float64 payload), not with kfplab's
`import_snapshot`, so a fault in kfplab's reader cannot hide one in its
writer.
"""

from __future__ import annotations

import csv
import hashlib
import os

import numpy as np

SNAPSHOT_KEYS = ("dim", "time", "n_x", "n_v", "x_max", "v_max", "payload")
# Mass drift allowed relative to ||f0||_L1.  Observed drift is <= 2e-15;
# a non-conservative transport or diffusion step drifts by O(dt) ~ 1e-2.
MASS_RTOL = 1e-12
# The first energy.csv row against 1/2 sum f0^2 cell from the snapshot: the
# same floats summed in a possibly different order.
ENERGY0_RTOL = 1e-12


def read_snapshot(path):
    """Return (header dict, values array shaped (n_x,)*dim + (n_v,)*dim)."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n", len(SNAPSHOT_KEYS) + 1)
    if len(lines) != len(SNAPSHOT_KEYS) + 2 or lines[0] != b"kfplab-snapshot 1":
        raise ValueError(f"{path}: not a version-1 snapshot")
    header = {}
    for key, raw in zip(SNAPSHOT_KEYS, lines[1:-1]):
        name, sep, value = raw.decode("ascii").partition(" = ")
        if name != key or not sep:
            raise ValueError(f"{path}: expected header key {key!r}, got {raw!r}")
        header[key] = value
    kind, count = header["payload"].split()
    dim, n_x, n_v = int(header["dim"]), int(header["n_x"]), int(header["n_v"])
    payload = lines[-1]
    if kind != "float64-le" or int(count) != (n_x * n_v) ** dim \
            or len(payload) != 8 * int(count):
        raise ValueError(f"{path}: payload does not match the header")
    values = np.frombuffer(payload, dtype="<f8").reshape((n_x,) * dim + (n_v,) * dim)
    return header, values


def read_manifest(path) -> dict:
    out = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(" = ")
            out[key] = value
    return out


def check_manifest(run_dir) -> list:
    """A pipeline run succeeded: complete manifest, every verdict true."""
    path = os.path.join(run_dir, "manifest.txt")
    if not os.path.isfile(path):
        return [f"{run_dir}: no manifest.txt"]
    man = read_manifest(path)
    problems = []
    if man.get("manifest.status") != "complete":
        problems.append(f"{path}: status {man.get('manifest.status')!r}")
    if man.get("verdict.all") != "true":
        failed = sorted(k for k, v in man.items()
                        if k.startswith("verdict.") and v != "true")
        problems.append(f"{path}: failed verdicts {failed}")
    return problems


def check_run_identity(run_dir, seed, kind, source) -> list:
    """The manifest echoes the configuration the benchmark asked for."""
    man = read_manifest(os.path.join(run_dir, "manifest.txt"))
    want = {"config.run.seed": str(seed), "config.coeff.kind": kind,
            "config.source.kind": source}
    return [f"{run_dir}: {k} = {man.get(k)!r}, expected {v!r}"
            for k, v in want.items() if man.get(k) != v]


def check_method(run_dir) -> list:
    """Properties of the scheme on a g = 0 run, from its snapshots and
    energy.csv: mass conservation, the maximum principle, and the energy
    identity at t0 followed by a nonincreasing energy."""
    head0, f0 = read_snapshot(os.path.join(run_dir, "field_initial.snap"))
    head1, f1 = read_snapshot(os.path.join(run_dir, "field_final.snap"))
    problems = []
    if {k: v for k, v in head0.items() if k != "time"} != \
            {k: v for k, v in head1.items() if k != "time"}:
        return [f"{run_dir}: initial and final snapshot grids differ"]
    dim = int(head0["dim"])
    dx = 2.0 * float(head0["x_max"]) / int(head0["n_x"])
    dv = 2.0 * float(head0["v_max"]) / int(head0["n_v"])
    cell = (dx * dv) ** dim

    l1 = float(np.sum(np.abs(f0))) * cell
    drift = abs(float(np.sum(f1)) - float(np.sum(f0))) * cell
    if not drift <= MASS_RTOL * l1:
        problems.append(f"{run_dir}: mass drift {drift:.3e} exceeds "
                        f"{MASS_RTOL:g} * ||f0||_L1 = {MASS_RTOL * l1:.3e}")
    lo, hi = float(f0.min()), float(f0.max())
    if not (lo <= float(f1.min()) and float(f1.max()) <= hi):
        problems.append(f"{run_dir}: final range [{f1.min()!r}, {f1.max()!r}] "
                        f"leaves the initial range [{lo!r}, {hi!r}]")

    with open(os.path.join(run_dir, "energy.csv"), newline="", encoding="ascii") as fh:
        energy = [float(row["energy"]) for row in csv.DictReader(fh)]
    e0 = 0.5 * float(np.sum(f0 * f0)) * cell
    if not energy or not abs(energy[0] - e0) <= ENERGY0_RTOL * e0:
        problems.append(f"{run_dir}: first energy {energy[:1]} differs from "
                        f"1/2 sum f0^2 cell = {e0!r}")
    rises = [i for i in range(1, len(energy)) if energy[i] > energy[i - 1]]
    if rises:
        problems.append(f"{run_dir}: energy increases at rows {rises[:5]}")
    return problems


def check_sweep_csv(path, expected, passed) -> list:
    """sweep.csv holds one row per configuration, in order, and its
    all_passed column agrees with each run's manifest."""
    if not os.path.isfile(path):
        return [f"{path}: missing"]
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(expected):
        return [f"{path}: {len(rows)} rows for {len(expected)} configurations"]
    problems = []
    for i, (row, (seed, kind, source), ok) in enumerate(zip(rows, expected, passed)):
        got = (row.get("run"), row.get("seed"), row.get("coeff_kind"),
               row.get("source_kind"), row.get("all_passed"))
        want = (str(i), str(seed), kind, source, "true" if ok else "false")
        if got != want:
            problems.append(f"{path}: row {i} is {got}, expected {want}")
    return problems


def tree_digest(root) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def tree_bytes(root) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)
