"""Fixed-schema simulation log, tracking statistics, and CSV export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 1


def _quat_wxyz(r: np.ndarray) -> np.ndarray:
    """Rotation matrix to quaternion (w, x, y, z), w >= 0."""
    t = np.trace(r)
    if t > 0.0:
        w = 0.5 * np.sqrt(1.0 + t)
        x = (r[2, 1] - r[1, 2]) / (4.0 * w)
        y = (r[0, 2] - r[2, 0]) / (4.0 * w)
        z = (r[1, 0] - r[0, 1]) / (4.0 * w)
    else:
        k = int(np.argmax(np.diag(r)))
        i, j = (k + 1) % 3, (k + 2) % 3
        s = np.sqrt(max(1.0 + r[k, k] - r[i, i] - r[j, j], 1e-16))
        q = np.zeros(4)
        q[1 + k] = 0.5 * s
        q[1 + i] = (r[i, k] + r[k, i]) / (2.0 * s)
        q[1 + j] = (r[j, k] + r[k, j]) / (2.0 * s)
        q[0] = (r[j, i] - r[i, j]) / (2.0 * s)
        w, x, y, z = q
    quat = np.array([w, x, y, z])
    return quat if quat[0] >= 0.0 else -quat


class SimLog:
    """Append-only record of per-control-step simulation quantities."""

    def __init__(self, n_arms: int, n_rotors: int):
        self.n_arms = n_arms
        self.n_rotors = n_rotors
        self.columns = (
            ["t"]
            + [f"p_{c}" for c in "xyz"] + ["q_w", "q_x", "q_y", "q_z"]
            + [f"v_{c}" for c in "xyz"] + [f"a_{c}" for c in "xyz"]
            + [f"omega_{c}" for c in "xyz"] + [f"psi_{c}" for c in "xyz"]
            + [f"ref_p_{c}" for c in "xyz"] + ["ref_q_w", "ref_q_x", "ref_q_y", "ref_q_z"]
            + [f"e_p_{c}" for c in "xyz"] + [f"e_R_{c}" for c in "xyz"]
            + [f"u_{i}" for i in range(6)]
            + [f"alpha_cmd_{i}" for i in range(n_arms)]
            + [f"omega_cmd_{i}" for i in range(n_rotors)]
            + [f"alpha_{i}" for i in range(n_arms)]
            + ["eta_f", "kappa", "alloc_residual", "regularized",
               "stab_lhs", "stab_rhs", "stab_ok"]
        )
        self._rows: list[list[float]] = []
        #: (time, cause) of the divergence that ended the run, or None.
        self.divergence: tuple[float, str] | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    def append(self, t, state, ref, e_p, e_r, alpha_cmd, omega_cmd, alpha_act,
               omega_act, u, eta_f, kappa, residual, regularized,
               stab_lhs, stab_rhs, stab_ok) -> None:
        row = (
            [t]
            + list(state.p) + list(_quat_wxyz(state.r_wb))
            + list(state.v) + list(state.a)
            + list(state.omega) + list(state.psi)
            + list(ref.p) + list(_quat_wxyz(ref.r_wb))
            + list(e_p) + list(e_r)
            + list(u)
            + list(alpha_cmd) + list(omega_cmd) + list(alpha_act)
            + [eta_f, kappa, residual, float(regularized),
               stab_lhs, stab_rhs, float(stab_ok)]
        )
        self._rows.append([float(x) for x in row])

    def __len__(self) -> int:
        return len(self._rows)

    def array(self) -> np.ndarray:
        return np.array(self._rows) if self._rows else np.zeros((0, len(self.columns)))

    def column(self, name: str) -> np.ndarray:
        return self.array()[:, self.columns.index(name)]

    def block(self, prefix: str, suffixes=("x", "y", "z")) -> np.ndarray:
        arr = self.array()
        idx = [self.columns.index(f"{prefix}_{s}") for s in suffixes]
        return arr[:, idx]

    def to_csv(self, path) -> None:
        line = ",".join(["{:.17g}"] * len(self.columns)) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# simlog schema v{SCHEMA_VERSION} diverged={int(self.diverged)}\n")
            fh.write(",".join(self.columns) + "\n")
            fh.writelines(line.format(*row) for row in self._rows)

    @staticmethod
    def read_csv(path) -> tuple[list[str], np.ndarray, bool]:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            diverged = header.endswith("diverged=1")
            columns = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        return columns, data, diverged


@dataclass
class AxisStats:
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float

    def __post_init__(self):
        if not (self.q1 <= self.median <= self.q3):
            raise ValueError("quartile ordering violated")


def axis_stats(values: np.ndarray) -> AxisStats:
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    return AxisStats(median=float(med), q1=float(q1), q3=float(q3),
                     whisker_lo=float(q1 - 1.5 * iqr), whisker_hi=float(q3 + 1.5 * iqr))


def tracking_stats(log: SimLog) -> dict:
    """Per-axis boxplot statistics of position [m] and attitude [rad] errors."""
    if len(log) == 0:
        raise ValueError("empty log")
    out: dict[str, AxisStats] = {}
    for axis in "xyz":
        out[f"pos_{axis}"] = axis_stats(log.column(f"e_p_{axis}"))
        out[f"att_{axis}"] = axis_stats(log.column(f"e_R_{axis}"))
    return out


def stats_to_dict(stats: dict) -> dict:
    return {
        key: {"median": s.median, "q1": s.q1, "q3": s.q3,
              "whisker_lo": s.whisker_lo, "whisker_hi": s.whisker_hi}
        for key, s in stats.items()
    }
