"""Fixed-schema simulation log, tracking statistics, and CSV export."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 1


def _quat_wxyz(r: np.ndarray) -> tuple[float, float, float, float]:
    """Rotation matrix to quaternion (w, x, y, z), w >= 0, in plain floats.

    The trace adds left to right, as np.trace does, and math.sqrt rounds as
    np.sqrt, so the result matches the numpy form bit for bit.
    """
    m = r.tolist()
    diag = (m[0][0], m[1][1], m[2][2])
    t = diag[0] + diag[1] + diag[2]
    if t > 0.0:
        w = 0.5 * math.sqrt(1.0 + t)
        q = (w, (m[2][1] - m[1][2]) / (4.0 * w), (m[0][2] - m[2][0]) / (4.0 * w),
             (m[1][0] - m[0][1]) / (4.0 * w))
    else:
        k = diag.index(max(diag))       # the first largest, as np.argmax
        i, j = (k + 1) % 3, (k + 2) % 3
        s = math.sqrt(max(1.0 + m[k][k] - m[i][i] - m[j][j], 1e-16))
        q = [(m[j][i] - m[i][j]) / (2.0 * s), 0.0, 0.0, 0.0]
        q[1 + k] = 0.5 * s
        q[1 + i] = (m[i][k] + m[k][i]) / (2.0 * s)
        q[1 + j] = (m[j][k] + m[k][j]) / (2.0 * s)
    return tuple(q) if q[0] >= 0.0 else tuple(-c for c in q)


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
        self._rows.append([
            float(t), *state.p.tolist(), *_quat_wxyz(state.r_wb),
            *state.v.tolist(), *state.a.tolist(), *state.omega.tolist(), *state.psi.tolist(),
            *ref.p.tolist(), *_quat_wxyz(ref.r_wb), *e_p.tolist(), *e_r.tolist(), *u.tolist(),
            *alpha_cmd.tolist(), *omega_cmd.tolist(), *alpha_act.tolist(),
            float(eta_f), float(kappa), float(residual), float(regularized),
            float(stab_lhs), float(stab_rhs), float(stab_ok),
        ])

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
