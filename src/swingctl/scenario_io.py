"""File formats, metrics, and artifact emission.

All JSON artifacts carry format_version and kind; all CSV artifacts start
with a single "# {json}" line echoing the effective configuration, then a
fixed header row. Floats are written with repr (shortest round-trip), so
load(save(x)) == x exactly and artifacts are byte-stable for a given seed.
A trajectory CSV keeps every Trajectory column, edge angles and the 0/1
dead-zone mask included, so it certifies exactly as the run that wrote it.
Schema problems raise SchemaError naming the offending field (and the line
for malformed JSON).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import MonotoneParams, PolicyError, PolicyParams, SafetySpec
from .dynamics import Disturbance, Scenario, Trajectory
from .netgraph import GraphError, PowerNetwork
from .training import TrainConfig
from .verify import run_checks

FORMAT_VERSION = 1


class SchemaError(ValueError):
    """A file failed validation; the message names the field or line."""


def bundled_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    p = Path(str(resources.files("swingctl") / "data" / name))
    if not p.exists():
        raise SchemaError(f"no bundled data file named {name!r}")
    return p


def _read_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"file not found: {path}")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}:{e.lineno}: {e.msg}") from e
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return obj


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _need(obj: dict, field: str, kinds, where: str):
    """obj[field], checked against `kinds`; JSON true/false is never a number."""
    if field not in obj:
        raise SchemaError(f"{where}: missing field {field!r}")
    val = obj[field]
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise SchemaError(f"{where}: field {field!r} has wrong type {type(val).__name__}")
    return val


def _opt(obj: dict, field: str, kinds, where: str, default):
    """Like _need, but an absent field reads as `default`."""
    return _need(obj, field, kinds, where) if field in obj else default


def _reject_unknown(obj: dict, known: tuple, where: str) -> None:
    """SchemaError naming a key not in `known`; a misspelt one would read as absent."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise SchemaError(f"{where}: unknown field {unknown[0]!r}")


def _check_kind(obj: dict, kind: str, where: str) -> None:
    got = _need(obj, "kind", str, where)
    if got != kind:
        raise SchemaError(f"{where}: kind is {got!r}, expected {kind!r}")
    ver = _need(obj, "format_version", int, where)
    if ver != FORMAT_VERSION:
        raise SchemaError(f"{where}: unsupported format_version {ver}")


def config_hash(cfg_dict: dict) -> str:
    """sha256 of the canonical (sorted, compact) JSON form."""
    blob = json.dumps(cfg_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ------------------------------------------------------------------ network


def load_network(path) -> PowerNetwork:
    """Network file: buses as {id, M, D, p_nom}, edges as {from, to, b}.

    Bus ids are 1-based (arbitrary but unique); they are remapped to dense
    0-based indices in file order. Frequencies elsewhere are deviations in
    Hz, injections and susceptances per-unit, D in p.u./Hz.
    """
    obj = _read_json(path)
    where = str(path)
    _check_kind(obj, "network", where)
    buses = _need(obj, "buses", list, where)
    raw_edges = _need(obj, "edges", list, where)
    ids, inertia, damping, p_nom = [], [], [], []
    for k, b in enumerate(buses):
        ctx = f"{where}: buses[{k}]"
        if not isinstance(b, dict):
            raise SchemaError(f"{ctx} must be an object")
        ids.append(_need(b, "id", int, ctx))
        inertia.append(float(_need(b, "M", (int, float), ctx)))
        damping.append(float(_need(b, "D", (int, float), ctx)))
        p_nom.append(float(_need(b, "p_nom", (int, float), ctx)))
    if len(set(ids)) != len(ids):
        raise SchemaError(f"{where}: duplicate bus id in 'buses'")
    index = {bid: k for k, bid in enumerate(ids)}
    edges, susceptance = [], []
    for k, e in enumerate(raw_edges):
        ctx = f"{where}: edges[{k}]"
        if not isinstance(e, dict):
            raise SchemaError(f"{ctx} must be an object")
        a, b = _need(e, "from", int, ctx), _need(e, "to", int, ctx)
        for bid in (a, b):
            if bid not in index:
                raise SchemaError(f"{ctx}: unknown bus id {bid}")
        edges.append((index[a], index[b]))
        susceptance.append(float(_need(e, "b", (int, float), ctx)))
    try:
        return PowerNetwork(inertia=inertia, damping=damping, p_nom=p_nom, edges=edges, susceptance=susceptance,
                            bus_ids=tuple(ids))
    except GraphError as e:
        raise SchemaError(f"{where}: {e}") from e


# ----------------------------------------------------------------- scenario


def load_scenario(path, net: PowerNetwork) -> Scenario:
    """Scenario file: {T, dt, disturbances:[{bus, dp, t0, t1}], init, noise}.

    Disturbance buses are written as network-file bus ids and remapped
    through the network's id table; an id not in it is a SchemaError, and
    so is a key not listed here, at the top level, in init or in a
    disturbance.
    """
    obj = _read_json(path)
    where = str(path)
    _check_kind(obj, "scenario", where)
    _reject_unknown(obj, ("format_version", "kind", "T", "dt", "disturbances", "init", "noise", "label"), where)
    horizon = _need(obj, "T", (int, float), where)
    dt = _need(obj, "dt", (int, float), where)
    init = _opt(obj, "init", dict, where, {})
    _reject_unknown(init, ("omega_range", "p_frac"), f"{where}: init")
    omega_range = _opt(init, "omega_range", (int, float), f"{where}: init", 0.1)
    p_frac = _opt(init, "p_frac", (int, float), f"{where}: init", 0.1)
    noise = _opt(obj, "noise", (int, float), where, 0.0)
    label = _opt(obj, "label", str, where, "")
    raw_dist = _opt(obj, "disturbances", list, where, [])
    index = {int(b): k for k, b in enumerate(net.bus_ids)}
    dist = []
    for k, d in enumerate(raw_dist):
        ctx = f"{where}: disturbances[{k}]"
        if not isinstance(d, dict):
            raise SchemaError(f"{ctx} must be an object")
        _reject_unknown(d, ("bus", "dp", "t0", "t1"), ctx)
        bid = _need(d, "bus", int, ctx)
        if bid not in index:
            raise SchemaError(f"{ctx}: bus id {bid} not in the network")
        dp, t0, t1 = (float(_need(d, name, (int, float), ctx)) for name in ("dp", "t0", "t1"))
        dist.append(Disturbance(bus=index[bid], dp=dp, t0=t0, t1=t1))
    try:
        return Scenario(horizon=float(horizon), dt=float(dt), disturbances=tuple(dist),
                        init_omega_range=float(omega_range), init_p_frac=float(p_frac), noise_bound=float(noise),
                        label=label)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e


def load_safety_spec(path) -> SafetySpec:
    obj = _read_json(path)
    where = str(path)
    _check_kind(obj, "safety_spec", where)
    bounds = []
    for name in ("omega_min", "omega_max"):
        val = _need(obj, name, (int, float, list), where)
        items = val if isinstance(val, list) else [val]
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in items):
            raise SchemaError(f"{where}: field {name!r} must be a number or a list of numbers")
        bounds.append(np.asarray(items, dtype=float))
    try:
        return SafetySpec(*bounds)
    except PolicyError as e:
        raise SchemaError(f"{where}: {e}") from None


# --------------------------------------------------------------- checkpoint


# Checkpoint `policy` tag -> params class.
POLICY_CLASSES = {cls.kind: cls for cls in (PolicyParams, MonotoneParams)}


def save_checkpoint(path, params, cfg: TrainConfig) -> None:
    """Serialize trained parameters plus the config that produced them."""
    cfg_dict = cfg.to_dict(params.kind)
    obj = {
        "format_version": FORMAT_VERSION,
        "kind": "checkpoint",
        "policy": params.kind,
        "m_hidden": params.m_hidden,
        "raw": {k: np.asarray(v).tolist() for k, v in params.raw.items()},
        "config": cfg_dict,
        "config_hash": config_hash(cfg_dict),
    }
    for name in params.fixed:
        obj[name] = np.asarray(getattr(params, name)).tolist()
    _write_json(path, obj)


def load_checkpoint(path):
    """Returns (params, meta). params is the policy-specific parameter object."""
    obj = _read_json(path)
    where = str(path)
    _check_kind(obj, "checkpoint", where)
    policy = _need(obj, "policy", str, where)
    m_hidden = _need(obj, "m_hidden", int, where)
    raw_in = _need(obj, "raw", dict, where)
    cls = POLICY_CLASSES.get(policy)
    if cls is None:
        raise SchemaError(f"{where}: unknown policy kind {policy!r}")
    missing = [k for k in cls.keys if k not in raw_in]
    if missing:
        raise SchemaError(f"{where}: raw is missing key {missing[0]!r}")
    raw = {}
    for k in cls.keys:
        try:
            raw[k] = np.asarray(raw_in[k], dtype=float)
        except (TypeError, ValueError):
            raise SchemaError(f"{where}: raw[{k!r}] is not a numeric array") from None
    for k, shape in cls.shapes(1, m_hidden).items():
        if raw[k].ndim != len(shape):
            raise SchemaError(f"{where}: raw[{k!r}] has {raw[k].ndim} dimensions, expected {len(shape)}")
    n = raw[cls.keys[0]].shape[0]
    shapes = cls.shapes(n, m_hidden)
    for k in cls.keys:
        if raw[k].shape != shapes[k]:
            raise SchemaError(
                f"{where}: raw[{k!r}] has shape {raw[k].shape}, expected {shapes[k]}"
            )
    fixed = {name: np.asarray(_need(obj, name, list, where), dtype=float) for name in cls.fixed}
    for name, arr in fixed.items():
        if arr.shape != (n,):
            raise SchemaError(f"{where}: {name} has shape {arr.shape}, expected ({n},) for {n} buses")
    meta = {k: obj.get(k) for k in ("config", "config_hash")}
    try:
        return cls(raw=raw, m_hidden=m_hidden, **fixed), meta
    except PolicyError as e:
        raise SchemaError(f"{where}: {e}") from None


# ----------------------------------------------------------- CSV tables


def _write_table(path, echo: dict, header: str, rows) -> None:
    """Echo line, header, then each of the row strings, streamed."""
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(echo, sort_keys=True, separators=(", ", ": ")) + "\n" + header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _read_table(path, schema: str, header_of) -> tuple[dict, list[str], np.ndarray]:
    """Read an echo+header+rows CSV: (echo dict, header columns, float rows).

    `header_of(columns)` is the header the schema expects given the columns
    found. Any malformed part raises SchemaError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"file not found: {path}")
    # An upper bound on the rows lets loadtxt allocate the array once instead
    # of growing it by reallocation, which can copy it on a fragmented heap.
    with open(path, "rb") as raw:
        lines = sum(block.count(b"\n") for block in iter(lambda: raw.read(1 << 20), b""))
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise SchemaError(f"{path}:1: missing config echo line")
        try:
            echo = json.loads(first[2:])
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}:1: bad echo json: {e.msg}") from e
        if not isinstance(echo, dict):
            raise SchemaError(f"{path}:1: the echo line must be a JSON object")
        cols = fh.readline().rstrip("\n").split(",")
        if ",".join(cols) != header_of(cols):
            raise SchemaError(f"{path}:2: header does not match the {schema} schema")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body is zero rows
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=lines - 1)
        except ValueError as e:
            raise SchemaError(f"{path}: non-numeric or ragged row: {e}") from e
    if data.shape[0] == 0:
        data = data.reshape(0, len(cols))
    if data.shape[1] != len(cols):
        raise SchemaError(f"{path}: row width {data.shape[1]} != header width {len(cols)}")
    return echo, cols, data


def _csv_header(n: int, m: int) -> str:
    cols = ["t"]
    cols += [f"omega_{i + 1}" for i in range(n)]
    cols += [f"u_{i + 1}" for i in range(n)]
    cols += [f"b_{i + 1}" for i in range(n)]
    cols += ["V", "loss_freq", "loss_ctrl"]
    cols += [f"lam_{k + 1}" for k in range(m)]
    cols += [f"active_{i + 1}" for i in range(n)]
    return ",".join(cols)


def _trajectory_sizes(cols: list[str]) -> tuple[int, int]:
    """(buses, edges) counted from a header; at least one bus."""
    n = sum(c.startswith("omega_") for c in cols)
    return max(n, 1), sum(c.startswith("lam_") for c in cols)


def save_trajectory(path, traj: Trajectory, echo: dict | None = None) -> None:
    """Fixed-schema CSV: config echo line, header, then one row per step.

    The echo line holds dt, gamma, the run facts in `traj.meta`, then `echo`.
    Floats are written with repr and the dead-zone mask as 0/1.
    """
    base = {"dt": traj.dt, "gamma": traj.gamma, **traj.meta, **(echo or {})}
    floats = np.column_stack(
        (traj.t, traj.omega, traj.u, traj.budgets, traj.v_energy, traj.loss_freq, traj.loss_ctrl, traj.lam)
    )
    rows = (
        ",".join(map(repr, row.tolist())) + "," + ",".join(map(str, mask.tolist()))
        for row, mask in zip(floats, traj.active.astype(int))
    )
    _write_table(path, base, _csv_header(traj.n_bus, traj.lam.shape[1]), rows)


def load_trajectory(path) -> Trajectory:
    """Rebuild a trajectory from its CSV; every column loads back bitwise."""
    meta, cols, data = _read_table(path, "trajectory", lambda cols: _csv_header(*_trajectory_sizes(cols)))
    if data.shape[0] == 0:
        raise SchemaError(f"{path}: need echo, header, and at least one row")
    n, m = _trajectory_sizes(cols)
    mask = data[:, 4 + 3 * n + m :]
    if not np.isin(mask, (0.0, 1.0)).all():
        raise SchemaError(f"{path}: active columns must hold 0 or 1")
    return Trajectory(
        t=data[:, 0],
        omega=data[:, 1 : 1 + n],
        u=data[:, 1 + n : 1 + 2 * n],
        budgets=data[:, 1 + 2 * n : 1 + 3 * n],
        v_energy=data[:, 1 + 3 * n],
        loss_freq=data[:, 2 + 3 * n],
        loss_ctrl=data[:, 3 + 3 * n],
        lam=data[:, 4 + 3 * n : 4 + 3 * n + m],
        active=mask == 1.0,
        dt=float(_need(meta, "dt", (int, float), f"{path}:1")),
        gamma=float(_need(meta, "gamma", (int, float), f"{path}:1")),
        meta=meta,
    )


CURVE_HEADER = "episode,loss,loss_freq,loss_ctrl,loss_lip"


def save_curve(path, curve: np.ndarray, echo: dict | None = None) -> None:
    rows = (repr(int(row[0])) + "," + ",".join(map(repr, row[1:].tolist())) for row in np.atleast_2d(curve))
    _write_table(path, echo or {}, CURVE_HEADER, rows)


def load_curve(path) -> np.ndarray:
    """The curve rows; shape (0, 5) for the curve of a zero-episode run."""
    return _read_table(path, "learning-curve", lambda cols: CURVE_HEADER)[2]


def save_report(path, report) -> None:
    _write_json(path, {"format_version": FORMAT_VERSION, "kind": "verdicts", **report.to_dict()})


# ------------------------------------------------------------------ metrics


SETTLE_TOL = 0.01  # Hz: settle time and the convergence proxy of a summary


@dataclass(frozen=True)
class RunSummary:
    """Evaluation metrics for one controller on one scenario.

    cost averages the running loss over the whole recorded horizon;
    cost_train_window restricts to the (shorter) training window, since the
    evaluation horizon choice changes the number. nadir is the signed extreme
    frequency deviation per bus; settle_time is the first time the deviation
    inf-norm stays below SETTLE_TOL (nan if it never does).
    """

    label: str
    cost: float
    cost_train_window: float
    nadir: np.ndarray
    settle_time: float
    safety_ok: bool
    stability_ok: bool

    def __post_init__(self):
        if self.cost < 0 or self.cost_train_window < 0:
            raise ValueError("cost must be nonnegative")

    def worst_nadir(self) -> float:
        return float(self.nadir[np.argmax(np.abs(self.nadir))])


def _settle_time(traj: Trajectory, omega_sync: float) -> float:
    dev = np.abs(traj.omega - omega_sync).max(axis=1)
    above = np.flatnonzero(dev >= SETTLE_TOL)
    if above.size == 0:
        return 0.0
    k = above[-1] + 1
    if k >= traj.t.shape[0]:
        return float("nan")
    return float(traj.t[k])


def summarize(
    trajs,
    spec,
    eq,
    label: str = "",
    train_window: float | None = None,
    beta: float = 1.0,
) -> RunSummary:
    """Metrics over one trajectory or a batch sharing the scenario.

    Costs are batch means; nadir is the worst signed excursion per bus over
    the batch; settle_time is the batch worst case. The safety verdict is
    frequency invariance; the stability verdict is Lyapunov descent plus the
    finite-horizon convergence proxy at SETTLE_TOL.
    """
    if isinstance(trajs, Trajectory):
        trajs = [trajs]
    if not trajs:
        raise ValueError("need at least one trajectory")
    costs, costs_w, settles = [], [], []
    nadir = np.zeros(trajs[0].n_bus)
    safety_ok = stability_ok = True
    for traj in trajs:
        costs.append(traj.cost())
        costs_w.append(traj.cost(train_window))
        settles.append(_settle_time(traj, eq.omega_sync))
        dev = traj.omega - eq.omega_sync
        ext = dev[np.argmax(np.abs(dev), axis=0), np.arange(dev.shape[1])]
        pick = np.abs(ext) > np.abs(nadir)
        nadir[pick] = ext[pick]
        report = run_checks(traj, spec, eq, beta=beta, tol=SETTLE_TOL)
        safety_ok &= report["frequency_invariance"].passed
        stability_ok &= report["lyapunov_descent"].passed and report["convergence"].passed
    settle = float("nan") if any(np.isnan(settles)) else max(settles)
    return RunSummary(
        label=label,
        cost=float(np.mean(costs)),
        cost_train_window=float(np.mean(costs_w)),
        nadir=nadir,
        settle_time=settle,
        safety_ok=bool(safety_ok),
        stability_ok=bool(stability_ok),
    )


COMPARISON_HEADER = "method,stability,safety,cost,cost_train_window,settle_time_s,worst_nadir_hz"


def save_comparison(path, summaries, echo: dict | None = None) -> None:
    rows = (
        ",".join([s.label, "pass" if s.stability_ok else "fail", "pass" if s.safety_ok else "fail",
                  *(repr(float(x)) for x in (s.cost, s.cost_train_window, s.settle_time)), repr(s.worst_nadir())])
        for s in summaries
    )
    _write_table(path, echo or {}, COMPARISON_HEADER, rows)
