"""Benchmark scenarios, frame calibration and reproducible data emission.

This module is the one that knows the scenarios.  A scenario is a runner,
its ``SCENARIOS`` entry, its parameter family in ``scenario_params`` (for
an overlap scenario, its record) and a result that carries its ``config``
echo (``_echo``), ``report()``, the dict its JSON report holds, and
``columns()``, the CSV header and one block per (time grid, integer keys,
float columns), or None for no CSV.  The writer (``csv_text``,
``json_report``, ``write_outputs``) reads nothing else.  A runner's
parameters besides ``overrides`` and the regime ``thresholds`` are the
options the scenario takes (``scenario_options``), which ``sweep`` and the
command line check by name; an option that is not a ``SchemeParams`` field
is one of them, set by a flag and echoed in ``config`` beside ``params``.
``scenario_params`` is the one source of the parameter sets a scenario
runs, overrides applied, for its runner, ``--strict`` and ``check-regime``;
a runner judges its sets (``regimes.check``) before it builds a protocol.

The two overlap scenarios, ``FIG3A`` and ``FIG3B``, probe
X = |<n,-|V(t)|-,n>| and Y = Re of the frame-removed amplitude against the
pure-Kerr reference cos(kappa n^2 t), kappa = N g^4/(4 delta1^2 theta).
Each is described once, by an ``OverlapScenario`` record (parameter family,
(N, n) branches, n = 0 controls, ideal-mode oracle) that the runner and
``scenario_params`` read.  A new one is a parameter family, its record in
``OVERLAP_SCENARIOS`` and the ``SCENARIOS`` entry
``functools.partial(_run_overlap_scenario, record)``.  They truncate at
``N_MAX`` photons, the pulse check's range: no branch depends on it.

Every scenario, the two cross-Kerr ones included, simulates one atom
whatever N is and lifts it to N atoms (``amplitude_table``), while kappa,
the time grid and the frame rates keep their N-atom values; no scenario
builds a two-level space of more than one atom.  A run builds one protocol
per distinct one-atom parameter set: fig3b's atom counts share one, while
fig3a's delta1 and theta change with N, so it builds one per N.  The
cross-Kerr scenarios run it on a two-mode space with one photon per mode,
in the (n_a, n_b) sectors (``run_cross_kerr``).

``_frame_removed``, the one frame formula, multiplies the raw amplitude by
exp(+i r_lin n T_elapsed(t)) (killing the photon-linear phase accrued over
the whole protocol, pulse and rotation windows included) and by
exp(-i N theta t / 2) (the Raman segment's global atomic reference phase).
The removal rate r_lin is calibrated (``_best_rate``) by scanning a bracket
around its analytic value N g^2/(2 delta1) and minimizing the maximum
deviation from the reference.  By default each branch is calibrated against
its own reference curve (``per_branch``), which absorbs the branch's
intrinsic dressed-frequency shift; fig3b's ``n1_shared`` calibrates once on
the n = 1 branch and reuses that rate everywhere.  fig3a has one nonzero
photon number per N, its own shared-rate probe, so it takes no choice.  The
fitted dominant frequencies reported per branch always use the shared n = 1
rate so the n^2 scaling law is measured in one common frame, and a branch
at that rate takes Y from the same frame-removed series; the report keeps
each N's shared rate as ``r_lin_shared``.

A sweep runs a scenario once per parameter value.  With ``jobs > 1`` each
of k processes forked from this one takes every k-th point and, with an
output directory, also writes those points' CSV/JSON, so computation and
emission both run in parallel and only file paths or error text come back.

Everything here is deterministic: fixed grids, fixed iteration counts, no
timestamps in emitted files; identical configs give byte-identical output,
whichever process writes them.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import models, regimes
from .errors import (KerrcavError, ValidationError, WorkerError,
                     require_integer)
from .hilbert import basis_state, build_space
from .models import SchemeParams
from .pulses import VProtocol, calibrate_pulse_phase

DEFAULT_GRID_POINTS = 512
N_MAX = 4                   # overlap photon truncation: the pulse check's range
RATE_BRACKET = 0.1          # calibration bracket, relative to N g^2/(2 delta1)
RATE_COARSE_POINTS = 161
RATE_REFINE_ITERS = 80
RATE_BOUND_STRIDE = 16      # the coarse scan's bound takes every 16th point
RATE_BATCH_LIVE = 8         # refine in batches once this few points are live
RATE_BATCH_DEPTH = 3        # ternary steps per batch: 2 + 4 + 8 probes

FRAME_CALIBRATIONS = ("per_branch", "n1_shared")


def fig3b_params(n_atoms: int = 1, g: float = 1e8) -> SchemeParams:
    return SchemeParams(
        g=g, delta1=10 * g, theta=g, omega=100 * g, n_atoms=n_atoms)


def fig3a_params(n_atoms: int = 1, g: float = 1e8) -> SchemeParams:
    return SchemeParams(
        g=g, delta1=10 * math.sqrt(n_atoms) * g,
        theta=g * n_atoms ** (1 / 3) / 5, omega=100 * g, n_atoms=n_atoms)


def cross_params(variant: str = "polarization", g: float = 1e8) -> SchemeParams:
    base = dict(g=g, delta1=10 * g, theta=g, omega=100 * g, n_atoms=1, g_b=g)
    if variant == "polarization":
        return SchemeParams(**base, delta1_b=10 * g)
    return SchemeParams(**base, mode_split=0.0)


# the settable parameters; the derived mu and kappa are not among them
PARAM_NAMES = frozenset(f.name for f in dataclasses.fields(SchemeParams)
                        if f.init)


def apply_overrides(p: SchemeParams, overrides: dict | None) -> SchemeParams:
    """``p`` with ``overrides`` replaced; overrides that name ``lam`` or
    ``delta2`` but not ``theta`` derive theta from the Raman pair."""
    if not overrides:
        return p
    unknown = set(overrides) - PARAM_NAMES
    if unknown:
        raise ValidationError(f"unknown parameter override(s): {sorted(unknown)}")
    if {"lam", "delta2"} & set(overrides) and "theta" not in overrides:
        overrides = {**overrides, "theta": None}
    return replace(p, **overrides)


# ---------------------------------------------------------------------------
# frame-rate calibration
# ---------------------------------------------------------------------------

def _frame_removed(amps, elapsed, n, theta_phase, r):
    """Branch n's amplitudes without the photon-linear phase r n T_elapsed
    and the atomic ``theta_phase``; ``r`` may be a column of rates."""
    return amps * np.exp(1j * (r * n * elapsed - theta_phase))


def _best_rate(amps, times, elapsed, n, theta_rate, reference, r0):
    """Deterministic bracket scan + ternary refinement of the removal rate.

    Because Y compares through an even cosine, the objective can have a
    mirror minimum at the frequency-reflected rate (total phase slope
    flipped in sign); when minima are nearly degenerate the one closest to
    the analytic rate r0 is chosen.

    The objective D(r) = max_k |Y_k(r) - reference_k| is evaluated cheaply
    but to the same bits as on the whole grid: every |Y_k(r) - reference_k|
    is taken through ``_frame_removed``, so it is bit-equal to the
    whole-grid value, and a maximum over a subset of points is an exact
    lower bound on D(r).

    * Coarse scan.  One batch over every RATE_BOUND_STRIDE-th time point
      (counted from the last) gives each scan rate a bound B_j <= D(r_j).
      D is taken in full at the rate of least bound, giving D*, and then
      at every rate with B_j <= D* + max(0.01, 0.5 D*).  As min D <= D*
      and rounding is monotone, the slack cut min D + max(0.01, 0.5 min D)
      is at most that value, so every rate under the cut, the minimum
      included, has been taken in full; every other rate lies above it.
    * Refinement.  Each ternary step scores its two probes on the live
      points only, kept as compacted arrays: point k stays live while
      |Y_k - reference_k| can still reach the maximum somewhere in the
      bracket, which bounds its change by |a_k s_k| per unit rate
      (s_k = n T_elapsed,k) plus a rounding margin that grows with the
      phase.  Once at most RATE_BATCH_LIVE points are live, pruning stops
      and the probes of the next RATE_BATCH_DEPTH steps, for every outcome,
      are scored in one batch and walked in order.  Once a step leaves lo
      and hi where they were, every later step would repeat it, so the
      refinement ends there.
    """
    whole = (amps, elapsed, theta_rate * times, reference)

    def deviations(rates, a, el, ph, ref):
        """|Y_k(r) - reference_k| for a column of rates, one row each."""
        return np.abs(_frame_removed(a, el, n, ph, rates).real - ref)

    def objective(r):
        return float(np.maximum.reduce(deviations(r, *whole)))

    if n == 0 or r0 == 0:
        return r0, objective(r0), False
    half = RATE_BRACKET * abs(r0)
    grid = np.linspace(r0 - half, r0 + half, RATE_COARSE_POINTS)
    subset = tuple(np.ascontiguousarray(v[::-RATE_BOUND_STRIDE]) for v in whole)
    bound = np.maximum.reduce(deviations(grid[:, None], *subset), axis=1)
    least = objective(grid[np.argmin(bound)])
    devs = np.full(RATE_COARSE_POINTS, np.inf)
    for j in np.flatnonzero(bound <= least + max(0.01, 0.5 * least)):
        devs[j] = objective(grid[j])
    best = devs.min()
    slack = best + max(0.01, 0.5 * best)
    candidates = np.flatnonzero(devs <= slack)
    i = int(candidates[np.argmin(np.abs(grid[candidates] - r0))])
    flagged = i in (0, len(grid) - 1)
    lo = float(grid[max(0, i - 1)])
    hi = float(grid[min(len(grid) - 1, i + 1)])

    s = n * elapsed
    ulps = 16 * np.finfo(float).eps * np.abs(amps)
    # the live points, compacted, with the Lipschitz bound |a_k s_k| and a
    # rounding bound on |Y_k - reference_k| that scales with the phase
    live = (*whole, np.abs(amps) * np.abs(s), 1e-12 + ulps * (
        (abs(r0) + half) * np.abs(s) + abs(theta_rate) * np.abs(times) + 1))
    steps, fixed = 0, False
    while steps < RATE_REFINE_ITERS and not fixed:
        depth = 1 if len(live[0]) > RATE_BATCH_LIVE else RATE_BATCH_DEPTH
        # the brackets of the next `depth` steps for every outcome, heap
        # ordered: node k's children are 2k + 1 (its left probe won) and
        # 2k + 2, and its probes are probes[2k] and probes[2k + 1]
        tree, probes = [(lo, hi)], []
        for k in range(2**depth - 1):
            a, b = tree[k]
            m1, m2 = a + (b - a) / 3, b - (b - a) / 3
            tree += [(a, m2), (m1, b)]
            probes += [m1, m2]
        rows = deviations(np.array(probes)[:, None], *live[:4])
        scores = np.maximum.reduce(rows, axis=1)
        node = 0
        for _ in range(min(depth, RATE_REFINE_ITERS - steps)):
            child = 2 * node + (1 if scores[2 * node] <= scores[2 * node + 1]
                                else 2)
            if tree[child] == tree[node]:   # fixed from here on
                fixed = True
                break
            node, steps = child, steps + 1
        lo, hi = tree[node]
        if depth == 1 and node:
            # prune against the winning probe, which lies in the new bracket
            probe, dev = probes[node - 1], rows[node - 1]
            reach = live[4] * max(probe - lo, hi - probe) + live[5]
            keep = dev + reach >= np.maximum.reduce(dev - reach)
            if not keep.all():
                live = tuple(v[keep] for v in live)
    r = 0.5 * (lo + hi)
    return (float(r), float(np.maximum.reduce(deviations(r, *live[:4]))),
            flagged)


# ---------------------------------------------------------------------------
# the one-atom amplitude table
# ---------------------------------------------------------------------------

def amplitude_table(space, runs, mode: str, ideal_oracle: bool):
    """The one-atom amplitudes of a run: (pulse check or None, entries).

    ``runs`` holds one (N-atom parameter set, time grid, kets) entry per
    atom count, and the table one entry for each: V(t)'s clock T_elapsed,
    the one-atom states V(t) sum_n |n,->, the ideal-mode oracle's (or
    None) and ``compose_diagnostics`` at the last Kerr time.  The kets map
    each photon number n (an occupation (n_a, n_b) on a two-mode space) to
    its one-atom |n,->, which the runner builds once and projects on.
    In photon sector n every eliminated-tier generator is a sum of N copies
    of one single-atom 2x2 operator, so V_N(t) = u_n(t)^(x)N: with
    v_n(t) = u_n(t)|n,-> on one atom, the amplitude is A_N = a_1^N,
    a_1 = <n,-|v_n>, and <S++> = N |<n,+|v_n>|^2.  The power multiplies
    a_1's error by N (1e-15 becomes 1e-9 at N = 1e6).

    One ``VProtocol`` on ``space`` is built per distinct one-atom set
    replace(p, n_atoms=1), in order; on a one-mode space the first physical
    one is pulse-checked at once (a two-mode space has no pulse check), and
    an ideal-mode oracle follows each when asked for.  An entry takes one
    ``states`` call, on the sum of its kets: their sectors are disjoint,
    so each n is bit for bit its own evaluation.  Entries that share a
    protocol are not joined into one call, which would round some states
    differently in the last bits.
    """
    protocols: dict = {}    # one-atom parameters -> (protocol, ideal oracle)
    pulse, table = None, []
    for p, times, kets in runs:
        one = replace(p, n_atoms=1)
        if one not in protocols:
            protocol = VProtocol(space, one, mode=mode)
            if mode == "physical" and pulse is None and space.n_modes == 1:
                pulse = calibrate_pulse_phase(protocol)
            protocols[one] = (
                protocol,
                VProtocol(space, one, mode="ideal") if ideal_oracle else None)
        protocol, ideal = protocols[one]
        psi0 = sum(kets.values())
        table.append((
            protocol.elapsed(times), protocol.states(times, psi0),
            ideal.states(times, psi0) if ideal is not None else None,
            protocol.compose_diagnostics(float(times[-1]))))
    return pulse, table


# ---------------------------------------------------------------------------
# scenario results
# ---------------------------------------------------------------------------

@dataclass
class BranchResult:
    n_atoms: int
    n_photons: int
    times: np.ndarray
    amplitudes: np.ndarray
    x: np.ndarray
    y: np.ndarray
    reference: np.ndarray
    abs_error: np.ndarray
    r_lin: float
    r_lin_expected: float
    freq_fit: float                    # measured with the shared n=1 rate
    max_abs_error: float
    rms_error: float
    min_x: float
    max_x: float
    max_plus_population: float
    basis_label: str
    ideal_deviation: float | None = None

    def summary(self) -> dict:
        out = {
            "N": self.n_atoms, "n": self.n_photons,
            "r_lin": self.r_lin, "r_lin_expected": self.r_lin_expected,
            "freq_fit": self.freq_fit,
            "max_abs_error": self.max_abs_error, "rms_error": self.rms_error,
            "min_X": self.min_x, "max_X": self.max_x,
            "max_plus_population": self.max_plus_population,
            "basis_label": self.basis_label,
        }
        if self.ideal_deviation is not None:
            out["ideal_deviation"] = self.ideal_deviation
        return out


@dataclass
class ScenarioResult:
    config: dict
    branches: list
    regime: dict                       # N=<N> -> regimes.check report
    calibration: dict
    diagnostics: dict

    def branch(self, n_atoms: int, n_photons: int) -> BranchResult:
        for b in self.branches:
            if b.n_atoms == n_atoms and b.n_photons == n_photons:
                return b
        raise KeyError(f"no branch (N={n_atoms}, n={n_photons})")

    def report(self) -> dict:
        return {"config": self.config,
                "regime": self.regime,
                "calibration": self.calibration,
                "diagnostics": self.diagnostics,
                "branches": [b.summary() for b in self.branches],
                "notes": []}

    def columns(self):
        """One block per branch, in (N, n) order."""
        return (("t_seconds", "N", "n", "X", "Y", "reference", "abs_error"),
                [(b.times, (b.n_atoms, b.n_photons),
                  (b.x, b.y, b.reference, b.abs_error))
                 for b in sorted(self.branches,
                                 key=lambda b: (b.n_atoms, b.n_photons))])


def fitted_frequency(times, z) -> float:
    """Dominant angular frequency from the unwrapped phase slope of z(t)."""
    phase = np.unwrap(np.angle(np.asarray(z)))
    slope = np.polyfit(np.asarray(times, dtype=float), phase, 1)[0]
    return abs(float(slope))


def _echo(name: str, p: SchemeParams, overrides: dict | None,
          thresholds: dict | None, **options) -> dict:
    """A run's config echo: the scenario name, its ``options``, the
    parameter set and the overrides, and the thresholds only when some are
    set, so that a run without them keeps its report and file name."""
    return {"scenario": name, **options, "params": dataclasses.asdict(p),
            "overrides": dict(overrides or {}),
            **({"thresholds": dict(thresholds)} if thresholds else {})}


@dataclass(frozen=True)
class OverlapScenario:
    """One overlap scenario, described once (see the module docstring)."""
    name: str
    params_for_n: Callable[[int], SchemeParams]   # N -> parameter set
    branches: tuple                                # (N, n) pairs
    controls: bool = False         # add an n = 0 branch for every N
    ideal_oracle: bool = False     # score X against the ideal-mode protocol

    def __post_init__(self):     # ``replace`` re-runs the branch checks
        for b in self.branches:
            if not isinstance(b, (tuple, list)) or len(b) != 2:
                raise ValidationError(
                    f"{self.name} branch {b!r} is not an (N, n) pair")
            require_integer(b[0], 1, f"{self.name} branch n_atoms")
            require_integer(b[1], 0, f"{self.name} branch photon number n")
        distinct = {tuple(b) for b in self.branches}
        if not distinct or len(distinct) < len(self.branches):
            raise ValidationError(f"{self.name} needs distinct (N, n) "
                                  f"branches, got {list(self.branches)}")

    def select_branches(self, overrides: dict | None) -> tuple:
        """The branches an ``n_atoms`` override selects, never re-labelling
        the others; all of them without one."""
        if not overrides or "n_atoms" not in overrides:
            return self.branches
        N = overrides["n_atoms"]
        selected = tuple(b for b in self.branches if b[0] == N)
        if not selected:
            raise ValidationError(
                f"n_atoms override {N!r} matches no {self.name} branch; "
                f"available N: {sorted({M for M, _ in self.branches})}")
        return selected

    def param_sets(self, overrides: dict | None) -> list:
        """One parameter set per atom count run, in increasing N; the
        scenario has one cavity mode, so a mode-b override is an error."""
        sets = [apply_overrides(self.params_for_n(N), overrides) for N in
                sorted({N for N, _ in self.select_branches(overrides)})]
        mode_b = sorted({"g_b", "delta1_b", "mode_split"} & set(overrides or {}))
        if mode_b:
            raise ValidationError(
                f"{self.name} runs one cavity mode and takes no mode-b "
                f"parameter {mode_b[0]!r}")
        return sets


FIG3B = OverlapScenario("fig3b", fig3b_params,
                        ((1, 1), (1, 2), (2, 1), (2, 2)))
FIG3A = OverlapScenario("fig3a", fig3a_params, ((1, 2), (2, 2)),
                        controls=True, ideal_oracle=True)
OVERLAP_SCENARIOS = {s.name: s for s in (FIG3A, FIG3B)}


def _run_overlap_scenario(scenario: OverlapScenario,
                          overrides: dict | None = None,
                          grid_points: int = DEFAULT_GRID_POINTS,
                          mode: str = "physical",
                          frame_calibration: str = "per_branch",
                          thresholds: dict | None = None) -> ScenarioResult:
    if frame_calibration not in FRAME_CALIBRATIONS:
        raise ValidationError(
            f"unknown frame_calibration {frame_calibration!r}")
    require_integer(grid_points, 2, "grid points")
    branch_list = scenario.select_branches(overrides)
    param_sets = scenario.param_sets(overrides)
    regime = regime_reports(param_sets, thresholds)   # before any protocol
    branches: list[BranchResult] = []
    calibration_block: dict = {"frame_calibration": frame_calibration,
                               "r_lin": {}, "r_lin_shared": {}}
    diagnostics: dict = {"unitarity_defect": 0.0}

    space = build_space(n_max=N_MAX, n_atoms=1, levels=2)
    # the one-atom |n,+-> of every photon number, each built once
    ket = functools.cache(lambda n, level: basis_state(space, n, level))
    runs = []
    for p in param_sets:
        ns = [n for (N, n) in branch_list if N == p.n_atoms]
        if scenario.controls and 0 not in ns:
            ns = [0] + ns
        grid = np.linspace(0.0, 2 * math.pi / abs(p.kappa), grid_points)
        runs.append((p, grid, {n: ket(n, "-") for n in ns}))
    pulse, table = amplitude_table(space, runs, mode, scenario.ideal_oracle)
    if pulse is not None:
        calibration_block["pulse"] = dataclasses.asdict(pulse)

    for (p, t_grid, kets), (elapsed, states, ideal_states, segments) in zip(
            runs, table):
        N = p.n_atoms
        theta_rate = N * p.theta / 2
        theta_phase = theta_rate * t_grid
        r0 = N * p.stark if mode == "physical" else 0.0
        ns = list(kets)
        series = {n: (states @ kets[n].conj()) ** N for n in ns}
        references = {n: np.cos(p.kappa * n**2 * t_grid) for n in ns}

        # shared rate from this N's n=1 series (or the smallest nonzero n),
        # fitted around the analytic rate N g^2/(2 delta1); _best_rate
        # keeps r0 for n = 0 and for the reference modes' r0 = 0
        probe = 1 if 1 in ns else min([n for n in ns if n > 0], default=0)
        r_shared, _, flagged = _best_rate(
            series[probe], t_grid, elapsed, probe, theta_rate,
            references[probe], r0)
        calibration_block["r_lin_shared"][str(N)] = r_shared
        if flagged:
            calibration_block.setdefault("flags", []).append(
                f"N={N}: no interior minimum in the calibration bracket")

        for n in ns:
            amps, reference = series[n], references[n]
            z_shared = _frame_removed(amps, elapsed, n, theta_phase, r_shared)
            if frame_calibration == "per_branch" and n not in (0, probe):
                # the probe branch's own calibration is the shared one
                r_lin, _, _ = _best_rate(amps, t_grid, elapsed, n, theta_rate,
                                         reference, r0)
                y = _frame_removed(amps, elapsed, n, theta_phase, r_lin).real
            else:
                r_lin, y = r_shared, z_shared.real
            err = np.abs(y - reference)
            freq = fitted_frequency(t_grid, z_shared) if n > 0 else 0.0
            x = np.abs(amps)
            plus = states @ ket(n, "+").conj()
            branch = BranchResult(
                n_atoms=N, n_photons=n, times=t_grid, amplitudes=amps,
                x=x, y=y, reference=reference, abs_error=err,
                r_lin=r_lin, r_lin_expected=r0, freq_fit=freq,
                max_abs_error=float(err.max()),
                rms_error=float(np.sqrt((err**2).mean())),
                min_x=float(x.min()), max_x=float(x.max()),
                max_plus_population=float((N * np.abs(plus) ** 2).max()),
                basis_label=f"n={n};atoms=-^{N}",
            )
            calibration_block["r_lin"][f"N={N},n={n}"] = r_lin
            if ideal_states is not None:
                ideal_x = np.abs((ideal_states @ kets[n].conj()) ** N)
                branch.ideal_deviation = float(np.abs(x - ideal_x).max())
            branches.append(branch)

        if mode == "physical":
            diagnostics[f"segments_N={N}"] = segments
        diagnostics["unitarity_defect"] = max(
            diagnostics["unitarity_defect"], segments["total_unitarity_defect"])

    config = _echo(scenario.name, param_sets[0], overrides, thresholds,
                   mode=mode, tier="eliminated", grid_points=grid_points,
                   n_max=N_MAX, frame_calibration=frame_calibration,
                   branches=[list(b) for b in branch_list])
    return ScenarioResult(
        config=config, branches=branches, regime=regime,
        calibration=calibration_block, diagnostics=diagnostics,
    )


def run_fig3b(
    overrides: dict | None = None,
    grid_points: int = DEFAULT_GRID_POINTS,
    mode: str = "physical",
    frame_calibration: str = "per_branch",
    branches=FIG3B.branches,
    thresholds: dict | None = None,
) -> ScenarioResult:
    """Y(t) vs cos(kappa n^2 t) for the four (N, n) benchmark branches."""
    return _run_overlap_scenario(
        replace(FIG3B, branches=tuple(branches)), overrides, grid_points,
        mode, frame_calibration, thresholds)


def run_fig3a(
    overrides: dict | None = None,
    grid_points: int = DEFAULT_GRID_POINTS,
    mode: str = "physical",
    thresholds: dict | None = None,
) -> ScenarioResult:
    """X(t) for the N-scaled parameter family, with the ideal-mode oracle;
    one n > 0 per N, its own frame probe, so the calibration is per_branch."""
    return _run_overlap_scenario(FIG3A, overrides, grid_points, mode,
                                 "per_branch", thresholds)


# ---------------------------------------------------------------------------
# cross-Kerr validation
# ---------------------------------------------------------------------------

@dataclass
class CrossKerrResult:
    config: dict
    times: np.ndarray
    amplitudes: dict                  # (n_a, n_b) -> lifted amplitudes
    nu_hat: float
    nu_effective: float
    relative_error: float | None      # None when nu_effective = 0
    regime: dict                      # regimes.check report

    def report(self) -> dict:
        return {"config": self.config, "regime": self.regime,
                "nu_hat": self.nu_hat, "nu_effective": self.nu_effective,
                "relative_error": self.relative_error,
                "notes": ["nu_hat is minus the slope of N unwrap(arg(a11 a00 "
                          "conj(a10 a01))) of the one-atom physical-protocol "
                          "amplitudes; exp(-i H t) convention."]}

    def columns(self):
        """One block per occupation: Python's ``abs`` of each amplitude and
        its wrapped ``np.angle`` (unwrapped, a Kerr-period grid would alias
        it)."""
        return (("t_seconds", "n_a", "n_b", "modulus", "phase"),
                [(self.times, occ, ([abs(a) for a in amps.tolist()],
                                    np.angle(amps)))
                 for occ, amps in sorted(self.amplitudes.items())])


def run_cross_kerr(
    variant: str = "polarization",
    overrides: dict | None = None,
    grid_points: int = 65,
    thresholds: dict | None = None,
) -> CrossKerrResult:
    """Conditional phase of the physical protocol on two modes, lifted.

    One atom on one photon per mode runs the protocol from |n_a, n_b, ->
    for the four occupations (``amplitude_table``); each amplitude lifts to
    A_N = a_1^N.  nu_hat is minus the slope of N unwrap(arg(a_11 a_00
    conj(a_10 a_01))), the second difference, which cancels every constant
    and single-mode-linear phase at each time, so the fit window does not
    enter.  The grid is one Kerr period 2 pi / kappa_max of the stronger
    mode, kappa_max = N max_m A_m^2 / |theta|, A_m = g_m^2/(2 D_m).
    nu_effective is N times the same one-atom second difference of the
    ``kerr`` tier.  relative_error is |nu_hat - nu_effective| /
    |nu_effective|, None when nu_effective = 0 (the g_b = 0 control).
    ``variant`` picks the scenario's parameters, which name mode b.
    """
    require_integer(grid_points, 2, "grid points")
    [p] = scenario_params(f"cross_{variant}", overrides)
    regime = regimes.check(p, thresholds)           # before any protocol
    N = p.n_atoms
    space = build_space(n_max=1, n_atoms=1, levels=2, n_modes=2)
    kappa_max = N * max((g**2 / (2 * d))**2 for g, d, _, _ in
                        models.mode_couplings(p)) / abs(p.theta)
    t_grid = np.linspace(0.0, 2 * math.pi / kappa_max, grid_points)

    kets = {occ: basis_state(space, occ, "-")
            for occ in ((0, 0), (0, 1), (1, 0), (1, 1))}
    _, [(_, states, _, _)] = amplitude_table(
        space, [(p, t_grid, kets)], "physical", ideal_oracle=False)
    one = {occ: states @ ket.conj() for occ, ket in kets.items()}

    h_eff = models.effective_hamiltonian(space, p, "kerr")   # one atom
    energy = {occ: (ket.conj() @ (h_eff @ ket)).real
              for occ, ket in kets.items()}
    nu_eff = N * float(energy[1, 1] - energy[1, 0] - energy[0, 1] + energy[0, 0])
    product = one[1, 1] * one[0, 0] * np.conj(one[1, 0] * one[0, 1])
    # phases evolve as -E t under exp(-i H t)
    nu_hat = -float(np.polyfit(t_grid, N * np.unwrap(np.angle(product)), 1)[0])

    rel = abs(nu_hat - nu_eff) / abs(nu_eff) if nu_eff else None
    config = _echo(f"cross_{variant}", p, overrides, thresholds,
                   variant=variant, grid_points=grid_points, n_max=space.n_max)
    return CrossKerrResult(
        config=config, times=t_grid,
        amplitudes={occ: a ** N for occ, a in one.items()},
        nu_hat=nu_hat, nu_effective=nu_eff, relative_error=rel,
        regime=regime,
    )


# ---------------------------------------------------------------------------
# sweeps and the scenario registry
# ---------------------------------------------------------------------------

@dataclass
class SweepPoint:
    param: str
    value: float
    ok: bool
    result: object = None
    error: str | None = None
    outputs: dict | None = None         # written paths, for a sweep to a dir


@dataclass
class RegimeCheckResult:
    config: dict
    regime: dict                      # regimes.check report

    def report(self) -> dict:
        return {"config": self.config, "regime": self.regime}

    def columns(self):
        return None                     # a report alone: no CSV


def run_regime_check(overrides: dict | None = None,
                     thresholds: dict | None = None) -> RegimeCheckResult:
    [p] = scenario_params("regime_check", overrides)
    regime = regimes.check(p, thresholds)   # rejects bad thresholds by name
    return RegimeCheckResult(
        config=_echo("regime_check", p, overrides, thresholds), regime=regime)


def scenario_params(scenario: str, overrides: dict | None = None) -> list:
    """The parameter sets ``scenario`` runs, one per atom count, with the
    overrides applied: every runner reads its sets here (an overlap one
    through its record), so a strict regime check judges what runs."""
    if scenario in OVERLAP_SCENARIOS:
        return OVERLAP_SCENARIOS[scenario].param_sets(overrides)
    if scenario in ("cross_polarization", "cross_toroidal"):
        return [apply_overrides(
            cross_params(scenario.removeprefix("cross_")), overrides)]
    if scenario == "regime_check":
        return [apply_overrides(fig3b_params(), overrides)]
    raise ValidationError(f"unknown scenario {scenario!r}")


def regime_reports(param_sets, thresholds: dict | None = None) -> dict:
    """One regime report per parameter set, keyed ``N=<N>``.  Over the sets
    of ``scenario_params`` they are what an overlap report's ``regime``
    block, ``check-regime <scenario>`` and ``--strict`` show."""
    return {f"N={p.n_atoms}": regimes.check(p, thresholds)
            for p in param_sets}


SCENARIOS = {
    FIG3A.name: run_fig3a,
    FIG3B.name: run_fig3b,
    "cross_polarization": functools.partial(run_cross_kerr, "polarization"),
    "cross_toroidal": functools.partial(run_cross_kerr, "toroidal"),
    "regime_check": run_regime_check,
}


def scenario_options(scenario: str) -> frozenset:
    """The keyword options ``scenario`` takes besides its overrides and
    thresholds: its runner's parameters (read through ``functools.wraps``
    wrappers)."""
    if scenario not in SCENARIOS:
        raise ValidationError(f"unknown scenario {scenario!r}")
    return frozenset(inspect.signature(SCENARIOS[scenario]).parameters) - {
        "overrides", "thresholds"}


def check_options(scenario: str, kw) -> None:
    """Reject by name the first keyword in ``kw`` that ``scenario`` does not
    take (a ``ValidationError``), so no option is silently ignored."""
    takes = scenario_options(scenario)
    unknown = sorted(set(kw) - takes)
    if unknown:
        raise ValidationError(
            f"scenario {scenario!r} takes no option {unknown[0]!r} "
            f"(it takes: {', '.join(sorted(takes)) or 'none'})")


def _run_point(param: str, value, scenario: str, overrides, kw: dict,
               outdir) -> SweepPoint:
    """One sweep point, in this process or in a worker.

    With ``outdir`` the point's files are written here and only their paths
    are kept; a failure keeps only its error text.
    """
    try:
        result = SCENARIOS[scenario]({**(overrides or {}), param: value}, **kw)
    except KerrcavError as exc:
        return SweepPoint(param, value, False, error=str(exc))
    if outdir is None:
        return SweepPoint(param, value, True, result)
    return SweepPoint(param, value, True,
                      outputs=write_outputs(result, outdir))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # not every POSIX system has it
        return os.cpu_count() or 1


def _forked_map(run, values: list, workers: int) -> list:
    """``[run(v) for v in values]``, child k of ``workers`` forked children
    running ``values[k::workers]``; the parent computes no point."""
    pipes = {}                          # pid -> read end, until reaped
    try:
        for k in range(workers):
            read_fd, write_fd = os.pipe()
            sys.stdout.flush()
            sys.stderr.flush()
            if (pid := os.fork()) == 0:
                try:                    # send the points or the exception
                    try:
                        out = [run(v) for v in values[k::workers]]
                    except Exception as exc:
                        out = exc
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(out, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            pipes[pid] = open(read_fd, "rb")
        points = [None] * len(values)
        for k, pid in enumerate(list(pipes)):
            data = pipes[pid].read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pipes.pop(pid).close()
            if status or not data:
                raise WorkerError("a sweep worker process ended abruptly "
                                  f"(exit code {status})")
            if isinstance(out := pickle.loads(data), Exception):
                raise out
            points[k::workers] = out
        return points
    finally:                            # after an error: kill and reap the rest
        for pid, pipe in pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def sweep(param: str, values, scenario: str, jobs: int = 1, overrides=None,
          outdir=None, thresholds=None, **kw) -> list:
    """Run a scenario once per parameter value; failures are recorded.

    With ``outdir`` every point writes its CSV/JSON where it is computed
    and its ``SweepPoint`` carries the paths (``outputs``) instead of the
    result.  ``jobs > 1`` deals the points out in turn to
    ``min(jobs, len(values), usable CPUs)`` processes forked from this one
    (POSIX only); without ``outdir`` their results come back pickled.  A
    worker's exception is re-raised here and a dead worker raises
    ``WorkerError``, after every worker has been killed and reaped.  A
    keyword in ``kw`` that the scenario does not take is a
    ``ValidationError`` before any point runs; every point's regime report
    applies ``thresholds``.
    """
    check_options(scenario, kw)
    if param not in PARAM_NAMES:
        raise ValidationError(f"unknown sweep parameter {param!r}")
    require_integer(jobs, 1, "jobs")
    values = list(values)
    run = functools.partial(_run_point, param, scenario=scenario,
                            overrides=overrides,
                            kw={**kw, "thresholds": thresholds}, outdir=outdir)
    if jobs > 1:
        # fork, not spawn: a spawned worker re-imports numpy and kerrcav
        # (~0.2 s cold), longer than a whole sweep point
        if not hasattr(os, "fork"):
            raise ValidationError(f"jobs = {jobs} needs os.fork; use jobs = 1")
        workers = min(jobs, len(values), _usable_cpus())
        if workers > 1:
            return _forked_map(run, values, workers)
    return [run(v) for v in values]


# ---------------------------------------------------------------------------
# deterministic emission
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def config_hash(config: dict) -> str:
    import hashlib      # loads OpenSSL: only the commands that write pay it

    payload = json.dumps(_jsonable(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _repr_columns(columns) -> list:
    """``repr`` of every float of ``columns`` (1-d float arrays), one list
    of strings per column.  Each distinct 64-bit pattern is formatted once
    and its string shared by every cell that holds it; keying on the bits,
    not on float equality, keeps -0.0 apart from 0.0."""
    flat = np.concatenate([np.asarray(c, dtype=np.float64) for c in columns])
    bits, cell = np.unique(flat.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())),
                    dtype=object)[cell]
    return [part.tolist() for part in
            np.split(text, np.cumsum([len(c) for c in columns])[:-1])]


def csv_text(result) -> str | None:
    """The CSV of ``result.columns()``: its header, then for each block
    (time grid, integer keys, float columns) one row per grid point, the
    point's time, the block's keys and the columns' values at that point;
    None for a result without columns.

    Every float is written as ``repr`` of the Python float.  The table
    (``_repr_columns``) formats each distinct 64-bit pattern of the
    result's grids and float columns once, and every cell holding that
    pattern reuses the string; ``repr`` depends on the bit pattern alone,
    so each cell gets the bytes its own ``repr`` would, and the table
    cannot change the output.  Over half of fig3a's cells repeat (its n = 0
    controls hold a few values each), about a sixth of fig3b's.  A grid
    shared by several blocks (the same array) is formatted once.  Each
    block of rows is joined on its own, so its row strings are freed
    before the next block is built.
    """
    if (layout := result.columns()) is None:
        return None
    header, blocks = layout
    grids = {id(times): times for times, _, _ in blocks}
    cells = _repr_columns([*grids.values(), *(
        column for _, _, columns in blocks for column in columns)])
    stamps = dict(zip(grids, cells))
    floats = iter(cells[len(grids):])
    out = [",".join(header) + "\n"]
    for times, keys, columns in blocks:
        text = "\n".join(map(",".join, zip(
            stamps[id(times)], *(itertools.repeat(str(k)) for k in keys),
            *(next(floats) for _ in columns))))
        out.append(text + "\n" if text else "")
    return "".join(out)


def json_report(result) -> dict:
    """The deterministic JSON-serializable form of ``result.report()``."""
    return _jsonable(result.report())


def write_outputs(result, outdir) -> dict:
    """Write <scenario>_<config-hash>.json, and .csv when the result has
    columns; returns the paths.  The JSON is strict: a NaN or infinity in a
    report is a ``ValueError``."""
    import pathlib

    cfg = result.config
    stem = pathlib.Path(outdir) / f"{cfg['scenario']}_{config_hash(cfg)}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    texts = {"json": json.dumps(json_report(result), sort_keys=True, indent=2,
                                allow_nan=False) + "\n",
             "csv": csv_text(result)}
    paths = {}
    for kind, text in texts.items():
        if text is not None:
            paths[kind] = f"{stem}.{kind}"
            pathlib.Path(paths[kind]).write_text(text)
    return paths
