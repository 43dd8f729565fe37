"""The four seeded workloads and their correctness checks.

Each workload turns ``--seed`` into a list of requests before anything is
timed, runs one request with :meth:`call` (the timed part) and judges the
returned value with :meth:`check` (never timed).  References come from
files the timed path does not write: ``reference.json`` in this directory
(made by ``make_reference.py`` with the other linear solver, a finer grid or
the MPDE method) and the scenario goldens in ``tests/goldens/scenarios.json``,
which are only read.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import NamedTuple

from repro import analysis, core, rf, service, utils
from repro.signals import spectrum

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
GOLDENS_PATH = Path("tests") / "goldens" / "scenarios.json"

# -- the paper's balanced LO-doubling mixer (mpde_direct / mpde_matrix_free) --
MPDE_GRID = (20, 15)
MPDE_FINE_GRID = (48, 36)
# (RF amplitude, four-bit envelope pattern): the small fixed input set.
# Five inputs in equal shares put p50 and p90 at the centres of the third
# and fifth input's latency band (cumulative 0.4-0.6 and 0.8-1.0), never on
# the edge between two inputs.  (0.15, 1101) is left out: matrix-free it
# needs 2x the GMRES work of the others and stood alone as a slow mode.
MPDE_INPUTS = (
    (0.10, (1, 0, 1, 1)),
    (0.10, (1, 1, 0, 1)),
    (0.125, (0, 1, 1, 0)),
    (0.125, (1, 0, 1, 1)),
    (0.15, (0, 1, 1, 0)),
)
# Cross-solver agreement on the same grid, and discretisation error of the
# benchmark grid against the fine-grid reference (up to 5% at 20x15).
MPDE_SOLVER_RTOL = 1e-6
MPDE_GRID_RTOL = 0.08

# -- the unbalanced switching mixer (shooting_baseline) ------------------------
SHOOTING_LO_HZ = 2.0e6
SHOOTING_DISPARITY = 5
SHOOTING_STEPS_PER_LO_CYCLE = 20
SHOOTING_MPDE_GRID = (32, 21)
SHOOTING_AMPLITUDES = (0.03, 0.035, 0.04, 0.05, 0.06)  # five, as for MPDE_INPUTS
SHOOTING_RTOL = 0.05

# -- the simulation service (service_sweep) -------------------------------------
# One block of the skewed mix; the request stream is a seeded shuffle of
# whole blocks, so every run sees the same proportions.  These six scenarios
# compile ten distinct circuits against the cache's eight entries.
SERVICE_BLOCK = (
    ("qpsk_mixer", 7),
    ("qam16_mixer", 7),
    ("ofdm_mixer", 6),
    ("frequency_doubler", 2),
    ("swept_lo_conversion_gain", 2),
    ("ip3_sweep", 1),
)


class JobSummary(NamedTuple):
    id: str
    status: str
    queue_wait_s: float
    metrics: dict | None


def input_key(amplitude: float, bits) -> str:
    return f"{amplitude:g}|{''.join(str(b) for b in bits)}"


def load_reference(corrupt: bool = False) -> dict:
    """The committed reference table; ``corrupt`` scales every value by 1.5."""
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if corrupt:
        for section in table.values():
            for values in section.values():
                for key in values:
                    values[key] *= 1.5
    return table


def seeded_blocks(items, seed: int, n_requests: int) -> list:
    """``n_requests`` items as a seeded shuffle of repeated whole blocks."""
    rng = random.Random(seed)
    out: list = []
    while len(out) < n_requests:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:n_requests]


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


class Workload:
    """One workload: seeded requests, a timed call and an untimed check."""

    name = ""
    clients = 1
    warmup = 2
    max_requests = 4000
    # Peak RSS is read after this many timed requests, about 5 s into the
    # window on the recording host, so it measures memory, not speed.
    rss_requests = 20
    svc = None  # the SimulationService, for the service workload

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_requests(self) -> list:
        return seeded_blocks(self.inputs(), self.seed, self.max_requests)

    def setup(self) -> None:
        """Build whatever the timed requests need, then run the warm-ups."""
        self.requests = self.make_requests()
        for request in self.warmup_requests():
            self.call(request)

    def warmup_requests(self) -> list:
        # The same for every seed: the inputs differ in cost, and set-up
        # time should not depend on which of them a seed draws.
        return list(self.inputs())[: self.warmup]

    def inputs(self):
        raise NotImplementedError

    def call(self, request):
        raise NotImplementedError

    def summarize(self, outcome):
        """What :meth:`check` needs of an outcome (taken after the clock stops)."""
        return outcome

    def check(self, request, outcome) -> tuple[bool, bool]:
        """``(converged, within tolerance of the reference)``."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def balanced_mixer_amplitude(amplitude: float, bits, options) -> tuple[float, bool]:
    """Build, compile and solve the paper's mixer: difference-tone amplitude."""
    mixer = rf.balanced_lo_doubling_mixer(
        rf_amplitude=amplitude,
        envelope=rf.mixers.default_bit_envelope(1.0 / 15.0e3, bits=tuple(bits)),
    )
    result = core.solve_mpde(mixer.compile(), mixer.scales, options)
    baseband = result.baseband_envelope(mixer.output_pos, node_neg=mixer.output_neg)
    coefficient = spectrum.fourier_coefficient(baseband, mixer.difference_frequency)
    return 2.0 * abs(coefficient), bool(result.stats.converged)


def switching_mixer(amplitude: float):
    return rf.unbalanced_switching_mixer(
        lo_frequency=SHOOTING_LO_HZ,
        difference_frequency=SHOOTING_LO_HZ / SHOOTING_DISPARITY,
        rf_amplitude=amplitude,
    )


def switching_mixer_shooting(amplitude: float) -> tuple[float, bool]:
    """Baseband amplitude of the switching mixer by trapezoidal shooting."""
    mixer = switching_mixer(amplitude)
    options = utils.ShootingOptions(
        steps_per_period=SHOOTING_STEPS_PER_LO_CYCLE * SHOOTING_DISPARITY,
        integration_method="trapezoidal",
    )
    result = analysis.shooting_periodic_steady_state(
        mixer.compile(), mixer.difference_period, options=options
    )
    waveform = result.waveform(mixer.output_pos)
    coefficient = spectrum.fourier_coefficient(waveform, mixer.difference_frequency)
    # Shooting raises ConvergenceError rather than return unconverged.
    return 2.0 * abs(coefficient), True


def switching_mixer_mpde(amplitude: float) -> tuple[float, bool]:
    """The same circuit at the same disparity by the paper's MPDE method."""
    mixer = switching_mixer(amplitude)
    options = utils.MPDEOptions(n_fast=SHOOTING_MPDE_GRID[0], n_slow=SHOOTING_MPDE_GRID[1])
    result = core.solve_mpde(mixer.compile(), mixer.scales, options)
    baseband = result.baseband_envelope(mixer.output_pos)
    coefficient = spectrum.fourier_coefficient(baseband, mixer.difference_frequency)
    return 2.0 * abs(coefficient), bool(result.stats.converged)


class MPDEMixer(Workload):
    """The paper's mixer: build -> compile -> solve -> difference-tone amplitude."""

    matrix_free = False

    def __init__(self, seed: int, corrupt_reference: bool = False) -> None:
        super().__init__(seed)
        extra = (
            {"matrix_free": True, "preconditioner": "block_circulant_fast"}
            if self.matrix_free
            else {}
        )
        self.options = utils.MPDEOptions(n_fast=MPDE_GRID[0], n_slow=MPDE_GRID[1], **extra)
        table = load_reference(corrupt_reference)["balanced_mixer"]
        other = "direct" if self.matrix_free else "matrix_free"
        self.other_solver = {key: row[other] for key, row in table.items()}
        self.fine_grid = {key: row["fine"] for key, row in table.items()}

    def inputs(self):
        return MPDE_INPUTS

    def call(self, request):
        return balanced_mixer_amplitude(*request, self.options)

    def check(self, request, outcome):
        value, converged = outcome
        key = input_key(*request)
        correct = (
            relative_error(value, self.other_solver[key]) <= MPDE_SOLVER_RTOL
            and relative_error(value, self.fine_grid[key]) <= MPDE_GRID_RTOL
        )
        return converged, correct


class MPDEDirect(MPDEMixer):
    name = "mpde_direct"


class MPDEMatrixFree(MPDEMixer):
    name = "mpde_matrix_free"
    matrix_free = True


class ShootingBaseline(Workload):
    """Trapezoidal shooting over one difference period of the switching mixer."""

    name = "shooting_baseline"
    rss_requests = 8

    def __init__(self, seed: int, corrupt_reference: bool = False) -> None:
        super().__init__(seed)
        table = load_reference(corrupt_reference)["switching_mixer"]
        self.mpde_reference = {key: row["mpde"] for key, row in table.items()}

    def inputs(self):
        return SHOOTING_AMPLITUDES

    def call(self, amplitude):
        return switching_mixer_shooting(amplitude)

    def check(self, amplitude, outcome):
        value, converged = outcome
        reference = self.mpde_reference[f"{amplitude:g}"]
        return converged, relative_error(value, reference) <= SHOOTING_RTOL


class ServiceSweep(Workload):
    """A closed loop of two clients against one warm ``SimulationService``."""

    name = "service_sweep"
    clients = 2
    max_requests = 20000
    rss_requests = 200

    def __init__(self, seed: int, corrupt_reference: bool = False) -> None:
        super().__init__(seed)
        goldens = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
        self.goldens = {name: goldens[name] for name, _ in SERVICE_BLOCK}
        if corrupt_reference:
            for entry in self.goldens.values():
                for metrics in entry["metrics"].values():
                    for key in metrics:
                        metrics[key] = metrics[key] * 1.5 + 1.0

    def inputs(self):
        return [
            service.SweepRequest(scenario=name, first_case_only=False)
            for name, weight in SERVICE_BLOCK
            for _ in range(weight)
        ]

    def warmup_requests(self) -> list:
        # One request per scenario fills the compiled-circuit cache.
        return [
            service.SweepRequest(scenario=name, first_case_only=False)
            for name, _ in SERVICE_BLOCK
        ]

    def setup(self) -> None:
        self.svc = service.SimulationService(
            service.ServiceOptions(n_workers=2, memoize_results=False)
        )
        super().setup()

    def call(self, request):
        job = self.svc.submit(request)
        job.wait()
        return job

    def summarize(self, job):
        # Keep no solver results alive: a run's records would grow its RSS.
        metrics = job.run.all_metrics() if job.status == "succeeded" else None
        return JobSummary(job.id, job.status, job.queue_wait_s, metrics)

    def check(self, request, job):
        if job.status != "succeeded":
            return False, False
        expected = self.goldens[request.scenario]
        rtol = expected["tolerance"]["rtol"]
        atol = expected["tolerance"]["atol"]
        got = job.metrics
        if set(got) != set(expected["metrics"]):
            return True, False
        for case, metrics in expected["metrics"].items():
            for key, value in metrics.items():
                measured = got[case].get(key)
                if measured is None or not math.isclose(
                    measured, value, rel_tol=rtol, abs_tol=atol
                ):
                    return True, False
        return True, True

    def close(self) -> None:
        if self.svc is not None:
            self.svc.shutdown()
            self.svc = None


WORKLOADS = {
    cls.name: cls for cls in (MPDEDirect, MPDEMatrixFree, ServiceSweep, ShootingBaseline)
}
