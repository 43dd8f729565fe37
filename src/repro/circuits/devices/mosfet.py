"""Level-1 (Shichman-Hodges) MOSFET model.

The paper's mixers are RF-CMOS switching circuits; their defining feature for
the numerical method is the *strongly nonlinear, switching* drain current,
not the fine detail of a deep-submicron model.  The classic level-1 square-law
model with channel-length modulation reproduces that behaviour:

* cutoff:     ``Id = 0``                               for ``Vgs <= Vth``
* triode:     ``Id = k (Vgst Vds - Vds^2/2)(1 + lambda Vds)``  for ``Vds < Vgst``
* saturation: ``Id = k/2 Vgst^2 (1 + lambda Vds)``     otherwise

with ``k = KP * W / L`` and ``Vgst = Vgs - Vth``.  The model is evaluated
symmetrically: when ``Vds < 0`` the drain and source roles are exchanged, so
the characteristic is continuous through ``Vds = 0`` (important for the
switching mixers, whose transistors spend time in both half-planes).

Charge storage uses constant gate-source / gate-drain overlap capacitances
plus optional drain/source junction capacitances to the bulk terminal.  This
is a deliberate simplification of the Meyer model (documented in DESIGN.md):
it keeps ``q(x)`` charge-conserving and smooth, which the coarse multi-time
grids of the MPDE method appreciate, while retaining the switching-induced
sharp waveforms at the circuit level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...utils.exceptions import DeviceError
from ...utils.validation import check_nonnegative, check_positive
from .base import BatchSpec, Device, linear_capacitance_kernel, linear_capacitance_slots

__all__ = ["MOSFETParams", "MOSFET", "NMOS", "PMOS"]

# Terminal order inside a MOSFET BatchSpec: (drain, gate, source, bulk).
_D, _G, _S, _B = 0, 1, 2, 3
#: The four overlap/junction capacitances in the order ``stamp_dynamic``
#: stamps them, as (node_a, node_b) terminal positions.
_CAP_SLOTS = ((_G, _S), (_G, _D), (_D, _B), (_S, _B))


def _region_ids(vgst_sub, vds_sub, beta_sub, lam_sub, triode_sub):
    """Loop-stamp triode/saturation formulas on one compacted region.

    The inputs are the elements of ONE operating region (all triode or all
    saturation, ``triode_sub`` says which); the expressions — and their
    grouping — are copied from :meth:`MOSFET._ids`, so elementwise the
    results are identical to the loop path's full-array evaluation.
    """
    clm = 1.0 + lam_sub * vds_sub
    if triode_sub:
        quad = beta_sub * (vgst_sub * vds_sub - 0.5 * vds_sub**2)
        ids = quad * clm
        gm = beta_sub * vds_sub * clm
        gds = beta_sub * (vgst_sub - vds_sub) * clm + quad * lam_sub
    else:
        half_quad = 0.5 * beta_sub * vgst_sub**2
        ids = half_quad * clm
        gm = beta_sub * vgst_sub * clm
        gds = half_quad * lam_sub
    return ids, gm, gds


def _mosfet_static_kernel(polarity: float):
    """Masked batched :meth:`MOSFET._drain_current` plus the KCL stamp values.

    Where the loop path evaluates the triode and saturation formulas of both
    the forward and the swapped (reverse) device on every point and selects
    afterwards with ``np.where`` chains, this kernel computes each of the
    four (direction x region) branches only on the elements that actually
    use it, scattering into zero-initialised outputs.  Switching circuits —
    the paper's regime — spend most (point, device) pairs in cutoff, where
    nothing is computed at all.  Elementwise the surviving values match the
    loop path's exactly; cutoff entries are 0.0 either way.

    The polarity is captured as a scalar (and is part of the group key) so
    the all-NMOS / all-PMOS common case skips the frame-mapping multiplies —
    multiplying by 1.0 is an exact no-op, so skipping it preserves values.
    """
    pol = polarity

    def kernel(V, params, need_jacobian):
        vto, beta, lam = params
        vd, vg, vs = V[_D], V[_G], V[_S]
        if pol == 1.0:
            vgp, vdp, vsp = vg, vd, vs
        else:
            vgp, vdp, vsp = pol * vg, pol * vd, pol * vs
        vds = vdp - vsp
        forward = vds >= 0.0
        vto_effective = pol * vto
        vgst_f = (vgp - vsp) - vto_effective
        vgst_r = (vgp - vdp) - vto_effective

        shape = vds.shape
        n_points = shape[1]
        # One zero-initialised allocation for all outputs.
        outputs = np.zeros((4 if need_jacobian else 1,) + shape)
        flat = outputs.reshape(outputs.shape[0], -1)
        current, cur_flat = outputs[0], flat[0]
        if need_jacobian:
            d_vg, d_vd, d_vs = outputs[1], outputs[2], outputs[3]
            d_vg_flat, d_vd_flat, d_vs_flat = flat[1], flat[2], flat[3]

        beta_col = beta[:, 0]
        lam_col = lam[:, 0]
        reverse = ~forward
        for direction_forward, vgst, needed in (
            (True, vgst_f, forward),
            (False, vgst_r, reverse),
        ):
            # Region predicates exactly as the loop path writes them (NaN
            # voltages land in the saturation branch there; keep that).
            active = needed & ~(vgst <= 0.0)
            if not active.any():
                continue
            vds_sign = vds if direction_forward else -vds
            in_triode = vds_sign < vgst
            vgst_flat = vgst.ravel()
            vds_flat = vds_sign.ravel()
            for triode_region in (True, False):
                mask = active & (in_triode if triode_region else ~in_triode)
                index = mask.ravel().nonzero()[0]
                if index.size == 0:
                    continue
                member = index // n_points  # per-element device row
                ids, gm, gds = _region_ids(
                    vgst_flat.take(index),
                    vds_flat.take(index),
                    beta_col.take(member),
                    lam_col.take(member),
                    triode_region,
                )
                # IEEE negation is exact (and addition sign-symmetric), so
                # region-filling is bit-identical to the loop path's
                # where-selected full-array stamps.
                if direction_forward:
                    cur_flat[index] = pol * ids if pol != 1.0 else ids
                    if need_jacobian:
                        d_vg_flat[index] = gm
                        d_vd_flat[index] = gds
                        d_vs_flat[index] = -gm - gds
                else:
                    # Terminal roles swapped (MOSFET._drain_current): the
                    # current into the drain is the negative of the swapped
                    # device's, d/dvd picks up gm_r + gds_r.
                    cur_flat[index] = pol * -ids if pol != 1.0 else -ids
                    if need_jacobian:
                        d_vg_flat[index] = -gm
                        d_vd_flat[index] = gm + gds
                        d_vs_flat[index] = -gds
        vec = (current, -current)
        if not need_jacobian:
            return vec, None
        return vec, (d_vg, d_vd, d_vs, -d_vg, -d_vd, -d_vs)

    return kernel


@dataclass(frozen=True)
class MOSFETParams:
    """Level-1 MOSFET parameters.

    Attributes
    ----------
    vto:
        Threshold voltage (positive for enhancement NMOS, negative for PMOS).
    kp:
        Process transconductance ``KP`` in A/V^2 (``u0 * Cox``).
    w, l:
        Channel width and length in metres; only the ratio matters here.
    lambda_:
        Channel-length modulation in 1/V.
    cgs, cgd:
        Constant gate-source / gate-drain capacitances in farads.
    cdb, csb:
        Constant drain-bulk / source-bulk capacitances in farads.
    """

    vto: float = 0.7
    kp: float = 120e-6
    w: float = 10e-6
    l: float = 1e-6
    lambda_: float = 0.02
    cgs: float = 0.0
    cgd: float = 0.0
    cdb: float = 0.0
    csb: float = 0.0

    def __post_init__(self) -> None:
        check_positive("kp", self.kp)
        check_positive("w", self.w)
        check_positive("l", self.l)
        check_nonnegative("lambda_", self.lambda_)
        check_nonnegative("cgs", self.cgs)
        check_nonnegative("cgd", self.cgd)
        check_nonnegative("cdb", self.cdb)
        check_nonnegative("csb", self.csb)

    @property
    def beta(self) -> float:
        """Device transconductance factor ``KP * W / L``."""
        return self.kp * self.w / self.l


class MOSFET(Device):
    """Four-terminal MOSFET (drain, gate, source, bulk).

    ``polarity = +1`` gives an NMOS, ``-1`` a PMOS.  The bulk terminal only
    participates through the (optional) junction capacitances; body effect on
    the threshold voltage is not modelled.
    """

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str | None = None,
        params: MOSFETParams | None = None,
        polarity: int = 1,
    ) -> None:
        bulk_node = bulk if bulk is not None else source
        super().__init__(name, (drain, gate, source, bulk_node))
        if polarity not in (1, -1):
            raise DeviceError("polarity must be +1 (NMOS) or -1 (PMOS)")
        self.params = params or MOSFETParams()
        self.polarity = polarity

    def is_nonlinear(self) -> bool:
        return True

    def has_dynamics(self) -> bool:
        p = self.params
        return any(c > 0.0 for c in (p.cgs, p.cgd, p.cdb, p.csb))

    # -- drain-current model ---------------------------------------------
    def _ids(self, vgs: np.ndarray, vds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normal-mode (``vds >= 0``) drain current and partial derivatives.

        Returns ``(id, gm, gds)`` where ``gm = d id / d vgs`` and
        ``gds = d id / d vds``.
        """
        p = self.params
        beta = p.beta
        lam = p.lambda_
        # The drain-current formula is evaluated in the NMOS-equivalent frame
        # (voltages already multiplied by the polarity), so the threshold must
        # be mapped into that frame too: a PMOS with vto = -0.7 V behaves like
        # an NMOS with a +0.7 V threshold.
        vto_effective = self.polarity * p.vto
        vgst = np.asarray(vgs - vto_effective, dtype=float)
        vds = np.asarray(vds, dtype=float)

        cutoff = vgst <= 0.0
        triode = (~cutoff) & (vds < vgst)
        saturation = (~cutoff) & (~triode)

        clm = 1.0 + lam * vds

        id_triode = beta * (vgst * vds - 0.5 * vds**2) * clm
        gm_triode = beta * vds * clm
        gds_triode = beta * (vgst - vds) * clm + beta * (vgst * vds - 0.5 * vds**2) * lam

        id_sat = 0.5 * beta * vgst**2 * clm
        gm_sat = beta * vgst * clm
        gds_sat = 0.5 * beta * vgst**2 * lam

        ids = np.where(cutoff, 0.0, np.where(triode, id_triode, id_sat))
        gm = np.where(cutoff, 0.0, np.where(triode, gm_triode, gm_sat))
        gds = np.where(cutoff, 0.0, np.where(triode, gds_triode, gds_sat))
        del saturation  # kept for readability of the region split above
        return ids, gm, gds

    def _drain_current(
        self, vg: np.ndarray, vd: np.ndarray, vs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Drain current (into the drain terminal) and derivatives w.r.t. vg, vd, vs.

        Handles polarity (PMOS) and source/drain swap for ``vds < 0`` so the
        characteristic is symmetric and continuous at ``vds = 0``.
        """
        pol = float(self.polarity)
        # Work in the NMOS-equivalent voltage frame.
        vgp, vdp, vsp = pol * vg, pol * vd, pol * vs
        vds = vdp - vsp
        forward = vds >= 0.0

        # Forward operation: source acts as source.
        vgs_f = vgp - vsp
        ids_f, gm_f, gds_f = self._ids(vgs_f, vds)
        # Reverse operation: drain and source swap roles; the current into
        # the drain terminal is the negative of the swapped-device current.
        vgs_r = vgp - vdp
        ids_r, gm_r, gds_r = self._ids(vgs_r, -vds)

        # Derivatives w.r.t. the primed (NMOS-frame) terminal voltages.
        # Forward:  ids' = I(vg'-vs', vd'-vs')
        # Reverse:  ids' = -I(vg'-vd', vs'-vd')  (terminal roles swapped)
        ids = np.where(forward, ids_f, -ids_r)
        d_vg = np.where(forward, gm_f, -gm_r)
        d_vd = np.where(forward, gds_f, gm_r + gds_r)
        d_vs = np.where(forward, -gm_f - gds_f, -gds_r)

        # Map back from the NMOS frame: v' = pol * v, and the physical current
        # into the drain terminal is pol * ids'.  The chain rule gives
        # d(pol * ids')/dv = pol * (d ids'/dv') * pol = d ids'/dv'.
        current = pol * ids
        return current, d_vg, d_vd, d_vs

    # -- stamps -------------------------------------------------------------
    def stamp_static(self, X: np.ndarray, F: np.ndarray, G: np.ndarray) -> None:
        self._require_bound()
        d, g, s, _b = self._node_idx
        vd = self._voltage(X, d)
        vg = self._voltage(X, g)
        vs = self._voltage(X, s)
        current, d_vg, d_vd, d_vs = self._drain_current(vg, vd, vs)
        # Current enters the drain terminal and leaves at the source terminal.
        self._add_vec(F, d, current)
        self._add_vec(F, s, -current)
        self._add_mat(G, d, g, d_vg)
        self._add_mat(G, d, d, d_vd)
        self._add_mat(G, d, s, d_vs)
        self._add_mat(G, s, g, -d_vg)
        self._add_mat(G, s, d, -d_vd)
        self._add_mat(G, s, s, -d_vs)

    def stamp_dynamic(self, X: np.ndarray, Q: np.ndarray, C: np.ndarray) -> None:
        if not self.has_dynamics():
            return
        self._require_bound()
        d, g, s, b = self._node_idx
        p = self.params
        vd = self._voltage(X, d)
        vg = self._voltage(X, g)
        vs = self._voltage(X, s)
        vb = self._voltage(X, b)

        def add_linear_cap(node_a: int, node_b: int, cap: float, va: np.ndarray, vb_: np.ndarray) -> None:
            if cap <= 0.0:
                return
            charge = cap * (va - vb_)
            self._add_vec(Q, node_a, charge)
            self._add_vec(Q, node_b, -charge)
            self._add_mat(C, node_a, node_a, cap)
            self._add_mat(C, node_a, node_b, -cap)
            self._add_mat(C, node_b, node_a, -cap)
            self._add_mat(C, node_b, node_b, cap)

        add_linear_cap(g, s, p.cgs, vg, vs)
        add_linear_cap(g, d, p.cgd, vg, vd)
        add_linear_cap(d, b, p.cdb, vd, vb)
        add_linear_cap(s, b, p.csb, vs, vb)

    def batch_spec(self) -> BatchSpec:
        self._require_bound()
        p = self.params
        caps = (p.cgs, p.cgd, p.cdb, p.csb)
        active = tuple(slot for slot, cap in zip(_CAP_SLOTS, caps) if cap > 0.0)
        spec = BatchSpec(
            key=("MOSFET", active, self.polarity),
            indices=self._node_idx,
            static_params=(p.vto, p.beta, p.lambda_),
            dynamic_params=tuple(cap for cap in caps if cap > 0.0),
            static_vec=(_D, _S),
            static_mat=((_D, _G), (_D, _D), (_D, _S), (_S, _G), (_S, _D), (_S, _S)),
            static_kernel=_mosfet_static_kernel(float(self.polarity)),
        )
        if active:
            vec, mat = linear_capacitance_slots(active)
            spec = replace(
                spec,
                dynamic_vec=vec,
                dynamic_mat=mat,
                dynamic_kernel=linear_capacitance_kernel(active),
                dynamic_mat_constant=True,
            )
        return spec


class NMOS(MOSFET):
    """Convenience subclass for n-channel devices."""

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str | None = None,
        params: MOSFETParams | None = None,
    ) -> None:
        super().__init__(name, drain, gate, source, bulk, params, polarity=1)


class PMOS(MOSFET):
    """Convenience subclass for p-channel devices.

    Remember that a PMOS threshold voltage is negative (e.g. ``vto=-0.7``).
    """

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str | None = None,
        params: MOSFETParams | None = None,
    ) -> None:
        super().__init__(name, drain, gate, source, bulk, params, polarity=-1)
