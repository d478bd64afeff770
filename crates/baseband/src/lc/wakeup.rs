//! Wakeup hints: when does this controller next need a tick?
//!
//! The lockstep engine ticks every device every half slot; almost all of
//! those ticks are no-ops — a held link is silent for hundreds of slots,
//! a sniffing slave wakes once per `T_sniff`, a parked slave once per
//! beacon. [`LinkController::next_wakeup`] computes the earliest future
//! half-slot tick at which [`LinkController::on_tick`] could perform an
//! *observable* action (transmit, open/close a window, emit an event,
//! mutate visible state), so an event-driven engine can fast-forward the
//! clock across the guaranteed-no-op gap.
//!
//! ## The contract
//!
//! For every tick instant `t` with `from ≤ t < next_wakeup(from)`,
//! `on_tick(t, out)` must append no actions and leave the controller in a
//! state indistinguishable from not having been ticked at all. The hint
//! may be **conservative** (earlier than necessary — a woken no-op tick
//! is harmless, the engine just recomputes), but never late. `None`
//! means no future tick can ever act from the current state (standby);
//! the engine re-queries after every command or reception, which are the
//! only things that can change that.
//!
//! Periodic duties (sniff windows, SCO anchors, park beacons) are found
//! by scanning future master-slot starts with the *same predicates the
//! tick path evaluates*, bounded by one period plus margin; if a scan
//! caps out, the cap tick is returned as a conservative no-op wake. The
//! differential harness in `tests/engine_equivalence.rs` holds this
//! contract to bit-identical event logs against the lockstep oracle.

use btsim_kernel::{SimDuration, SimTime};

use crate::clock::ClkVal;
use crate::hop::HopSequence;

use super::connection::{
    sco_at_anchor, sniff_at_anchor, sniff_in_window, supervision_deadline, LinkMode, SlaveCtx,
};
use super::inquiry::GIAC_TRAIN;
use super::page::{PageScanSub, PageSub};
use super::{InquiryCtx, InquiryScanCtx, LinkController, PageCtx, PageScanCtx, ProcState};

const HALF_NS: u64 = SimDuration::HALF_SLOT.ns();

/// First tick index whose instant is `>= t`.
fn tick_at_or_after(t: SimTime) -> u64 {
    t.ns().div_ceil(HALF_NS)
}

/// Advances `k` to the next tick where the clock with start value `r0`
/// reads CLK₁,₀ = 00 (a master-to-slave slot start).
fn align_slot_start(k: u64, r0: u32) -> u64 {
    k + (4 - (r0 as u64 + k) % 4) % 4
}

/// Advances `k` to the next tick where the clock with start value `r0`
/// reads CLK₁ = 0 (either half of a master-to-slave slot).
fn align_master_half(k: u64, r0: u32) -> u64 {
    let mut k = k;
    while (r0 as u64 + k) % 4 >= 2 {
        k += 1;
    }
    k
}

/// Folds a candidate tick into the running minimum.
fn consider(best: &mut Option<u64>, candidate: u64) {
    *best = Some(best.map_or(candidate, |b| b.min(candidate)));
}

impl LinkController {
    /// The earliest tick instant at or after `from` at which
    /// [`LinkController::on_tick`] could act, or `None` when no future
    /// tick can do anything from the current state.
    ///
    /// Ticks strictly before the returned instant are guaranteed no-ops;
    /// see the module docs for the exact contract. The hint must be
    /// re-queried after every [`LinkController::command`] and
    /// [`LinkController::on_rx`], which may arm earlier work.
    pub fn next_wakeup(&self, from: SimTime) -> Option<SimTime> {
        // Ticks inside a statistical fast-forward span are no-ops
        // (`on_tick` returns early), so the next actionable tick can
        // never precede `ff_until`.
        let k0 = tick_at_or_after(from.max(self.ff_until));
        let k = match &self.state {
            ProcState::Standby => None,
            ProcState::Inquiry(ctx) => self.inquiry_wakeup(ctx, k0),
            ProcState::InquiryScan(ctx) => self.inquiry_scan_wakeup(ctx, k0),
            ProcState::Page(ctx) => self.page_wakeup(ctx, k0),
            ProcState::PageScan(ctx) => self.page_scan_wakeup(ctx, k0),
            ProcState::Connection => self.connection_wakeup(k0),
        }?;
        Some(SimTime::from_ns(k * HALF_NS))
    }

    /// Raw CLKN start value (tick `k` reads `start + k`).
    fn r0(&self) -> u32 {
        self.clock.start_value().raw()
    }

    /// The procedure-timeout tick: `proc_ticks >= 2 * timeout_slots`.
    fn timeout_tick(&self, timeout_slots: u32, k0: u64) -> Option<u64> {
        (timeout_slots > 0).then(|| k0.max(self.proc_start_tick + 2 * timeout_slots as u64))
    }

    fn inquiry_wakeup(&self, ctx: &InquiryCtx, k0: u64) -> Option<u64> {
        // IDs go out at both halves of every master-TX slot.
        let mut best = Some(align_master_half(k0, self.r0()));
        if let Some(t) = self.timeout_tick(ctx.timeout_slots, k0) {
            consider(&mut best, t);
        }
        best
    }

    fn inquiry_scan_wakeup(&self, ctx: &InquiryScanCtx, k0: u64) -> Option<u64> {
        if let Some(until) = ctx.backoff_until {
            return Some(k0.max(tick_at_or_after(until)));
        }
        // The scan channel follows CLKN₁₆₋₁₂: it can only change when the
        // raw clock crosses a multiple of 2¹².
        let ch = GIAC_TRAIN.channel(
            HopSequence::InquiryScan,
            self.clock.clkn_at(SimTime::from_ns(k0 * HALF_NS)),
        );
        if ctx.cur_channel != Some(ch) {
            return Some(k0);
        }
        let r = self.r0() as u64 + k0;
        Some(k0 + (((r >> 12) + 1) << 12) - r)
    }

    fn page_wakeup(&self, ctx: &PageCtx, k0: u64) -> Option<u64> {
        let mut best = match &ctx.sub {
            PageSub::Paging => Some(align_master_half(k0, self.r0())),
            PageSub::MasterResponse {
                next_fhs_at,
                deadline,
                ..
            } => Some(k0.max(tick_at_or_after((*next_fhs_at).min(*deadline)))),
        };
        if let Some(t) = self.timeout_tick(ctx.timeout_slots, k0) {
            consider(&mut best, t);
        }
        best
    }

    fn page_scan_wakeup(&self, ctx: &PageScanCtx, k0: u64) -> Option<u64> {
        match &ctx.sub {
            PageScanSub::SlaveResponse { deadline, .. } => {
                Some(k0.max(tick_at_or_after(*deadline)))
            }
            PageScanSub::Scanning => {
                let at_k0 = SimTime::from_ns(k0 * HALF_NS);
                let ch = self
                    .page_scan_train()
                    .channel(HopSequence::PageScan, self.clock.clkn_at(at_k0));
                let open = self.scan_window_open_at_tick(k0);
                // Mismatch between the held window/channel and the tick's
                // view means the very next tick acts.
                if (open && ctx.cur_channel != Some(ch)) || (!open && ctx.cur_channel.is_some()) {
                    return Some(k0);
                }
                let mut best: Option<u64> = None;
                if open {
                    // Channel epoch boundary within an open window.
                    let r = self.r0() as u64 + k0;
                    consider(&mut best, k0 + (((r >> 12) + 1) << 12) - r);
                }
                if !self.cfg.page_scan_continuous {
                    // Next R1 window boundary: phase 0 opens the window,
                    // phase `window_slots` closes it.
                    let interval = self.cfg.page_scan_interval_slots.max(1) as u64;
                    let window = self.cfg.page_scan_window_slots as u64;
                    let slot_q = k0.saturating_sub(self.proc_start_tick) / 2;
                    let phase = slot_q % interval;
                    let target = if open { window % interval } else { 0 };
                    let delta = (interval + target - phase) % interval;
                    let delta = if delta == 0 { interval } else { delta };
                    consider(&mut best, self.proc_start_tick + 2 * (slot_q + delta));
                }
                best
            }
        }
    }

    /// Whether the page-scan window is open at tick `k` (mirrors the
    /// private tick-path check).
    fn scan_window_open_at_tick(&self, k: u64) -> bool {
        if self.cfg.page_scan_continuous {
            return true;
        }
        let slot_q = k.saturating_sub(self.proc_start_tick) / 2;
        slot_q % (self.cfg.page_scan_interval_slots.max(1) as u64)
            < self.cfg.page_scan_window_slots as u64
    }

    fn connection_wakeup(&self, k0: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        if let Some(m) = &self.master {
            // The master acts only at slot starts of master-TX slots, and
            // only once past its busy window and any open response wait
            // (the expiry check clears `awaiting` at the gate tick itself).
            let mut gate = k0.max(tick_at_or_after(m.busy_until));
            if let Some((_, until)) = m.awaiting {
                gate = gate.max(tick_at_or_after(until));
            }
            let t_poll = self.t_poll as u64;
            let sup_to = self.cfg.supervision_timeout_slots as u64;
            for s in &m.slaves {
                if let Some(d) = s.newconn_deadline_slot {
                    consider(&mut best, self.clk00_at_slot(gate, d, 0));
                }
                // Supervision runs at every tick before the slot and
                // busy gates, so its candidate folds over k0, not gate.
                if let Some(d) = supervision_deadline(
                    sup_to,
                    s.mode,
                    s.newconn_deadline_slot,
                    s.last_rx_slot,
                    s.sup_hold_excuse_slot,
                ) {
                    consider(&mut best, k0.max(2 * d));
                }
                if s.mode != LinkMode::Park {
                    if let Some(p) = &s.sco {
                        let p = *p;
                        consider(
                            &mut best,
                            self.scan_clk00(0, gate, p.t_sco as u64 + 8, |cs, _| {
                                sco_at_anchor(cs, &p)
                            }),
                        );
                    }
                }
                match s.mode {
                    LinkMode::Park => {
                        let b = s.park_beacon_interval as u64;
                        if b > 0 {
                            consider(
                                &mut best,
                                self.jump_scan_clk00(0, gate, 4, 0, b as u32, b + 8, |cs, _| {
                                    (cs as u64).is_multiple_of(b)
                                }),
                            );
                        }
                    }
                    LinkMode::Hold => {
                        if let Some(h) = s.hold_until_slot {
                            consider(&mut best, self.clk00_at_slot(gate, h, 0));
                        }
                    }
                    LinkMode::Active => {
                        let due = if s.poll_asap || s.link.has_data() {
                            0
                        } else {
                            s.last_poll_slot + t_poll
                        };
                        consider(&mut best, self.clk00_at_slot(gate, due, 0));
                    }
                    LinkMode::Sniff => {
                        let Some(p) = s.sniff else { continue };
                        let from = if s.poll_asap || s.link.has_data() {
                            gate
                        } else {
                            gate.max(2 * (s.last_poll_slot + t_poll))
                        };
                        let ext = s.sniff_ext_until_slot;
                        let cap = p.t_sniff as u64 + 2 * p.n_attempt as u64 + 16;
                        consider(
                            &mut best,
                            self.jump_scan_clk00(
                                0,
                                from,
                                p.n_attempt as u64 + 4,
                                p.d_sniff,
                                p.t_sniff,
                                cap,
                                |cs, ns| sniff_in_window(cs, &p) || ext.is_some_and(|e| ns < e),
                            ),
                        );
                    }
                }
            }
        }
        for s in &self.slave_links {
            self.slave_link_wakeup(s, k0, &mut best);
        }
        best
    }

    fn slave_link_wakeup(&self, s: &SlaveCtx, k0: u64, best: &mut Option<u64>) {
        // The new-connection deadline is checked at every tick, before
        // the slot gates; so is the supervision deadline.
        if let Some(d) = s.newconn_deadline_slot {
            consider(best, k0.max(2 * d));
        }
        if let Some(d) = supervision_deadline(
            self.cfg.supervision_timeout_slots as u64,
            s.mode,
            s.newconn_deadline_slot,
            s.last_rx_slot,
            s.sup_hold_excuse_slot,
        ) {
            consider(best, k0.max(2 * d));
        }
        let gate = k0.max(tick_at_or_after(s.busy_until));
        let off = s.clk_offset;
        if s.mode != LinkMode::Park {
            if let Some(p) = &s.sco {
                let p = *p;
                consider(
                    best,
                    self.scan_clk00(off, gate, p.t_sco as u64 + 8, |cs, _| sco_at_anchor(cs, &p)),
                );
            }
        }
        match s.mode {
            LinkMode::Active => consider(best, self.clk00_at_slot(gate, 0, off)),
            LinkMode::Sniff => {
                let Some(p) = s.sniff else { return };
                let ext = s.sniff_ext_until_slot;
                let cap = p.t_sniff as u64 + 2 * p.n_attempt as u64 + 16;
                consider(
                    best,
                    self.jump_scan_clk00(
                        off,
                        gate,
                        p.n_attempt as u64 + 4,
                        p.d_sniff,
                        p.t_sniff,
                        cap,
                        |cs, ns| {
                            sniff_at_anchor(cs, &p)
                                || ext.is_some_and(|e| ns < e)
                                || (p.n_attempt > 1 && sniff_in_window(cs, &p))
                        },
                    ),
                );
            }
            LinkMode::Hold => {
                // Resynchronisation starts `resync_guard_slots` early.
                let h = s.hold_until_slot.unwrap_or(0);
                let wake_slot = h.saturating_sub(self.cfg.resync_guard_slots as u64);
                consider(best, self.clk00_at_slot(gate, wake_slot, off));
            }
            LinkMode::Park => {
                let b = s.park_beacon_interval.max(1) as u64;
                consider(
                    best,
                    self.jump_scan_clk00(off, gate, 4, 0, b as u32, b + 8, |cs, _| {
                        (cs as u64).is_multiple_of(b)
                    }),
                );
            }
        }
    }

    /// First CLK₁,₀ = 00 tick (clock offset `off`) at or after `from_k`
    /// whose simulation slot count has reached `due_slot`.
    fn clk00_at_slot(&self, from_k: u64, due_slot: u64, off: u32) -> u64 {
        let r0 = self.r0().wrapping_add(off);
        align_slot_start(from_k.max(2 * due_slot), r0)
    }

    /// First CLK₁,₀ = 00 tick at or after `from_k` whose piconet slot
    /// satisfies `pred(clk_slot, now_slot)`, scanning at most `cap`
    /// master slots; caps out to a conservative no-op wake.
    fn scan_clk00(&self, off: u32, from_k: u64, cap: u64, pred: impl Fn(u32, u64) -> bool) -> u64 {
        let r0 = self.r0().wrapping_add(off);
        let mut k = align_slot_start(from_k, r0);
        for _ in 0..cap {
            let clk_slot = ClkVal::new(r0.wrapping_add(k as u32)).slot();
            if pred(clk_slot, k / 2) {
                return k;
            }
            k += 4;
        }
        k
    }

    /// [`LinkController::scan_clk00`] accelerated for periodic anchors:
    /// after a short verifying prefix (which also catches extension
    /// windows, always contiguous with `from_k`), jumps straight to the
    /// next piconet slot `≡ anchor (mod period)` by solving the
    /// congruence on the CLK₁,₀ = 00 stride (2 slots per visit). The
    /// jump target is verified against `pred` and falls back to the
    /// linear scan on any mismatch (clock wrap, unreachable parity), so
    /// this is purely a constant-factor optimisation — the recompute
    /// cost per wake drops from O(period) to O(1).
    #[allow(clippy::too_many_arguments)] // one call shape per periodic duty
    fn jump_scan_clk00(
        &self,
        off: u32,
        from_k: u64,
        prefix: u64,
        anchor: u32,
        period: u32,
        cap: u64,
        pred: impl Fn(u32, u64) -> bool,
    ) -> u64 {
        let r0 = self.r0().wrapping_add(off);
        let mut k = align_slot_start(from_k, r0);
        for _ in 0..prefix {
            let clk_slot = ClkVal::new(r0.wrapping_add(k as u32)).slot();
            if pred(clk_slot, k / 2) {
                return k;
            }
            k += 4;
        }
        if period > 0 {
            let s0 = ClkVal::new(r0.wrapping_add(k as u32)).slot();
            if let Some(j) = stride2_steps_to_congruent(s0, anchor, period) {
                let jk = k + 4 * j;
                let clk_slot = ClkVal::new(r0.wrapping_add(jk as u32)).slot();
                if pred(clk_slot, jk / 2) {
                    return jk;
                }
            }
        }
        self.scan_clk00(off, from_k, cap, pred)
    }
}

/// Number of stride-2 steps from slot `s0` to the first visited slot
/// `≡ d (mod t)`, or `None` when the congruence has no solution on this
/// parity class (even `t`, odd offset).
fn stride2_steps_to_congruent(s0: u32, d: u32, t: u32) -> Option<u64> {
    let t = t as u64;
    let a = (d as u64 % t + t - s0 as u64 % t) % t; // (d - s0) mod t
    if !t.is_multiple_of(2) {
        // 2⁻¹ mod t exists for odd t: t.div_ceil(2).
        Some(a * t.div_ceil(2) % t)
    } else if a.is_multiple_of(2) {
        Some(a / 2)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::super::{LcAction, LcCommand, LcConfig};
    use super::*;
    use crate::address::BdAddr;
    use crate::clock::Clock;

    /// The actions one tick at `now` appends.
    fn tick(c: &mut LinkController, now: SimTime) -> Vec<LcAction> {
        let mut out = Vec::new();
        c.on_tick(now, &mut out);
        out
    }

    /// Issues `cmd` at `now`, discarding the actions it appends.
    fn command(c: &mut LinkController, cmd: LcCommand, now: SimTime) {
        c.command(cmd, now, &mut Vec::new());
    }

    fn lc(start: u32) -> LinkController {
        LinkController::new(
            BdAddr::new(0, 0x12, 0x345678),
            Clock::new(ClkVal::new(start)),
            LcConfig::default(),
            7,
        )
    }

    #[test]
    fn standby_never_wakes() {
        let lc = lc(0);
        assert_eq!(lc.next_wakeup(SimTime::ZERO), None);
        assert_eq!(lc.next_wakeup(SimTime::from_us(10_000)), None);
    }

    #[test]
    fn inquiry_wakes_at_master_tx_halves() {
        for start in [0u32, 1, 2, 3, 7] {
            let mut c = lc(start);
            command(
                &mut c,
                LcCommand::Inquiry {
                    num_responses: 1,
                    timeout_slots: 0,
                },
                SimTime::ZERO,
            );
            for from_k in 0..12u64 {
                let from = SimTime::from_ns(from_k * HALF_NS);
                let wake = c.next_wakeup(from).expect("inquiry always ticks");
                let k = wake.ns() / HALF_NS;
                assert!(wake >= from);
                // The woken tick is a master-TX half for this clock.
                assert!(
                    c.clkn(wake).is_master_tx_slot(),
                    "start {start} from {from_k}"
                );
                // And no earlier tick is.
                for j in from_k..k {
                    assert!(
                        !c.clkn(SimTime::from_ns(j * HALF_NS)).is_master_tx_slot(),
                        "missed earlier TX half: start {start} j {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn inquiry_timeout_bounds_the_wake() {
        let mut c = lc(2); // CLK1 = 1 at tick 0: next TX half is tick 2
        command(
            &mut c,
            LcCommand::Inquiry {
                num_responses: 0,
                timeout_slots: 1,
            },
            SimTime::ZERO,
        );
        // Timeout at proc_ticks >= 2 → tick 2; TX half also tick 2.
        let wake = c.next_wakeup(SimTime::from_ns(1)).unwrap();
        assert_eq!(wake.ns() / HALF_NS, 2);
    }

    #[test]
    fn inquiry_scan_sleeps_to_the_channel_epoch() {
        let mut c = lc(100);
        command(&mut c, LcCommand::InquiryScan, SimTime::ZERO);
        // The start command already opened the window on the current
        // channel; nothing happens until CLKN crosses a 4096 boundary.
        let wake = c.next_wakeup(SimTime::from_ns(1)).unwrap();
        let k = wake.ns() / HALF_NS;
        assert_eq!((100 + k) % 4096, 0, "wake at the CLKN16-12 epoch");
        assert!(k >= 3900, "sleeps most of the epoch, woke at {k}");
        // Ticks before the epoch are no-ops.
        for j in [1u64, 2, 100, 2000, k - 1] {
            assert!(
                tick(&mut c, SimTime::from_ns(j * HALF_NS)).is_empty(),
                "tick {j} must be a no-op"
            );
        }
        // The epoch tick re-opens the window on the new channel.
        assert!(!tick(&mut c, wake).is_empty(), "epoch tick acts");
    }

    #[test]
    fn page_scan_r1_window_boundaries() {
        let cfg = LcConfig {
            page_scan_continuous: false,
            page_scan_interval_slots: 64,
            page_scan_window_slots: 8,
            ..LcConfig::default()
        };
        let mut c = LinkController::new(
            BdAddr::new(0, 0x12, 0x345678),
            Clock::new(ClkVal::new(0)),
            cfg,
            7,
        );
        command(&mut c, LcCommand::PageScan, SimTime::ZERO);
        // Window opened at slot 0; next action closes it at slot 8.
        let wake = c.next_wakeup(SimTime::from_ns(1)).unwrap();
        assert_eq!(wake.ns() / HALF_NS, 16, "close at slot 8 = tick 16");
        for j in 1..16u64 {
            assert!(tick(&mut c, SimTime::from_ns(j * HALF_NS)).is_empty());
        }
        assert!(!tick(&mut c, wake).is_empty(), "window closes");
        // Now closed; next action re-opens at slot 64.
        let wake2 = c.next_wakeup(wake + SimDuration::from_ns(1)).unwrap();
        assert_eq!(wake2.ns() / HALF_NS, 128, "open at slot 64 = tick 128");
        for j in 17..128u64 {
            assert!(tick(&mut c, SimTime::from_ns(j * HALF_NS)).is_empty());
        }
        assert!(!tick(&mut c, wake2).is_empty(), "window reopens");
    }

    #[test]
    fn wakeup_contract_no_ops_before_the_hint() {
        // Generic contract check across procedure starts: every tick
        // strictly before the hint yields no actions.
        let cases: Vec<(u32, LcCommand)> = vec![
            (
                5,
                LcCommand::Inquiry {
                    num_responses: 1,
                    timeout_slots: 100,
                },
            ),
            (9, LcCommand::InquiryScan),
            (
                14,
                LcCommand::Page {
                    target: BdAddr::new(0, 9, 0x111111),
                    clke_offset: 77,
                    timeout_slots: 50,
                },
            ),
            (3, LcCommand::PageScan),
        ];
        for (start, cmd) in cases {
            let mut c = lc(start);
            command(&mut c, cmd.clone(), SimTime::ZERO);
            let from = SimTime::from_ns(1);
            let Some(wake) = c.next_wakeup(from) else {
                continue;
            };
            let k = wake.ns() / HALF_NS;
            for j in 1..k {
                assert!(
                    tick(&mut c, SimTime::from_ns(j * HALF_NS)).is_empty(),
                    "{cmd:?} from start {start}: tick {j} acted before hint {k}"
                );
            }
            assert!(
                !tick(&mut c, wake).is_empty()
                    || c.next_wakeup(wake + SimDuration::from_ns(1)).is_some(),
                "{cmd:?}: hint tick neither acts nor reschedules"
            );
        }
    }
}
