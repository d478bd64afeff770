//! The statistical receive path: one analytic outcome draw per packet
//! instead of encode → medium → correlate → decode.
//!
//! [`stat_slot_pair`] advances a promoted master/slave pair through one
//! master-TX / slave-RX slot pair, replicating the bit-level
//! scheduler's observable behavior — ARQ state, event logs, channel
//! assessment, packet timing — while drawing the four-way packet
//! outcome (sync miss / HEC fail / CRC fail / clean) from the
//! closed-form [`ErrorModel`] instead of running the codecs.
//!
//! The stepper only ever batches the saturated-ACL shape it can prove
//! equivalent to the bit-level scheduler: a pure single-slave piconet
//! in `Connection` state, single-slot data packets, slave idle, no SCO
//! / sniff / hold / park, no LMP traffic, no pending AFH switch.
//! Anything else falls back to the bit-level path; the eligibility
//! split between [`LinkController::stat_master_attempt`] (no demotion
//! on failure) and [`LinkController::stat_master_stable`] (demotion)
//! is documented in `docs/FIDELITY.md`.
//!
//! # Pinned draw contract
//!
//! Exactly one [`btsim_kernel::SimRng::unit_f64`] variate is consumed
//! per *transmitted* packet, always — even at BER zero — drawn from
//! the **receiver's** link-controller RNG: the slave's RNG decides the
//! forward packet, the master's RNG decides the response, which only
//! exists (and therefore only draws) when the forward packet decoded
//! cleanly. Any non-clean outcome loses the whole packet: a sync miss
//! or HEC failure means the slave never sees a valid header (it stays
//! silent), and a payload-CRC failure makes the decode fail before the
//! response is built — exactly the bit-level codec's behavior.

use btsim_fidelity::{ErrorModel, PayloadCoding};
use btsim_kernel::{SimDuration, SimTime};

use crate::address::BdAddr;
use crate::hop;
use crate::packet::{self, Llid, PacketType};

use super::connection::{conn_channel_words, fit_type, LinkMode};
use super::{LcEvent, LinkController, ProcState};

/// Which end of the link a batched event belongs to; the engine maps
/// this back to a device id when logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatSide {
    /// The piconet master (the transmitting side of the forward slot).
    Master,
    /// The single active slave.
    Slave,
}

/// The slave's response inside a batched slot pair (always a NULL: the
/// slave is only eligible while it has nothing queued).
#[derive(Debug, Clone, Copy)]
pub struct StatRespReport {
    /// RF channel the response hopped to.
    pub rf_channel: u8,
    /// Air length of the response in bits.
    pub air_bits: usize,
    /// Whether the master decoded the response cleanly.
    pub clean: bool,
}

/// What one call to [`stat_slot_pair`] did, so the engine can mirror
/// the bit-level path's bookkeeping: medium transmission counters,
/// power-monitor TX/RX intervals, and logged events.
#[derive(Debug, Clone)]
pub struct StatPairReport {
    /// RF channel the forward packet hopped to.
    pub fwd_rf_channel: u8,
    /// Air length of the forward packet in bits.
    pub fwd_air_bits: usize,
    /// Whether the slave decoded the forward packet cleanly. When
    /// false the slave stayed silent and `resp` is `None`; the master
    /// still listened for `peek_us` from `resp_at`.
    pub fwd_clean: bool,
    /// Start of the response slot (forward slot start + one slot).
    pub resp_at: SimTime,
    /// The response, when the forward packet got through.
    pub resp: Option<StatRespReport>,
    /// Start of the next slot pair: the pair occupied `[start, end)`.
    pub end: SimTime,
}

impl LinkController {
    /// Whether `master_tick` at `now` would reach its unicast-data
    /// branch toward a lone active slave — the *attempt-level* half of
    /// statistical-tier eligibility. Returns the slave's address.
    ///
    /// A `None` here is not contention — the controller may simply sit
    /// between slots, wait out a response window, or have drained its
    /// queue — so the engine does **not** demote a promoted link on
    /// attempt failure; only [`LinkController::stat_master_stable`]
    /// turning false does that.
    pub fn stat_master_attempt(&self, now: SimTime) -> Option<BdAddr> {
        if !matches!(self.state, ProcState::Connection) || !self.slave_links.is_empty() {
            return None;
        }
        let m = self.master.as_ref()?;
        if m.slaves.len() != 1 {
            return None;
        }
        let clk = self.clkn(now);
        if !clk.is_slot_start() || !clk.is_master_tx_slot() {
            return None;
        }
        if now < m.busy_until {
            return None;
        }
        // A response window still running blocks the attempt; one that
        // already expired is cleared at the top of `master_tick` and
        // does not.
        if m.awaiting.is_some_and(|(_, until)| now < until) {
            return None;
        }
        let s = &m.slaves[0];
        if s.mode != LinkMode::Active
            || s.sco.is_some()
            || s.sniff.is_some()
            || s.sniff_ext_until_slot.is_some()
            || s.hold_until_slot.is_some()
            || s.poll_asap
            || s.newconn_deadline_slot.is_some()
            || !s.link.has_data()
        {
            return None;
        }
        Some(s.addr)
    }

    /// The *stability-level* half of the master-side eligibility: no
    /// upcoming AFH map switch and no LMP traffic on the link. When a
    /// promoted link sees this turn false, the engine demotes it to
    /// bit level on the very next slot.
    ///
    /// A scheduled switch whose instant is still ahead of `slot` is
    /// instability — hops inside a fast-forward window would straddle
    /// the remap. One whose instant has already passed is a settled
    /// map: `settle_afh` only folds it in on the next command (the
    /// tick path must not mutate state), but [`resolve_afh`] already
    /// serves the new map for every slot from the instant on, so the
    /// link may promote again.
    pub fn stat_master_stable(&self, slot: u64) -> bool {
        self.afh_pending.as_ref().is_none_or(|&(_, at)| at <= slot)
            && self
                .master
                .as_ref()
                .is_some_and(|m| m.slaves.len() == 1 && !m.slaves[0].link.has_lmp())
    }

    /// Whether this controller is a plain, idle, active slave of
    /// `master` — in `Connection` state with exactly that one link, no
    /// low-power mode, nothing queued to send, not resynchronising,
    /// past any busy window, and no *upcoming* AFH switch (one whose
    /// instant has passed is a settled map; see
    /// [`LinkController::stat_master_stable`]).
    pub fn stat_slave_ready(&self, master: BdAddr, now: SimTime) -> bool {
        if !matches!(self.state, ProcState::Connection)
            || self.master.as_ref().is_some_and(|m| !m.slaves.is_empty())
            || self.slave_links.len() != 1
            || self
                .afh_pending
                .as_ref()
                .is_some_and(|&(_, at)| at > now.slots())
        {
            return false;
        }
        let s = &self.slave_links[0];
        s.master == master
            && s.mode == LinkMode::Active
            && s.sco.is_none()
            && s.sniff.is_none()
            && s.sniff_ext_until_slot.is_none()
            && s.hold_until_slot.is_none()
            && s.newconn_deadline_slot.is_none()
            && !s.resync
            && !s.listening_full_slot
            && now >= s.busy_until
            && !s.link.has_data()
    }
}

/// Advances an eligible master/slave pair through one statistical slot
/// pair starting at `now` (a master-TX slot boundary on both clocks).
///
/// Returns `None` — with **no** state change and **no** RNG draw on
/// either side — when the attempt conditions do not hold, the next
/// fragment is an LMP PDU or would need a multi-slot packet, or the
/// pair would not finish by `horizon`. Otherwise it consumes the
/// fragment, steps both controllers' ARQ/assessment state exactly as
/// the bit-level `master_tick` → `slave_rx_one` → `master_rx` sequence
/// would, and reports what the engine must mirror.
///
/// `events` is a caller-owned scratch buffer: the function clears it,
/// then fills it with the events to log in chronological order, each
/// stamped with the instant the bit-level path would have delivered it
/// (air end plus the modem delay). Reusing one buffer across the whole
/// batch keeps the per-pair cost allocation-free.
///
/// Regardless of outcome the pair has a uniform cadence: the next pair
/// starts at `now + 2` slots (forward slot + response slot), because a
/// lost response leaves `awaiting` to expire exactly at the next
/// master-TX slot boundary, where `master_tick` retransmits.
pub fn stat_slot_pair(
    master: &mut LinkController,
    slave: &mut LinkController,
    model: &ErrorModel,
    now: SimTime,
    modem_delay: SimDuration,
    horizon: SimTime,
    events: &mut Vec<(SimTime, StatSide, LcEvent)>,
) -> Option<StatPairReport> {
    master.stat_master_attempt(now)?;
    events.clear();

    // Peek before mutating: bail without side effects when the pair
    // does not fit the horizon or the fragment is not batchable.
    let max_user = master.acl_type.max_user_bytes();
    let m = master.master.as_ref().expect("attempt checked");
    let (peek_llid, peek_len) = m.slaves[0].link.peek_outgoing(max_user)?;
    if peek_llid == Llid::Lmp {
        return None;
    }
    let ptype = fit_type(master.acl_type, peek_len);
    let n_slots = u64::from(ptype.slots());
    if n_slots != 1 {
        return None;
    }
    let end = now + SimDuration::from_slots(n_slots + 1);
    if end > horizon {
        return None;
    }

    let own = master.addr;
    let clk = master.clkn(now);
    let now_slot = now.slots();
    let afh = master.afh_view();
    let words = hop::ConnWords::new(own.hop_input());
    let fwd_ch = conn_channel_words(clk, &words, afh.for_slot(now_slot));
    let resp_clk = clk.offset_by(2 * n_slots as u32);
    let resp_ch = conn_channel_words(resp_clk, &words, afh.for_slot(now_slot + n_slots));
    let resp_at = now + SimDuration::from_slots(n_slots);
    let fhs_fec = master.cfg.page_fhs_fec;

    // --- Master transmit: mirror `master_tick`'s data branch. ---
    let m = master.master.as_mut().expect("attempt checked");
    let slot = &mut m.slaves[0];
    let lt_addr = slot.lt_addr;
    // The fragment stays in flight until acknowledged; the delivery
    // event gets its own copy.
    let (llid, data) = slot.link.take_outgoing(max_user).expect("peeked non-empty");
    slot.link.restore_outgoing(data.clone());
    debug_assert_eq!((llid, data.len()), (peek_llid, peek_len));
    debug_assert!(ptype.has_crc());
    let arqn_f = slot.link.take_arqn();
    let seqn_f = slot.link.seqn_out;
    slot.last_poll_slot = now_slot;
    m.busy_until = resp_at + SimDuration::SLOT;
    m.awaiting = Some((lt_addr, resp_at + SimDuration::SLOT));

    let fwd_air = packet::air_bits(ptype, data.len(), fhs_fec);
    let fwd_end = now + SimDuration::from_bits(fwd_air);

    // Forward outcome: the receiving slave's RNG draws.
    let framed = (ptype.payload_header_bytes() + data.len()) * 8 + 16;
    let coding = if ptype.fec23() {
        PayloadCoding::Fec23 {
            framed_bits: framed,
        }
    } else {
        PayloadCoding::Uncoded {
            framed_bits: framed,
        }
    };
    let fwd_outcome = model.profile(coding).draw(&mut slave.rng);
    let fwd_clean = fwd_outcome.is_clean();

    // The slave scores every delivery's channel (`rx_connection` notes
    // good only on a clean, collision-free decode).
    slave.assessment.note(fwd_ch, fwd_clean);

    let mut resp = None;
    if fwd_clean {
        // --- Slave receive + NULL response: mirror `slave_rx_one`. ---
        let s = &mut slave.slave_links[0];
        let deliver_at = fwd_end + modem_delay;
        s.last_rx_slot = deliver_at.slots();
        s.sup_hold_excuse_slot = None;
        if s.link.on_arqn(arqn_f) {
            events.push((
                deliver_at,
                StatSide::Slave,
                LcEvent::AclDelivered { lt_addr },
            ));
        }
        if s.link.on_rx_crc_packet(seqn_f) {
            events.push((
                deliver_at,
                StatSide::Slave,
                LcEvent::AclReceived {
                    lt_addr,
                    llid,
                    data,
                },
            ));
        }
        // The slave has nothing queued (readiness precondition), so it
        // answers with a 1-slot NULL carrying the ACK.
        let arqn_r = s.link.take_arqn();
        s.busy_until = resp_at + SimDuration::SLOT;
        let resp_air = packet::air_bits(PacketType::Null, 0, fhs_fec);
        let resp_end = resp_at + SimDuration::from_bits(resp_air);

        // Response outcome: the receiving master's RNG draws.
        let resp_outcome = model.profile(PayloadCoding::None).draw(&mut master.rng);
        let resp_clean = resp_outcome.is_clean();
        master.assessment.note(resp_ch, resp_clean);
        if resp_clean {
            // --- Master receive: mirror `master_rx`. ---
            let m = master.master.as_mut().expect("attempt checked");
            let slot = &mut m.slaves[0];
            if slot.link.on_arqn(arqn_r) {
                events.push((
                    resp_end + modem_delay,
                    StatSide::Master,
                    LcEvent::AclDelivered { lt_addr },
                ));
            }
            slot.poll_asap = false;
            slot.newconn_deadline_slot = None;
            slot.last_rx_slot = (resp_end + modem_delay).slots();
            slot.sup_hold_excuse_slot = None;
            m.awaiting = None;
        }
        resp = Some(StatRespReport {
            rf_channel: resp_ch,
            air_bits: resp_air,
            clean: resp_clean,
        });
    }

    Some(StatPairReport {
        fwd_rf_channel: fwd_ch,
        fwd_air_bits: fwd_air,
        fwd_clean,
        resp_at,
        resp,
        end,
    })
}
