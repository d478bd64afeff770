//! CONNECTION state: master polling, slave listening, ARQ and the
//! low-power modes (paper §3.2).
//!
//! The master owns the piconet timing: it addresses one slave per even
//! slot (data from the slave's queue, or POLL when the polling interval
//! expires) and listens for the response in the following slot. A slave
//! in **active** mode opens a short carrier-detect window at every master
//! slot start — the constant RF floor the paper measures at 2.6%. In
//! **sniff** mode it wakes only at sniff anchors; in **hold** it is
//! silent for the hold duration and resynchronises at the end; in
//! **park** it gives up its LT_ADDR and listens only to beacons.

use btsim_kernel::{SimDuration, SimTime};

use crate::address::BdAddr;
use crate::buffer::TxBuffer;
use crate::clock::ClkVal;
use crate::hop::{self, ChannelMap, HopSequence};
use crate::packet::{self, AirPacket, Header, LinkKeys, Llid, PacketType, Payload};

use super::{LcAction, LcEvent, LifePhase, LinkController, ProcState};

/// Sub-mode of a connected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkMode {
    /// Listening at every master slot.
    Active,
    /// Periodic listening at sniff anchors.
    Sniff,
    /// Link suspended for a fixed duration.
    Hold,
    /// Parked: beacon listening only.
    Park,
}

/// SCO link parameters (LMP_SCO_link_req contents, simplified).
///
/// SCO slots are reserved: every `t_sco` slots the master sends an HV
/// packet to the slave and the slave answers with its own HV packet in
/// the following slot. HV packets carry no CRC and are never
/// retransmitted — late voice is worthless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoParams {
    /// Interval between reserved slot pairs (2, 4 or 6 slots for
    /// HV1/HV2/HV3).
    pub t_sco: u32,
    /// Anchor offset (piconet clock slots; forced even).
    pub d_sco: u32,
    /// Voice packet type: HV1, HV2 or HV3.
    pub ptype: PacketType,
}

impl ScoParams {
    /// The spec pairing of packet type and interval: HV1 every 2 slots,
    /// HV2 every 4, HV3 every 6 — each carries 1.25 ms of 64 kbit/s
    /// voice, so the stream exactly fills the link.
    pub fn for_type(ptype: PacketType, d_sco: u32) -> ScoParams {
        let t_sco = match ptype {
            PacketType::Hv1 => 2,
            PacketType::Hv2 => 4,
            _ => 6,
        };
        ScoParams {
            t_sco,
            d_sco: d_sco & !1,
            ptype,
        }
    }
}

/// Connection-state channel with optional AFH remapping.
pub(crate) fn conn_channel(clk: ClkVal, addr28: u32, afh: Option<&ChannelMap>) -> u8 {
    match afh {
        Some(map) => hop::hop_channel_afh(clk, addr28, map),
        None => hop::hop_channel(HopSequence::Connection, clk, addr28),
    }
}

/// [`conn_channel`] for precomputed address words — the statistical
/// tier derives the words once per slot pair and hops twice.
pub(crate) fn conn_channel_words(
    clk: ClkVal,
    words: &hop::ConnWords,
    afh: Option<&ChannelMap>,
) -> u8 {
    let ch = hop::conn_channel_words(words, clk);
    match afh {
        Some(map) => {
            debug_assert!(map.used_count() >= hop::MIN_AFH_CHANNELS);
            map.remap(ch)
        }
        None => ch,
    }
}

/// Snapshot of a controller's AFH state for one tick / RX dispatch: the
/// in-use map plus any scheduled switch, resolved per hop slot.
///
/// Keying the lookup on each hop's *own* slot (rather than "now") keeps
/// both ends of a frame consistent when the switch instant falls between
/// a transmission and its response: the master picks the response-listen
/// channel for slot `s + n` with the map in effect *at* `s + n`, which
/// is exactly the map the slave uses when it transmits there.
#[derive(Debug, Clone)]
pub(crate) struct AfhView {
    current: Option<ChannelMap>,
    pending: Option<(ChannelMap, u64)>,
}

impl AfhView {
    /// The map in effect for a hop at piconet slot `slot` (delegates to
    /// [`super::resolve_afh`], the single switch-instant rule).
    pub(crate) fn for_slot(&self, slot: u64) -> Option<&ChannelMap> {
        super::resolve_afh(self.current.as_ref(), self.pending.as_ref(), slot)
    }
}

/// Whether piconet slot `slot` is the master half of a reserved SCO pair.
pub(crate) fn sco_at_anchor(slot: u32, p: &ScoParams) -> bool {
    p.t_sco != 0 && (slot.wrapping_sub(p.d_sco)).is_multiple_of(p.t_sco)
}

/// Sniff mode parameters (LMP_sniff_req contents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SniffParams {
    /// Interval between sniff anchors, in slots.
    pub t_sniff: u32,
    /// Master slots the slave listens per anchor.
    pub n_attempt: u32,
    /// Anchor offset in slots (piconet clock).
    pub d_sniff: u32,
    /// Extension after traffic, in master slots.
    pub n_timeout: u32,
}

impl Default for SniffParams {
    fn default() -> Self {
        Self {
            t_sniff: 100,
            n_attempt: 1,
            d_sniff: 0,
            n_timeout: 0,
        }
    }
}

/// Per-link ARQ + queue state, shared by both roles.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkState {
    pub tx: TxBuffer,
    pub in_flight: Option<(Llid, Vec<u8>)>,
    pub seqn_out: bool,
    pub last_seqn_in: Option<bool>,
    pub arqn_to_send: bool,
}

impl LinkState {
    pub(crate) fn new() -> Self {
        Self {
            seqn_out: true,
            ..Self::default()
        }
    }

    /// True when a data packet could be sent (new or retransmission).
    pub(crate) fn has_data(&self) -> bool {
        self.in_flight.is_some() || !self.tx.is_empty()
    }

    /// Fragment to transmit now — the unacknowledged one, or a fresh
    /// pop — moved out without a copy. The in-flight slot keeps its LLID
    /// but stays empty until [`LinkState::restore_outgoing`] hands the
    /// bytes back, which the caller does as soon as it has built the
    /// packet.
    pub(crate) fn take_outgoing(&mut self, max_bytes: usize) -> Option<(Llid, Vec<u8>)> {
        if self.in_flight.is_none() {
            self.in_flight = self.tx.pop_fragment(max_bytes);
        }
        let (llid, data) = self.in_flight.as_mut()?;
        Some((*llid, std::mem::take(data)))
    }

    /// Puts back the bytes [`LinkState::take_outgoing`] lent out.
    pub(crate) fn restore_outgoing(&mut self, data: Vec<u8>) {
        let (_, lent) = self.in_flight.as_mut().expect("a fragment is in flight");
        *lent = data;
    }

    /// The `(llid, length)` [`LinkState::take_outgoing`] would hand out,
    /// without consuming or cloning anything.
    pub(crate) fn peek_outgoing(&self, max_bytes: usize) -> Option<(Llid, usize)> {
        match &self.in_flight {
            Some((llid, data)) => Some((*llid, data.len())),
            None => self.tx.peek_fragment(max_bytes),
        }
    }

    /// Whether any LMP traffic is pending on this link (queued or in
    /// flight). LMP PDUs carry link-management side effects, so the
    /// statistical tier refuses to batch while one is outstanding.
    pub(crate) fn has_lmp(&self) -> bool {
        matches!(&self.in_flight, Some((Llid::Lmp, _))) || self.tx.has_lmp()
    }

    /// Processes a received ARQN bit; returns true when it acknowledges
    /// the packet in flight.
    pub(crate) fn on_arqn(&mut self, arqn: bool) -> bool {
        if arqn && self.in_flight.is_some() {
            self.in_flight = None;
            self.seqn_out = !self.seqn_out;
            true
        } else {
            false
        }
    }

    /// The ARQN bit for the next response, consumed on use: an ACK is
    /// sent once per received CRC packet. Were it sticky, a response to
    /// a keep-alive POLL after a hold would carry a stale ACK and
    /// acknowledge an in-flight packet the peer never received (a real
    /// loss on scatternet bridges, which hold links all the time).
    /// If the ACK itself is lost the peer retransmits, the dedup path
    /// re-arms the flag, and the next response acknowledges again.
    pub(crate) fn take_arqn(&mut self) -> bool {
        std::mem::take(&mut self.arqn_to_send)
    }

    /// Processes the SEQN of a received CRC packet; returns true when the
    /// payload is new (not a retransmission). Always arms the ACK.
    pub(crate) fn on_rx_crc_packet(&mut self, seqn: bool) -> bool {
        self.arqn_to_send = true;
        if self.last_seqn_in == Some(seqn) {
            false
        } else {
            self.last_seqn_in = Some(seqn);
            true
        }
    }

    /// Drops everything queued or in flight (link teardown), returning
    /// the number of *user* (non-LMP) bytes that will never be
    /// delivered — the peer's dedup state is gone with the link, so a
    /// packet in flight counts in full even if its bits were on the air.
    pub(crate) fn flush_dropped(&mut self) -> u64 {
        let mut n = self.tx.flush() as u64;
        if let Some((llid, data)) = self.in_flight.take() {
            if llid != Llid::Lmp {
                n += data.len() as u64;
            }
        }
        n
    }
}

/// Master-side record of one slave.
#[derive(Debug, Clone)]
pub(crate) struct SlaveSlot {
    pub lt_addr: u8,
    pub addr: BdAddr,
    pub mode: LinkMode,
    pub sco: Option<ScoParams>,
    pub sco_out: std::collections::VecDeque<u8>,
    pub sniff: Option<SniffParams>,
    pub sniff_ext_until_slot: Option<u64>,
    pub hold_until_slot: Option<u64>,
    /// End slot of the earliest hold granted with no reception since —
    /// the supervision excuse. Re-arming a hold the peer never answered
    /// must not push this forward, or a pre-scheduled hold calendar
    /// would excuse a dead link forever. Cleared on any valid
    /// reception.
    pub sup_hold_excuse_slot: Option<u64>,
    pub park_beacon_interval: u32,
    pub parked_lt: u8,
    pub last_poll_slot: u64,
    /// Poll at the next opportunity (new connection / after hold).
    pub poll_asap: bool,
    pub newconn_deadline_slot: Option<u64>,
    /// Simulation slot of the last valid reception from this slave —
    /// the link supervision baseline. Meaningful only once the first
    /// exchange completed (`newconn_deadline_slot` is `None`).
    pub last_rx_slot: u64,
    pub link: LinkState,
}

/// Master context: the paper's `PICONET` module.
#[derive(Debug, Clone, Default)]
pub(crate) struct MasterCtx {
    pub slaves: Vec<SlaveSlot>,
    pub busy_until: SimTime,
    /// Awaiting a response from (lt_addr) until the given time.
    pub awaiting: Option<(u8, SimTime)>,
}

impl MasterCtx {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn slot_mut(&mut self, lt_addr: u8) -> Option<&mut SlaveSlot> {
        self.slaves.iter_mut().find(|s| s.lt_addr == lt_addr)
    }
}

/// Slave context of a connected device.
#[derive(Debug, Clone)]
pub(crate) struct SlaveCtx {
    pub master: BdAddr,
    pub lt_addr: u8,
    pub clk_offset: u32,
    pub mode: LinkMode,
    pub sco: Option<ScoParams>,
    pub sco_out: std::collections::VecDeque<u8>,
    pub sniff: Option<SniffParams>,
    pub sniff_ext_until_slot: Option<u64>,
    pub hold_until_slot: Option<u64>,
    /// End slot of the earliest hold entered with no reception since —
    /// the supervision excuse (see [`SlaveSlot::sup_hold_excuse_slot`]).
    pub sup_hold_excuse_slot: Option<u64>,
    pub park_beacon_interval: u32,
    pub parked_lt: u8,
    pub newconn_deadline_slot: Option<u64>,
    /// Simulation slot of the last valid reception from the master —
    /// the link supervision baseline. Meaningful only once the first
    /// exchange completed (`newconn_deadline_slot` is `None`).
    pub last_rx_slot: u64,
    /// Resynchronising after hold: listen whole master slots.
    pub resync: bool,
    pub link: LinkState,
    /// Listen whole slots (new connection) instead of peeks.
    pub listening_full_slot: bool,
    pub busy_until: SimTime,
}

/// Whether piconet slot `slot` falls inside the sniff window.
pub(crate) fn sniff_in_window(slot: u32, p: &SniffParams) -> bool {
    if p.t_sniff == 0 {
        return true;
    }
    let pos = (slot.wrapping_sub(p.d_sniff)) % p.t_sniff;
    pos < 2 * p.n_attempt
}

/// Whether `slot` is the anchor (first master slot) of a sniff window.
pub(crate) fn sniff_at_anchor(slot: u32, p: &SniffParams) -> bool {
    p.t_sniff != 0 && (slot.wrapping_sub(p.d_sniff)).is_multiple_of(p.t_sniff)
}

/// Picks a data packet type of the same family that fits `len` bytes.
pub(crate) fn fit_type(prefer: PacketType, len: usize) -> PacketType {
    if len <= prefer.max_user_bytes() {
        return prefer;
    }
    let fec = prefer.fec23();
    let ladder: &[PacketType] = if fec {
        &[PacketType::Dm1, PacketType::Dm3, PacketType::Dm5]
    } else {
        &[PacketType::Dh1, PacketType::Dh3, PacketType::Dh5]
    };
    *ladder
        .iter()
        .find(|t| len <= t.max_user_bytes())
        .unwrap_or(ladder.last().expect("ladder is non-empty"))
}

/// Link supervision deadline for one link, or `None` when supervision
/// is not armed: disabled (`sup_to == 0`), the first exchange has not
/// completed yet (`newconn` pending — the new-connection timeout owns
/// that window and a fresh link's `last_rx_slot` is not meaningful), or
/// the link is parked (beacons are broadcast, so a parked slave's
/// silence is expected; park is exempt by design).
///
/// A held link is excused for the hold period itself: the baseline is
/// the later of the last reception and `sup_hold_excuse_slot` — the end
/// of the earliest hold the peer never answered — so the timer only
/// runs once traffic is expected again. The excuse deliberately ignores
/// the *live* `hold_until_slot`: a pre-scheduled hold calendar keeps
/// re-arming holds on a link whose peer crashed, and chasing the live
/// hold end would push the deadline out forever. A dead bridge is
/// detected `sup_to` slots after the first hold it failed to return
/// from.
pub(crate) fn supervision_deadline(
    sup_to: u64,
    mode: LinkMode,
    newconn: Option<u64>,
    last_rx_slot: u64,
    sup_hold_excuse_slot: Option<u64>,
) -> Option<u64> {
    if sup_to == 0 || newconn.is_some() || mode == LinkMode::Park {
        return None;
    }
    Some(last_rx_slot.max(sup_hold_excuse_slot.unwrap_or(0)) + sup_to)
}

/// How "awake" a link mode keeps the radio (lower = more awake). The
/// phase of a device with several slave links is its most awake one.
fn mode_rank(mode: LinkMode) -> u8 {
    match mode {
        LinkMode::Active => 0,
        LinkMode::Sniff => 1,
        LinkMode::Hold => 2,
        LinkMode::Park => 3,
    }
}

impl LinkController {
    /// Snapshots the AFH state for one tick / RX dispatch.
    pub(crate) fn afh_view(&self) -> AfhView {
        AfhView {
            current: self.afh.clone(),
            pending: self.afh_pending.clone(),
        }
    }

    /// Life phase implied by the current connection mode(s). A device
    /// with several slave links (a scatternet bridge) is attributed the
    /// most awake of its link modes: while one piconet is held the
    /// radio is still busy following the other.
    pub(crate) fn connection_phase(&self) -> LifePhase {
        let awakest = self
            .slave_links
            .iter()
            .map(|s| s.mode)
            .min_by_key(|m| mode_rank(*m));
        match awakest {
            Some(LinkMode::Active) | None => LifePhase::Active,
            Some(LinkMode::Sniff) => LifePhase::Sniff,
            Some(LinkMode::Hold) => LifePhase::Hold,
            Some(LinkMode::Park) => LifePhase::Park,
        }
    }

    /// Whether any link of this controller — a master-side slave slot
    /// or a slave-side context — is in active mode, i.e. exchanging at
    /// least Tpoll keepalive traffic rather than sleeping through a
    /// hold / sniff / park window. The statistical tier treats such a
    /// device as co-channel contention even when its traffic is not in
    /// the air at this instant.
    pub fn has_active_link(&self) -> bool {
        self.master
            .as_ref()
            .is_some_and(|m| m.slaves.iter().any(|s| s.mode == LinkMode::Active))
            || self.slave_links.iter().any(|s| s.mode == LinkMode::Active)
    }

    pub(crate) fn tick_connection(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        // Supervision runs before the slot-phase and busy gates so the
        // event engine's hinted tick at exactly the deadline fires it.
        self.supervise_links(now, out);
        self.master_tick(now, out);
        let mut i = 0;
        while i < self.slave_links.len() {
            if self.slave_tick_one(i, now, out) {
                i += 1;
            }
        }
    }

    /// Link supervision timeout (spec `supervisionTO`): tears down every
    /// link with no valid reception for `supervision_timeout_slots`
    /// slots, raising [`LcEvent::SupervisionTimeout`] then
    /// [`LcEvent::Detached`] per dead link. The LT_ADDR is freed and the
    /// transmit buffers flushed with the dropped user bytes accounted in
    /// [`LinkController::dropped_tx_bytes`]. A slave whose last link
    /// died reverts to page scan so recovery can re-page it.
    fn supervise_links(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        let sup_to = self.cfg.supervision_timeout_slots as u64;
        if sup_to == 0 {
            return;
        }
        let now_slot = now.slots();
        let mut dead_master: Vec<u8> = Vec::new();
        let mut dead_slave: Vec<u8> = Vec::new();
        let mut dropped: u64 = 0;
        if let Some(m) = &mut self.master {
            m.slaves.retain_mut(|s| {
                let expired = supervision_deadline(
                    sup_to,
                    s.mode,
                    s.newconn_deadline_slot,
                    s.last_rx_slot,
                    s.sup_hold_excuse_slot,
                )
                .is_some_and(|d| now_slot >= d);
                if expired {
                    dropped += s.link.flush_dropped();
                    dead_master.push(s.lt_addr);
                }
                !expired
            });
        }
        if self.master.as_ref().is_some_and(|m| m.slaves.is_empty()) && !dead_master.is_empty() {
            self.master = None;
        }
        self.slave_links.retain_mut(|s| {
            let expired = supervision_deadline(
                sup_to,
                s.mode,
                s.newconn_deadline_slot,
                s.last_rx_slot,
                s.sup_hold_excuse_slot,
            )
            .is_some_and(|d| now_slot >= d);
            if expired {
                dropped += s.link.flush_dropped();
                dead_slave.push(s.lt_addr);
            }
            !expired
        });
        if dead_master.is_empty() && dead_slave.is_empty() {
            return;
        }
        self.dropped_tx_bytes += dropped;
        if !dead_slave.is_empty() {
            out.push(LcAction::RxOff);
        }
        for lt in dead_master.into_iter().chain(dead_slave) {
            out.push(LcAction::Event(LcEvent::SupervisionTimeout { lt_addr: lt }));
            out.push(LcAction::Event(LcEvent::Detached { lt_addr: lt }));
        }
        if self.slave_links.is_empty() && !self.is_master() {
            self.start_page_scan(now, out);
        } else {
            self.settle_state(out);
        }
    }

    /// The earliest armed supervision deadline over all links, in
    /// simulation slots — the event engine folds it into its wakeup
    /// hints and the statistical tier caps batch horizons at it.
    pub fn next_supervision_deadline_slot(&self) -> Option<u64> {
        let sup_to = self.cfg.supervision_timeout_slots as u64;
        let mut best: Option<u64> = None;
        let mut consider = |d: Option<u64>| {
            if let Some(d) = d {
                best = Some(best.map_or(d, |b: u64| b.min(d)));
            }
        };
        if let Some(m) = &self.master {
            for s in &m.slaves {
                consider(supervision_deadline(
                    sup_to,
                    s.mode,
                    s.newconn_deadline_slot,
                    s.last_rx_slot,
                    s.sup_hold_excuse_slot,
                ));
            }
        }
        for s in &self.slave_links {
            consider(supervision_deadline(
                sup_to,
                s.mode,
                s.newconn_deadline_slot,
                s.last_rx_slot,
                s.sup_hold_excuse_slot,
            ));
        }
        best
    }

    /// Power-off (crash): all state is lost instantly and silently — no
    /// Detach PDUs, no [`LcEvent::Detached`]. Peers only find out
    /// through their own supervision timeouts, which is the detection
    /// latency the fault experiments measure. Dropped user bytes are
    /// still accounted (the accounting models the simulator's view, not
    /// the dead device's).
    pub(crate) fn cmd_power_off(&mut self, out: &mut Vec<LcAction>) {
        let mut dropped: u64 = 0;
        if let Some(m) = &mut self.master {
            for s in &mut m.slaves {
                dropped += s.link.flush_dropped();
            }
        }
        for s in &mut self.slave_links {
            dropped += s.link.flush_dropped();
        }
        self.dropped_tx_bytes += dropped;
        self.master = None;
        self.slave_links.clear();
        self.afh = None;
        self.afh_pending = None;
        self.assessment.reset();
        self.stat_promoted = false;
        self.ff_until = SimTime::ZERO;
        self.state = ProcState::Standby;
        out.push(LcAction::RxOff);
        self.set_phase(LifePhase::Standby, out);
    }

    pub(crate) fn rx_connection(
        &mut self,
        rx: &super::RxDelivery<'_>,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        let mut decoded = false;
        if self.master.is_some() {
            decoded |= self.master_rx(rx, now, out);
        }
        // Each slave link listens under its own master's access code;
        // the first link whose keys decode the packet consumes it.
        for i in 0..self.slave_links.len() {
            if self.slave_rx_one(i, rx, now, out) {
                decoded = true;
                break;
            }
        }
        // AFH channel assessment: score the channel this delivery
        // arrived on. A clean decode with no collision mask is a good
        // observation; a collision mask (device overlap or interferer
        // burst) or a failed decode (sync / HEC / CRC) is a bad one.
        self.assessment
            .note(rx.rf_channel, decoded && rx.collision_mask.is_none());
    }

    // ----- master side ----------------------------------------------------

    fn master_tick(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        let clk = self.clkn(now); // master: CLK == CLKN
        let own = self.addr;
        let acl_prefer = self.acl_type;
        let t_poll = self.t_poll as u64;
        let peek = self.peek_duration();
        let sync_threshold = self.cfg.sync_threshold;
        let fhs_fec = self.cfg.page_fhs_fec;
        let afh = self.afh_view();
        let now_slot = now.slots();

        let Some(m) = &mut self.master else { return };
        // Expire a response window that produced nothing.
        if let Some((_, until)) = m.awaiting {
            if now >= until {
                m.awaiting = None;
            }
        }
        if !clk.is_slot_start() || !clk.is_master_tx_slot() {
            return;
        }
        if now < m.busy_until || m.awaiting.is_some() {
            return;
        }
        // Drop slaves that never completed the first exchange.
        let mut dropped = Vec::new();
        let mut dropped_bytes: u64 = 0;
        m.slaves.retain_mut(|s| {
            let expired = s.newconn_deadline_slot.is_some_and(|d| now_slot >= d);
            if expired {
                dropped_bytes += s.link.flush_dropped();
                dropped.push(s.lt_addr);
            }
            !expired
        });
        self.dropped_tx_bytes += dropped_bytes;
        for lt in dropped {
            out.push(LcAction::Event(LcEvent::Detached { lt_addr: lt }));
        }

        let clk_slot = clk.slot();
        // Reserved SCO slots take absolute priority.
        if let Some(idx) = m.slaves.iter().position(|s| {
            s.mode != LinkMode::Park && s.sco.as_ref().is_some_and(|p| sco_at_anchor(clk_slot, p))
        }) {
            let keys = LinkKeys {
                lap: own.lap(),
                uap: own.uap(),
                whiten: clk.whitening_seed(),
                sync_threshold,
                fhs_fec,
            };
            let ch = conn_channel(clk, own.hop_input(), afh.for_slot(now_slot));
            let slave = &mut m.slaves[idx];
            let params = slave.sco.expect("checked above");
            let frame = take_voice(&mut slave.sco_out, params.ptype.max_user_bytes());
            let header = Header {
                lt_addr: slave.lt_addr,
                ptype: params.ptype,
                flow: true,
                arqn: slave.link.take_arqn(),
                seqn: slave.link.seqn_out,
            };
            let packet = AirPacket::new(keys, header, &Payload::Sco(frame));
            let resp_at = now + SimDuration::SLOT;
            m.busy_until = resp_at + SimDuration::SLOT;
            m.awaiting = Some((m.slaves[idx].lt_addr, resp_at + SimDuration::SLOT));
            out.push(LcAction::Tx {
                at: now,
                rf_channel: ch,
                packet,
            });
            let resp_clk = clk.offset_by(2);
            let resp_ch = conn_channel(resp_clk, own.hop_input(), afh.for_slot(now_slot + 1));
            out.push(LcAction::RxWindow {
                from: resp_at,
                until: Some(resp_at + peek),
                rf_channel: resp_ch,
            });
            return;
        }
        let reachable = |s: &SlaveSlot| match s.mode {
            LinkMode::Active => true,
            LinkMode::Sniff => {
                s.sniff
                    .as_ref()
                    .is_some_and(|p| sniff_in_window(clk_slot, p))
                    || s.sniff_ext_until_slot.is_some_and(|e| now_slot < e)
            }
            LinkMode::Hold => s.hold_until_slot.is_some_and(|h| now_slot >= h),
            LinkMode::Park => false,
        };
        // Selection priority: post-hold/new-connection polls, pending
        // data, then ordinary T_poll maintenance.
        let pick = m
            .slaves
            .iter()
            .position(|s| reachable(s) && (s.poll_asap || s.mode == LinkMode::Hold))
            .or_else(|| {
                m.slaves
                    .iter()
                    .position(|s| reachable(s) && s.link.has_data())
            })
            .or_else(|| {
                m.slaves.iter().position(|s| {
                    reachable(s) && now_slot.saturating_sub(s.last_poll_slot) >= t_poll
                })
            });
        // Park beacon: broadcast NULL at beacon anchors when no unicast
        // traffic is scheduled this slot.
        let beacon_due = m.slaves.iter().any(|s| {
            s.mode == LinkMode::Park
                && s.park_beacon_interval > 0
                && (clk_slot as u64).is_multiple_of(s.park_beacon_interval as u64)
        });
        let keys = LinkKeys {
            lap: own.lap(),
            uap: own.uap(),
            whiten: clk.whitening_seed(),
            sync_threshold,
            fhs_fec,
        };
        let ch = conn_channel(clk, own.hop_input(), afh.for_slot(now_slot));
        let Some(idx) = pick else {
            if beacon_due {
                let header = Header {
                    lt_addr: 0,
                    ptype: PacketType::Null,
                    flow: true,
                    arqn: false,
                    seqn: false,
                };
                let packet = AirPacket::new(keys, header, &Payload::None);
                m.busy_until = now + SimDuration::SLOT;
                out.push(LcAction::Tx {
                    at: now,
                    rf_channel: ch,
                    packet,
                });
            }
            return;
        };
        let slave = &mut m.slaves[idx];
        let (header, payload) = match slave.link.take_outgoing(acl_prefer.max_user_bytes()) {
            Some((llid, data)) if !slave.poll_asap => {
                let ptype = if llid == Llid::Lmp {
                    fit_type(PacketType::Dm1, data.len())
                } else {
                    fit_type(acl_prefer, data.len())
                };
                (
                    Header {
                        lt_addr: slave.lt_addr,
                        ptype,
                        flow: true,
                        arqn: slave.link.take_arqn(),
                        seqn: slave.link.seqn_out,
                    },
                    Payload::Acl {
                        llid,
                        flow: true,
                        data,
                    },
                )
            }
            lent => {
                if let Some((_, data)) = lent {
                    slave.link.restore_outgoing(data);
                }
                (
                    Header {
                        lt_addr: slave.lt_addr,
                        ptype: PacketType::Poll,
                        flow: true,
                        arqn: slave.link.take_arqn(),
                        seqn: slave.link.seqn_out,
                    },
                    Payload::None,
                )
            }
        };
        let n_slots = header.ptype.slots() as u64;
        slave.last_poll_slot = now_slot;
        if let Some(p) = &slave.sniff {
            if slave.mode == LinkMode::Sniff && p.n_timeout > 0 {
                slave.sniff_ext_until_slot = Some(now_slot + n_slots + 2 * p.n_timeout as u64);
            }
        }
        let lt = slave.lt_addr;
        let packet = AirPacket::new(keys, header, &payload);
        if let Payload::Acl { data, .. } = payload {
            slave.link.restore_outgoing(data);
        }
        let resp_at = now + SimDuration::from_slots(n_slots);
        m.busy_until = resp_at + SimDuration::SLOT;
        m.awaiting = Some((lt, resp_at + SimDuration::SLOT));
        out.push(LcAction::Tx {
            at: now,
            rf_channel: ch,
            packet,
        });
        // Listen for the response at the following slave-to-master slot.
        let resp_clk = clk.offset_by(2 * n_slots as u32);
        let resp_ch = conn_channel(resp_clk, own.hop_input(), afh.for_slot(now_slot + n_slots));
        out.push(LcAction::RxWindow {
            from: resp_at,
            until: Some(resp_at + peek),
            rf_channel: resp_ch,
        });
    }

    /// Feeds a reception to the master context; returns `true` when the
    /// packet decoded under the piconet's access code.
    fn master_rx(
        &mut self,
        rx: &super::RxDelivery<'_>,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) -> bool {
        let own = self.addr;
        let clk_at_start = self.clkn(rx.start);
        let sync_threshold = self.cfg.sync_threshold;
        let fhs_fec = self.cfg.page_fhs_fec;
        let keys = LinkKeys {
            lap: own.lap(),
            uap: own.uap(),
            whiten: clk_at_start.whitening_seed(),
            sync_threshold,
            fhs_fec,
        };
        let Ok(packet::Decoded::Packet {
            header,
            mut payload,
        }) = rx.decode(&mut self.codec, &keys)
        else {
            return false;
        };
        let Some(m) = &mut self.master else {
            return true;
        };
        let Some(slave) = m.slot_mut(header.lt_addr) else {
            return true;
        };
        let lt = slave.lt_addr;
        if slave.link.on_arqn(header.arqn) {
            out.push(LcAction::Event(LcEvent::AclDelivered { lt_addr: lt }));
        }
        if header.ptype.has_crc() {
            if let Payload::Acl { llid, data, .. } = &mut payload {
                if slave.link.on_rx_crc_packet(header.seqn) {
                    out.push(LcAction::Event(LcEvent::AclReceived {
                        lt_addr: lt,
                        llid: *llid,
                        data: std::mem::take(data),
                    }));
                }
            }
        }
        if let Payload::Sco(data) = payload {
            out.push(LcAction::Event(LcEvent::ScoReceived { lt_addr: lt, data }));
        }
        slave.poll_asap = false;
        slave.newconn_deadline_slot = None;
        slave.last_rx_slot = now.slots();
        slave.sup_hold_excuse_slot = None;
        let mode_event = if slave.mode == LinkMode::Hold
            && slave.hold_until_slot.is_some_and(|h| now.slots() >= h)
        {
            slave.mode = LinkMode::Active;
            slave.hold_until_slot = None;
            Some(LcEvent::ModeChanged {
                lt_addr: lt,
                mode: LinkMode::Active,
            })
        } else {
            None
        };
        m.awaiting = None;
        if let Some(e) = mode_event {
            out.push(LcAction::Event(e));
        }
        true
    }

    // ----- slave side -----------------------------------------------------

    /// Ticks slave link `i`; returns `false` when the link was dropped
    /// (so the caller must not advance its index).
    fn slave_tick_one(&mut self, i: usize, now: SimTime, out: &mut Vec<LcAction>) -> bool {
        let clkn = self.clkn(now);
        let peek = self.peek_duration();
        let sniff_listen_us = self.cfg.sniff_listen_us;
        let sniff_drift_ppm = self.cfg.sniff_drift_ppm;
        let guard = self.cfg.resync_guard_slots as u64;
        let afh = self.afh_view();
        let now_slot = now.slots();

        enum Todo {
            Nothing,
            RevertToPageScan,
            Window {
                until: SimTime,
                clk: ClkVal,
                master: BdAddr,
            },
        }
        let todo = {
            let s = &mut self.slave_links[i];
            let clk = clkn.offset_by(s.clk_offset);
            if s.newconn_deadline_slot.is_some_and(|d| now_slot >= d) {
                Todo::RevertToPageScan
            } else if now < s.busy_until || !clk.is_slot_start() || !clk.is_master_tx_slot() {
                Todo::Nothing
            } else {
                let clk_slot = clk.slot();
                if s.mode != LinkMode::Park
                    && s.sco.as_ref().is_some_and(|p| sco_at_anchor(clk_slot, p))
                {
                    // Reserved SCO slot: wake whatever the ACL mode says.
                    Todo::Window {
                        until: now + peek,
                        clk,
                        master: s.master,
                    }
                } else {
                    match s.mode {
                        LinkMode::Active => {
                            let until = if s.listening_full_slot || s.resync {
                                now + SimDuration::SLOT
                            } else {
                                now + peek
                            };
                            Todo::Window {
                                until,
                                clk,
                                master: s.master,
                            }
                        }
                        LinkMode::Sniff => {
                            let in_ext = s.sniff_ext_until_slot.is_some_and(|e| now_slot < e);
                            match &s.sniff {
                                Some(p) if sniff_at_anchor(clk_slot, p) => {
                                    // Anchor: listen for the uncertainty window
                                    // (fixed part + drift-proportional part).
                                    let listen_us = sniff_listen_us
                                        + sniff_drift_ppm * p.t_sniff as u64 * 625 / 1_000_000;
                                    Todo::Window {
                                        until: now + SimDuration::from_us(listen_us),
                                        clk,
                                        master: s.master,
                                    }
                                }
                                Some(p)
                                    if in_ext
                                        || (p.n_attempt > 1 && sniff_in_window(clk_slot, p)) =>
                                {
                                    Todo::Window {
                                        until: now + peek,
                                        clk,
                                        master: s.master,
                                    }
                                }
                                _ => Todo::Nothing,
                            }
                        }
                        LinkMode::Hold => {
                            let h = s.hold_until_slot.unwrap_or(0);
                            if now_slot + guard >= h {
                                // Wake early and listen whole master slots to
                                // resynchronise.
                                s.resync = true;
                                Todo::Window {
                                    until: now + SimDuration::SLOT,
                                    clk,
                                    master: s.master,
                                }
                            } else {
                                Todo::Nothing
                            }
                        }
                        LinkMode::Park => {
                            let b = s.park_beacon_interval.max(1);
                            if clk_slot.is_multiple_of(b) {
                                Todo::Window {
                                    until: now + peek,
                                    clk,
                                    master: s.master,
                                }
                            } else {
                                Todo::Nothing
                            }
                        }
                    }
                }
            }
        };
        match todo {
            Todo::Nothing => true,
            Todo::RevertToPageScan => {
                let dropped = self.slave_links[i].link.flush_dropped();
                self.dropped_tx_bytes += dropped;
                self.slave_links.remove(i);
                out.push(LcAction::RxOff);
                if self.slave_links.is_empty() && !self.is_master() {
                    self.start_page_scan(now, out);
                }
                false
            }
            Todo::Window { until, clk, master } => {
                let ch = conn_channel(clk, master.hop_input(), afh.for_slot(now_slot));
                out.push(LcAction::RxWindow {
                    from: now,
                    until: Some(until),
                    rf_channel: ch,
                });
                true
            }
        }
    }

    /// Feeds a reception to slave link `i`; returns `true` when the
    /// packet decoded under that link's access code (and was consumed).
    fn slave_rx_one(
        &mut self,
        i: usize,
        rx: &super::RxDelivery<'_>,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) -> bool {
        let clkn_start = self.clkn(rx.start);
        let acl_prefer = self.acl_type;
        let sync_threshold = self.cfg.sync_threshold;
        let fhs_fec = self.cfg.page_fhs_fec;
        let afh = self.afh_view();
        let now_slot = now.slots();

        let s = &mut self.slave_links[i];
        let clk_start = clkn_start.offset_by(s.clk_offset);
        let keys = LinkKeys {
            lap: s.master.lap(),
            uap: s.master.uap(),
            whiten: clk_start.whitening_seed(),
            sync_threshold,
            fhs_fec,
        };
        let Ok(packet::Decoded::Packet {
            header,
            mut payload,
        }) = rx.decode(&mut self.codec, &keys)
        else {
            return false;
        };
        let broadcast = header.lt_addr == 0;
        if !broadcast && header.lt_addr != s.lt_addr {
            return true; // this piconet, but addressed to another slave
        }
        s.last_rx_slot = now.slots();
        s.sup_hold_excuse_slot = None;
        // Indications go straight to `out`; a response transmission is
        // inserted ahead of them at `mark`, so it is applied first.
        let mark = out.len();
        let mut phase_change = false;
        // First packet of a new connection: we are in the piconet.
        if s.newconn_deadline_slot.take().is_some() {
            s.listening_full_slot = false;
            out.push(LcAction::Event(LcEvent::Connected {
                master: s.master,
                lt_addr: s.lt_addr,
            }));
        }
        if s.resync || (s.mode == LinkMode::Hold && s.hold_until_slot.is_some()) {
            s.resync = false;
            s.hold_until_slot = None;
            s.mode = LinkMode::Active;
            out.push(LcAction::Event(LcEvent::ModeChanged {
                lt_addr: s.lt_addr,
                mode: LinkMode::Active,
            }));
            phase_change = true;
        }
        if !broadcast && s.link.on_arqn(header.arqn) {
            out.push(LcAction::Event(LcEvent::AclDelivered {
                lt_addr: s.lt_addr,
            }));
        }
        if header.ptype.has_crc() {
            if let Payload::Acl { llid, data, .. } = &mut payload {
                if s.link.on_rx_crc_packet(header.seqn) {
                    out.push(LcAction::Event(LcEvent::AclReceived {
                        lt_addr: s.lt_addr,
                        llid: *llid,
                        data: std::mem::take(data),
                    }));
                }
            }
        }
        // Sniff extension on traffic.
        if s.mode == LinkMode::Sniff {
            if let Some(p) = &s.sniff {
                if p.n_timeout > 0 {
                    s.sniff_ext_until_slot =
                        Some(now_slot + header.ptype.slots() as u64 + 2 * p.n_timeout as u64);
                }
            }
        }
        // A voice packet: deliver it and answer with our own HV frame in
        // the reserved response slot (no ARQ on SCO).
        if let Payload::Sco(data) = payload {
            out.push(LcAction::Event(LcEvent::ScoReceived {
                lt_addr: s.lt_addr,
                data,
            }));
            if let Some(params) = s.sco {
                let resp_at = rx.start + SimDuration::SLOT;
                let resp_clk = clk_start.offset_by(2);
                let resp_keys = LinkKeys {
                    whiten: resp_clk.whitening_seed(),
                    ..keys
                };
                let frame = take_voice(&mut s.sco_out, params.ptype.max_user_bytes());
                let resp_header = Header {
                    lt_addr: s.lt_addr,
                    ptype: params.ptype,
                    flow: true,
                    arqn: s.link.take_arqn(),
                    seqn: s.link.seqn_out,
                };
                let packet = AirPacket::new(resp_keys, resp_header, &Payload::Sco(frame));
                s.busy_until = resp_at + SimDuration::SLOT;
                let ch = conn_channel(
                    resp_clk,
                    s.master.hop_input(),
                    afh.for_slot(resp_at.slots()),
                );
                out.insert(
                    mark,
                    LcAction::Tx {
                        at: resp_at,
                        rf_channel: ch,
                        packet,
                    },
                );
            }
            if phase_change {
                self.set_phase(self.connection_phase(), out);
            }
            return true;
        }
        // Respond when addressed with POLL or a CRC data packet.
        let must_respond =
            !broadcast && (header.ptype == PacketType::Poll || header.ptype.has_crc());
        if must_respond {
            let n_slots = header.ptype.slots() as u64;
            let resp_at = rx.start + SimDuration::from_slots(n_slots);
            let resp_clk = clk_start.offset_by(2 * n_slots as u32);
            let resp_keys = LinkKeys {
                whiten: resp_clk.whitening_seed(),
                ..keys
            };
            let (resp_header, resp_payload) =
                match s.link.take_outgoing(acl_prefer.max_user_bytes()) {
                    Some((llid, data)) => {
                        let ptype = if llid == Llid::Lmp {
                            fit_type(PacketType::Dm1, data.len())
                        } else {
                            fit_type(acl_prefer, data.len())
                        };
                        (
                            Header {
                                lt_addr: s.lt_addr,
                                ptype,
                                flow: true,
                                arqn: s.link.take_arqn(),
                                seqn: s.link.seqn_out,
                            },
                            Payload::Acl {
                                llid,
                                flow: true,
                                data,
                            },
                        )
                    }
                    None => (
                        Header {
                            lt_addr: s.lt_addr,
                            ptype: PacketType::Null,
                            flow: true,
                            arqn: s.link.take_arqn(),
                            seqn: s.link.seqn_out,
                        },
                        Payload::None,
                    ),
                };
            let master = s.master;
            let packet = AirPacket::new(resp_keys, resp_header, &resp_payload);
            if let Payload::Acl { data, .. } = resp_payload {
                s.link.restore_outgoing(data);
            }
            s.busy_until = resp_at + SimDuration::from_slots(resp_header.ptype.slots() as u64);
            let ch = conn_channel(resp_clk, master.hop_input(), afh.for_slot(resp_at.slots()));
            out.insert(
                mark,
                LcAction::Tx {
                    at: resp_at,
                    rf_channel: ch,
                    packet,
                },
            );
        }
        if phase_change {
            self.set_phase(self.connection_phase(), out);
        }
        true
    }

    // ----- mode commands ---------------------------------------------------

    pub(crate) fn cmd_sco_setup(
        &mut self,
        lt_addr: u8,
        params: ScoParams,
        _now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        assert!(
            matches!(
                params.ptype,
                PacketType::Hv1 | PacketType::Hv2 | PacketType::Hv3
            ),
            "SCO links carry HV packets"
        );
        let params = ScoParams {
            t_sco: params.t_sco.max(2) & !1,
            d_sco: params.d_sco & !1,
            ..params
        };
        if let Some(m) = &mut self.master {
            if let Some(slot) = m.slot_mut(lt_addr) {
                slot.sco = Some(params);
                return;
            }
        }
        if let Some(i) = self.slave_cmd_index(lt_addr) {
            self.slave_links[i].sco = Some(params);
        }
        let _ = out;
    }

    pub(crate) fn cmd_sco_remove(&mut self, lt_addr: u8, _now: SimTime, out: &mut Vec<LcAction>) {
        if let Some(m) = &mut self.master {
            if let Some(slot) = m.slot_mut(lt_addr) {
                slot.sco = None;
                slot.sco_out.clear();
                return;
            }
        }
        if let Some(i) = self.slave_cmd_index(lt_addr) {
            let s = &mut self.slave_links[i];
            s.sco = None;
            s.sco_out.clear();
        }
        let _ = out;
    }

    pub(crate) fn cmd_sniff(
        &mut self,
        lt_addr: u8,
        params: SniffParams,
        _now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        if let Some(m) = &mut self.master {
            if let Some(slot) = m.slot_mut(lt_addr) {
                slot.mode = LinkMode::Sniff;
                slot.sniff = Some(params);
                slot.sniff_ext_until_slot = None;
                out.push(LcAction::Event(LcEvent::ModeChanged {
                    lt_addr,
                    mode: LinkMode::Sniff,
                }));
                return;
            }
        }
        if let Some(i) = self.slave_cmd_index(lt_addr) {
            let s = &mut self.slave_links[i];
            s.mode = LinkMode::Sniff;
            s.sniff = Some(params);
            s.sniff_ext_until_slot = None;
            let lt = s.lt_addr;
            out.push(LcAction::RxOff);
            out.push(LcAction::Event(LcEvent::ModeChanged {
                lt_addr: lt,
                mode: LinkMode::Sniff,
            }));
            self.set_phase(self.connection_phase(), out);
        }
    }

    pub(crate) fn cmd_unsniff(&mut self, lt_addr: u8, _now: SimTime, out: &mut Vec<LcAction>) {
        if let Some(m) = &mut self.master {
            if let Some(slot) = m.slot_mut(lt_addr) {
                slot.mode = LinkMode::Active;
                slot.sniff = None;
                out.push(LcAction::Event(LcEvent::ModeChanged {
                    lt_addr,
                    mode: LinkMode::Active,
                }));
                return;
            }
        }
        if let Some(i) = self.slave_cmd_index(lt_addr) {
            let s = &mut self.slave_links[i];
            s.mode = LinkMode::Active;
            s.sniff = None;
            let lt = s.lt_addr;
            out.push(LcAction::Event(LcEvent::ModeChanged {
                lt_addr: lt,
                mode: LinkMode::Active,
            }));
            self.set_phase(self.connection_phase(), out);
        }
    }

    pub(crate) fn cmd_hold(
        &mut self,
        lt_addr: u8,
        hold_slots: u32,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        let until = now.slots() + 1 + hold_slots as u64;
        if let Some(m) = &mut self.master {
            if let Some(slot) = m.slot_mut(lt_addr) {
                slot.mode = LinkMode::Hold;
                slot.hold_until_slot = Some(until);
                // Only the first unanswered hold excuses supervision;
                // re-arms on a silent link must not extend it.
                slot.sup_hold_excuse_slot.get_or_insert(until);
                slot.poll_asap = true;
                out.push(LcAction::Event(LcEvent::ModeChanged {
                    lt_addr,
                    mode: LinkMode::Hold,
                }));
                return;
            }
        }
        if let Some(i) = self.slave_cmd_index(lt_addr) {
            self.hold_slave_link(i, until, out);
        }
    }

    /// Slave-side hold addressed by piconet master (unambiguous on a
    /// scatternet bridge whose links may share an LT_ADDR).
    pub(crate) fn cmd_hold_piconet(
        &mut self,
        master: BdAddr,
        hold_slots: u32,
        now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        let until = now.slots() + 1 + hold_slots as u64;
        if let Some(i) = self.slave_index_of_master(master) {
            self.hold_slave_link(i, until, out);
        }
    }

    fn hold_slave_link(&mut self, i: usize, until_slot: u64, out: &mut Vec<LcAction>) {
        let s = &mut self.slave_links[i];
        s.mode = LinkMode::Hold;
        s.hold_until_slot = Some(until_slot);
        s.sup_hold_excuse_slot.get_or_insert(until_slot);
        s.resync = false;
        let lt = s.lt_addr;
        // The radio leaves this piconet; links to other piconets re-open
        // their own windows at their next master-slot tick.
        out.push(LcAction::RxOff);
        out.push(LcAction::Event(LcEvent::ModeChanged {
            lt_addr: lt,
            mode: LinkMode::Hold,
        }));
        self.set_phase(self.connection_phase(), out);
    }

    pub(crate) fn cmd_park(
        &mut self,
        lt_addr: u8,
        beacon_interval: u32,
        _now: SimTime,
        out: &mut Vec<LcAction>,
    ) {
        if let Some(m) = &mut self.master {
            if let Some(slot) = m.slot_mut(lt_addr) {
                slot.mode = LinkMode::Park;
                slot.park_beacon_interval = beacon_interval;
                slot.parked_lt = slot.lt_addr;
                out.push(LcAction::Event(LcEvent::ModeChanged {
                    lt_addr,
                    mode: LinkMode::Park,
                }));
                return;
            }
        }
        if let Some(i) = self.slave_cmd_index(lt_addr) {
            let s = &mut self.slave_links[i];
            s.mode = LinkMode::Park;
            s.park_beacon_interval = beacon_interval;
            s.parked_lt = s.lt_addr;
            let lt = s.lt_addr;
            out.push(LcAction::RxOff);
            out.push(LcAction::Event(LcEvent::ModeChanged {
                lt_addr: lt,
                mode: LinkMode::Park,
            }));
            self.set_phase(self.connection_phase(), out);
        }
    }

    pub(crate) fn cmd_unpark(&mut self, lt_addr: u8, now: SimTime, out: &mut Vec<LcAction>) {
        if let Some(m) = &mut self.master {
            if let Some(slot) = m.slot_mut(lt_addr) {
                slot.mode = LinkMode::Active;
                slot.poll_asap = true;
                // Park suspends supervision; re-arm from now, not from
                // the pre-park baseline.
                slot.last_rx_slot = now.slots();
                slot.sup_hold_excuse_slot = None;
                out.push(LcAction::Event(LcEvent::ModeChanged {
                    lt_addr,
                    mode: LinkMode::Active,
                }));
                return;
            }
        }
        if let Some(i) = self.slave_cmd_index(lt_addr) {
            let s = &mut self.slave_links[i];
            s.mode = LinkMode::Active;
            s.last_rx_slot = now.slots();
            s.sup_hold_excuse_slot = None;
            let lt = s.lt_addr;
            out.push(LcAction::Event(LcEvent::ModeChanged {
                lt_addr: lt,
                mode: LinkMode::Active,
            }));
            self.set_phase(self.connection_phase(), out);
        }
    }

    pub(crate) fn cmd_detach(&mut self, lt_addr: u8, _now: SimTime, out: &mut Vec<LcAction>) {
        if let Some(m) = &mut self.master {
            let before = m.slaves.len();
            let mut dropped = 0;
            m.slaves.retain_mut(|s| {
                let gone = s.lt_addr == lt_addr;
                if gone {
                    dropped += s.link.flush_dropped();
                }
                !gone
            });
            self.dropped_tx_bytes += dropped;
            if m.slaves.len() != before {
                out.push(LcAction::Event(LcEvent::Detached { lt_addr }));
            }
            if m.slaves.is_empty() {
                self.master = None;
            }
            self.settle_state(out);
            return;
        }
        if let Some(i) = self.slave_cmd_index(lt_addr) {
            let dropped = self.slave_links[i].link.flush_dropped();
            self.dropped_tx_bytes += dropped;
            self.slave_links.remove(i);
            out.push(LcAction::RxOff);
            out.push(LcAction::Event(LcEvent::Detached { lt_addr }));
            self.settle_state(out);
        }
    }
}

/// Takes one voice frame of `frame_bytes` from the queue, padding with
/// zeros (silence) when the source runs dry.
fn take_voice(queue: &mut std::collections::VecDeque<u8>, frame_bytes: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(frame_bytes);
    for _ in 0..frame_bytes {
        frame.push(queue.pop_front().unwrap_or(0));
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_state_arq_cycle() {
        let mut l = LinkState::new();
        l.tx.push(Llid::Start, vec![1, 2, 3]);
        assert!(l.has_data());
        let first_seqn = l.seqn_out;
        let (llid, data) = l.take_outgoing(17).unwrap();
        assert_eq!(llid, Llid::Start);
        assert_eq!(data, vec![1, 2, 3]);
        assert_eq!(l.peek_outgoing(17), Some((Llid::Start, 0)), "lent out");
        l.restore_outgoing(data);
        // Unacked: same fragment again (retransmission).
        let (_, again) = l.take_outgoing(17).unwrap();
        assert_eq!(again, vec![1, 2, 3]);
        l.restore_outgoing(again);
        assert_eq!(l.seqn_out, first_seqn);
        // NAK does not advance.
        assert!(!l.on_arqn(false));
        // ACK advances and toggles SEQN.
        assert!(l.on_arqn(true));
        assert!(!l.has_data());
        assert_ne!(l.seqn_out, first_seqn);
        // ACK with nothing in flight is ignored.
        assert!(!l.on_arqn(true));
    }

    #[test]
    fn link_state_dedupes_by_seqn() {
        let mut l = LinkState::new();
        assert!(l.on_rx_crc_packet(true));
        assert!(l.arqn_to_send);
        // Retransmission of the same SEQN is a duplicate.
        assert!(!l.on_rx_crc_packet(true));
        // New SEQN accepted.
        assert!(l.on_rx_crc_packet(false));
        assert!(l.on_rx_crc_packet(true));
    }

    #[test]
    fn sniff_window_maths() {
        let p = SniffParams {
            t_sniff: 100,
            n_attempt: 1,
            d_sniff: 10,
            n_timeout: 0,
        };
        assert!(sniff_at_anchor(10, &p));
        assert!(sniff_in_window(10, &p));
        assert!(sniff_in_window(11, &p));
        assert!(!sniff_in_window(12, &p));
        assert!(!sniff_in_window(9, &p));
        assert!(sniff_at_anchor(110, &p));
        assert!(!sniff_at_anchor(60, &p));
    }

    #[test]
    fn sniff_window_with_multiple_attempts() {
        let p = SniffParams {
            t_sniff: 50,
            n_attempt: 3,
            d_sniff: 0,
            n_timeout: 0,
        };
        for slot in 0..6 {
            assert!(sniff_in_window(slot, &p), "slot {slot}");
        }
        assert!(!sniff_in_window(6, &p));
    }

    #[test]
    fn fit_type_picks_smallest_sufficient() {
        assert_eq!(fit_type(PacketType::Dm1, 10), PacketType::Dm1);
        assert_eq!(fit_type(PacketType::Dm1, 17), PacketType::Dm1);
        assert_eq!(fit_type(PacketType::Dm1, 18), PacketType::Dm3);
        assert_eq!(fit_type(PacketType::Dm1, 200), PacketType::Dm5);
        assert_eq!(fit_type(PacketType::Dh1, 100), PacketType::Dh3);
        assert_eq!(fit_type(PacketType::Dh5, 100), PacketType::Dh5);
    }

    #[test]
    fn sco_params_for_type_pairs_interval() {
        assert_eq!(ScoParams::for_type(PacketType::Hv1, 0).t_sco, 2);
        assert_eq!(ScoParams::for_type(PacketType::Hv2, 0).t_sco, 4);
        assert_eq!(ScoParams::for_type(PacketType::Hv3, 0).t_sco, 6);
        // Odd offsets are forced even so anchors land on master slots.
        assert_eq!(ScoParams::for_type(PacketType::Hv3, 5).d_sco, 4);
    }

    #[test]
    fn sco_anchor_maths() {
        let p = ScoParams::for_type(PacketType::Hv3, 2);
        assert!(sco_at_anchor(2, &p));
        assert!(sco_at_anchor(8, &p));
        assert!(!sco_at_anchor(4, &p));
        assert!(!sco_at_anchor(3, &p));
    }

    #[test]
    fn take_voice_pads_with_silence() {
        let mut q: std::collections::VecDeque<u8> = vec![1, 2, 3].into();
        assert_eq!(take_voice(&mut q, 5), vec![1, 2, 3, 0, 0]);
        assert_eq!(take_voice(&mut q, 2), vec![0, 0]);
    }

    #[test]
    fn sniff_params_default_sane() {
        let p = SniffParams::default();
        assert_eq!(p.t_sniff, 100);
        assert_eq!(p.n_attempt, 1);
    }

    #[test]
    fn afh_switch_applies_per_hop_slot() {
        use crate::clock::Clock;
        use crate::lc::{LcCommand, LcConfig};
        use btsim_kernel::SimTime;
        let mut lc = LinkController::new(
            BdAddr::new(0, 1, 0x111111),
            Clock::new(ClkVal::new(0)),
            LcConfig::default(),
            1,
        );
        let map = ChannelMap::blocking(29..=50);
        let mut out = Vec::new();
        lc.command(
            LcCommand::SetAfhAt {
                map: map.clone(),
                at_slot: 100,
            },
            SimTime::ZERO,
            &mut out,
        );
        assert!(out.is_empty());
        // Hops before the instant keep the old (absent) map; hops at or
        // after it use the new one — on both sides of the same instant.
        assert_eq!(lc.afh_map_at(99), None);
        assert_eq!(lc.afh_map_at(100), Some(&map));
        assert_eq!(lc.afh_map_at(5000), Some(&map));
        assert_eq!(lc.afh_pending_switch(), Some((&map, 100)));
        // The view used by the tick/RX paths agrees.
        let view = lc.afh_view();
        assert_eq!(view.for_slot(99), None);
        assert_eq!(view.for_slot(100), Some(&map));
    }

    #[test]
    fn afh_cancel_drops_future_switches_and_keeps_effective_ones() {
        use crate::clock::Clock;
        use crate::lc::{LcCommand, LcConfig};
        use btsim_kernel::{SimDuration, SimTime};
        let mut lc = LinkController::new(
            BdAddr::new(0, 1, 0x111111),
            Clock::new(ClkVal::new(0)),
            LcConfig::default(),
            1,
        );
        let map = ChannelMap::blocking(29..=50);
        lc.command(
            LcCommand::SetAfhAt {
                map: map.clone(),
                at_slot: 100,
            },
            SimTime::ZERO,
            &mut Vec::new(),
        );
        // Cancel before the instant: the switch never happens.
        lc.command(
            LcCommand::CancelAfhSwitch,
            SimTime::ZERO + SimDuration::from_slots(50),
            &mut Vec::new(),
        );
        assert_eq!(lc.afh_map_at(100), None);
        assert_eq!(lc.afh_pending_switch(), None);
        // Schedule again and let the instant pass: cancelling afterwards
        // keeps the now-effective map.
        lc.command(
            LcCommand::SetAfhAt {
                map: map.clone(),
                at_slot: 100,
            },
            SimTime::ZERO + SimDuration::from_slots(60),
            &mut Vec::new(),
        );
        lc.command(
            LcCommand::CancelAfhSwitch,
            SimTime::ZERO + SimDuration::from_slots(150),
            &mut Vec::new(),
        );
        assert_eq!(lc.afh_map_at(150), Some(&map));
        // A later re-schedule first folds in the effective switch.
        let wider = ChannelMap::blocking(0..=21);
        lc.command(
            LcCommand::SetAfhAt {
                map: wider.clone(),
                at_slot: 300,
            },
            SimTime::ZERO + SimDuration::from_slots(200),
            &mut Vec::new(),
        );
        assert_eq!(lc.afh_map_at(299), Some(&map));
        assert_eq!(lc.afh_map_at(300), Some(&wider));
    }

    #[test]
    fn slave_cmd_index_refuses_colliding_lt_addrs() {
        use crate::clock::Clock;
        use crate::lc::LcConfig;
        let mut lc = LinkController::new(
            BdAddr::new(0, 1, 0x111111),
            Clock::new(ClkVal::new(0)),
            LcConfig::default(),
            1,
        );
        let m1 = BdAddr::new(0, 2, 0x222222);
        let m2 = BdAddr::new(0, 3, 0x333333);
        lc.slave_links.push(super::SlaveCtx::new(m1, 2, 0, 100));
        // Single link: LT_ADDR is effectively ignored (legacy).
        assert_eq!(lc.slave_cmd_index(2), Some(0));
        assert_eq!(lc.slave_cmd_index(5), Some(0));
        // Two links with distinct LT_ADDRs: exact match only.
        lc.slave_links.push(super::SlaveCtx::new(m2, 3, 0, 100));
        assert_eq!(lc.slave_cmd_index(2), Some(0));
        assert_eq!(lc.slave_cmd_index(3), Some(1));
        assert_eq!(lc.slave_cmd_index(5), None);
        // Colliding LT_ADDRs: ambiguous, targets nothing (acting on
        // the wrong piconet's link would desynchronise the bridge).
        lc.slave_links[1].lt_addr = 2;
        assert_eq!(lc.slave_cmd_index(2), None);
        // Master-addressed lookup stays unambiguous.
        assert_eq!(lc.slave_index_of_master(m1), Some(0));
        assert_eq!(lc.slave_index_of_master(m2), Some(1));
    }
}
