//! The link controller: the paper's `STATE MACHINE` module (Fig. 3/4).
//!
//! [`LinkController`] is a *sans-IO* state machine: the simulator feeds it
//! half-slot ticks ([`LinkController::on_tick`]), decoded-packet
//! deliveries ([`LinkController::on_rx`]) and application commands
//! ([`LinkController::command`]); it returns [`LcAction`]s — RF
//! transmissions, receive windows and upward events. This mirrors the
//! paper's separation between the baseband state machine and the RF
//! module it drives through `enable_tx_RF` / `enable_rx_RF`.
//!
//! States follow the spec's main diagram (paper Fig. 4): STANDBY,
//! INQUIRY, INQUIRY SCAN (+ response/backoff), PAGE, PAGE SCAN, MASTER
//! RESPONSE, SLAVE RESPONSE and CONNECTION with the ACTIVE / SNIFF /
//! HOLD / PARK sub-modes.

mod afh;
mod connection;
mod inquiry;
mod page;
mod snap_impls;
mod statpath;
mod wakeup;

pub use afh::ChannelAssessment;
pub use connection::{LinkMode, ScoParams, SniffParams};
pub use statpath::{stat_slot_pair, StatPairReport, StatRespReport, StatSide};

use btsim_coding::{syncword, BitVec};
use btsim_kernel::{SimDuration, SimRng, SimTime};

use crate::address::{BdAddr, DCI_UAP};
use crate::clock::{ClkVal, Clock};
use crate::hop;
use crate::packet::{self, AirPacket, Codec, DecodeError, Decoded, LinkKeys, PacketType};

pub(crate) use connection::{MasterCtx, SlaveCtx};
pub(crate) use inquiry::{InquiryCtx, InquiryScanCtx};
pub(crate) use page::{PageCtx, PageScanCtx};

/// Life phase of a device, used for power attribution (the paper's
/// inquiry/page/active/sniff/park/hold phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LifePhase {
    /// No procedure running.
    Standby,
    /// Discovering other devices.
    Inquiry,
    /// Discoverable, listening for inquiries.
    InquiryScan,
    /// Connecting to a specific device.
    Page,
    /// Connectable, listening for pages.
    PageScan,
    /// In a piconet, active mode.
    Active,
    /// In a piconet, sniff mode.
    Sniff,
    /// In a piconet, hold mode.
    Hold,
    /// In a piconet, park mode.
    Park,
}

/// Role in a piconet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Coordinates the piconet, transmits in even slots.
    Master,
    /// Responds to the master by polling.
    Slave,
}

/// Static configuration of a link controller.
///
/// Defaults are spec-v1.2-faithful where the spec fixes a value;
/// calibration knobs reproducing the paper's behavioural model are
/// documented field by field (the derivation is the knob list of
/// `btsim_core::scenario::paper_config`; the `ext_ablation` experiment
/// shows why the page-phase knobs are needed).
#[derive(Debug, Clone, PartialEq)]
pub struct LcConfig {
    /// Sync-word correlator threshold (matches out of 64).
    pub sync_threshold: u8,
    /// Whether *page-response* FHS payloads carry the spec's 2/3 FEC.
    /// The paper's behavioural model — where the page phase collapses for
    /// BER > 1/30 while inquiry survives — is reproduced with `false`;
    /// inquiry-response FHS packets always use the spec coding.
    pub page_fhs_fec: bool,
    /// Carrier-detect window at each listened slot start, in µs. The
    /// paper's active-mode slave floor of 2.6% RF activity corresponds to
    /// ~32 µs per slot pair.
    pub peek_us: u64,
    /// Maximum first-ID inquiry-response backoff (slots); drawn uniformly.
    pub inquiry_backoff_max: u32,
    /// Maximum re-arm backoff after an FHS response (slots).
    pub inquiry_rearm_backoff_max: u32,
    /// Page/inquiry train switch period in slots (A ↔ B train).
    pub train_switch_slots: u32,
    /// pagerespTO: slots to wait for the FHS / ID ack during page response.
    pub page_resp_timeout_slots: u32,
    /// newconnectionTO: slots to complete the first POLL exchange.
    pub new_connection_timeout_slots: u32,
    /// Default polling interval T_poll (slots).
    pub t_poll_slots: u32,
    /// ACL packet type used for data traffic.
    pub default_acl: PacketType,
    /// Continuous inquiry scan (paper Fig. 5: scanning receivers always on).
    pub inquiry_scan_continuous: bool,
    /// Continuous page scan.
    pub page_scan_continuous: bool,
    /// Page-scan interval in slots (used when not continuous).
    pub page_scan_interval_slots: u32,
    /// Page-scan window in slots (used when not continuous).
    pub page_scan_window_slots: u32,
    /// Slots a slave wakes early after hold to resynchronise.
    pub resync_guard_slots: u32,
    /// Fixed listen window at each sniff anchor, in µs.
    pub sniff_listen_us: u64,
    /// Drift-proportional widening of the sniff anchor window, in ppm of
    /// the sniff interval. The spec's crystal tolerance is ±20 ppm; the
    /// paper's behavioural sniff cost is reproduced with a much larger
    /// effective value, calibrated against Fig. 11's ≈30-slot break-even
    /// (the `fig11_sniff_activity` experiment).
    pub sniff_drift_ppm: u64,
    /// Class-of-device advertised in FHS packets.
    pub class_of_device: u32,
    /// supervisionTO: slots without a valid reception on a connected
    /// link before the link is declared dead and torn down (spec
    /// default 0x7D00 = 32000 slots = 20 s; 0 disables supervision).
    /// The timer runs in active and sniff modes on both ends; a hold
    /// period is excused (the timer restarts from the hold end) and
    /// park suspends it entirely.
    pub supervision_timeout_slots: u32,
}

impl Default for LcConfig {
    fn default() -> Self {
        Self {
            sync_threshold: syncword::DEFAULT_SYNC_THRESHOLD,
            page_fhs_fec: true,
            peek_us: 32,
            inquiry_backoff_max: 2048,
            inquiry_rearm_backoff_max: 1024,
            train_switch_slots: 2048,
            page_resp_timeout_slots: 8,
            new_connection_timeout_slots: 32,
            t_poll_slots: 100,
            default_acl: PacketType::Dm1,
            inquiry_scan_continuous: true,
            page_scan_continuous: true,
            page_scan_interval_slots: 2048,
            page_scan_window_slots: 18,
            resync_guard_slots: 3,
            sniff_listen_us: 233,
            sniff_drift_ppm: 14350,
            class_of_device: 0x00_1F00,
            supervision_timeout_slots: 32_000,
        }
    }
}

/// Commands from the link manager / application layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LcCommand {
    /// Start discovering devices (paper's Enable_inquiry).
    Inquiry {
        /// Stop after this many FHS responses (0 = run to timeout).
        num_responses: u8,
        /// Give up after this many slots (0 = no timeout).
        timeout_slots: u32,
    },
    /// Become discoverable (Enable_inquiry_scan).
    InquiryScan,
    /// Connect to `target` as master (Enable_page).
    Page {
        /// Device to page.
        target: BdAddr,
        /// CLKN offset of the target relative to our CLKN (from inquiry).
        clke_offset: u32,
        /// Give up after this many slots (0 = no timeout).
        timeout_slots: u32,
    },
    /// Become connectable (Enable_page_scan).
    PageScan,
    /// Abort any procedure and return to standby / connection
    /// (Enable_detach_reset for procedures).
    AbortProcedure,
    /// Queue ACL user data to a connected peer.
    AclData {
        /// Destination logical transport (ignored on the slave side).
        lt_addr: u8,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// Queue an LMP PDU to a connected peer.
    Lmp {
        /// Destination logical transport (ignored on the slave side).
        lt_addr: u8,
        /// PDU bytes (must fit one DM1).
        data: Vec<u8>,
    },
    /// Change the ACL packet type used for data.
    SetAclType(PacketType),
    /// Change the polling interval.
    SetTpoll(u32),
    /// Install an AFH channel map for connection-state hopping
    /// immediately (v1.2 adaptive frequency hopping; both ends must
    /// receive the same map). Prefer [`LcCommand::SetAfhAt`] on live
    /// links — an immediate switch on one end desynchronises the hop
    /// sequences until the other end follows.
    SetAfh(hop::ChannelMap),
    /// Schedule an AFH map switch at an agreed piconet slot (the
    /// master-announced instant of `LMP_set_AFH`). Hops for slots
    /// before `at_slot` keep the previous map; hops for `at_slot` and
    /// later use the new one, so master and slaves that agree on the
    /// instant stay hop-synchronized through the switch.
    SetAfhAt {
        /// The map to switch to.
        map: hop::ChannelMap,
        /// Piconet slot (both ends' simulation slot count) at which the
        /// new map takes effect.
        at_slot: u64,
    },
    /// Cancel a scheduled AFH switch whose instant has not passed yet
    /// (the `LMP_not_accepted` path). A switch already in effect stays.
    CancelAfhSwitch,
    /// Establish an SCO voice link over an existing ACL connection.
    ScoSetup {
        /// Link (slave's own on the slave side).
        lt_addr: u8,
        /// SCO parameters (interval, offset, HV type).
        params: ScoParams,
    },
    /// Remove the SCO link.
    ScoRemove {
        /// Link to strip of its SCO reservation.
        lt_addr: u8,
    },
    /// Queue voice bytes on the SCO link (sent without ARQ; missing
    /// bytes are padded with silence).
    ScoData {
        /// Link the voice belongs to.
        lt_addr: u8,
        /// Voice samples.
        data: Vec<u8>,
    },
    /// Enter sniff mode on a link (Enable_sniff_mode).
    Sniff {
        /// Link (slave's own on the slave side).
        lt_addr: u8,
        /// Sniff parameters.
        params: SniffParams,
    },
    /// Leave sniff mode.
    Unsniff {
        /// Link to return to active mode.
        lt_addr: u8,
    },
    /// Enter hold mode for `hold_slots` (Enable_hold_mode).
    Hold {
        /// Link to hold.
        lt_addr: u8,
        /// Duration of the hold in slots.
        hold_slots: u32,
    },
    /// Hold the slave link to a specific piconet master. Scatternet
    /// bridges keep several slave links whose LT_ADDRs may coincide;
    /// the master address is always unambiguous.
    HoldPiconet {
        /// Master of the piconet whose link is held.
        master: BdAddr,
        /// Duration of the hold in slots.
        hold_slots: u32,
    },
    /// Queue ACL user data on the slave link to a specific piconet
    /// master (the bridge-side uplink of a scatternet relay; plain
    /// [`LcCommand::AclData`] selects the link by LT_ADDR).
    AclDataTo {
        /// Master of the piconet the data goes up into.
        master: BdAddr,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// Park the slave (Enable_park_mode).
    Park {
        /// Link to park.
        lt_addr: u8,
        /// Beacon interval in slots.
        beacon_interval: u32,
    },
    /// Unpark a parked slave, restoring its LT_ADDR.
    Unpark {
        /// LT_ADDR to restore.
        lt_addr: u8,
    },
    /// Tear down a link (Enable_detach_reset).
    Detach {
        /// Link to detach.
        lt_addr: u8,
    },
    /// Change the link-supervision timeout (the LC half of
    /// `LMP_supervision_timeout`; applies to every link of this
    /// controller).
    SetSupervisionTimeout {
        /// New supervisionTO in slots (0 disables supervision).
        timeout_slots: u32,
    },
    /// Power the device off instantly (fault injection): every link,
    /// procedure and queued exchange is lost without any notification —
    /// peers discover the death through their own supervision timers.
    PowerOff,
}

/// Indications from the link controller to the layers above.
#[derive(Debug, Clone, PartialEq)]
pub enum LcEvent {
    /// An FHS response was received during inquiry.
    InquiryResult {
        /// Discovered device.
        addr: BdAddr,
        /// Its CLKN offset relative to ours (for paging).
        clk_offset: u32,
    },
    /// Inquiry ended (enough responses or timeout).
    InquiryComplete {
        /// Number of distinct devices discovered.
        responses: u8,
    },
    /// Page succeeded; the target is now our slave.
    PageComplete {
        /// The connected slave.
        addr: BdAddr,
        /// Its logical transport address.
        lt_addr: u8,
    },
    /// Page gave up (timeout).
    PageFailed {
        /// The device we failed to reach.
        addr: BdAddr,
    },
    /// We joined a piconet as a slave.
    Connected {
        /// The piconet master.
        master: BdAddr,
        /// Our logical transport address.
        lt_addr: u8,
    },
    /// ACL payload received (CRC-clean, deduplicated).
    AclReceived {
        /// Source/destination logical transport.
        lt_addr: u8,
        /// Logical link (user data fragment or LMP).
        llid: packet::Llid,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// The peer acknowledged our last ACL packet.
    AclDelivered {
        /// Link the acknowledgement arrived on.
        lt_addr: u8,
    },
    /// A voice packet arrived on an SCO link (unchecked payload).
    ScoReceived {
        /// Link the voice arrived on.
        lt_addr: u8,
        /// Voice bytes (fixed size per HV type).
        data: Vec<u8>,
    },
    /// A link changed between active/sniff/hold/park.
    ModeChanged {
        /// Affected link.
        lt_addr: u8,
        /// New mode.
        mode: LinkMode,
    },
    /// A link was detached.
    Detached {
        /// The link that was detached.
        lt_addr: u8,
    },
    /// The device's life phase changed (for power attribution).
    PhaseChanged {
        /// The new phase.
        phase: LifePhase,
    },
    /// The link's simulation fidelity tier changed (logged on the
    /// master of the affected piconet; see `docs/FIDELITY.md`).
    FidelityChanged {
        /// `true`: the link was promoted to the statistical tier;
        /// `false`: it was demoted back to bit-level simulation.
        promoted: bool,
    },
    /// A link died of supervision timeout: no valid reception for
    /// supervisionTO slots. The link state has been torn down (the
    /// LT_ADDR freed, buffers flushed into the dropped-byte counter);
    /// a [`LcEvent::Detached`] for the same link follows immediately.
    SupervisionTimeout {
        /// The link that timed out.
        lt_addr: u8,
    },
}

/// Actions the link controller asks the simulator to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum LcAction {
    /// Transmit `packet` on `rf_channel` starting at `at`.
    Tx {
        /// Start of transmission (≥ now).
        at: SimTime,
        /// RF hop channel.
        rf_channel: u8,
        /// The packet; its air image is built only if a reception needs
        /// the bits.
        packet: AirPacket,
    },
    /// Open a receive window (replaces any previous/pending window).
    RxWindow {
        /// Window opens (≥ now).
        from: SimTime,
        /// Window closes (`None`: until replaced/closed).
        until: Option<SimTime>,
        /// RF hop channel listened on.
        rf_channel: u8,
    },
    /// Close the receive window immediately (RF off).
    RxOff,
    /// Deliver an indication upward.
    Event(LcEvent),
}

/// A packet delivery from the channel. It borrows the sender's packet,
/// the noise flips and the collision mask, so a simulator hands every
/// listener of a transmission the same delivery without copying.
#[derive(Debug, Clone, Copy)]
pub struct RxDelivery<'a> {
    /// The packet the sender put on the air.
    pub packet: &'a AirPacket,
    /// Positions of the bits noise inverted, ascending.
    pub flips: &'a [u32],
    /// Collision mask from the channel resolver, if any.
    pub collision_mask: Option<&'a BitVec>,
    /// RF channel it arrived on.
    pub rf_channel: u8,
    /// Air time of the first bit.
    pub start: SimTime,
    /// Air time of the last bit.
    pub end: SimTime,
}

impl RxDelivery<'_> {
    /// Decodes this delivery under the receiver's `keys` (see
    /// [`Codec::decode_reception`]).
    ///
    /// # Errors
    ///
    /// The first decode stage that failed.
    pub fn decode(&self, codec: &mut Codec, keys: &LinkKeys) -> Result<Decoded, DecodeError> {
        codec.decode_reception(self.packet, self.flips, self.collision_mask, keys)
    }
}

/// Procedure state of the controller (paper Fig. 4).
#[derive(Debug, Clone)]
pub(crate) enum ProcState {
    Standby,
    Inquiry(InquiryCtx),
    InquiryScan(InquiryScanCtx),
    Page(PageCtx),
    PageScan(PageScanCtx),
    /// In CONNECTION state (master and/or slave contexts are populated).
    Connection,
}

/// The link controller of one Bluetooth device.
///
/// # Examples
///
/// ```
/// use btsim_baseband::{BdAddr, ClkVal, Clock, LcCommand, LcConfig, LinkController};
/// use btsim_kernel::SimTime;
///
/// let mut lc = LinkController::new(
///     BdAddr::new(0, 0x12, 0x345678),
///     Clock::new(ClkVal::new(0)),
///     LcConfig::default(),
///     7,
/// );
/// let mut actions = Vec::new();
/// lc.command(LcCommand::InquiryScan, SimTime::ZERO, &mut actions);
/// assert!(!actions.is_empty()); // opens the scan window
/// ```
#[derive(Debug, Clone)]
pub struct LinkController {
    pub(crate) cfg: LcConfig,
    pub(crate) addr: BdAddr,
    pub(crate) clock: Clock,
    pub(crate) rng: SimRng,
    pub(crate) state: ProcState,
    pub(crate) master: Option<MasterCtx>,
    /// Slave links, one per piconet this device is a slave in. A plain
    /// slave holds one; a scatternet bridge holds one per bridged
    /// piconet and time-multiplexes the radio between them via hold.
    pub(crate) slave_links: Vec<SlaveCtx>,
    pub(crate) acl_type: PacketType,
    pub(crate) t_poll: u32,
    /// AFH map in use for hops before any pending switch instant.
    pub(crate) afh: Option<hop::ChannelMap>,
    /// A scheduled map switch: hops for slots `>= .1` use map `.0`.
    pub(crate) afh_pending: Option<(hop::ChannelMap, u64)>,
    /// Per-channel reception scoring feeding the AFH proposal.
    pub(crate) assessment: ChannelAssessment,
    pub(crate) phase: LifePhase,
    /// Start tick of the current procedure (for train phase / timeout).
    pub(crate) proc_start_tick: u64,
    /// Ticks strictly before this instant are no-ops: the statistical
    /// tier has already simulated the link through `[.., ff_until)`
    /// and fast-forwards the controller past the gap. Cleared by any
    /// command or reception, which may arm earlier work.
    pub(crate) ff_until: SimTime,
    /// Whether the link this controller masters currently runs on the
    /// statistical tier (observability for the stability tracker).
    pub(crate) stat_promoted: bool,
    /// User (non-LMP) bytes dropped from transmit buffers by link
    /// teardown — detach, supervision timeout or power-off. Frames
    /// stranded mid-fragmentation are counted by their unsent bytes.
    pub(crate) dropped_tx_bytes: u64,
    /// Packet codec for receptions that need their bits rebuilt: cached
    /// access-code images + scratch buffers, and the tally of what the
    /// receptions cost.
    pub(crate) codec: packet::Codec,
    /// This device's page-scan hops, by X (derived from `addr`), built
    /// when page scan first starts: most controllers never scan.
    pub(crate) own_train: Option<hop::TrainTable>,
}

impl LinkController {
    /// Creates a controller in standby.
    pub fn new(addr: BdAddr, clock: Clock, cfg: LcConfig, seed: u64) -> Self {
        let t_poll = cfg.t_poll_slots;
        let acl_type = cfg.default_acl;
        Self {
            cfg,
            addr,
            clock,
            rng: SimRng::new(seed),
            state: ProcState::Standby,
            master: None,
            slave_links: Vec::new(),
            acl_type,
            t_poll,
            afh: None,
            afh_pending: None,
            assessment: ChannelAssessment::new(),
            phase: LifePhase::Standby,
            proc_start_tick: 0,
            ff_until: SimTime::ZERO,
            stat_promoted: false,
            dropped_tx_bytes: 0,
            codec: packet::Codec::new(),
            own_train: None,
        }
    }

    /// The device's address.
    pub fn addr(&self) -> BdAddr {
        self.addr
    }

    /// Replaces the controller's RNG with a fresh stream seeded by
    /// `seed`, exactly as [`LinkController::new`] would. Campaign
    /// forking uses this to give each fork of a restored snapshot an
    /// independent — yet reproducible — randomness stream.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SimRng::new(seed);
    }

    /// The device's native clock value at `t`.
    pub fn clkn(&self, t: SimTime) -> ClkVal {
        self.clock.clkn_at(t)
    }

    /// Offsets the native clock by `half_slots` ticks from now on — the
    /// fault layer's discrete model of clock drift. Peers keep deriving
    /// the piconet clock from the stale offset, so their hop sequences
    /// and slot phases diverge and the link dies of supervision; a later
    /// re-page learns the post-jump offset from the fresh FHS.
    pub fn clock_jump(&mut self, half_slots: u32) {
        self.clock = Clock::new(self.clock.start_value().offset_by(half_slots));
    }

    /// Current life phase (for power attribution).
    pub fn phase(&self) -> LifePhase {
        self.phase
    }

    /// Digest of the controller's RNG position (see
    /// [`btsim_kernel::SimRng::fingerprint`]); the engine-equivalence
    /// harness uses it to prove an alternative engine made bit-identical
    /// random draws.
    pub fn rng_fingerprint(&self) -> u64 {
        self.rng.fingerprint()
    }

    /// Whether this controller currently masters a piconet.
    pub fn is_master(&self) -> bool {
        self.master.as_ref().is_some_and(|m| !m.slaves.is_empty())
    }

    /// Whether this controller is a slave in at least one piconet.
    pub fn is_slave(&self) -> bool {
        !self.slave_links.is_empty()
    }

    /// Total ACL bytes waiting in this controller's transmit path:
    /// queued user data plus the payload currently in flight, summed
    /// over every link (master slots and slave contexts alike). The
    /// metrics hub reports this as the device's buffer occupancy gauge.
    pub fn queued_tx_bytes(&self) -> usize {
        let in_flight = |l: &connection::LinkState| {
            l.tx.queued_bytes() + l.in_flight.as_ref().map_or(0, |(_, d)| d.len())
        };
        let master: usize = self
            .master
            .as_ref()
            .map_or(0, |m| m.slaves.iter().map(|s| in_flight(&s.link)).sum());
        master
            + self
                .slave_links
                .iter()
                .map(|s| in_flight(&s.link))
                .sum::<usize>()
    }

    /// User (non-LMP) bytes dropped from this controller's transmit
    /// buffers by link teardown — detach, supervision timeout or
    /// power-off. The metrics hub reports this per device and as an
    /// aggregate counter.
    pub fn dropped_tx_bytes(&self) -> u64 {
        self.dropped_tx_bytes
    }

    /// The link-supervision timeout in effect, in slots (0 = disabled).
    pub fn supervision_timeout_slots(&self) -> u32 {
        self.cfg.supervision_timeout_slots
    }

    /// Slave links as `(lt_addr, master address)` pairs, in join order
    /// (one entry per piconet this device is a slave in).
    pub fn slave_masters(&self) -> Vec<(u8, BdAddr)> {
        self.slave_links
            .iter()
            .map(|s| (s.lt_addr, s.master))
            .collect()
    }

    /// The master's address when this device is a slave in exactly one
    /// piconet; `None` otherwise. A non-allocating
    /// [`LinkController::slave_masters`] for the single-link case.
    pub fn sole_slave_master(&self) -> Option<BdAddr> {
        match self.slave_links.as_slice() {
            [s] => Some(s.master),
            _ => None,
        }
    }

    /// Half-slot tick: drive the current state, appending the actions
    /// it asks for to `out`.
    ///
    /// All three entry points append and never read or clear `out`, so
    /// a caller can drain one buffer after each call and reuse it.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<LcAction>) {
        if now < self.ff_until {
            // The statistical tier already simulated this span.
            return;
        }
        match &mut self.state {
            ProcState::Standby => {}
            ProcState::Inquiry(_) => self.tick_inquiry(now, out),
            ProcState::InquiryScan(_) => self.tick_inquiry_scan(now, out),
            ProcState::Page(_) => self.tick_page(now, out),
            ProcState::PageScan(_) => self.tick_page_scan(now, out),
            ProcState::Connection => self.tick_connection(now, out),
        }
    }

    /// Air images built and shortcut receptions since the last call
    /// (see [`packet::Codec::decode_reception`]), resetting the counts.
    pub fn take_rx_tally(&mut self) -> packet::RxTally {
        self.codec.take_tally()
    }

    /// Packet delivery from the channel; appends the resulting actions
    /// to `out`.
    pub fn on_rx(&mut self, rx: &RxDelivery<'_>, now: SimTime, out: &mut Vec<LcAction>) {
        self.ff_until = SimTime::ZERO; // a delivery may arm earlier work
        match &mut self.state {
            ProcState::Standby => {}
            ProcState::Inquiry(_) => self.rx_inquiry(rx, now, out),
            ProcState::InquiryScan(_) => self.rx_inquiry_scan(rx, now, out),
            ProcState::Page(_) => self.rx_page(rx, now, out),
            ProcState::PageScan(_) => self.rx_page_scan(rx, now, out),
            ProcState::Connection => self.rx_connection(rx, now, out),
        }
    }

    /// Application / link-manager command; appends the resulting
    /// actions to `out`.
    pub fn command(&mut self, cmd: LcCommand, now: SimTime, out: &mut Vec<LcAction>) {
        self.ff_until = SimTime::ZERO; // a command may arm earlier work
        match cmd {
            LcCommand::Inquiry {
                num_responses,
                timeout_slots,
            } => self.start_inquiry(num_responses, timeout_slots, now, out),
            LcCommand::InquiryScan => self.start_inquiry_scan(now, out),
            LcCommand::Page {
                target,
                clke_offset,
                timeout_slots,
            } => self.start_page(target, clke_offset, timeout_slots, now, out),
            LcCommand::PageScan => self.start_page_scan(now, out),
            LcCommand::AbortProcedure => self.abort_procedure(now, out),
            LcCommand::AclData { lt_addr, data } => {
                self.queue_payload(lt_addr, packet::Llid::Start, data)
            }
            LcCommand::Lmp { lt_addr, data } => {
                self.queue_payload(lt_addr, packet::Llid::Lmp, data)
            }
            LcCommand::SetAclType(t) => self.acl_type = t,
            LcCommand::SetTpoll(t) => self.t_poll = t.max(2),
            LcCommand::SetAfh(map) => {
                self.afh = Some(map);
                self.afh_pending = None;
            }
            LcCommand::SetAfhAt { map, at_slot } => {
                // A pending switch whose instant already passed is the
                // in-use map; fold it in before replacing.
                self.settle_afh(now.slots());
                self.afh_pending = Some((map, at_slot));
            }
            LcCommand::CancelAfhSwitch => {
                // An effective switch is folded in and kept; only a
                // still-future one is dropped.
                self.settle_afh(now.slots());
                self.afh_pending = None;
            }
            LcCommand::ScoSetup { lt_addr, params } => {
                self.cmd_sco_setup(lt_addr, params, now, out)
            }
            LcCommand::ScoRemove { lt_addr } => self.cmd_sco_remove(lt_addr, now, out),
            LcCommand::ScoData { lt_addr, data } => self.queue_sco(lt_addr, data),
            LcCommand::Sniff { lt_addr, params } => self.cmd_sniff(lt_addr, params, now, out),
            LcCommand::Unsniff { lt_addr } => self.cmd_unsniff(lt_addr, now, out),
            LcCommand::Hold {
                lt_addr,
                hold_slots,
            } => self.cmd_hold(lt_addr, hold_slots, now, out),
            LcCommand::HoldPiconet { master, hold_slots } => {
                self.cmd_hold_piconet(master, hold_slots, now, out)
            }
            LcCommand::AclDataTo { master, data } => self.queue_payload_to(master, data),
            LcCommand::Park {
                lt_addr,
                beacon_interval,
            } => self.cmd_park(lt_addr, beacon_interval, now, out),
            LcCommand::Unpark { lt_addr } => self.cmd_unpark(lt_addr, now, out),
            LcCommand::Detach { lt_addr } => self.cmd_detach(lt_addr, now, out),
            LcCommand::SetSupervisionTimeout { timeout_slots } => {
                self.cfg.supervision_timeout_slots = timeout_slots;
            }
            LcCommand::PowerOff => self.cmd_power_off(out),
        }
    }

    // ----- shared helpers -------------------------------------------------

    /// Folds a pending AFH switch whose instant has passed into the
    /// in-use map. Called from command handlers only — never from the
    /// tick path, whose no-op ticks must leave the controller
    /// byte-identical (the wakeup-hint contract); the hop selectors
    /// instead consult [`LinkController::afh_map_at`], which applies the
    /// pending map purely by comparing slots.
    fn settle_afh(&mut self, now_slot: u64) {
        if let Some((map, at)) = self.afh_pending.take() {
            if at <= now_slot {
                self.afh = Some(map);
            } else {
                self.afh_pending = Some((map, at));
            }
        }
    }

    /// The AFH channel map in effect for a hop at piconet slot `slot`
    /// (`None`: all 79 channels, non-adaptive hopping). A scheduled
    /// switch applies to slots at or after its instant, so callers that
    /// pass each hop's own slot — as the connection tick/RX paths do —
    /// stay consistent across the switch even when the instant falls
    /// inside a TX/RX frame.
    pub fn afh_map_at(&self, slot: u64) -> Option<&hop::ChannelMap> {
        resolve_afh(self.afh.as_ref(), self.afh_pending.as_ref(), slot)
    }

    /// The scheduled AFH switch, if any: `(map, switch slot)`.
    pub fn afh_pending_switch(&self) -> Option<(&hop::ChannelMap, u64)> {
        self.afh_pending.as_ref().map(|(m, at)| (m, *at))
    }

    /// The controller's per-channel reception assessment (the AFH
    /// classification input; see [`ChannelAssessment`]).
    pub fn channel_assessment(&self) -> &ChannelAssessment {
        &self.assessment
    }

    /// Clears the channel assessment (start a fresh window, e.g. after
    /// a map switch so stale pre-switch evidence ages out).
    pub fn reset_channel_assessment(&mut self) {
        self.assessment.reset();
    }

    /// The instant up to which the statistical tier has already
    /// simulated this controller ([`SimTime::ZERO`] when not
    /// fast-forwarded). Ticks strictly before it are no-ops.
    pub fn ff_until(&self) -> SimTime {
        self.ff_until
    }

    /// Fast-forwards the controller to `until` (statistical tier only;
    /// the caller is responsible for having simulated the gap).
    pub fn set_ff_until(&mut self, until: SimTime) {
        self.ff_until = until;
    }

    /// Whether the mastered link currently runs on the statistical tier.
    pub fn stat_promoted(&self) -> bool {
        self.stat_promoted
    }

    /// Records a promotion/demotion decided by the stability tracker.
    pub fn set_stat_promoted(&mut self, promoted: bool) {
        self.stat_promoted = promoted;
    }

    pub(crate) fn set_phase(&mut self, phase: LifePhase, out: &mut Vec<LcAction>) {
        if self.phase != phase {
            self.phase = phase;
            out.push(LcAction::Event(LcEvent::PhaseChanged { phase }));
        }
    }

    /// Ticks elapsed since the current procedure started.
    pub(crate) fn proc_ticks(&self, now: SimTime) -> u64 {
        (now.ns() / SimDuration::HALF_SLOT.ns()).saturating_sub(self.proc_start_tick)
    }

    pub(crate) fn mark_proc_start(&mut self, now: SimTime) {
        self.proc_start_tick = now.ns() / SimDuration::HALF_SLOT.ns();
    }

    /// Current train offset (A or B), switching every `train_switch_slots`.
    pub(crate) fn train_kofs(&self, now: SimTime) -> u8 {
        let period_ticks = 2 * self.cfg.train_switch_slots as u64;
        if period_ticks == 0 || (self.proc_ticks(now) / period_ticks).is_multiple_of(2) {
            hop::KOFFSET_A
        } else {
            hop::KOFFSET_B
        }
    }

    /// Link keys for inquiry exchanges (GIAC, DCI UAP, fixed whitening).
    /// Inquiry FHS responses always carry the spec 2/3 FEC.
    pub(crate) fn giac_keys(&self) -> LinkKeys {
        LinkKeys::control(syncword::GIAC_LAP, DCI_UAP, self.cfg.sync_threshold, true)
    }

    /// Link keys for page exchanges with `target` (DAC, target's UAP).
    pub(crate) fn dac_keys(&self, target: BdAddr) -> LinkKeys {
        LinkKeys::control(
            target.lap(),
            target.uap(),
            self.cfg.sync_threshold,
            self.cfg.page_fhs_fec,
        )
    }

    /// Connected slaves as `(lt_addr, address)` pairs (master side).
    pub fn connected_slaves(&self) -> Vec<(u8, BdAddr)> {
        self.master
            .as_ref()
            .map(|m| m.slaves.iter().map(|s| (s.lt_addr, s.addr)).collect())
            .unwrap_or_default()
    }

    /// Returns to standby (procedures) or connection (if links exist).
    pub(crate) fn settle_state(&mut self, out: &mut Vec<LcAction>) {
        if self.is_master() || self.is_slave() {
            self.state = ProcState::Connection;
            self.set_phase(self.connection_phase(), out);
        } else {
            self.state = ProcState::Standby;
            self.set_phase(LifePhase::Standby, out);
        }
    }

    /// Index of the slave link a slave-side command with `lt_addr`
    /// targets: the link whose LT_ADDR matches *uniquely*, or —
    /// preserving the pre-scatternet "LT_ADDR is ignored on the slave
    /// side" behaviour — the sole link when there is exactly one.
    ///
    /// When several links share the LT_ADDR (each master assigns them
    /// independently, so a bridge's links can collide) the command is
    /// ambiguous and targets nothing: acting on the wrong piconet's
    /// link would silently desynchronise the bridge, whereas a dropped
    /// mode change merely costs the master some fruitless polling.
    /// Master-addressed commands ([`LcCommand::HoldPiconet`],
    /// [`LcCommand::AclDataTo`]) are never ambiguous.
    pub(crate) fn slave_cmd_index(&self, lt_addr: u8) -> Option<usize> {
        let mut matches = self
            .slave_links
            .iter()
            .enumerate()
            .filter(|(_, s)| s.lt_addr == lt_addr);
        match (matches.next(), matches.next()) {
            (Some((i, _)), None) => Some(i),
            (Some(_), Some(_)) => None, // colliding LT_ADDRs: ambiguous
            (None, _) if self.slave_links.len() == 1 => Some(0),
            _ => None,
        }
    }

    /// Index of the slave link into the piconet mastered by `master`.
    pub(crate) fn slave_index_of_master(&self, master: BdAddr) -> Option<usize> {
        self.slave_links.iter().position(|s| s.master == master)
    }

    fn queue_sco(&mut self, lt_addr: u8, data: Vec<u8>) {
        if let Some(m) = &mut self.master {
            if let Some(slot) = m.slot_mut(lt_addr) {
                slot.sco_out.extend(data);
                return;
            }
        }
        if let Some(i) = self.slave_cmd_index(lt_addr) {
            self.slave_links[i].sco_out.extend(data);
        }
    }

    fn queue_payload(&mut self, lt_addr: u8, llid: packet::Llid, data: Vec<u8>) {
        if let Some(m) = &mut self.master {
            if let Some(slot) = m.slot_mut(lt_addr) {
                slot.link.tx.push(llid, data);
                return;
            }
        }
        if let Some(i) = self.slave_cmd_index(lt_addr) {
            self.slave_links[i].link.tx.push(llid, data);
        }
    }

    fn queue_payload_to(&mut self, master: BdAddr, data: Vec<u8>) {
        if let Some(i) = self.slave_index_of_master(master) {
            self.slave_links[i].link.tx.push(packet::Llid::Start, data);
        }
    }

    pub(crate) fn peek_duration(&self) -> SimDuration {
        SimDuration::from_us(self.cfg.peek_us)
    }
}

/// The switch-instant rule, defined once: a scheduled switch `(map,
/// at)` governs hops for slots `>= at`; earlier slots keep `current`.
/// Both the public [`LinkController::afh_map_at`] accessor and the
/// tick/RX snapshot (`connection::AfhView`) resolve through this
/// function — master/slave hop synchronization depends on the two
/// never diverging.
pub(crate) fn resolve_afh<'a>(
    current: Option<&'a hop::ChannelMap>,
    pending: Option<&'a (hop::ChannelMap, u64)>,
    slot: u64,
) -> Option<&'a hop::ChannelMap> {
    match pending {
        Some((map, at)) if slot >= *at => Some(map),
        _ => current,
    }
}

/// Convenience: a transmit action.
pub(crate) fn tx_action(at: SimTime, rf_channel: u8, packet: AirPacket) -> LcAction {
    LcAction::Tx {
        at,
        rf_channel,
        packet,
    }
}
