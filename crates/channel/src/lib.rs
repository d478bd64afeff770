//! # btsim-channel
//!
//! The shared radio medium of the simulation, modelled exactly as in the
//! DATE'05 paper (Fig. 2): a digital multi-input/single-output module that
//!
//! * inverts bits with a configurable probability (the **BER**), driven by
//!   the run's random stream — the same corrupted image is seen by every
//!   receiver, as in the paper's single-output channel;
//! * delays every packet by a fixed **modem delay** standing in for the
//!   RF modulator/demodulator chain;
//! * resolves **collisions**: whenever two or more devices drive the same
//!   RF hop channel at the same time, the overlapping bits are forced to
//!   the undefined value `X` and receivers count them as errors.
//!
//! Transmissions are registered with [`Medium::begin_tx`]. A transmission
//! carries an [`AirImage`]: a bare [`BitVec`], or a packet that builds its
//! bits only on demand. Noise is drawn at registration and kept as flip
//! positions, so the image itself is never rewritten. The simulator
//! delivers a transmission with [`Medium::deliver`], which yields the
//! collision mask, and reads the sender's image and flips through
//! [`Medium::image_of`]; [`Medium::receive`] also builds the noisy bits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod snap_impls;

use std::collections::{BTreeMap, VecDeque};

pub use btsim_coding::AirImage;
use btsim_coding::BitVec;
use btsim_kernel::{
    CaptureDir, CaptureKind, CaptureRecord, CaptureSink, FlipRate, SimDuration, SimRng, SimTime,
};

/// Number of RF hop channels in the 2.4 GHz band.
pub const RF_CHANNELS: u8 = 79;

/// A device position on the floor plan, in metres.
///
/// Positions exist only when the medium is built with a
/// [`SpatialConfig`]; without one every device shares the same point and
/// the medium behaves exactly as the paper's single shared channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East-west coordinate in metres.
    pub x: f64,
    /// North-south coordinate in metres.
    pub y: f64,
}

impl Position {
    /// The origin of the floor plan.
    pub const ORIGIN: Position = Position { x: 0.0, y: 0.0 };

    /// Creates a position.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    pub fn distance(self, other: Position) -> f64 {
        self.dist2(other).sqrt()
    }

    fn dist2(self, other: Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// Deterministic path-loss policy: a hard interaction radius.
///
/// Two radios interact — collide, read each other's carrier, deliver
/// packets — exactly when their distance is `<= radius`; beyond it the
/// path loss is treated as total. A hard disc keeps the model
/// deterministic and lets the spatial grid bound every interference
/// scan to the 3×3 cell neighbourhood around a source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLoss {
    radius: f64,
}

impl PathLoss {
    /// A hard-disc policy with the given interaction radius in metres.
    ///
    /// # Panics
    ///
    /// Panics unless `radius` is finite and positive.
    pub fn range(radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "interaction radius must be finite and positive, got {radius}"
        );
        Self { radius }
    }

    /// The interaction radius in metres.
    pub fn radius(self) -> f64 {
        self.radius
    }

    /// Whether two positions are within interaction range (inclusive).
    pub fn in_range(self, a: Position, b: Position) -> bool {
        a.dist2(b) <= self.radius * self.radius
    }
}

/// Grid cell coordinates (floor-divided position).
pub type Cell = (i32, i32);

/// Spatial model of the medium: a [`PathLoss`] range policy plus the
/// coarse grid that indexes radios and transmissions by cell.
///
/// The cell size must be at least the interaction radius so that any
/// in-range pair of radios is always within the 3×3 block of cells
/// around either one — the invariant every range-culled scan (and the
/// simulator's cell sharding) relies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialConfig {
    path_loss: PathLoss,
    cell_size: f64,
}

/// Why [`SpatialConfig::try_new`] rejected a cell size: it is not a
/// finite number of metres at least the interaction radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSizeError {
    /// The rejected cell size in metres.
    pub cell_size: f64,
    /// The interaction radius it must reach, in metres.
    pub radius: f64,
}

impl std::fmt::Display for CellSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell size {} must be >= the interaction radius {}",
            self.cell_size, self.radius
        )
    }
}

impl std::error::Error for CellSizeError {}

impl SpatialConfig {
    /// A spatial model with an explicit cell size, or why the cell size
    /// is illegal.
    pub fn try_new(path_loss: PathLoss, cell_size: f64) -> Result<Self, CellSizeError> {
        if cell_size.is_finite() && cell_size >= path_loss.radius() {
            Ok(Self {
                path_loss,
                cell_size,
            })
        } else {
            Err(CellSizeError {
                cell_size,
                radius: path_loss.radius(),
            })
        }
    }

    /// A spatial model with an explicit cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is smaller than the interaction radius.
    pub fn new(path_loss: PathLoss, cell_size: f64) -> Self {
        Self::try_new(path_loss, cell_size).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A spatial model whose cells are exactly one interaction radius
    /// wide (the tightest legal grid).
    pub fn with_radius(radius: f64) -> Self {
        Self::new(PathLoss::range(radius), radius)
    }

    /// The path-loss policy.
    pub fn path_loss(&self) -> PathLoss {
        self.path_loss
    }

    /// The grid cell size in metres.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The grid cell containing `p`.
    pub fn cell_of(&self, p: Position) -> Cell {
        (
            (p.x / self.cell_size).floor() as i32,
            (p.y / self.cell_size).floor() as i32,
        )
    }

    /// For every position, the indices of the other positions within
    /// interaction range, in ascending order — the in-range graph as
    /// adjacency lists, found through the grid (each position is tested
    /// only against its 3×3 cell neighbourhood).
    pub fn neighbour_lists(&self, positions: &[Position]) -> Vec<Vec<usize>> {
        let mut cells: BTreeMap<Cell, Vec<usize>> = BTreeMap::new();
        for (i, &p) in positions.iter().enumerate() {
            cells.entry(self.cell_of(p)).or_default().push(i);
        }
        positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let mut near: Vec<usize> = neighbor_cells(self.cell_of(p))
                    .filter_map(|c| cells.get(&c))
                    .flatten()
                    .copied()
                    .filter(|&j| j != i && self.path_loss.in_range(p, positions[j]))
                    .collect();
                near.sort_unstable();
                near
            })
            .collect()
    }
}

/// The 3×3 block of cells around `cell`, in row-major order. Wrapping:
/// a cell on the `i32` edge (only absurd coordinates, such as a corrupted
/// snapshot's, saturate `cell_of` there) must not overflow.
fn neighbor_cells(cell: Cell) -> impl Iterator<Item = Cell> {
    (-1..=1).flat_map(move |dy| {
        (-1..=1).map(move |dx| (cell.0.wrapping_add(dx), cell.1.wrapping_add(dy)))
    })
}

/// Identifies a registered transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(u64);

/// A fixed-band interferer, e.g. an 802.11 network occupying ~22 MHz of
/// the ISM band (the coexistence situation of the paper's refs [4-5]).
///
/// A Bluetooth packet whose hop channel falls inside the band is wiped
/// (treated as fully collided) with probability `duty` — the fraction of
/// time the interferer's bursts occupy the band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interferer {
    /// First RF channel of the occupied band.
    pub first_channel: u8,
    /// Band width in channels (802.11b ≈ 22).
    pub width: u8,
    /// Probability a packet in the band is hit.
    pub duty: f64,
}

impl Interferer {
    /// An 802.11b-like interferer centred at `center`: the band covers
    /// `center ± 11` channels, clamped to the ISM band edges. A centre
    /// near the band edge occupies *fewer* channels — a 22 MHz burst
    /// centred at channel 5 cannot reach channel 16, so the upper edge
    /// is clamped to `center + 11` rather than shifting the whole band
    /// upward.
    pub fn wlan(center: u8, duty: f64) -> Self {
        let first_channel = center.saturating_sub(11).min(RF_CHANNELS);
        let upper = (center as u16 + 11).min(RF_CHANNELS as u16);
        Self {
            first_channel,
            // Saturating: a centre above the ISM band yields an empty
            // band rather than underflowing.
            width: upper.saturating_sub(first_channel as u16) as u8,
            duty,
        }
    }

    /// Whether `channel` falls inside the occupied band.
    pub fn covers(&self, channel: u8) -> bool {
        channel >= self.first_channel
            && (channel as u16) < self.first_channel as u16 + self.width as u16
    }
}

/// Static configuration of the medium.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Bit error rate applied independently to every transmitted bit.
    pub ber: f64,
    /// Fixed modulator + demodulator latency added before delivery.
    pub modem_delay: SimDuration,
    /// Fixed-band interferers sharing the ISM band.
    pub interferers: Vec<Interferer>,
    /// Spatial model: positions, hard interaction radius and the grid
    /// cell size. `None` (the default) keeps the paper's single shared
    /// channel where every device interferes with every other.
    pub spatial: Option<SpatialConfig>,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self {
            ber: 0.0,
            modem_delay: SimDuration::from_us(5),
            interferers: Vec::new(),
            spatial: None,
        }
    }
}

/// A transmission in flight (or recently completed). Its id is its place
/// in the medium's store, so it is not kept here; the small fields keep
/// the whole within 64 bytes for a 32-byte image.
#[derive(Debug, Clone)]
struct Transmission<I> {
    source: usize,
    rf_channel: u8,
    start: SimTime,
    /// What the sender put on the air, before noise.
    image: I,
    /// Length of `image` in bits.
    air_bits: u32,
    /// Where this transmission's flip positions start in the medium's
    /// flip arena: an arena-wide index modulo 2³², not an offset into
    /// the vector (the arena never holds 2³² flips, so differences of
    /// these indices are exact).
    flip_at: u32,
    /// How many bits noise flipped.
    flip_len: u32,
    /// Wiped by a fixed-band interferer burst.
    jammed: bool,
    /// Already counted as collided in the medium's [`TxStats`].
    counted_collided: bool,
    /// Delivered at least once by [`Medium::deliver`]. Garbage
    /// collection grants undelivered transmissions one extra retention
    /// window so a delayed delivery cannot race the collector.
    delivered: bool,
}

// A store slot of a 32-byte image (a `BitVec`, or the simulator's
// packets) stays at 64 bytes.
const _: () = assert!(std::mem::size_of::<Option<Transmission<BitVec>>>() == 64);

impl<I> Transmission<I> {
    fn end(&self) -> SimTime {
        self.start + self.air_time()
    }

    fn air_time(&self) -> SimDuration {
        SimDuration::from_bits(self.air_bits as usize)
    }
}

/// An entry of the medium's on-air index: what the interference scans
/// filter on, inline, so only a real overlap reads the retained store.
#[derive(Debug, Clone, Copy)]
struct OnAir {
    id: u64,
    rf_channel: u8,
    start: SimTime,
    end: SimTime,
}

impl OnAir {
    fn of<I>(id: u64, t: &Transmission<I>) -> OnAir {
        OnAir {
            id,
            rf_channel: t.rf_channel,
            start: t.start,
            end: t.end(),
        }
    }

    /// Whether this entry shares `rf_channel` and air time with
    /// `[start, end)`.
    fn overlaps(&self, rf_channel: u8, start: SimTime, end: SimTime) -> bool {
        self.rf_channel == rf_channel && self.start < end && self.end > start
    }
}

/// Cumulative transmission statistics of a [`Medium`].
///
/// A transmission counts as *collided* when another transmission
/// overlapped it in both time and RF channel (each transmission is
/// counted at most once, on both sides of the overlap). Interferer
/// jamming is counted separately in `jammed` — it is an external burst,
/// not a device-vs-device collision — so coexistence experiments can
/// report interferer hits apart from inter-piconet collisions. The
/// scatternet experiments measure the inter-piconet collision rate as
/// `collided / transmissions` deltas over a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Transmissions registered since construction.
    pub transmissions: u64,
    /// Transmissions that overlapped another one on the same channel.
    pub collided: u64,
    /// Transmissions wiped by a fixed-band interferer burst.
    pub jammed: u64,
}

impl TxStats {
    /// Collided fraction (`0` when nothing was transmitted).
    pub fn collision_rate(&self) -> f64 {
        if self.transmissions == 0 {
            0.0
        } else {
            self.collided as f64 / self.transmissions as f64
        }
    }

    /// Jammed fraction (`0` when nothing was transmitted).
    pub fn jam_rate(&self) -> f64 {
        if self.transmissions == 0 {
            0.0
        } else {
            self.jammed as f64 / self.transmissions as f64
        }
    }

    /// Statistics accumulated since an earlier `snapshot`.
    pub fn since(&self, snapshot: TxStats) -> TxStats {
        TxStats {
            transmissions: self.transmissions - snapshot.transmissions,
            collided: self.collided - snapshot.collided,
            jammed: self.jammed - snapshot.jammed,
        }
    }

    /// Field-wise sum: the statistics of two media pooled.
    pub fn plus(&self, other: TxStats) -> TxStats {
        TxStats {
            transmissions: self.transmissions + other.transmissions,
            collided: self.collided + other.collided,
            jammed: self.jammed + other.jammed,
        }
    }
}

/// Counters of one RF channel inside a [`ChannelQuality`] view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Transmissions registered on this channel.
    pub transmissions: u64,
    /// Transmissions that overlapped another one on this channel.
    pub collided: u64,
    /// Transmissions wiped by a fixed-band interferer burst.
    pub jammed: u64,
}

impl ChannelCounters {
    /// Fraction of transmissions that were collided or jammed.
    pub fn bad_rate(&self) -> f64 {
        if self.transmissions == 0 {
            0.0
        } else {
            (self.collided + self.jammed) as f64 / self.transmissions as f64
        }
    }
}

/// Per-RF-channel quality accounting of a [`Medium`]: how many
/// transmissions each of the 79 hop channels carried and how many of
/// them were collided or jammed. Windowed like [`TxStats`]: take a
/// snapshot, run a workload, and diff with [`ChannelQuality::since`].
///
/// This is the medium's god's-eye view (the AFH experiments use it to
/// verify that an adapted hop sequence stops landing in an interferer's
/// band); devices build their own per-channel picture from reception
/// outcomes via `btsim_baseband::ChannelAssessment`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelQuality {
    counters: [ChannelCounters; RF_CHANNELS as usize],
}

impl Default for ChannelQuality {
    fn default() -> Self {
        Self {
            counters: [ChannelCounters::default(); RF_CHANNELS as usize],
        }
    }
}

impl ChannelQuality {
    /// Counters of one channel (all-zero for out-of-band indices).
    pub fn channel(&self, rf_channel: u8) -> ChannelCounters {
        self.counters
            .get(rf_channel as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Sum over all 79 channels.
    pub fn total(&self) -> ChannelCounters {
        self.counters
            .iter()
            .fold(ChannelCounters::default(), |acc, c| ChannelCounters {
                transmissions: acc.transmissions + c.transmissions,
                collided: acc.collided + c.collided,
                jammed: acc.jammed + c.jammed,
            })
    }

    /// Per-channel counters accumulated since an earlier `snapshot`.
    pub fn since(&self, snapshot: &ChannelQuality) -> ChannelQuality {
        let mut out = ChannelQuality::default();
        for (ch, slot) in out.counters.iter_mut().enumerate() {
            let (now, then) = (self.counters[ch], snapshot.counters[ch]);
            *slot = ChannelCounters {
                transmissions: now.transmissions - then.transmissions,
                collided: now.collided - then.collided,
                jammed: now.jammed - then.jammed,
            };
        }
        out
    }

    /// Per-channel field-wise sum: the counters of two media pooled.
    pub fn plus(&self, other: &ChannelQuality) -> ChannelQuality {
        let mut out = self.clone();
        for (slot, o) in out.counters.iter_mut().zip(&other.counters) {
            slot.transmissions += o.transmissions;
            slot.collided += o.collided;
            slot.jammed += o.jammed;
        }
        out
    }
}

/// A delivered transmission before its bits are built: what
/// [`Medium::deliver`] returns. [`Medium::image_of`] lends the sender's
/// image and the flips noise drew over it.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The transmission this delivery came from.
    pub tx_id: TxId,
    /// Index of the transmitting device.
    pub source: usize,
    /// RF hop channel the packet was sent on.
    pub rf_channel: u8,
    /// First bit's air time (without modem delay).
    pub start: SimTime,
    /// Last bit's air time (without modem delay).
    pub end: SimTime,
    /// Time the demodulated bits become available to the baseband.
    pub available_at: SimTime,
    /// Mask of bits that collided with another transmission (`X` values);
    /// `None` when the packet was collision-free.
    pub collision_mask: Option<BitVec>,
}

/// What a receiver gets when a transmission is delivered to it, with the
/// noisy bits built ([`Medium::receive`]).
#[derive(Debug, Clone)]
pub struct Reception {
    /// The transmission this reception came from.
    pub tx_id: TxId,
    /// Index of the transmitting device.
    pub source: usize,
    /// RF hop channel the packet was sent on.
    pub rf_channel: u8,
    /// First bit's air time (without modem delay).
    pub start: SimTime,
    /// Last bit's air time (without modem delay).
    pub end: SimTime,
    /// Time the demodulated bits become available to the baseband.
    pub available_at: SimTime,
    /// The (noise-corrupted) bit image.
    pub bits: BitVec,
    /// Mask of bits that collided with another transmission (`X` values);
    /// `None` when the packet was collision-free.
    pub collision_mask: Option<BitVec>,
}

impl Reception {
    /// True when any bit was hit by a collision.
    pub fn collided(&self) -> bool {
        self.collision_mask.is_some()
    }
}

/// The shared RF medium.
///
/// # Examples
///
/// ```
/// use btsim_channel::{ChannelConfig, Medium};
/// use btsim_coding::BitVec;
/// use btsim_kernel::{SimRng, SimTime};
///
/// let mut medium = Medium::new(ChannelConfig::default(), SimRng::new(1));
/// let bits = BitVec::from_bytes_lsb(&[0xA5; 8]);
/// let tx = medium.begin_tx(0, 40, SimTime::ZERO, bits.clone());
/// let rx = medium.receive(tx).expect("still retained");
/// assert_eq!(rx.bits, bits); // BER = 0: unchanged
/// assert!(!rx.collided());
/// ```
#[derive(Debug, Clone)]
pub struct Medium<I = BitVec> {
    cfg: ChannelConfig,
    rng: SimRng,
    /// Retained transmissions in id order: `txs[k]` holds id `first + k`,
    /// or `None` once [`Medium::gc`] collected it. Ids are dense and
    /// starts are non-decreasing along the queue, so a lookup by id is
    /// one offset and the collector works from the old end.
    txs: VecDeque<Option<Transmission<I>>>,
    /// Flip positions of the retained transmissions, each one's
    /// ascending and contiguous, in id order. [`Medium::gc`] trims the
    /// front up to the oldest retained transmission.
    flips: Vec<u32>,
    /// Arena-wide index of `flips[0]`, modulo 2³².
    flip_base: u32,
    /// Noisy bit images built for captures and [`Medium::receive`].
    images_built: u64,
    /// Id of `txs[0]` (`next_id` when nothing is retained).
    first: u64,
    /// Number of `Some` entries in `txs`.
    live: usize,
    /// On-air index for the interference scans: per cell index (one
    /// implicit cell without a spatial model), the transmissions from
    /// sources in that cell that end after `floor`, in no particular
    /// order. An entry may outlive its transmission's collection (the
    /// scans check the store on an overlap) or end at or before `floor`
    /// (a push into its cell prunes it).
    on_air: Vec<Vec<OnAir>>,
    /// Entries ending at or before this instant may be missing from
    /// `on_air`. It trails the newest start by the longest air time
    /// plus the modem delay, so a packet delivered on time starts at or
    /// after it; [`Medium::deliver`] of an older packet scans the store.
    /// Monotone.
    floor: SimTime,
    /// Longest air time registered since construction (or, after a
    /// decode, over the retained set): no retained transmission that
    /// started this long before an instant is still on air then.
    max_air: SimDuration,
    /// Cell indices and populated neighbourhoods, derived from `cells`.
    grid: Grid,
    /// Set by [`Medium::register_radio`]: `grid` and `on_air` are
    /// rebuilt on the next use, so registering N radios costs one
    /// rebuild, not N.
    stale: bool,
    /// Spatial-mode radio registry, indexed by source id: position,
    /// home cell, a private noise stream and the radio's latest
    /// air-time end.
    radios: Vec<Option<Radio>>,
    /// Spatial-mode cell membership (registration-ordered source ids).
    cells: BTreeMap<Cell, Vec<usize>>,
    /// Where the incremental collector stands (derived, not serialized).
    sweep: Sweep,
    /// Base stream for the counter-based interferer burst schedule:
    /// never drawn from directly, only forked per `(slot, channel)`.
    /// Forks are pure functions of the medium seed, so `begin_tx`,
    /// [`Medium::interferer_active`] and sharded sibling media built
    /// from the same run seed all see the same burst timeline.
    jam_base: SimRng,
    next_id: u64,
    /// Start of the newest transmission: registrations must not go
    /// back in time (the collector relies on start-ordered ids).
    newest_start: SimTime,
    total_flipped: u64,
    total_bits: u64,
    tx_stats: TxStats,
    quality: ChannelQuality,
    /// Latest air-time end over every *bit-level* transmission ever
    /// registered (monotone; never reduced by [`Medium::gc`]). The
    /// statistical tier uses it to prove the medium is quiescent
    /// without scanning the store.
    last_end: SimTime,
    /// Packet-capture sink (disabled by default): air records are pushed
    /// at [`Medium::begin_tx`] and [`Medium::deliver`], and the simulator
    /// interleaves LMP records through [`Medium::capture_mut`], so one
    /// dispatch-ordered stream serializes to btsnoop.
    capture: CaptureSink,
    /// Fault-layer per-source transmit degrades, indexed by source id
    /// (`None` = healthy). Consulted by [`Medium::begin_tx`] when
    /// picking the effective BER for a packet.
    degrade: Vec<Option<Degrade>>,
}

/// A fault-injected transmit degrade: extra BER ramping linearly from
/// zero at `from` to `target` at `from + ramp`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Degrade {
    pub(crate) target: f64,
    pub(crate) from: SimTime,
    pub(crate) ramp: SimDuration,
}

/// A registered radio of a spatial medium.
#[derive(Debug, Clone)]
struct Radio {
    pos: Position,
    cell: Cell,
    /// Private noise stream: bit flips of this radio's transmissions
    /// come from here, so one radio's draw count never depends on
    /// traffic elsewhere on the floor (the property cell sharding needs).
    noise: SimRng,
    /// The stream key `register_radio` derived `noise` from, kept so
    /// [`Medium::reseed`] can re-derive the same stream under a new
    /// base RNG (the campaign-fork reseeding contract).
    stream: u64,
    /// Latest air-time end of this radio's transmissions.
    last_end: SimTime,
}

/// The cell table derived from the radio registry: a dense index per
/// populated cell (ascending cell order) and, per cell, the populated
/// cells of its 3×3 neighbourhood. Without a spatial model it is one
/// implicit cell that every source belongs to.
#[derive(Debug, Clone, Default)]
struct Grid {
    /// Cell index of each registered radio, by source id (spatial mode).
    radio_cell: Vec<u32>,
    /// Populated 3×3 neighbourhood of each cell, as cell indices.
    near: Vec<Vec<u32>>,
}

impl Grid {
    fn build(spatial: bool, cells: &BTreeMap<Cell, Vec<usize>>, radios: &[Option<Radio>]) -> Grid {
        if !spatial {
            return Grid {
                radio_cell: Vec::new(),
                near: vec![vec![0]],
            };
        }
        let keys: Vec<Cell> = cells.keys().copied().collect();
        let index = |c: Cell| keys.binary_search(&c).ok().map(|i| i as u32);
        Grid {
            radio_cell: radios
                .iter()
                .map(|r| r.as_ref().and_then(|r| index(r.cell)).unwrap_or(u32::MAX))
                .collect(),
            near: keys
                .iter()
                .map(|&c| neighbor_cells(c).filter_map(index).collect())
                .collect(),
        }
    }
}

/// Progress of the incremental collector ([`Medium::gc`]). Every live
/// transmission below id `next` ended before an earlier cutoff while
/// undelivered: it waits in `grace`, and its id is also in `late` if it
/// has been delivered since. Ids from `next` on have not been
/// classified yet.
#[derive(Debug, Clone, Default)]
struct Sweep {
    next: u64,
    /// Undelivered transmissions in their extra retention window, in id
    /// (hence start) order; collected ids are dropped from the front.
    grace: VecDeque<u64>,
    /// Grace transmissions delivered since the last collection.
    late: Vec<u64>,
    /// `(cutoff, retention)` of the last collection: a later call with
    /// an earlier cutoff or another retention re-classifies everything.
    last: Option<(SimTime, SimDuration)>,
}

/// Occupancy class of an RF channel with respect to fixed-band
/// interferers: the jam verdict of [`Medium::begin_tx`] and the
/// simulator's hop-map checks read the same classification, so they
/// cannot disagree on the edge cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DutyClass {
    /// No interferer covers the channel; never jams.
    Clear,
    /// A fractional-duty interferer covers the channel: each 625 µs
    /// slot is a burst slot with the given probability, decided by a
    /// counter-based draw on the slot index (see
    /// [`Medium::interferer_active`]) so every transmission starting
    /// in the same slot shares the burst's fate.
    Burst(f64),
    /// A full-duty interferer occupies the band continuously: every
    /// transmission is wiped.
    Continuous,
}

impl DutyClass {
    /// Whether the interferer occupies the band continuously.
    pub fn is_continuous(self) -> bool {
        self == DutyClass::Continuous
    }
}

impl<I: AirImage> Medium<I> {
    /// Creates a medium with the given configuration and noise stream.
    ///
    /// With [`ChannelConfig::spatial`] set, every transmitting device
    /// must first be placed with [`Medium::register_radio`].
    pub fn new(cfg: ChannelConfig, rng: SimRng) -> Self {
        let jam_base = rng.fork(0x4A4D_5107);
        Self {
            cfg,
            rng,
            txs: VecDeque::new(),
            flips: Vec::new(),
            flip_base: 0,
            images_built: 0,
            first: 0,
            live: 0,
            on_air: Vec::new(),
            floor: SimTime::ZERO,
            max_air: SimDuration::ZERO,
            grid: Grid::default(),
            stale: true,
            radios: Vec::new(),
            cells: BTreeMap::new(),
            sweep: Sweep::default(),
            jam_base,
            next_id: 0,
            newest_start: SimTime::ZERO,
            total_flipped: 0,
            total_bits: 0,
            tx_stats: TxStats::default(),
            quality: ChannelQuality::default(),
            last_end: SimTime::ZERO,
            capture: CaptureSink::disabled(),
            degrade: Vec::new(),
        }
    }

    /// Places radio `source` on the floor plan.
    ///
    /// `stream` selects the radio's private noise sub-stream; callers
    /// that shard a run across several sibling media must pass a
    /// stable (global) identifier so a device draws identical noise
    /// regardless of which shard it lands in.
    ///
    /// # Panics
    ///
    /// Panics without a [`ChannelConfig::spatial`] model, or if
    /// `source` is already registered.
    pub fn register_radio(&mut self, source: usize, pos: Position, stream: u64) {
        let spatial = self
            .cfg
            .spatial
            .expect("register_radio requires ChannelConfig::spatial");
        if self.radios.len() <= source {
            self.radios.resize_with(source + 1, || None);
        }
        assert!(
            self.radios[source].is_none(),
            "radio {source} is already registered"
        );
        let cell = spatial.cell_of(pos);
        self.radios[source] = Some(Radio {
            pos,
            cell,
            noise: self.rng.fork(0x5EED_0000 + stream),
            stream,
            last_end: SimTime::ZERO,
        });
        self.cells.entry(cell).or_default().push(source);
        self.stale = true;
    }

    /// The spatial model, when configured.
    pub fn spatial(&self) -> Option<&SpatialConfig> {
        self.cfg.spatial.as_ref()
    }

    /// The position of a registered radio (`None` without a spatial
    /// model or for an unregistered source).
    pub fn position_of(&self, source: usize) -> Option<Position> {
        self.radios.get(source)?.as_ref().map(|r| r.pos)
    }

    fn radio(&self, source: usize) -> &Radio {
        self.radios
            .get(source)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("spatial medium: radio {source} is not registered"))
    }

    /// Latest air-time end of a registered radio's own transmissions
    /// (`SimTime::ZERO` before it ever transmits). Component-scoped
    /// quiescence checks fold this over a device set, which gives the
    /// same verdict whether the medium holds the whole floor or just
    /// that component.
    ///
    /// # Panics
    ///
    /// Panics without a spatial model or if `source` is unregistered.
    pub fn last_end_of(&self, source: usize) -> SimTime {
        assert!(
            self.cfg.spatial.is_some(),
            "last_end_of requires ChannelConfig::spatial"
        );
        self.radio(source).last_end
    }

    /// Fingerprint of the medium's base RNG stream alone (without the
    /// per-radio noise streams [`Medium::rng_fingerprint`] folds in). A
    /// spatial medium never draws from the base stream after
    /// construction, so sibling shard media built from the same run
    /// seed report the same value — which lets a sharded simulator
    /// reconstruct the exact monolithic fingerprint fold.
    pub fn base_rng_fingerprint(&self) -> u64 {
        self.rng.fingerprint()
    }

    /// Fingerprint of one registered radio's private noise stream.
    ///
    /// # Panics
    ///
    /// Panics without a spatial model or if `source` is unregistered.
    pub fn noise_fingerprint_of(&self, source: usize) -> u64 {
        assert!(
            self.cfg.spatial.is_some(),
            "noise_fingerprint_of requires ChannelConfig::spatial"
        );
        self.radio(source).noise.fingerprint()
    }

    /// Raw (flipped, total) bit counters behind [`Medium::measured_ber`],
    /// so an aggregator over several media can combine them exactly.
    pub fn bit_error_totals(&self) -> (u64, u64) {
        (self.total_flipped, self.total_bits)
    }

    /// The packet-capture sink (disabled unless enabled via
    /// [`Medium::capture_mut`]).
    pub fn capture(&self) -> &CaptureSink {
        &self.capture
    }

    /// Mutable access to the capture sink, for enabling capture and for
    /// the simulator's LMP-dispatch taps (which interleave with the air
    /// records in dispatch order).
    pub fn capture_mut(&mut self) -> &mut CaptureSink {
        &mut self.capture
    }

    /// Replaces the capture sink, returning the old one (used to enable
    /// capture at build time without re-plumbing constructors).
    pub fn set_capture(&mut self, sink: CaptureSink) -> CaptureSink {
        std::mem::replace(&mut self.capture, sink)
    }

    /// The medium's configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Replaces every random stream of the medium with streams derived
    /// from `rng`, using the same keying as construction: the jam base
    /// is `rng.fork(0x4A4D_5107)` and each registered radio's noise
    /// stream is `rng.fork(0x5EED_0000 + stream)` for the stream key it
    /// was registered with.
    ///
    /// This is the campaign-fork reseeding hook (`docs/SNAPSHOT.md`): a
    /// medium restored from a formed-topology snapshot and reseeded with
    /// a fresh per-run stream behaves exactly like a medium built from
    /// that run seed that happened to reach the same formed state.
    pub fn reseed(&mut self, rng: SimRng) {
        self.jam_base = rng.fork(0x4A4D_5107);
        for radio in self.radios.iter_mut().flatten() {
            radio.noise = rng.fork(0x5EED_0000 + radio.stream);
        }
        self.rng = rng;
    }

    /// Applies a fault-layer transmit degrade to `source`: everything
    /// it transmits suffers an extra BER ramping linearly from zero at
    /// `from` to `target_ber` at `from + ramp`, combined independently
    /// with the configured channel BER. Replaces any earlier degrade.
    pub fn set_degrade(
        &mut self,
        source: usize,
        target_ber: f64,
        from: SimTime,
        ramp: SimDuration,
    ) {
        if self.degrade.len() <= source {
            self.degrade.resize(source + 1, None);
        }
        self.degrade[source] = Some(Degrade {
            target: target_ber,
            from,
            ramp,
        });
    }

    /// Clears a fault-layer degrade (no-op when none is set).
    pub fn clear_degrade(&mut self, source: usize) {
        if let Some(d) = self.degrade.get_mut(source) {
            *d = None;
        }
    }

    /// Whether `source` currently has a fault-layer degrade applied.
    pub fn degraded(&self, source: usize) -> bool {
        self.degrade.get(source).is_some_and(Option::is_some)
    }

    /// The extra fault BER `source` suffers at `at`, ramp-interpolated.
    fn degrade_ber_at(&self, source: usize, at: SimTime) -> f64 {
        let Some(Some(d)) = self.degrade.get(source) else {
            return 0.0;
        };
        let elapsed = at.ns().saturating_sub(d.from.ns());
        if d.ramp.ns() == 0 || elapsed >= d.ramp.ns() {
            d.target
        } else {
            d.target * (elapsed as f64 / d.ramp.ns() as f64)
        }
    }

    /// Injects an interferer mid-run (the fault layer's noise burst):
    /// it covers the band for every transmission from this call on. The burst timeline stays a pure
    /// counter-based function of the medium seed and slot index, so
    /// two engines applying the same fault at the same instant see
    /// identical jam verdicts.
    pub fn add_interferer(&mut self, i: Interferer) {
        self.cfg.interferers.push(i);
    }

    /// Removes every interferer covering exactly `first_channel ..
    /// first_channel + width`, returning how many were removed.
    pub fn remove_interferer(&mut self, first_channel: u8, width: u8) -> usize {
        let before = self.cfg.interferers.len();
        self.cfg
            .interferers
            .retain(|i| !(i.first_channel == first_channel && i.width == width));
        before - self.cfg.interferers.len()
    }

    /// Registers a transmission starting at `start` on `rf_channel`.
    ///
    /// Noise is drawn immediately (single shared corrupted image, as in
    /// the paper's channel module) and kept as flip positions beside the
    /// untouched `image`: the geometric draws depend only on the air
    /// length, so a packet that builds its bits later sees the same
    /// flips. Returns the transmission id used for later delivery.
    ///
    /// Without a spatial model the bit flips come from the medium's
    /// shared noise stream; with one they come from the source radio's
    /// private stream, and the collision scan covers only co-channel
    /// traffic whose source is within interaction range (located via
    /// the populated cells of the 3×3 neighbourhood).
    ///
    /// # Panics
    ///
    /// Panics if `rf_channel >= 79`, `image` is empty or longer than
    /// `u32::MAX` bits, `start` precedes the previous transmission's
    /// start, or (in spatial mode) `source` was never registered.
    pub fn begin_tx(&mut self, source: usize, rf_channel: u8, start: SimTime, image: I) -> TxId {
        assert!(rf_channel < RF_CHANNELS, "invalid RF channel {rf_channel}");
        let len = image.air_bits();
        assert!(len > 0, "cannot transmit an empty packet");
        let air_bits = u32::try_from(len).expect("air image longer than u32::MAX bits");
        assert!(
            start >= self.newest_start,
            "transmission at {start} registered after one starting at {}",
            self.newest_start
        );
        self.reindex();
        let spatial = self.cfg.spatial.is_some();
        // A fault-layer degrade combines independently with the channel
        // BER: a bit survives only if both processes leave it alone.
        let base = self.cfg.ber;
        let extra = self.degrade_ber_at(source, start);
        let ber = base + extra - base * extra;
        let rng = if spatial {
            &mut self
                .radios
                .get_mut(source)
                .and_then(Option::as_mut)
                .unwrap_or_else(|| panic!("spatial medium: radio {source} is not registered"))
                .noise
        } else {
            &mut self.rng
        };
        let rate = FlipRate::new(ber);
        let flips = &mut self.flips;
        let first_flip = flips.len();
        let mut pos = 0u64;
        loop {
            let gap = rng.next_flip_gap_at(rate);
            if pos.saturating_add(gap) >= len as u64 {
                break;
            }
            pos += gap;
            flips.push(pos as u32);
            pos += 1;
        }
        let flip_len = (flips.len() - first_flip) as u32;
        let flip_at = self.flip_base.wrapping_add(first_flip as u32);
        self.total_flipped += u64::from(flip_len);
        self.total_bits += len as u64;
        // Fixed-band interferers wipe in-band packets when the slot the
        // packet starts in is a burst slot.
        let jammed = self.interferer_active(rf_channel, start);
        // Collision accounting: overlap in both time and channel with a
        // still-retained transmission marks both sides, once each. Every
        // one still on air at `start` ends after the floor, so the
        // on-air index lists it.
        let air = SimDuration::from_bits(len);
        let end = start + air;
        self.max_air = self.max_air.max(air);
        self.floor = self
            .floor
            .max(start - (self.max_air + self.cfg.modem_delay));
        let mut collided = false;
        let mut newly_collided = 0u64;
        let (cell, reach) = self.home(source);
        let (txs, first) = (&mut self.txs, self.first);
        for &c in &self.grid.near[cell] {
            for e in &self.on_air[c as usize] {
                if !e.overlaps(rf_channel, start, end) {
                    continue;
                }
                let Some(Some(other)) =
                    e.id.checked_sub(first)
                        .and_then(|k| txs.get_mut(k as usize))
                else {
                    continue; // collected since
                };
                if in_reach(reach, &self.radios, other.source) {
                    collided = true;
                    if !other.counted_collided {
                        other.counted_collided = true;
                        newly_collided += 1;
                    }
                }
            }
        }
        let q = &mut self.quality.counters[rf_channel as usize];
        self.tx_stats.collided += newly_collided;
        q.collided += newly_collided;
        self.tx_stats.transmissions += 1;
        q.transmissions += 1;
        if collided {
            self.tx_stats.collided += 1;
            q.collided += 1;
        }
        if jammed {
            self.tx_stats.jammed += 1;
            q.jammed += 1;
        }
        if self.capture.is_enabled() {
            // The TX record carries the verdict known at registration:
            // `collided` covers overlaps with *earlier* traffic only —
            // the RX record carries the final decode verdict.
            let noisy = noisy_bits(&image, &self.flips[first_flip..]);
            self.images_built += 1;
            self.capture.push(CaptureRecord {
                at: start,
                dir: CaptureDir::Sent,
                kind: CaptureKind::Air,
                device: source,
                channel: rf_channel,
                collided,
                jammed,
                orig_bits: len,
                data: noisy.to_bytes_lsb(),
            });
        }
        let id = TxId(self.next_id);
        self.next_id += 1;
        self.newest_start = start;
        self.last_end = self.last_end.max(end);
        if spatial {
            let radio = self.radios[source].as_mut().expect("registered above");
            radio.last_end = radio.last_end.max(end);
        }
        let t = Transmission {
            source,
            rf_channel,
            start,
            image,
            air_bits,
            flip_at,
            flip_len,
            jammed,
            counted_collided: collided,
            delivered: false,
        };
        let floor = self.floor;
        let home = &mut self.on_air[cell];
        home.retain(|e| e.end > floor);
        home.push(OnAir::of(id.0, &t));
        self.txs.push_back(Some(t));
        self.live += 1;
        id
    }

    /// Cumulative transmission/collision statistics since construction.
    pub fn tx_stats(&self) -> TxStats {
        self.tx_stats
    }

    /// Per-RF-channel quality counters since construction. Snapshot and
    /// diff with [`ChannelQuality::since`] to window a workload.
    pub fn channel_quality(&self) -> &ChannelQuality {
        &self.quality
    }

    /// The probability a transmission on `rf_channel` is wiped by a
    /// fixed-band interferer burst (the highest duty among the
    /// interferers covering the channel; `0.0` outside every band).
    pub fn jam_duty(&self, rf_channel: u8) -> f64 {
        self.cfg
            .interferers
            .iter()
            .filter(|i| i.covers(rf_channel))
            .map(|i| i.duty)
            .fold(0.0f64, f64::max)
    }

    /// Interferer occupancy class of `rf_channel` (see [`DutyClass`]).
    pub fn duty_class(&self, rf_channel: u8) -> DutyClass {
        let duty = self.jam_duty(rf_channel);
        if duty <= 0.0 {
            DutyClass::Clear
        } else if duty >= 1.0 {
            DutyClass::Continuous
        } else {
            DutyClass::Burst(duty)
        }
    }

    /// Records a transmission simulated on the statistical tier.
    ///
    /// Bumps the aggregate and per-channel transmission counters so
    /// [`Medium::tx_stats`] and [`Medium::channel_quality`] stay
    /// shape-identical with bit-level runs, but touches neither the
    /// noise RNG (fingerprints keep proving draw parity of the bit
    /// path) nor the flip accounting ([`Medium::measured_ber`] remains
    /// a bit-level diagnostic) nor the retained store (nothing can
    /// be received or collided with — the tier only runs while it has
    /// the medium to itself).
    pub fn record_stat_tx(&mut self, rf_channel: u8) {
        assert!(rf_channel < RF_CHANNELS, "invalid RF channel {rf_channel}");
        self.tx_stats.transmissions += 1;
        self.quality.counters[rf_channel as usize].transmissions += 1;
    }

    /// Whether every registered bit-level transmission has left the air
    /// by `at` — the medium-quiescence precondition of the statistical
    /// tier, in O(1).
    pub fn quiet_at(&self, at: SimTime) -> bool {
        self.last_end <= at
    }

    /// Time at which the demodulated bits of `id` become available.
    pub fn delivery_time(&self, id: TxId) -> Option<SimTime> {
        self.slot(id.0).map(|t| t.end() + self.cfg.modem_delay)
    }

    /// Delivers transmission `id` without building its bits: the
    /// collision mask and the timing, with the sender's image and the
    /// noise flips left in the medium for [`Medium::image_of`].
    ///
    /// Must be called at or after the transmission's end so that every
    /// colliding transmission is already registered. Returns `None` if the
    /// id was already garbage collected.
    ///
    /// The transmission stays registered (later `begin_tx` calls within
    /// the retention window still collide against it). Masks are built
    /// with ranged word fills over the co-channel traffic only — in
    /// spatial mode, further culled to sources within interaction range
    /// of the transmitter (interference is source-pairwise; every
    /// in-range listener sees the same corrupted image, the paper's
    /// single-output channel localised to one neighbourhood).
    pub fn deliver(&mut self, id: TxId) -> Option<Delivery> {
        self.reindex();
        let tx = self.slot(id.0)?;
        let len = tx.air_bits as usize;
        let (tx_start, tx_end) = (tx.start, tx.end());
        let jammed = tx.jammed;
        let mut overlapped = false;
        let mut mask: Option<BitVec> = if jammed {
            // The interferer burst covers the whole packet.
            Some(BitVec::ones(len))
        } else {
            None
        };
        self.for_each_overlap(id.0, tx, |o_start, o_end| {
            overlapped = true;
            // Mark the overlapped bit span [lo, hi).
            let mask = mask.get_or_insert_with(|| BitVec::zeros(len));
            let lo = o_start.since(tx_start).ns() / SimDuration::SYMBOL.ns();
            let hi = o_end
                .since(tx_start)
                .ns()
                .div_ceil(SimDuration::SYMBOL.ns());
            mask.fill_range(lo as usize, hi.min(len as u64) as usize);
        });
        let delivery = Delivery {
            tx_id: id,
            source: tx.source,
            rf_channel: tx.rf_channel,
            start: tx_start,
            end: tx_end,
            available_at: tx_end + self.cfg.modem_delay,
            collision_mask: mask,
        };
        if self.capture.is_enabled() {
            // The RX record mirrors the transmission with the *final*
            // decode verdict: `collided` now covers overlaps from both
            // sides of the packet, and a clean record (neither flag) is
            // one whose air image reached the demodulator undisturbed.
            let data = noisy_bits(&tx.image, self.flips_of(tx)).to_bytes_lsb();
            self.images_built += 1;
            self.capture.push(CaptureRecord {
                at: delivery.available_at,
                dir: CaptureDir::Received,
                kind: CaptureKind::Air,
                device: delivery.source,
                channel: delivery.rf_channel,
                collided: overlapped,
                jammed,
                orig_bits: len,
                data,
            });
        }
        let k = (id.0 - self.first) as usize;
        let tx = self.txs[k].as_mut().expect("located above");
        if !tx.delivered {
            tx.delivered = true;
            if id.0 < self.sweep.next {
                self.sweep.late.push(id.0);
            }
        }
        Some(delivery)
    }

    /// [`Medium::deliver`], then the noisy bit image built from the
    /// sender's image and its flips.
    pub fn receive(&mut self, id: TxId) -> Option<Reception> {
        let d = self.deliver(id)?;
        let (image, flips) = self.image_of(id).expect("delivered above");
        let bits = noisy_bits(image, flips);
        self.images_built += 1;
        Some(Reception {
            tx_id: d.tx_id,
            source: d.source,
            rf_channel: d.rf_channel,
            start: d.start,
            end: d.end,
            available_at: d.available_at,
            bits,
            collision_mask: d.collision_mask,
        })
    }

    /// The sender's image of a retained transmission and the positions
    /// of the bits noise flipped in it, ascending.
    pub fn image_of(&self, id: TxId) -> Option<(&I, &[u32])> {
        let tx = self.slot(id.0)?;
        Some((&tx.image, self.flips_of(tx)))
    }

    /// Noisy bit images this medium built: one per capture record of an
    /// air packet and one per [`Medium::receive`].
    pub fn images_built(&self) -> u64 {
        self.images_built
    }

    /// Whether the interferer occupying `rf_channel` is bursting at
    /// `at`: always for a full-duty band, never outside every band,
    /// and per 625 µs slot for a fractional-duty band.
    ///
    /// The fractional verdict is a counter-based draw on the slot
    /// index, forked from the medium's seed — no stream state is
    /// consumed, so this probe and the jam verdict of
    /// [`Medium::begin_tx`] see one burst timeline, and sibling media
    /// built from the same run seed (cell shards) agree on it.
    pub fn interferer_active(&self, rf_channel: u8, at: SimTime) -> bool {
        match self.duty_class(rf_channel) {
            DutyClass::Clear => false,
            DutyClass::Continuous => true,
            DutyClass::Burst(duty) => self
                .jam_base
                .fork(
                    at.slots()
                        .wrapping_mul(RF_CHANNELS as u64)
                        .wrapping_add(rf_channel as u64),
                )
                .chance(duty),
        }
    }

    /// Drops transmissions that ended before `now - retention` — except
    /// that a transmission never delivered by [`Medium::deliver`] is
    /// granted one extra retention window, so a delayed delivery
    /// scheduled behind a burst of other work cannot race the
    /// collector. (Undelivered transmissions with no listeners are
    /// still reclaimed, one window late — the bound is `2 × retention`.)
    ///
    /// The work follows what expires, not what is retained: ids are in
    /// start order, so only the oldest unclassified transmissions, the
    /// packets still on air at the cutoff and the grace-window queue's
    /// head are examined. Called with an earlier cutoff or another
    /// retention than last time, it re-classifies everything once.
    ///
    /// Call periodically; `retention` must exceed the modem delay plus the
    /// longest listener window so receptions are still materialisable.
    pub fn gc(&mut self, now: SimTime, retention: SimDuration) {
        let cutoff = now - retention;
        let expired = |t: &Transmission<I>| {
            !(t.end() >= cutoff || (!t.delivered && t.end() + retention >= cutoff))
        };
        if self
            .sweep
            .last
            .is_some_and(|(c, r)| cutoff < c || r != retention)
        {
            self.sweep = Sweep::default();
        }
        self.sweep.last = Some((cutoff, retention));
        self.sweep.next = self.sweep.next.max(self.first);
        // Grace transmissions delivered since the last call ended before
        // its cutoff: they expire now.
        for id in std::mem::take(&mut self.sweep.late) {
            if self.slot(id).is_some_and(expired) {
                self.collect(id);
            }
        }
        // Undelivered grace transmissions, oldest first, up to the first
        // one that cannot have ended a retention window before `cutoff`.
        let mut i = 0;
        while let Some(&id) = self.sweep.grace.get(i) {
            i += 1;
            let Some(t) = self.slot(id) else { continue };
            if t.start + retention >= cutoff {
                break;
            }
            if expired(t) {
                self.collect(id);
            }
        }
        while let Some(&id) = self.sweep.grace.front() {
            if self.slot(id).is_some() {
                break;
            }
            self.sweep.grace.pop_front();
        }
        // Classify in id order: expired, or ended undelivered (grace),
        // up to the first transmission still on air at the cutoff…
        while self.sweep.next < self.next_id {
            let id = self.sweep.next;
            match self.slot(id) {
                None => {}
                Some(t) if expired(t) => self.collect(id),
                Some(t) if t.end() < cutoff => self.sweep.grace.push_back(id),
                Some(_) => break,
            }
            self.sweep.next += 1;
        }
        // …then check the rest that started before the cutoff without
        // classifying them: only packets that overlap the cutoff's air
        // time sit there.
        for id in self.sweep.next..self.next_id {
            let Some(t) = self.slot(id) else { continue };
            if t.start >= cutoff {
                break;
            }
            if expired(t) {
                self.collect(id);
            }
        }
        while self.txs.front().is_some_and(Option::is_none) {
            self.txs.pop_front();
            self.first += 1;
        }
        if self.txs.is_empty() {
            self.first = self.next_id;
        }
        // Flips are stored in id order, so everything before the oldest
        // retained transmission's belongs to collected ones.
        let keep_from = match self.txs.front() {
            Some(Some(t)) => t.flip_at,
            _ => self.flip_base.wrapping_add(self.flips.len() as u32),
        };
        self.flips
            .drain(..keep_from.wrapping_sub(self.flip_base) as usize);
        self.flip_base = keep_from;
    }

    /// Digest of the noise streams' RNG positions (see
    /// [`btsim_kernel::SimRng::fingerprint`]); used by the
    /// engine-equivalence harness to prove identical draw counts. In
    /// spatial mode the per-radio streams are folded in id order.
    pub fn rng_fingerprint(&self) -> u64 {
        let mut acc = self.rng.fingerprint();
        for r in self.radios.iter().flatten() {
            acc = acc.rotate_left(9) ^ r.noise.fingerprint();
        }
        acc
    }

    /// Observed bit-flip fraction since construction (for diagnostics).
    pub fn measured_ber(&self) -> f64 {
        if self.total_bits == 0 {
            0.0
        } else {
            self.total_flipped as f64 / self.total_bits as f64
        }
    }

    /// Number of retained transmissions.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// The retained transmission with id `id`, found by its offset.
    fn slot(&self, id: u64) -> Option<&Transmission<I>> {
        let k = id.checked_sub(self.first)?;
        self.txs.get(usize::try_from(k).ok()?)?.as_ref()
    }

    /// The cell index of `source`'s transmissions and, in spatial mode,
    /// the range test its interference obeys.
    fn home(&self, source: usize) -> (usize, Option<(PathLoss, Position)>) {
        match &self.cfg.spatial {
            Some(spatial) => (
                self.grid.radio_cell[source] as usize,
                Some((spatial.path_loss(), self.radio(source).pos)),
            ),
            None => (0, None),
        }
    }

    /// Calls `f` with the air span of every retained transmission that
    /// overlaps `tx` (id `own`) in time and RF channel from a source
    /// within interaction range, `tx` itself excepted.
    ///
    /// A transmission starting at or after the floor finds its partners
    /// in the on-air index: each one ends after its start, hence after
    /// the floor. An older one scans the store around its own id
    /// instead — ids are start-ordered and no partner started more than
    /// the longest air time before it.
    fn for_each_overlap(
        &self,
        own: u64,
        tx: &Transmission<I>,
        mut f: impl FnMut(SimTime, SimTime),
    ) {
        let (start, end) = (tx.start, tx.end());
        let (cell, reach) = self.home(tx.source);
        let mut visit = |id: u64, o: &Transmission<I>| {
            if id != own
                && o.rf_channel == tx.rf_channel
                && o.start < end
                && o.end() > start
                && in_reach(reach, &self.radios, o.source)
            {
                f(o.start, o.end());
            }
        };
        if start >= self.floor {
            for &c in &self.grid.near[cell] {
                for e in &self.on_air[c as usize] {
                    if !e.overlaps(tx.rf_channel, start, end) {
                        continue;
                    }
                    if let Some(o) = self.slot(e.id) {
                        visit(e.id, o);
                    }
                }
            }
            return;
        }
        for id in (self.first..own).rev() {
            let Some(o) = self.slot(id) else { continue };
            if o.start + self.max_air <= start {
                break;
            }
            visit(id, o);
        }
        for id in own + 1..self.next_id {
            let Some(o) = self.slot(id) else { continue };
            if o.start >= end {
                break;
            }
            visit(id, o);
        }
    }

    /// Rebuilds the cell table and the on-air index after radios were
    /// registered (or the medium was decoded).
    fn reindex(&mut self) {
        if !self.stale {
            return;
        }
        self.grid = Grid::build(self.cfg.spatial.is_some(), &self.cells, &self.radios);
        let mut on_air = vec![Vec::new(); self.grid.near.len()];
        for (id, t) in self.retained() {
            if t.end() > self.floor {
                on_air[self.home(t.source).0].push(OnAir::of(id, t));
            }
        }
        self.on_air = on_air;
        self.stale = false;
    }

    /// The flip positions noise drew for `t`.
    fn flips_of(&self, t: &Transmission<I>) -> &[u32] {
        let at = t.flip_at.wrapping_sub(self.flip_base) as usize;
        &self.flips[at..at + t.flip_len as usize]
    }

    /// The retained transmissions with their ids, in id order.
    fn retained(&self) -> impl Iterator<Item = (u64, &Transmission<I>)> {
        (self.first..)
            .zip(&self.txs)
            .filter_map(|(id, t)| Some((id, t.as_ref()?)))
    }

    /// Removes a live transmission from the store (its on-air entry, if
    /// any, is pruned once its air time falls behind the floor).
    fn collect(&mut self, id: u64) {
        let k = (id - self.first) as usize;
        self.txs[k]
            .take()
            .expect("collecting a retained transmission");
        self.live -= 1;
    }
}

/// `image`'s bits with every position in `flips` inverted.
fn noisy_bits<I: AirImage>(image: &I, flips: &[u32]) -> BitVec {
    let mut bits = BitVec::new();
    image.write_bits(&mut bits);
    for &f in flips {
        bits.toggle(f as usize);
    }
    bits
}

/// Whether `source` is within `reach` (always, without a spatial model).
fn in_reach(reach: Option<(PathLoss, Position)>, radios: &[Option<Radio>], source: usize) -> bool {
    reach.is_none_or(|(range, at)| {
        let radio = radios[source]
            .as_ref()
            .expect("retained tx has a registered source");
        range.in_range(at, radio.pos)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium(ber: f64, seed: u64) -> Medium {
        Medium::new(
            ChannelConfig {
                ber,
                ..ChannelConfig::default()
            },
            SimRng::new(seed),
        )
    }

    fn bits(n: usize) -> BitVec {
        BitVec::from_fn(n, |i| i % 2 == 0)
    }

    #[test]
    fn clean_channel_delivers_bits_unchanged() {
        let mut m = medium(0.0, 1);
        let b = bits(400);
        let tx = m.begin_tx(0, 10, SimTime::ZERO, b.clone());
        let rx = m.receive(tx).unwrap();
        assert_eq!(rx.bits, b);
        assert!(!rx.collided());
        assert_eq!(rx.end, SimTime::from_us(400));
        assert_eq!(rx.available_at, SimTime::from_us(405));
        assert_eq!(m.measured_ber(), 0.0);
    }

    #[test]
    fn noise_flips_roughly_ber_fraction() {
        let mut m = medium(0.02, 42);
        let b = BitVec::zeros(100_000);
        let tx = m.begin_tx(0, 0, SimTime::ZERO, b);
        let rx = m.receive(tx).unwrap();
        let flips = rx.bits.count_ones();
        assert!((1500..2500).contains(&flips), "flips {flips}");
        let measured = m.measured_ber();
        assert!((0.015..0.025).contains(&measured), "ber {measured}");
    }

    #[test]
    fn flip_arena_indices_survive_wrapping() {
        // The arena index is kept modulo 2³²: a medium whose index is
        // about to wrap delivers the same noisy images as a fresh one.
        let run = |base: u32| {
            let mut m = medium(0.05, 3);
            m.flip_base = base;
            let mut images = Vec::new();
            for k in 0..40u64 {
                let at = SimTime::from_us(k * 1_000);
                let tx = m.begin_tx(0, 3, at, BitVec::zeros(500));
                images.push(m.receive(tx).unwrap().bits);
                m.gc(at, SimDuration::from_us(2_500));
            }
            images
        };
        assert_eq!(run(u32::MAX - 40), run(0));
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let run = |seed| {
            let mut m = medium(0.05, seed);
            let tx = m.begin_tx(0, 3, SimTime::ZERO, BitVec::zeros(1000));
            m.receive(tx).unwrap().bits
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn overlapping_same_channel_transmissions_collide() {
        let mut m = medium(0.0, 1);
        let a = m.begin_tx(0, 20, SimTime::ZERO, bits(300));
        let _b = m.begin_tx(1, 20, SimTime::from_us(100), bits(100));
        let rx = m.receive(a).unwrap();
        assert!(rx.collided());
        let mask = rx.collision_mask.unwrap();
        // Bits 100..200 overlap.
        assert_eq!(mask.count_ones(), 100);
        assert_eq!(mask.get(99), Some(false));
        assert_eq!(mask.get(100), Some(true));
        assert_eq!(mask.get(199), Some(true));
        assert_eq!(mask.get(200), Some(false));
    }

    #[test]
    fn collision_is_symmetric() {
        let mut m = medium(0.0, 1);
        let a = m.begin_tx(0, 20, SimTime::ZERO, bits(300));
        let b = m.begin_tx(1, 20, SimTime::from_us(100), bits(100));
        assert!(m.receive(a).unwrap().collided());
        // The shorter packet is fully covered by the longer one.
        let rx_b = m.receive(b).unwrap();
        assert_eq!(rx_b.collision_mask.unwrap().count_ones(), 100);
    }

    #[test]
    fn different_rf_channels_do_not_collide() {
        let mut m = medium(0.0, 1);
        let a = m.begin_tx(0, 20, SimTime::ZERO, bits(300));
        let _b = m.begin_tx(1, 21, SimTime::from_us(100), bits(100));
        assert!(!m.receive(a).unwrap().collided());
    }

    #[test]
    fn back_to_back_transmissions_do_not_collide() {
        let mut m = medium(0.0, 1);
        let a = m.begin_tx(0, 5, SimTime::ZERO, bits(100));
        let _b = m.begin_tx(1, 5, SimTime::from_us(100), bits(100));
        assert!(!m.receive(a).unwrap().collided());
    }

    #[test]
    fn three_way_collision_masks_union() {
        let mut m = medium(0.0, 1);
        let a = m.begin_tx(0, 7, SimTime::ZERO, bits(300));
        let _b = m.begin_tx(1, 7, SimTime::from_us(10), bits(50));
        let _c = m.begin_tx(2, 7, SimTime::from_us(200), bits(50));
        let rx = m.receive(a).unwrap();
        assert_eq!(rx.collision_mask.unwrap().count_ones(), 100);
    }

    #[test]
    fn gc_reclaims_old_transmissions() {
        let mut m = medium(0.0, 1);
        let a = m.begin_tx(0, 1, SimTime::ZERO, bits(100));
        m.gc(SimTime::from_us(10_000), SimDuration::from_us(1_000));
        assert_eq!(m.live_count(), 0);
        assert!(m.receive(a).is_none());
    }

    #[test]
    fn gc_retains_recent_transmissions() {
        let mut m = medium(0.0, 1);
        let a = m.begin_tx(0, 1, SimTime::from_us(9_500), bits(100));
        m.gc(SimTime::from_us(10_000), SimDuration::from_us(1_000));
        assert!(m.receive(a).is_some());
    }

    #[test]
    fn gc_before_retention_elapsed_saturates_and_keeps_everything() {
        // `now - retention` saturates to SimTime::ZERO when the
        // simulation is younger than the retention window; an early gc
        // must not drop anything (and must not panic).
        let mut m = medium(0.0, 1);
        let a = m.begin_tx(0, 1, SimTime::ZERO, bits(100));
        let b = m.begin_tx(1, 2, SimTime::from_us(200), bits(100));
        m.gc(SimTime::from_us(500), SimDuration::from_us(50_000));
        assert_eq!(m.live_count(), 2);
        assert!(m.receive(a).is_some());
        assert!(m.receive(b).is_some());
        // Even gc at t = 0 is safe.
        m.gc(SimTime::ZERO, SimDuration::from_us(50_000));
        assert_eq!(m.live_count(), 2);
    }

    #[test]
    fn interferer_band_coverage() {
        let w = Interferer::wlan(11, 1.0);
        assert!(w.covers(0));
        assert!(w.covers(21));
        assert!(!w.covers(22));
        let hi = Interferer::wlan(70, 1.0);
        assert!(hi.covers(59));
        assert!(hi.covers(78));
        assert!(!hi.covers(58));
    }

    #[test]
    fn low_centre_interferer_clamps_to_reachable_channels() {
        // A 22 MHz burst centred at channel 5 reaches 0..16 only; the
        // band must not silently shift upward to keep its width.
        let w = Interferer::wlan(5, 1.0);
        assert!(w.covers(0));
        assert!(w.covers(15));
        assert!(!w.covers(16), "channel 16 is 11 MHz above the centre");
        assert!(!w.covers(21));
        let lo = Interferer::wlan(0, 1.0);
        assert!(lo.covers(0));
        assert!(lo.covers(10));
        assert!(!lo.covers(11));
        // Mid-band centres keep the full 22-channel width.
        assert_eq!(Interferer::wlan(40, 1.0).width, 22);
        // A centre just past the band edge still reaches down into it…
        let edge = Interferer::wlan(79, 1.0);
        assert!(edge.covers(68));
        assert!(edge.covers(78));
        assert!(!edge.covers(67));
        // …while a centre more than 11 channels above it covers nothing
        // (and must not underflow the width computation).
        for center in [90u8, 100, 255] {
            let oob = Interferer::wlan(center, 1.0);
            assert!(
                (0..RF_CHANNELS).all(|ch| !oob.covers(ch)),
                "wlan({center}) must cover no in-band channel"
            );
        }
    }

    #[test]
    fn full_duty_interferer_wipes_in_band_packets() {
        let mut m = Medium::new(
            ChannelConfig {
                interferers: vec![Interferer::wlan(40, 1.0)],
                ..ChannelConfig::default()
            },
            SimRng::new(5),
        );
        let in_band = m.begin_tx(0, 40, SimTime::ZERO, bits(100));
        let rx = m.receive(in_band).unwrap();
        assert!(rx.collided(), "in-band packet must be wiped");
        assert_eq!(rx.collision_mask.unwrap().count_ones(), 100);
        let out_band = m.begin_tx(0, 10, SimTime::from_us(200), bits(100));
        assert!(!m.receive(out_band).unwrap().collided());
    }

    #[test]
    fn partial_duty_interferer_hits_roughly_duty_fraction() {
        let mut m = Medium::new(
            ChannelConfig {
                interferers: vec![Interferer::wlan(40, 0.5)],
                ..ChannelConfig::default()
            },
            SimRng::new(9),
        );
        // Burst verdicts are counter-based draws on the slot index: no
        // stream state is consumed, so the noise fingerprint never
        // moves (at BER 0 the flip-gap loop is draw-free too).
        let fp = m.rng_fingerprint();
        let mut hit = 0;
        for k in 0..400u64 {
            let at = SimTime::ZERO + SimDuration::from_slots(2 * k);
            let tx = m.begin_tx(0, 40, at, bits(50));
            if m.receive(tx).unwrap().collided() {
                hit += 1;
            }
            assert_eq!(m.rng_fingerprint(), fp, "tx {k}: jamming is draw-free");
            m.gc(at, SimDuration::from_us(100));
        }
        assert!((140..260).contains(&hit), "hits {hit}/400 at duty 0.5");
    }

    #[test]
    fn partial_duty_jam_verdict_is_per_slot() {
        let mut m = Medium::new(
            ChannelConfig {
                interferers: vec![Interferer::wlan(40, 0.5)],
                ..ChannelConfig::default()
            },
            SimRng::new(11),
        );
        let mut bursts = 0;
        for k in 0..200u64 {
            let at = SimTime::ZERO + SimDuration::from_slots(3 * k);
            let expected = m.interferer_active(40, at);
            // Two packets in the same slot share the burst's fate, and
            // it matches the probe; a packet starting in the next slot
            // follows that slot's verdict.
            let jammed0 = m.tx_stats().jammed;
            let a = m.begin_tx(0, 40, at, bits(20));
            let b = m.begin_tx(1, 40, at + SimDuration::from_us(40), bits(20));
            let newly = m.tx_stats().jammed - jammed0;
            assert_eq!(newly, if expected { 2 } else { 0 });
            for tx in [a, b] {
                let rx = m.receive(tx).unwrap();
                assert_eq!(rx.collided(), expected, "slot {k}: receive agrees");
            }
            let next = at + SimDuration::SLOT;
            let jammed1 = m.tx_stats().jammed;
            m.begin_tx(0, 40, next, bits(20));
            assert_eq!(
                m.tx_stats().jammed - jammed1,
                u64::from(m.interferer_active(40, next))
            );
            if expected {
                bursts += 1;
            }
            m.gc(at, SimDuration::from_us(100));
        }
        assert!(
            (60..140).contains(&bursts),
            "bursts {bursts}/200 at duty 0.5"
        );
        // The verdict is stable: re-probing any slot gives the same
        // answer (a pure function of seed, slot and channel).
        let at = SimTime::ZERO + SimDuration::from_slots(17);
        assert_eq!(m.interferer_active(40, at), m.interferer_active(40, at));
    }

    #[test]
    fn gc_grants_undelivered_transmissions_one_extra_window() {
        let mut m = medium(0.0, 1);
        // `a` is registered but its receive is delayed past the normal
        // retention horizon; `b` is materialised immediately.
        let a = m.begin_tx(0, 1, SimTime::ZERO, bits(100));
        let b = m.begin_tx(1, 2, SimTime::ZERO, bits(100));
        assert!(m.receive(b).is_some());
        // gc between begin_tx and the delayed receive: cutoff (150 µs)
        // is past both ends (100 µs), but the undelivered `a` survives
        // its grace window while the delivered `b` is reclaimed.
        m.gc(SimTime::from_us(1_150), SimDuration::from_us(1_000));
        assert_eq!(m.live_count(), 1);
        assert!(
            m.delivery_time(b).is_none(),
            "delivered tx is reclaimed normally"
        );
        let rx = m.receive(a).expect("delayed receive still materialises");
        assert!(!rx.collided());
        // Once delivered (or once the grace window passes), a later gc
        // reclaims it.
        m.gc(SimTime::from_us(2_200), SimDuration::from_us(1_000));
        assert_eq!(m.live_count(), 0);
        assert!(m.receive(a).is_none());
        // An undelivered transmission with no listener is still bounded:
        // reclaimed after 2 × retention.
        let c = m.begin_tx(0, 3, SimTime::from_us(3_000), bits(100));
        m.gc(SimTime::from_us(6_000), SimDuration::from_us(1_000));
        assert!(m.receive(c).is_none(), "2x retention bounds the leak");
        assert_eq!(m.live_count(), 0);
    }

    #[test]
    fn tx_stats_count_overlaps_once_per_side() {
        let mut m = medium(0.0, 1);
        assert_eq!(m.tx_stats(), TxStats::default());
        let _a = m.begin_tx(0, 20, SimTime::ZERO, bits(300));
        let snapshot = m.tx_stats();
        assert_eq!(snapshot.transmissions, 1);
        assert_eq!(snapshot.collided, 0);
        // B overlaps A; C overlaps both; D is on another channel.
        let _b = m.begin_tx(1, 20, SimTime::from_us(100), bits(100));
        let _c = m.begin_tx(2, 20, SimTime::from_us(150), bits(100));
        let _d = m.begin_tx(3, 21, SimTime::from_us(150), bits(100));
        let s = m.tx_stats();
        assert_eq!(s.transmissions, 4);
        assert_eq!(s.collided, 3, "A, B and C collided; D did not");
        assert!((s.collision_rate() - 0.75).abs() < 1e-12);
        let delta = s.since(snapshot);
        assert_eq!(delta.transmissions, 3);
        assert_eq!(delta.collided, 3);
    }

    #[test]
    fn tx_stats_ignore_disjoint_and_cross_channel_traffic() {
        let mut m = medium(0.0, 1);
        for k in 0..10u64 {
            m.begin_tx(0, (k % 5) as u8, SimTime::from_us(k * 1000), bits(100));
        }
        let s = m.tx_stats();
        assert_eq!(s.transmissions, 10);
        assert_eq!(s.collided, 0);
        assert_eq!(s.collision_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid RF channel")]
    fn rejects_out_of_band_channel() {
        let mut m = medium(0.0, 1);
        m.begin_tx(0, 79, SimTime::ZERO, bits(8));
    }

    #[test]
    fn tx_stats_count_jammed_separately_from_collisions() {
        let mut m = Medium::new(
            ChannelConfig {
                interferers: vec![Interferer::wlan(40, 1.0)],
                ..ChannelConfig::default()
            },
            SimRng::new(3),
        );
        let snapshot = m.tx_stats();
        m.begin_tx(0, 40, SimTime::ZERO, bits(100)); // jammed, no overlap
        m.begin_tx(0, 10, SimTime::from_us(200), bits(100)); // clean
        m.begin_tx(1, 10, SimTime::from_us(250), bits(100)); // collides
        let s = m.tx_stats().since(snapshot);
        assert_eq!(s.transmissions, 3);
        assert_eq!(s.jammed, 1, "only the in-band packet is jammed");
        assert_eq!(s.collided, 2, "the two out-of-band packets collided");
        assert!((s.jam_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn channel_quality_tracks_per_channel_counters() {
        let mut m = Medium::new(
            ChannelConfig {
                interferers: vec![Interferer::wlan(40, 1.0)],
                ..ChannelConfig::default()
            },
            SimRng::new(3),
        );
        let snapshot = m.channel_quality().clone();
        m.begin_tx(0, 40, SimTime::ZERO, bits(100)); // jammed
        m.begin_tx(0, 10, SimTime::from_us(200), bits(100));
        m.begin_tx(1, 10, SimTime::from_us(250), bits(100)); // collides with previous
        m.begin_tx(0, 11, SimTime::from_us(500), bits(100)); // clean
        let q = m.channel_quality().since(&snapshot);
        assert_eq!(
            q.channel(40),
            ChannelCounters {
                transmissions: 1,
                collided: 0,
                jammed: 1
            }
        );
        assert_eq!(
            q.channel(10),
            ChannelCounters {
                transmissions: 2,
                collided: 2,
                jammed: 0
            }
        );
        assert_eq!(q.channel(11).transmissions, 1);
        assert_eq!(q.channel(11).bad_rate(), 0.0);
        assert_eq!(q.channel(40).bad_rate(), 1.0);
        let total = q.total();
        assert_eq!(total.transmissions, 4);
        assert_eq!(total.collided, 2);
        assert_eq!(total.jammed, 1);
        // Out-of-band probe reads zero.
        assert_eq!(q.channel(200), ChannelCounters::default());
    }

    #[test]
    fn duty_classes_decide_the_jam_verdict() {
        let mut m = Medium::new(
            ChannelConfig {
                interferers: vec![Interferer::wlan(40, 1.0), Interferer::wlan(70, 0.5)],
                ..ChannelConfig::default()
            },
            SimRng::new(1),
        );
        // Full-duty band: always bursting, every packet wiped.
        assert!(m.interferer_active(40, SimTime::ZERO));
        // Fractional-duty band: a per-slot timeline with both burst and
        // clean slots.
        let mut seen = [false, false];
        for s in 0..64 {
            let at = SimTime::ZERO + SimDuration::from_slots(s);
            seen[usize::from(m.interferer_active(70, at))] = true;
        }
        assert_eq!(
            seen,
            [true, true],
            "duty 0.5 has both burst and clean slots"
        );
        // Out of every band: clean.
        assert!(!m.interferer_active(10, SimTime::ZERO));
        assert_eq!(m.jam_duty(40), 1.0);
        assert_eq!(m.jam_duty(70), 0.5);
        assert_eq!(m.jam_duty(10), 0.0);
        assert_eq!(m.duty_class(40), DutyClass::Continuous);
        assert_eq!(m.duty_class(70), DutyClass::Burst(0.5));
        assert_eq!(m.duty_class(10), DutyClass::Clear);
        // Every jam verdict is draw-free: at BER 0 nothing in this test
        // consumes the noise stream.
        let shadow = SimRng::new(1);
        assert_eq!(m.rng_fingerprint(), shadow.fingerprint());
        let full = m.begin_tx(0, 40, SimTime::ZERO, bits(20)); // continuous: no draw
        let clear = m.begin_tx(1, 10, SimTime::ZERO, bits(20)); // clear: no draw
        let burst = m.begin_tx(2, 70, SimTime::ZERO, bits(20)); // counter-based, no draw
        assert_eq!(m.rng_fingerprint(), shadow.fingerprint());
        let rx = m.receive(full).unwrap();
        assert_eq!(rx.collision_mask.unwrap().count_ones(), 20, "wiped");
        assert!(!m.receive(clear).unwrap().collided());
        assert_eq!(
            m.receive(burst).unwrap().collided(),
            m.interferer_active(70, SimTime::ZERO)
        );
    }

    #[test]
    fn stat_tx_records_counters_without_touching_rng_or_ber() {
        let mut m: Medium = Medium::new(
            ChannelConfig {
                interferers: vec![Interferer::wlan(40, 0.5)],
                ..ChannelConfig::default()
            },
            SimRng::new(4),
        );
        let fp = m.rng_fingerprint();
        m.record_stat_tx(3);
        m.record_stat_tx(3);
        m.record_stat_tx(40);
        assert_eq!(m.rng_fingerprint(), fp, "no draws, even in a jammed band");
        assert_eq!(m.tx_stats().transmissions, 3);
        assert_eq!(m.tx_stats().collided, 0);
        assert_eq!(m.tx_stats().jammed, 0);
        assert_eq!(m.channel_quality().channel(3).transmissions, 2);
        assert_eq!(m.channel_quality().channel(40).transmissions, 1);
        assert_eq!(m.measured_ber(), 0.0, "stat transmissions carry no bits");
        assert_eq!(m.live_count(), 0, "nothing is retained on the air");
        assert!(m.quiet_at(SimTime::ZERO));
    }

    #[test]
    fn quiet_at_tracks_last_bit_level_air_time() {
        let mut m = medium(0.0, 1);
        assert!(m.quiet_at(SimTime::ZERO));
        m.begin_tx(0, 5, SimTime::from_us(100), bits(300));
        let end = SimTime::from_us(100) + SimDuration::from_bits(300);
        assert!(!m.quiet_at(SimTime::from_us(100)));
        assert!(!m.quiet_at(end - SimDuration::from_ns(1)));
        assert!(m.quiet_at(end));
        // Garbage collection must not make the medium look quiet early.
        m.begin_tx(0, 6, SimTime::from_us(10_000), bits(300));
        m.gc(SimTime::from_us(300_000), SimDuration::from_us(1));
        assert_eq!(m.live_count(), 0);
        assert!(!m.quiet_at(SimTime::from_us(10_000)));
        assert!(m.quiet_at(SimTime::from_us(10_400)));
    }

    // -- spatial model ---------------------------------------------------

    fn spatial_medium(ber: f64, seed: u64, radius: f64) -> Medium {
        Medium::new(
            ChannelConfig {
                ber,
                spatial: Some(SpatialConfig::with_radius(radius)),
                ..ChannelConfig::default()
            },
            SimRng::new(seed),
        )
    }

    #[test]
    fn out_of_range_sources_do_not_interact() {
        let mut m = spatial_medium(0.0, 1, 10.0);
        m.register_radio(0, Position::new(0.0, 0.0), 0);
        m.register_radio(1, Position::new(50.0, 0.0), 1);
        m.register_radio(2, Position::new(5.0, 0.0), 2);
        assert_eq!(m.position_of(1), Some(Position::new(50.0, 0.0)));
        let positions: Vec<Position> = (0..3).map(|d| m.position_of(d).unwrap()).collect();
        assert_eq!(
            m.spatial().unwrap().neighbour_lists(&positions),
            vec![vec![2], vec![], vec![0]],
            "only radios 0 and 2 are within range of each other"
        );
        // Same channel, same instant: the far radio does not collide
        // with radio 0, the near one does.
        let a = m.begin_tx(0, 20, SimTime::ZERO, bits(300));
        let _far = m.begin_tx(1, 20, SimTime::ZERO, bits(300));
        assert!(
            !m.receive(a).unwrap().collided(),
            "out of range: no collision"
        );
        let near = m.begin_tx(2, 20, SimTime::from_us(100), bits(100));
        let rx = m.receive(a).unwrap();
        assert!(rx.collided(), "in range: collides");
        assert_eq!(rx.collision_mask.unwrap().count_ones(), 100);
        assert!(m.receive(near).unwrap().collided());
        let s = m.tx_stats();
        assert_eq!(s.transmissions, 3);
        assert_eq!(s.collided, 2, "only the in-range pair collided");
    }

    #[test]
    fn spatial_collisions_cull_by_range_across_cells() {
        let mut m = spatial_medium(0.0, 1, 10.0);
        // Radios 0 and 2 share no cell but are 9 m apart; radio 1 sits in
        // a neighbouring cell of radio 0 yet 15 m away; radio 3 is far.
        m.register_radio(0, Position::new(9.0, 0.0), 0);
        m.register_radio(1, Position::new(-6.0, 0.0), 1);
        m.register_radio(2, Position::new(18.0, 0.0), 2);
        m.register_radio(3, Position::new(100.0, 0.0), 3);
        let a = m.begin_tx(0, 33, SimTime::from_us(100), bits(100));
        let out = m.begin_tx(1, 33, SimTime::from_us(100), bits(100));
        let far = m.begin_tx(3, 33, SimTime::from_us(100), bits(100));
        assert_eq!(m.tx_stats().collided, 0, "neighbouring cell, out of range");
        let near = m.begin_tx(2, 33, SimTime::from_us(150), bits(100));
        assert_eq!(m.tx_stats().collided, 2, "in range across a cell edge");
        assert_eq!(
            m.receive(a).unwrap().collision_mask.unwrap().count_ones(),
            50
        );
        assert_eq!(
            m.receive(near)
                .unwrap()
                .collision_mask
                .unwrap()
                .count_ones(),
            50
        );
        assert!(!m.receive(out).unwrap().collided());
        assert!(!m.receive(far).unwrap().collided());
    }

    #[test]
    fn spatial_noise_is_independent_of_out_of_component_traffic() {
        // The property cell sharding rests on: a radio's noise draws
        // come from its private stream, so the image of its packets is
        // identical whether or not unrelated radios transmitted first.
        let image = |other_first: bool| {
            let mut m = spatial_medium(0.05, 7, 10.0);
            m.register_radio(4, Position::new(0.0, 0.0), 4);
            m.register_radio(9, Position::new(500.0, 0.0), 9);
            if other_first {
                for k in 0..5u64 {
                    let tx = m.begin_tx(9, 3, SimTime::from_us(k * 1_000), bits(200));
                    m.receive(tx).unwrap();
                }
            }
            let tx = m.begin_tx(4, 40, SimTime::from_us(50_000), bits(1_000));
            m.receive(tx).unwrap().bits
        };
        assert_eq!(image(false), image(true));
    }

    #[test]
    fn spatial_gc_and_find_agree_across_cells() {
        let mut m = spatial_medium(0.0, 3, 10.0);
        for i in 0..6 {
            m.register_radio(i, Position::new(30.0 * i as f64, 0.0), i as u64);
        }
        let ids: Vec<TxId> = (0..6)
            .map(|i| m.begin_tx(i, (i % 3) as u8, SimTime::from_us(i as u64 * 50), bits(100)))
            .collect();
        assert_eq!(m.live_count(), 6);
        for &id in &ids {
            assert!(m.receive(id).is_some());
            assert!(m.delivery_time(id).is_some());
        }
        m.gc(SimTime::from_us(20_000), SimDuration::from_us(1_000));
        assert_eq!(m.live_count(), 0);
        for &id in &ids {
            assert!(m.receive(id).is_none());
        }
    }

    #[test]
    fn on_air_index_holds_only_what_can_still_be_on_air() {
        // Eight clusters of four radios, 40 m apart (a cell each); half
        // of every cluster sends a 1-slot packet in each slot, on a
        // hopping channel, collected with the simulator's 50 ms
        // retention.
        let mut m = spatial_medium(0.0, 2, 10.0);
        for k in 0..32 {
            let x = 40.0 * (k / 4) as f64 + (k % 4) as f64;
            m.register_radio(k, Position::new(x, 0.0), k as u64);
        }
        let mut longest = 0;
        for slot in 0..400u64 {
            let at = SimTime::ZERO + SimDuration::from_slots(slot);
            for k in (slot as usize % 2..32).step_by(2) {
                let ch = ((slot * 7 + k as u64 * 13) % 79) as u8;
                let start = at + SimDuration::from_us(k as u64);
                let tx = m.begin_tx(k, ch, start, bits(366));
                assert!(m.receive(tx).is_some());
            }
            m.gc(at, SimDuration::from_us(50_000));
            longest = longest.max(m.on_air.iter().map(Vec::len).max().unwrap());
        }
        assert!(
            m.live_count() >= 80 * 16,
            "the store keeps the whole 50 ms window: {}",
            m.live_count()
        );
        assert!(
            longest <= 4,
            "a cell lists at most its last two slots' packets, got {longest}"
        );
    }

    #[test]
    fn spatial_fingerprint_folds_radio_streams() {
        let build = || {
            let mut m = spatial_medium(0.05, 5, 10.0);
            m.register_radio(0, Position::ORIGIN, 0);
            m.register_radio(1, Position::new(100.0, 0.0), 1);
            m
        };
        let (mut a, b) = (build(), build());
        assert_eq!(a.rng_fingerprint(), b.rng_fingerprint());
        a.begin_tx(0, 7, SimTime::ZERO, bits(500));
        assert_ne!(
            a.rng_fingerprint(),
            b.rng_fingerprint(),
            "radio 0's draws move the folded fingerprint"
        );
    }

    #[test]
    fn grid_cells_and_range_edges() {
        let s = SpatialConfig::with_radius(10.0);
        assert_eq!(s.cell_size(), 10.0);
        assert_eq!(s.cell_of(Position::new(0.0, 0.0)), (0, 0));
        assert_eq!(s.cell_of(Position::new(9.9, 19.9)), (0, 1));
        assert_eq!(s.cell_of(Position::new(-0.1, -10.1)), (-1, -2));
        let p = PathLoss::range(10.0);
        assert!(
            p.in_range(Position::ORIGIN, Position::new(10.0, 0.0)),
            "inclusive edge"
        );
        assert!(!p.in_range(Position::ORIGIN, Position::new(10.001, 0.0)));
        assert_eq!(Position::new(3.0, 4.0).distance(Position::ORIGIN), 5.0);
    }

    #[test]
    #[should_panic(expected = "must be >= the interaction radius")]
    fn cell_size_below_radius_is_rejected() {
        SpatialConfig::new(PathLoss::range(10.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "requires ChannelConfig::spatial")]
    fn register_radio_requires_spatial_config() {
        let mut m = medium(0.0, 1);
        m.register_radio(0, Position::ORIGIN, 0);
    }

    #[test]
    #[should_panic(expected = "is not registered")]
    fn spatial_tx_requires_registered_radio() {
        let mut m = spatial_medium(0.0, 1, 10.0);
        m.begin_tx(0, 10, SimTime::ZERO, bits(8));
    }
}
