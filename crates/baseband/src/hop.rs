//! The frequency hop selection box (spec v1.2, Baseband §2.6, 79-channel
//! system) — the paper's `HOP_FREQ` module.
//!
//! The selection box combines clock bits and 28 address bits through an
//! adder, an XOR stage, a 14-control-bit butterfly permutation (PERM5) and
//! a final modulo-79 addition whose output is mapped onto the interlaced
//! even/odd channel bank. Page and inquiry use a *train* variant of the
//! input X that sweeps 16 of 32 positions (the A or B train) twice per
//! slot; scans use the slowly changing CLKN₁₆₋₁₂; connections mix clock
//! bits into the control words so the whole 79-channel band is used.
//!
//! The butterfly wiring follows the structure of the spec figure; absolute
//! channel numbers may differ from conformance vectors (unavailable
//! offline), which leaves every statistical property — bijectivity in X,
//! train structure, band coverage — intact. See DESIGN.md §1.

use std::fmt;

use crate::clock::ClkVal;

/// Number of RF channels selected over.
pub const CHANNELS: u8 = 79;

/// Train offset constant for the A train (page/inquiry).
pub const KOFFSET_A: u8 = 24;
/// Train offset constant for the B train (page/inquiry).
pub const KOFFSET_B: u8 = 8;

/// Which hopping sequence to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopSequence {
    /// Page hopping (pager side), A or B train selected by `kofs`.
    Page {
        /// Train offset: [`KOFFSET_A`] or [`KOFFSET_B`].
        kofs: u8,
    },
    /// Page scan (paged device side).
    PageScan,
    /// Inquiry hopping (inquirer side), with train offset.
    Inquiry {
        /// Train offset: [`KOFFSET_A`] or [`KOFFSET_B`].
        kofs: u8,
    },
    /// Inquiry scan (discoverable device side).
    InquiryScan,
    /// Basic connection hopping (piconet in connection state).
    Connection,
}

/// The AFH channel map: which of the 79 RF channels a piconet may use
/// (spec v1.2 introduced adaptive frequency hopping to avoid fixed-band
/// interferers such as 802.11 networks).
///
/// At least [`MIN_AFH_CHANNELS`] channels must stay enabled.
#[derive(Clone, PartialEq, Eq)]
pub struct ChannelMap {
    used: [bool; CHANNELS as usize],
}

/// Minimum number of used channels the spec allows for AFH (Nmin = 20).
pub const MIN_AFH_CHANNELS: usize = 20;

/// A [`ChannelMap`] construction left fewer than [`MIN_AFH_CHANNELS`]
/// channels used — below the spec's Nmin = 20 floor the remapping
/// concentrates traffic too narrowly, so every construction path
/// rejects such maps up front rather than letting
/// [`hop_channel_afh`] run on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewChannels {
    /// How many channels the rejected map would have used.
    pub used: usize,
}

impl fmt::Display for TooFewChannels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AFH map keeps {} channels; the spec minimum is {MIN_AFH_CHANNELS}",
            self.used
        )
    }
}

impl std::error::Error for TooFewChannels {}

/// Wire size of a channel map: 79 bits in 10 bytes, LSB first.
pub const CHANNEL_MAP_BYTES: usize = 10;

impl Default for ChannelMap {
    fn default() -> Self {
        Self::all()
    }
}

impl fmt::Debug for ChannelMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChannelMap[{} used]", self.used_count())
    }
}

impl ChannelMap {
    /// All 79 channels enabled (non-adaptive hopping).
    pub fn all() -> Self {
        Self {
            used: [true; CHANNELS as usize],
        }
    }

    /// Builds a map with the channels in `blocked` disabled.
    ///
    /// # Panics
    ///
    /// Panics if fewer than [`MIN_AFH_CHANNELS`] channels remain; use
    /// [`ChannelMap::try_blocking`] for a fallible construction.
    pub fn blocking<I: IntoIterator<Item = u8>>(blocked: I) -> Self {
        Self::try_blocking(blocked).expect("AFH needs at least 20 channels")
    }

    /// Builds a map with the channels in `blocked` disabled, rejecting
    /// maps thinner than the spec's Nmin = 20.
    pub fn try_blocking<I: IntoIterator<Item = u8>>(blocked: I) -> Result<Self, TooFewChannels> {
        let mut used = [true; CHANNELS as usize];
        for ch in blocked {
            if (ch as usize) < used.len() {
                used[ch as usize] = false;
            }
        }
        Self::try_from_used(used)
    }

    /// Builds a map directly from a used-channel array, rejecting maps
    /// thinner than the spec's Nmin = 20. This is the single guard every
    /// construction path funnels through, so [`hop_channel_afh`] can
    /// assume its map invariant.
    pub fn try_from_used(used: [bool; CHANNELS as usize]) -> Result<Self, TooFewChannels> {
        let count = used.iter().filter(|&&u| u).count();
        if count < MIN_AFH_CHANNELS {
            return Err(TooFewChannels { used: count });
        }
        Ok(Self { used })
    }

    /// Intersection of two maps (a channel is used when both use it),
    /// rejecting results thinner than the spec minimum. The master
    /// combines its own assessment with a slave's
    /// `LMP_channel_classification` report this way.
    pub fn intersect(&self, other: &ChannelMap) -> Result<Self, TooFewChannels> {
        let mut used = [false; CHANNELS as usize];
        for (ch, slot) in used.iter_mut().enumerate() {
            *slot = self.used[ch] && other.used[ch];
        }
        Self::try_from_used(used)
    }

    /// Serialises the map into the 10-byte wire format of `LMP_set_AFH`
    /// (bit `c` of byte `c / 8` is channel `c`; the 80th bit is zero).
    pub fn to_bytes(&self) -> [u8; CHANNEL_MAP_BYTES] {
        let mut out = [0u8; CHANNEL_MAP_BYTES];
        for (ch, &used) in self.used.iter().enumerate() {
            if used {
                out[ch / 8] |= 1 << (ch % 8);
            }
        }
        out
    }

    /// Parses the 10-byte wire format, rejecting maps with fewer than
    /// [`MIN_AFH_CHANNELS`] used channels (the wire-level guard: a
    /// corrupted or hostile map never reaches the hop kernel). The
    /// unused 80th bit is ignored.
    pub fn from_bytes(bytes: &[u8; CHANNEL_MAP_BYTES]) -> Result<Self, TooFewChannels> {
        let mut used = [false; CHANNELS as usize];
        for (ch, slot) in used.iter_mut().enumerate() {
            *slot = (bytes[ch / 8] >> (ch % 8)) & 1 == 1;
        }
        Self::try_from_used(used)
    }

    /// Whether `channel` is enabled.
    pub fn is_used(&self, channel: u8) -> bool {
        self.used.get(channel as usize).copied().unwrap_or(false)
    }

    /// Number of enabled channels.
    pub fn used_count(&self) -> usize {
        self.used.iter().filter(|&&u| u).count()
    }

    /// Remaps a selected channel onto the used set (spec §2.6: a hop
    /// landing on an unused channel is redirected deterministically into
    /// the used set, uniformly over it).
    pub fn remap(&self, channel: u8) -> u8 {
        if self.is_used(channel) {
            return channel;
        }
        let n = self.used_count().max(1);
        let k = channel as usize % n;
        self.used
            .iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .nth(k)
            .map(|(i, _)| i as u8)
            .unwrap_or(channel)
    }
}

/// One butterfly exchange: (control bit index, bit positions swapped).
const BUTTERFLIES: [(u8, (u8, u8)); 14] = [
    (13, (1, 2)),
    (12, (3, 4)),
    (11, (1, 3)),
    (10, (2, 4)),
    (9, (0, 3)),
    (8, (1, 4)),
    (7, (0, 2)),
    (6, (3, 4)),
    (5, (1, 3)),
    (4, (0, 4)),
    (3, (1, 2)),
    (2, (0, 3)),
    (1, (0, 1)),
    (0, (2, 4)),
];

/// Applies the PERM5 butterfly network to the 5-bit value `z` under the
/// 14-bit control word `p`.
const fn perm5(z: u8, p: u16) -> u8 {
    let mut z = z & 0x1F;
    // Branch-free: the control bits are clock-derived and effectively
    // random, so conditional exchanges would mispredict half the time
    // on the per-slot hot path.
    let mut k = 0;
    while k < BUTTERFLIES.len() {
        let (ctl, (i, j)) = BUTTERFLIES[k];
        let swap = ((p >> ctl) as u8) & ((z >> i) ^ (z >> j)) & 1;
        z ^= (swap << i) | (swap << j);
        k += 1;
    }
    z
}

/// Maps the hop box's output index onto the interlaced bank: even
/// channels ascending, then odd channels.
const fn interlace(k: u32) -> u8 {
    if k < 40 {
        (2 * k) as u8
    } else {
        (2 * (k - 40) + 1) as u8
    }
}

/// The train and scan hop for address words `w` at X input `x` (Y1 = 0
/// and F = 0: no clock bits beyond X reach the hop box).
const fn train_hop(w: &ConnWords, x: u8) -> u8 {
    let z1 = (x as u32 + w.a) & 0x1F;
    let z2 = z1 ^ w.b;
    // Control word: P0-4 = C (Y1 = 0), P5-13 = D.
    let p = (w.c as u16) | ((w.d as u16) << 5);
    interlace((perm5(z2 as u8, p) as u32 + w.e) % CHANNELS as u32)
}

/// The X input of the train sequences (page/inquiry):
/// `(CLK₁₆₋₁₂ + kofs + (CLK₄₋₂,₀ − CLK₁₆₋₁₂) mod 16) mod 32`.
fn train_x(clk: ClkVal, kofs: u8) -> u8 {
    let base = clk.bits(16, 12);
    let fast = (clk.bits(4, 2) << 1) | clk.bits(0, 0);
    let wander = (fast.wrapping_sub(base)) & 0x0F;
    ((base + kofs as u32 + wander) & 0x1F) as u8
}

/// Selects the RF channel (0..79) for the given sequence, clock value and
/// 28-bit address input (see [`crate::BdAddr::hop_input`]).
///
/// For page sequences `clk` is the pager's estimate CLKE of the paged
/// device's clock; for scans and inquiry it is the device's own CLKN; for
/// connections it is the piconet clock CLK.
///
/// # Examples
///
/// ```
/// use btsim_baseband::{hop, BdAddr, ClkVal};
///
/// let addr = BdAddr::new(0, 0x47, 0x2A96EF);
/// let ch = hop::hop_channel(
///     hop::HopSequence::Connection,
///     ClkVal::new(0x123456),
///     addr.hop_input(),
/// );
/// assert!(ch < hop::CHANNELS);
/// ```
pub fn hop_channel(seq: HopSequence, clk: ClkVal, addr28: u32) -> u8 {
    let words = ConnWords::new(addr28);
    match train_input(seq, clk) {
        Some(x) => train_hop(&words, x),
        None => conn_channel_words(&words, clk),
    }
}

/// The X input of a train or scan sequence at `clk`; `None` for the
/// connection sequence, whose hop depends on more clock bits than X.
fn train_input(seq: HopSequence, clk: ClkVal) -> Option<u8> {
    match seq {
        // Y1 = 0 for the train sequences: the Y1 = 1 receive variant of
        // the spec selects the dedicated response frequencies, which this
        // model replaces by reusing the triggering packet's channel
        // (DESIGN.md §1), so only the transmit variant is ever computed.
        HopSequence::Page { kofs } | HopSequence::Inquiry { kofs } => Some(train_x(clk, kofs)),
        HopSequence::PageScan | HopSequence::InquiryScan => Some(clk.bits(16, 12) as u8),
        HopSequence::Connection => None,
    }
}

/// The 32 channels the page, inquiry and scan sequences can select for
/// one address, indexed by the hop box's 5-bit X input.
///
/// For a fixed address those sequences vary with the clock only through
/// X, so a controller builds the table once per address and every train
/// or scan hop is a lookup, equal to [`hop_channel`].
///
/// # Examples
///
/// ```
/// use btsim_baseband::{hop, BdAddr, ClkVal};
///
/// let addr = BdAddr::new(0, 0x47, 0x2A96EF);
/// let table = hop::TrainTable::new(addr.hop_input());
/// let seq = hop::HopSequence::Page { kofs: hop::KOFFSET_A };
/// let clk = ClkVal::new(0x1234);
/// assert_eq!(table.channel(seq, clk), hop::hop_channel(seq, clk, addr.hop_input()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainTable {
    channels: [u8; 32],
}

impl TrainTable {
    /// Builds the table for a 28-bit hop address input (see
    /// [`crate::BdAddr::hop_input`]).
    pub const fn new(addr28: u32) -> Self {
        let words = ConnWords::new(addr28);
        let mut channels = [0; 32];
        let mut x = 0;
        while x < 32 {
            channels[x] = train_hop(&words, x as u8);
            x += 1;
        }
        Self { channels }
    }

    /// The hop of a page, inquiry or scan sequence at `clk`.
    ///
    /// # Panics
    ///
    /// Panics for [`HopSequence::Connection`], whose hop depends on more
    /// clock bits than X.
    pub fn channel(&self, seq: HopSequence, clk: ClkVal) -> u8 {
        let x = train_input(seq, clk).expect("connection hops do not come from a train table");
        self.channels[x as usize]
    }
}

/// Address-derived control words of the §2.6 hop box, precomputed once
/// per address so per-slot connection hops only pay the clock-dependent
/// remainder ([`conn_channel_words`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnWords {
    a: u32,
    b: u32,
    c: u32,
    d: u32,
    e: u32,
}

impl ConnWords {
    /// Derives the control words from a 28-bit hop address input
    /// (see [`crate::BdAddr::hop_input`]).
    pub const fn new(addr28: u32) -> Self {
        const fn a_bits(addr28: u32, hi: u32, lo: u32) -> u32 {
            (addr28 >> lo) & ((1 << (hi - lo + 1)) - 1)
        }
        // The odd bits a13..a1 packed as E6..E0 and the even bits
        // a8..a0 as C4..C0, most significant first.
        let (mut c, mut e) = (0u32, 0u32);
        let mut k = 0;
        while k < 7 {
            e |= ((addr28 >> (13 - 2 * k)) & 1) << (6 - k);
            if k < 5 {
                c |= ((addr28 >> (8 - 2 * k)) & 1) << (4 - k);
            }
            k += 1;
        }
        Self {
            a: a_bits(addr28, 27, 23),
            b: a_bits(addr28, 22, 19),
            c,
            d: a_bits(addr28, 18, 10),
            e,
        }
    }
}

/// The connection-sequence hop for precomputed address words — the
/// per-slot half of [`hop_channel`]'s `Connection` arm.
pub fn conn_channel_words(w: &ConnWords, clk: ClkVal) -> u8 {
    let a = w.a ^ clk.bits(25, 21);
    let c = w.c ^ clk.bits(20, 16);
    let d = w.d ^ clk.bits(15, 7);
    let f = (16 * clk.bits(27, 7)) % CHANNELS as u32;
    let x = clk.bits(6, 2);
    let y1 = clk.bits(1, 1);

    let z1 = (x + a) & 0x1F;
    let z2 = z1 ^ w.b;
    // Control word: P0-4 = C ⊕ Y1 (bitwise), P5-13 = D.
    let c_y = if y1 == 1 { c ^ 0x1F } else { c };
    let p = (c_y as u16) | ((d as u16) << 5);
    let permuted = perm5(z2 as u8, p);
    interlace((permuted as u32 + w.e + f + 32 * y1) % CHANNELS as u32)
}

/// Connection-state hop with AFH remapping applied.
///
/// Every [`ChannelMap`] construction path guarantees at least
/// [`MIN_AFH_CHANNELS`] used channels, so the remap can never
/// concentrate the sequence below the spec floor; the debug assertion
/// guards the invariant without taxing the hot hop-selection path in
/// release builds.
pub fn hop_channel_afh(clk: ClkVal, addr28: u32, map: &ChannelMap) -> u8 {
    debug_assert!(
        map.used_count() >= MIN_AFH_CHANNELS,
        "AFH map below the Nmin = 20 floor reached the hop kernel"
    );
    map.remap(hop_channel(HopSequence::Connection, clk, addr28))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::BdAddr;

    const GIAC28: u32 = 0x9E8B33; // GIAC with DCI UAP nibble 0.

    #[test]
    fn perm5_is_bijective_for_every_control_word() {
        // Exhaustive over a sample of control words; full 2^14 is cheap too.
        for p in 0..(1u16 << 14) {
            let mut seen = [false; 32];
            for z in 0..32u8 {
                let out = perm5(z, p);
                assert!(out < 32);
                assert!(!seen[out as usize], "collision p={p:#06x} z={z}");
                seen[out as usize] = true;
            }
        }
    }

    #[test]
    fn channel_always_in_band() {
        let addr = BdAddr::new(0, 0x5A, 0x7C3F19).hop_input();
        for t in 0..50_000u32 {
            let ch = hop_channel(HopSequence::Connection, ClkVal::new(t * 3 + 1), addr);
            assert!(ch < CHANNELS);
        }
    }

    /// The train/scan hop written out as the spec's box diagram, apart
    /// from the shared kernel: address bits straight from `addr28`, the
    /// butterflies in order, the bank interlace by hand.
    fn train_hop_reference(addr28: u32, x: u32) -> u8 {
        let bits = |hi: u32, lo: u32| (addr28 >> lo) & ((1 << (hi - lo + 1)) - 1);
        let pick = |positions: &[u32]| {
            positions
                .iter()
                .fold(0u32, |v, &b| (v << 1) | ((addr28 >> b) & 1))
        };
        let (a, b, d) = (bits(27, 23), bits(22, 19), bits(18, 10));
        let c = pick(&[8, 6, 4, 2, 0]);
        let e = pick(&[13, 11, 9, 7, 5, 3, 1]);
        let p = c | (d << 5);
        let mut z = (((x + a) & 0x1F) ^ b) as u8;
        for (ctl, (i, j)) in BUTTERFLIES {
            if (p >> ctl) & 1 == 1 && ((z >> i) ^ (z >> j)) & 1 == 1 {
                z ^= (1 << i) | (1 << j);
            }
        }
        let k = (z as u32 + e) % CHANNELS as u32;
        if k < 40 {
            (2 * k) as u8
        } else {
            (2 * (k - 40) + 1) as u8
        }
    }

    #[test]
    fn train_tables_equal_hop_channel_for_every_x() {
        // Clock values covering every X of every train and scan
        // sequence: CLK16-12 and the fast bits CLK4-2,0 swept jointly.
        let clks: Vec<ClkVal> = (0..32u32)
            .flat_map(|hi| (0..16u32).map(move |lo| (hi << 12) | ((lo >> 1) << 2) | (lo & 1)))
            .map(ClkVal::new)
            .collect();
        let seqs = [
            HopSequence::Page { kofs: KOFFSET_A },
            HopSequence::Page { kofs: KOFFSET_B },
            HopSequence::Inquiry { kofs: KOFFSET_A },
            HopSequence::Inquiry { kofs: KOFFSET_B },
            HopSequence::PageScan,
            HopSequence::InquiryScan,
        ];
        let mut addrs = vec![GIAC28, 0, 0x0FFF_FFFF];
        let mut x = 0x2545_F491u32;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            addrs.push(x & 0x0FFF_FFFF);
        }
        for addr in addrs {
            let table = TrainTable::new(addr);
            for (x, &ch) in table.channels.iter().enumerate() {
                assert_eq!(ch, train_hop_reference(addr, x as u32), "{addr:#x} X={x}");
            }
            for seq in seqs {
                let mut xs = std::collections::HashSet::new();
                for &clk in &clks {
                    xs.insert(train_input(seq, clk));
                    assert_eq!(
                        table.channel(seq, clk),
                        hop_channel(seq, clk, addr),
                        "{addr:#x} {seq:?} {clk:?}"
                    );
                }
                assert_eq!(xs.len(), 32, "{seq:?}: the sweep reaches every X");
            }
        }
    }

    #[test]
    #[should_panic(expected = "connection hops")]
    fn train_tables_refuse_the_connection_sequence() {
        TrainTable::new(GIAC28).channel(HopSequence::Connection, ClkVal::new(0));
    }

    #[test]
    fn x_sweep_is_injective_within_sequence() {
        // For fixed control inputs, the 32 X positions map to 32 distinct
        // channels (PERM5 bijective + constant offset mod 79).
        let mut seen = std::collections::HashSet::new();
        for x in 0..32u32 {
            // Sweep CLKN16-12 through all values with other bits fixed.
            let clk = ClkVal::new(x << 12);
            let ch = hop_channel(HopSequence::InquiryScan, clk, GIAC28);
            seen.insert(ch);
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn train_covers_16_distinct_channels() {
        // Over one train period (16 slots = 32 ticks), the inquiry train
        // visits 16 distinct X values => 16 distinct channels.
        let mut seen = std::collections::HashSet::new();
        for tick in 0..32u32 {
            if ClkVal::new(tick).bit(1) {
                continue; // TX halves only
            }
            let ch = hop_channel(
                HopSequence::Inquiry { kofs: KOFFSET_A },
                ClkVal::new(tick),
                GIAC28,
            );
            seen.insert(ch);
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn a_and_b_trains_partition_the_32_window() {
        let chans = |kofs| {
            let mut s = std::collections::HashSet::new();
            for tick in 0..32u32 {
                if !ClkVal::new(tick).bit(1) {
                    s.insert(hop_channel(
                        HopSequence::Inquiry { kofs },
                        ClkVal::new(tick),
                        GIAC28,
                    ));
                }
            }
            s
        };
        let a = chans(KOFFSET_A);
        let b = chans(KOFFSET_B);
        assert_eq!(a.len(), 16);
        assert_eq!(b.len(), 16);
        assert!(a.is_disjoint(&b), "A and B trains must not overlap");
    }

    #[test]
    fn scan_channel_changes_every_2048_slots() {
        // CLKN16-12 is constant within a 1.28 s epoch.
        let c1 = hop_channel(HopSequence::InquiryScan, ClkVal::new(100), GIAC28);
        let c2 = hop_channel(HopSequence::InquiryScan, ClkVal::new(4000), GIAC28);
        assert_eq!(c1, c2);
        let c3 = hop_channel(
            HopSequence::InquiryScan,
            ClkVal::new(100 + (1 << 12)),
            GIAC28,
        );
        assert_ne!(c1, c3);
    }

    #[test]
    fn rx_slot_mirrors_tx_slot_in_trains() {
        // The X input repeats across a TX/RX slot pair: the listening
        // frequency of the response slot equals the preceding TX frequency
        // modulo the Y1 offset.
        for pair in 0..64u32 {
            let t_tx = ClkVal::new(pair * 4); // CLK1=0, CLK0=0
            let t_rx = ClkVal::new(pair * 4 + 2); // CLK1=1, CLK0=0
            assert_eq!(train_x(t_tx, KOFFSET_A), train_x(t_rx, KOFFSET_A));
            assert_eq!(
                train_x(ClkVal::new(pair * 4 + 1), KOFFSET_A),
                train_x(ClkVal::new(pair * 4 + 3), KOFFSET_A)
            );
        }
    }

    #[test]
    fn connection_covers_most_of_the_band() {
        let addr = BdAddr::new(0, 0x11, 0x35B7D9).hop_input();
        let mut seen = std::collections::HashSet::new();
        for tick in 0..(1u32 << 14) {
            seen.insert(hop_channel(
                HopSequence::Connection,
                ClkVal::new(tick),
                addr,
            ));
        }
        assert!(
            seen.len() >= 70,
            "connection hopping should span the band, got {}",
            seen.len()
        );
    }

    #[test]
    fn connection_distribution_is_roughly_uniform() {
        let addr = BdAddr::new(0, 0x23, 0x114477).hop_input();
        let mut counts = [0u32; CHANNELS as usize];
        let n = 79 * 400u32;
        for tick in 0..n {
            counts[hop_channel(HopSequence::Connection, ClkVal::new(tick), addr) as usize] += 1;
        }
        let mean = n as f64 / CHANNELS as f64;
        for (ch, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) < mean * 3.0,
                "channel {ch} over-represented: {c} (mean {mean})"
            );
        }
    }

    #[test]
    fn different_addresses_hop_differently() {
        let a1 = BdAddr::new(0, 0x01, 0x111111).hop_input();
        let a2 = BdAddr::new(0, 0x02, 0x222222).hop_input();
        let same = (0..1000u32)
            .filter(|&t| {
                hop_channel(HopSequence::Connection, ClkVal::new(t), a1)
                    == hop_channel(HopSequence::Connection, ClkVal::new(t), a2)
            })
            .count();
        assert!(same < 100, "sequences should rarely coincide: {same}/1000");
    }

    #[test]
    fn channel_map_blocking_and_remap() {
        let map = ChannelMap::blocking(29..=50);
        assert_eq!(map.used_count(), 79 - 22);
        assert!(!map.is_used(29));
        assert!(!map.is_used(50));
        assert!(map.is_used(28));
        // Remapped channels always land in the used set.
        for ch in 0..CHANNELS {
            assert!(map.is_used(map.remap(ch)), "remap({ch})");
        }
        // Used channels are untouched.
        assert_eq!(map.remap(10), 10);
    }

    #[test]
    fn afh_remap_is_roughly_uniform_over_used_channels() {
        let map = ChannelMap::blocking(29..=50);
        let addr = BdAddr::new(0, 0x31, 0x4D2E77).hop_input();
        let mut counts = [0u32; CHANNELS as usize];
        let n = 20_000u32;
        for t in 0..n {
            let ch = hop_channel_afh(ClkVal::new(t), addr, &map);
            assert!(map.is_used(ch));
            counts[ch as usize] += 1;
        }
        let mean = n as f64 / map.used_count() as f64;
        for (ch, &c) in counts.iter().enumerate() {
            if map.is_used(ch as u8) {
                assert!(
                    (c as f64) < mean * 4.0,
                    "channel {ch} over-represented: {c}"
                );
            } else {
                assert_eq!(c, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "AFH needs at least")]
    fn channel_map_rejects_too_few_channels() {
        ChannelMap::blocking(0..70);
    }

    #[test]
    fn try_constructors_enforce_the_spec_floor() {
        // 79 − 59 = 20 used: exactly the floor, accepted.
        let at_floor = ChannelMap::try_blocking(0..59).expect("Nmin reached");
        assert_eq!(at_floor.used_count(), MIN_AFH_CHANNELS);
        // 79 − 60 = 19 used: one below, rejected.
        assert_eq!(
            ChannelMap::try_blocking(0..60),
            Err(TooFewChannels { used: 19 })
        );
        // Out-of-range blocked channels are ignored, not counted.
        let with_oob = ChannelMap::try_blocking([200u8, 250]).expect("no-op blocks");
        assert_eq!(with_oob.used_count(), CHANNELS as usize);
        assert_eq!(
            ChannelMap::try_from_used([false; CHANNELS as usize]),
            Err(TooFewChannels { used: 0 })
        );
    }

    #[test]
    fn channel_map_wire_roundtrip() {
        let map = ChannelMap::blocking(29..=50);
        let bytes = map.to_bytes();
        assert_eq!(ChannelMap::from_bytes(&bytes), Ok(map.clone()));
        // The 80th bit is ignored on parse and zero on encode.
        assert_eq!(bytes[9] & 0x80, 0);
        let mut with_high_bit = bytes;
        with_high_bit[9] |= 0x80;
        assert_eq!(ChannelMap::from_bytes(&with_high_bit), Ok(map));
        // A thin map is rejected at the wire.
        let thin = [0u8; 10];
        assert_eq!(
            ChannelMap::from_bytes(&thin),
            Err(TooFewChannels { used: 0 })
        );
        let mut nineteen = [0u8; 10];
        for ch in 0..19 {
            nineteen[ch / 8] |= 1 << (ch % 8);
        }
        assert_eq!(
            ChannelMap::from_bytes(&nineteen),
            Err(TooFewChannels { used: 19 })
        );
    }

    #[test]
    fn channel_map_intersect_guards_the_floor() {
        let a = ChannelMap::blocking(0..=29); // uses 30..79
        let b = ChannelMap::blocking(50..=78); // uses 0..50
        let both = a.intersect(&b).expect("30..50 has 20 channels");
        assert_eq!(both.used_count(), 20);
        assert!(both.is_used(30));
        assert!(both.is_used(49));
        assert!(!both.is_used(29));
        assert!(!both.is_used(50));
        let c = ChannelMap::blocking(49..=78); // uses 0..49
        assert_eq!(a.intersect(&c), Err(TooFewChannels { used: 19 }));
    }

    #[test]
    fn page_estimate_mid_train_rendezvous() {
        // With an exact clock estimate, the A-train (kofs=24) covers the
        // scanned X position mid-train: there exists a tick within one
        // train period where the pager transmits on the scanner's channel.
        let addr = BdAddr::new(0, 0x0C, 0x5A5A5A).hop_input();
        for epoch in [0u32, 1, 5, 17] {
            let scan_clk = ClkVal::new(epoch << 12);
            let scan_ch = hop_channel(HopSequence::PageScan, scan_clk, addr);
            let hit = (0..32u32).any(|tick| {
                let clk = ClkVal::new((epoch << 12) | tick);
                !clk.bit(1)
                    && hop_channel(HopSequence::Page { kofs: KOFFSET_A }, clk, addr) == scan_ch
            });
            assert!(hit, "epoch {epoch}: A-train must cover the scan channel");
        }
    }
}
