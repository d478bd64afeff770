//! Packed bit vector used for over-the-air bit images.
//!
//! Bits are indexed in *transmission order*: index 0 is the first bit on
//! the air. Bluetooth transmits least-significant bits first, so helper
//! methods that exchange integers with the vector ([`BitVec::push_bits_lsb`],
//! [`BitVec::bits_lsb`]) treat the lowest integer bit as the earliest bit.

use std::fmt;
use std::ops::Range;

/// A growable, packed vector of bits.
///
/// # Examples
///
/// ```
/// use btsim_coding::BitVec;
///
/// let mut v = BitVec::new();
/// v.push_bits_lsb(0b1011, 4);
/// assert_eq!(v.len(), 4);
/// assert_eq!(v.get(0), Some(true));  // LSB first
/// assert_eq!(v.get(2), Some(false));
/// assert_eq!(v.bits_lsb(0, 4), 0b1011);
/// ```
#[derive(Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl Clone for BitVec {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
            len: self.len,
        }
    }

    /// Copies `source` into `self`'s existing allocation, so a buffer
    /// reused across packets stops allocating once it has grown.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Reserves room for at least `additional` more bits.
    pub fn reserve(&mut self, additional: usize) {
        let words = (self.len + additional).div_ceil(64);
        self.words.reserve(words.saturating_sub(self.words.len()));
    }

    /// Creates a vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut words = vec![!0u64; len.div_ceil(64)];
        let tail = len % 64;
        if tail != 0 {
            *words.last_mut().expect("len > 0 when tail > 0") &= (1u64 << tail) - 1;
        }
        Self { words, len }
    }

    /// Creates a vector of `len` bits produced by `f(index)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = Self::with_capacity(len);
        for i in 0..len {
            v.push(f(i));
        }
        v
    }

    /// Builds a vector from bytes, least-significant bit of `bytes[0]` first.
    pub fn from_bytes_lsb(bytes: &[u8]) -> Self {
        let mut v = Self::with_capacity(bytes.len() * 8);
        for chunk in bytes.chunks(8) {
            let mut w = 0u64;
            for (k, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << (8 * k);
            }
            v.push_bits_lsb(w, 8 * chunk.len() as u32);
        }
        v
    }

    /// Packs the bits back into bytes (inverse of [`BitVec::from_bytes_lsb`]).
    ///
    /// The final byte is zero-padded if `len` is not a multiple of 8.
    pub fn to_bytes_lsb(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len.div_ceil(8));
        let mut i = 0;
        while i < self.len {
            let n = (self.len - i).min(8);
            out.push(self.bits_lsb(i, n as u32) as u8);
            i += 8;
        }
        out
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let off = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << off;
        }
        self.len += 1;
    }

    /// Appends the `n` low bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn push_bits_lsb(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot push more than 64 bits at once");
        if n == 0 {
            return;
        }
        let value = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        let off = self.len % 64;
        if off == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("off > 0 implies a last word") |= value << off;
            if off + n as usize > 64 {
                self.words.push(value >> (64 - off));
            }
        }
        self.len += n as usize;
    }

    /// Appends bytes, least-significant bit of `bytes[0]` first — the
    /// append form of [`BitVec::from_bytes_lsb`], 8 bytes per step.
    pub fn push_bytes_lsb(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = 0u64;
            for (k, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << (8 * k);
            }
            self.push_bits_lsb(w, 8 * chunk.len() as u32);
        }
    }

    /// Returns the bit at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some((self.words[index / 64] >> (index % 64)) & 1 == 1)
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % 64);
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn toggle(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] ^= 1u64 << (index % 64);
    }

    /// Reads `n <= 64` bits starting at `index`, returned LSB-first.
    ///
    /// Bits past the end read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn bits_lsb(&self, index: usize, n: u32) -> u64 {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if n == 0 {
            return 0;
        }
        // Words hold no set bits at or past `len` (every mutator keeps
        // that invariant), so zero-filling past the end is automatic.
        let word = index / 64;
        let off = index % 64;
        let lo = self.words.get(word).copied().unwrap_or(0) >> off;
        let out = if off + n as usize > 64 {
            // n <= 64 and off + n > 64 imply off > 0, so 64 - off < 64.
            lo | (self.words.get(word + 1).copied().unwrap_or(0) << (64 - off))
        } else {
            lo
        };
        if n == 64 {
            out
        } else {
            out & ((1u64 << n) - 1)
        }
    }

    /// Appends every bit of `other` (word-wise, 64 bits at a step).
    pub fn extend_bits(&mut self, other: &BitVec) {
        self.extend_range(other, 0..other.len);
    }

    /// Appends the bits `other[range]`, 64 at a step.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `other`'s length.
    pub fn extend_range(&mut self, other: &BitVec, range: Range<usize>) {
        assert!(range.end <= other.len, "range out of bounds");
        let mut i = range.start;
        while i < range.end {
            let n = (range.end - i).min(64) as u32;
            self.push_bits_lsb(other.bits_lsb(i, n), n);
            i += n as usize;
        }
    }

    /// Returns the sub-vector `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector length.
    pub fn slice(&self, start: usize, len: usize) -> BitVec {
        let mut v = BitVec::with_capacity(len);
        v.extend_range(self, start..start + len);
        v
    }

    /// Shortens the vector to its first `len` bits (no-op if it is
    /// already that short), keeping the allocation.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.words.truncate(len.div_ceil(64));
        let tail = len % 64;
        if tail != 0 {
            *self.words.last_mut().expect("len > 0 when tail > 0") &= (1u64 << tail) - 1;
        }
        self.len = len;
    }

    /// Sets every bit in `[lo, hi)` in word-sized strokes.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > len`.
    pub fn fill_range(&mut self, lo: usize, hi: usize) {
        assert!(lo <= hi, "fill_range bounds reversed: {lo} > {hi}");
        assert!(
            hi <= self.len,
            "fill_range end {hi} out of range {}",
            self.len
        );
        if lo == hi {
            return;
        }
        let (wl, ol) = (lo / 64, lo % 64);
        let wh = hi / 64;
        let oh = hi % 64;
        if wl == wh {
            // Same word: hi - lo < 64 here (a full 64-bit span crosses).
            self.words[wl] |= ((1u64 << (hi - lo)) - 1) << ol;
        } else {
            self.words[wl] |= !0u64 << ol;
            for w in &mut self.words[wl + 1..wh] {
                *w = !0;
            }
            if oh != 0 {
                self.words[wh] |= (1u64 << oh) - 1;
            }
        }
    }

    /// XORs `words` into the vector word-by-word starting at bit 0.
    ///
    /// Stream bits at or past `len` are ignored (the tail word is
    /// masked), so a generator may hand over its last word unmasked.
    pub fn xor_words(&mut self, words: &[u64]) {
        let n = self.words.len().min(words.len());
        for (dst, src) in self.words[..n].iter_mut().zip(words) {
            *dst ^= src;
        }
        let tail = self.len % 64;
        if tail != 0 && n == self.words.len() {
            *self.words.last_mut().expect("n > 0") &= (1u64 << tail) - 1;
        }
    }

    /// Empties the vector, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Mutable word access for in-crate streaming XORs. Callers must
    /// keep bits at or past `len` zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Iterates over the bits in transmission order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { v: self, i: 0 }
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        let mut total: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        // Mask out any stale bits beyond len (none are ever set, but be safe).
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(&last) = self.words.last() {
                total -= (last & !((1u64 << tail) - 1)).count_ones() as usize;
            }
        }
        total
    }

    /// XORs `other` into `self` bit-by-bit.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_in_place(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "xor requires equal lengths");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w ^= o;
        }
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "hamming requires equal lengths");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }
}

/// What a transmission carries onto the air: anything with a length in
/// bits that can write out its exact bit image.
///
/// A [`BitVec`] is its own image. A packet that keeps its fields rather
/// than its bits (`btsim_baseband::AirPacket`) builds them only when
/// something needs the bits, such as a disturbed reception or a capture.
pub trait AirImage: Clone + std::fmt::Debug {
    /// Length of the image in bits (its air time in µs at 1 Mb/s).
    fn air_bits(&self) -> usize;

    /// Writes the image into `out`, replacing what it held.
    fn write_bits(&self, out: &mut BitVec);
}

impl AirImage for BitVec {
    fn air_bits(&self) -> usize {
        self.len()
    }

    fn write_bits(&self, out: &mut BitVec) {
        out.clone_from(self);
    }
}

impl btsim_kernel::Snap for BitVec {
    fn snap(&self, w: &mut btsim_kernel::SnapWriter) {
        let BitVec { words, len } = self;
        w.put_usize(*len);
        for &word in words {
            w.put_u64(word);
        }
    }
    fn unsnap(r: &mut btsim_kernel::SnapReader<'_>) -> Result<Self, btsim_kernel::SnapshotError> {
        let len = r.take_usize()?;
        let n_words = len.div_ceil(64);
        if n_words > r.remaining() / 8 + 1 {
            return Err(r.malformed("bit vector length exceeds remaining bytes"));
        }
        let mut words = r.vec_for(n_words);
        for _ in 0..n_words {
            words.push(r.take_u64()?);
        }
        let tail = len % 64;
        if tail != 0 && words.last().is_some_and(|&w| w >> tail != 0) {
            return Err(r.malformed("bit vector has nonzero bits past its length"));
        }
        Ok(BitVec { words, len })
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; {}]", self.len, self)
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut v = BitVec::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for b in iter {
            self.push(b);
        }
    }
}

/// Iterator over the bits of a [`BitVec`] in transmission order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    v: &'a BitVec,
    i: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.v.get(self.i)?;
        self.i += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.v.len - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_roundtrip_and_validation() {
        use btsim_kernel::{Snap, SnapReader, SnapWriter};
        let v: BitVec = (0..77).map(|i| i % 3 == 0).collect();
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = BitVec::unsnap(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, v);
        // A dirty tail word (bits past `len`) must be rejected: every
        // BitVec invariant assumes those bits are zero.
        let mut dirty = bytes.clone();
        let last = dirty.len() - 1;
        dirty[last] |= 0x80;
        let mut r = SnapReader::new(&dirty);
        assert!(BitVec::unsnap(&mut r).is_err());
    }

    #[test]
    fn push_and_get_roundtrip() {
        let mut v = BitVec::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            v.push(b);
        }
        assert_eq!(v.len(), pattern.len());
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.get(i), Some(b), "bit {i}");
        }
        assert_eq!(v.get(pattern.len()), None);
    }

    #[test]
    fn push_bits_lsb_orders_lsb_first() {
        let mut v = BitVec::new();
        v.push_bits_lsb(0b0000_0001, 8);
        assert_eq!(v.get(0), Some(true));
        assert!(!(1..8).any(|i| v.get(i).unwrap()));
    }

    #[test]
    fn bits_lsb_reads_back() {
        let mut v = BitVec::new();
        v.push_bits_lsb(0xDEAD_BEEF, 32);
        v.push_bits_lsb(0x123, 12);
        assert_eq!(v.bits_lsb(0, 32), 0xDEAD_BEEF);
        assert_eq!(v.bits_lsb(32, 12), 0x123);
        // Reads past the end are zero-filled.
        assert_eq!(v.bits_lsb(40, 16), 0x1);
    }

    #[test]
    fn bytes_roundtrip() {
        let bytes = [0x00, 0xFF, 0xA5, 0x5A, 0x12];
        let v = BitVec::from_bytes_lsb(&bytes);
        assert_eq!(v.len(), 40);
        assert_eq!(v.to_bytes_lsb(), bytes);
    }

    #[test]
    fn set_and_toggle() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert_eq!(v.count_ones(), 3);
        v.toggle(64);
        v.toggle(65);
        assert_eq!(v.count_ones(), 3);
        assert_eq!(v.get(64), Some(false));
        assert_eq!(v.get(65), Some(true));
    }

    #[test]
    fn xor_and_hamming() {
        let a = BitVec::from_bytes_lsb(&[0b1010_1010, 0xFF]);
        let b = BitVec::from_bytes_lsb(&[0b0101_0101, 0xFF]);
        assert_eq!(a.hamming(&b), 8);
        let mut c = a.clone();
        c.xor_in_place(&b);
        assert_eq!(c.count_ones(), 8);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn slice_extracts_range() {
        let v = BitVec::from_bytes_lsb(&[0xF0, 0x0F]);
        let s = v.slice(4, 8);
        assert_eq!(s.len(), 8);
        assert_eq!(s.bits_lsb(0, 8), 0xFF);
    }

    #[test]
    fn reused_buffers_match_fresh_ones() {
        let v = BitVec::from_fn(200, |i| i % 3 == 0);
        let mut buf = BitVec::ones(300);
        buf.clone_from(&v);
        assert_eq!(buf, v);
        buf.clear();
        buf.push_bits_lsb(0b101, 3);
        buf.extend_range(&v, 61..190);
        let mut want = BitVec::from_fn(3, |i| i != 1);
        want.extend_bits(&v.slice(61, 129));
        assert_eq!(buf, want);
        for len in [200, 129, 128, 64, 5, 0] {
            let mut t = v.clone();
            t.truncate(len);
            assert_eq!(t, v.slice(0, len), "truncate to {len}");
        }
    }

    #[test]
    fn display_is_transmission_order() {
        let mut v = BitVec::new();
        v.push_bits_lsb(0b0011, 4);
        assert_eq!(v.to_string(), "1100");
    }

    #[test]
    fn from_iterator_and_extend() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.to_string(), "101");
        let mut w = v.clone();
        w.extend([false, true]);
        assert_eq!(w.to_string(), "10101");
    }

    #[test]
    fn count_ones_across_word_boundary() {
        let v = BitVec::from_fn(200, |i| i % 3 == 0);
        assert_eq!(v.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }
}
