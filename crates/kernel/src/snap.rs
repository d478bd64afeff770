//! Snapshot serialization: a small, versioned, validated binary codec.
//!
//! Every stateful layer of the simulator implements [`Snap`], a
//! field-by-field binary encoding used by `btsim-core`'s `SimSnapshot`
//! wire form (`docs/SNAPSHOT.md`). Most impls are declared as field
//! lists or tag tables with [`snap_struct!`](crate::snap_struct) and
//! [`snap_enum!`](crate::snap_enum). The codec is deliberately minimal:
//! little-endian fixed-width integers, length-prefixed sequences, and a
//! strict reader that returns a typed [`SnapshotError`] — never panics —
//! on truncated or malformed input.
//!
//! Determinism contract: encoding is a pure function of the value (no
//! wall-clock, no pointers, no hash-map iteration order), so two
//! bit-identical simulator states produce byte-identical snapshots.
//!
//! # Examples
//!
//! ```
//! use btsim_kernel::snap::{Snap, SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! (vec![1u64, 2, 3], String::from("hi")).snap(&mut w);
//! let bytes = w.into_bytes();
//! let mut r = SnapReader::new(&bytes);
//! let back = <(Vec<u64>, String)>::unsnap(&mut r).unwrap();
//! r.finish().unwrap();
//! assert_eq!(back, (vec![1, 2, 3], String::from("hi")));
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::time::{SimDuration, SimTime};
use crate::wire::Wire;

/// Why a snapshot byte stream was rejected.
///
/// Decoding is total: any byte sequence either decodes or yields one of
/// these — malformed input must never panic or abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The stream does not start with the snapshot magic.
    BadMagic,
    /// The stream's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this build understands.
        supported: u32,
    },
    /// The stream ended before a field could be read.
    Truncated {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Bytes the read needed.
        need: usize,
    },
    /// A field decoded to an invalid value.
    Malformed {
        /// Byte offset of the offending field.
        at: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// Decoding finished but bytes remain.
    TrailingBytes {
        /// Offset where decoding stopped.
        at: usize,
        /// Total stream length.
        len: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a btsim snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} not supported (this build reads <= {supported})"
            ),
            SnapshotError::Truncated { at, need } => {
                write!(f, "snapshot truncated at byte {at} (needed {need} more)")
            }
            SnapshotError::Malformed { at, what } => {
                write!(f, "snapshot malformed at byte {at}: {what}")
            }
            SnapshotError::TrailingBytes { at, len } => {
                write!(f, "snapshot has {extra} trailing bytes", extra = len - at)
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Accumulates the binary image of a snapshot.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far, borrowed.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `bool` as one strict `0`/`1` byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Reads a snapshot byte stream with full bounds/validity checking.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current byte offset (for error reporting).
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                at: self.pos,
                need: n - self.remaining(),
            });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i32`.
    pub fn take_i32(&mut self) -> Result<i32, SnapshotError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a strict `0`/`1` boolean byte.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        let at = self.pos;
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed {
                at,
                what: "boolean byte is neither 0 nor 1",
            }),
        }
    }

    /// Reads a `usize` written with [`SnapWriter::put_usize`].
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        let at = self.pos;
        usize::try_from(self.take_u64()?).map_err(|_| SnapshotError::Malformed {
            at,
            what: "usize out of range for this platform",
        })
    }

    /// Reads a sequence length, rejecting lengths that cannot possibly
    /// fit in the remaining bytes (each element encodes to >= 1 byte).
    /// Reserve memory for the elements with [`SnapReader::vec_for`]: an
    /// element may be far larger in memory than on the wire.
    pub fn take_len(&mut self) -> Result<usize, SnapshotError> {
        let at = self.pos;
        let n = self.take_usize()?;
        if n > self.remaining() {
            return Err(SnapshotError::Malformed {
                at,
                what: "sequence length exceeds remaining bytes",
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.take_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, SnapshotError> {
        let at = self.pos;
        String::from_utf8(self.take_bytes()?).map_err(|_| SnapshotError::Malformed {
            at,
            what: "string is not valid UTF-8",
        })
    }

    /// Asserts the stream was fully consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                at: self.pos,
                len: self.data.len(),
            });
        }
        Ok(())
    }

    /// An empty vector with room for `n` elements of `T`, capped at the
    /// number of `T`s the remaining bytes could fill. A corrupted length
    /// prefix then costs at most the input's size in reserved memory,
    /// never an allocation the process cannot satisfy.
    pub fn vec_for<T>(&self, n: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.remaining() / std::mem::size_of::<T>().max(1)))
    }

    /// A [`SnapshotError::Malformed`] at the current position — for
    /// `Snap` impls that validate semantic invariants (enum tags, bit
    /// counts, channel indices).
    pub fn malformed(&self, what: &'static str) -> SnapshotError {
        SnapshotError::Malformed { at: self.pos, what }
    }
}

/// A snapshot-serializable piece of simulator state.
///
/// `unsnap(snap(x)) == x` field-for-field; decoding validates enough to
/// uphold every invariant the owning type relies on.
pub trait Snap: Sized {
    /// Appends this value's binary image to `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Reads a value back, validating the stream.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

/// Declares the [`Snap`] codec of a struct as its field list, in wire
/// order.
///
/// Each field is written with its own `Snap` impl and read back with
/// `Snap::unsnap`, or with a decoder `fn(&mut SnapReader) -> Result<T,
/// SnapshotError>` named after `via` (for a per-field range check whose
/// error must point at the field). Encoding destructures `Self` with no
/// `..`, so a field missing from the list is a compile error, not a
/// silent hole in the snapshot:
///
/// * `skip { field = init, .. }` names fields that are not written; on
///   decode each is rebuilt from `init`, which may read the decoded
///   fields by name (derived state, caches) and runs before `check`;
/// * `check |v| expr` validates the decoded value as a whole: `expr`
///   is a `Result<(), &'static str>`, and an `Err(what)` becomes
///   [`SnapshotError::Malformed`] with that `what`.
///
/// The macro writes no tag, length or version of its own: the bytes are
/// exactly the fields' images, concatenated.
///
/// # Examples
///
/// ```
/// use btsim_kernel::snap::{Snap, SnapReader, SnapWriter};
/// use btsim_kernel::snap_struct;
///
/// struct Window {
///     lo: u32,
///     hi: u32,
///     /// A cache: rebuilt, not written.
///     seen: Vec<u32>,
/// }
///
/// snap_struct! {
///     Window { lo, hi }
///     skip { seen = Vec::new() }
///     check |v| if v.lo <= v.hi { Ok(()) } else { Err("window ends before it starts") }
/// }
///
/// let mut w = SnapWriter::new();
/// Window { lo: 2, hi: 7, seen: vec![3] }.snap(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes, [2, 0, 0, 0, 7, 0, 0, 0]);
/// let back = Window::unsnap(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!((back.lo, back.hi, back.seen.len()), (2, 7, 0));
/// let bad = [7, 0, 0, 0, 2, 0, 0, 0];
/// assert!(Window::unsnap(&mut SnapReader::new(&bad)).is_err());
/// ```
///
/// Leaving a field out of the list does not compile:
///
/// ```compile_fail
/// use btsim_kernel::snap_struct;
///
/// struct Window {
///     lo: u32,
///     hi: u32,
/// }
///
/// snap_struct! { Window { lo } }
/// ```
#[macro_export]
macro_rules! snap_struct {
    (
        $ty:ident { $( $field:ident $( via $dec:expr )? ),* $(,)? }
        $( skip { $( $skip:ident = $init:expr ),* $(,)? } )?
        $( check |$v:ident| $check:expr )?
    ) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                let Self { $( $field, )* $( $( $skip: _, )* )? } = self;
                $( $crate::snap::Snap::snap($field, w); )*
            }

            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapshotError> {
                $( let $field = $crate::__snap_take!(r, $field $( via $dec )?); )*
                $( $( let $skip = $init; )* )?
                let value = Self { $( $field, )* $( $( $skip, )* )? };
                $(
                    fn check($v: &$ty) -> ::core::result::Result<(), &'static str> {
                        $check
                    }
                    check(&value).map_err(|what| r.malformed(what))?;
                )?
                Ok(value)
            }
        }
    };
}

/// Declares the [`Snap`] codec of an enum as a table of explicit `u8`
/// tags.
///
/// Each variant is written as its tag followed by its fields in the
/// order listed (unit, tuple and struct variants alike). Encoding
/// matches exhaustively and names every struct-variant field, so a new
/// variant or field that is not in the table fails to compile. Decoding
/// rejects an unknown tag with [`SnapshotError::Malformed`] carrying the
/// message after `else`. A struct-variant field may name a decoder
/// after `via`, as in [`snap_struct!`].
///
/// # Examples
///
/// ```
/// use btsim_kernel::snap::{Snap, SnapReader, SnapWriter};
/// use btsim_kernel::snap_enum;
///
/// enum Shape {
///     Empty,
///     Square(u32),
///     Rect { w: u32, h: u32 },
/// }
///
/// snap_enum! {
///     Shape {
///         0 => Empty,
///         1 => Square(side),
///         2 => Rect { w, h },
///     } else "unknown shape tag"
/// }
///
/// let mut w = SnapWriter::new();
/// Shape::Rect { w: 3, h: 4 }.snap(&mut w);
/// assert_eq!(w.as_bytes(), [2, 3, 0, 0, 0, 4, 0, 0, 0]);
/// assert!(Shape::unsnap(&mut SnapReader::new(&[9])).is_err());
/// ```
#[macro_export]
macro_rules! snap_enum {
    (
        $ty:ident {
            $(
                $tag:literal => $var:ident
                $( ( $( $tfield:ident ),* $(,)? ) )?
                $( { $( $sfield:ident $( via $dec:expr )? ),* $(,)? } )?
            ),* $(,)?
        } else $what:literal
    ) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $(
                        Self::$var $( ( $( $tfield ),* ) )? $( { $( $sfield ),* } )? => {
                            w.put_u8($tag);
                            $( $( $crate::snap::Snap::snap($tfield, w); )* )?
                            $( $( $crate::snap::Snap::snap($sfield, w); )* )?
                        }
                    )*
                }
            }

            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapshotError> {
                Ok(match r.take_u8()? {
                    $(
                        $tag => Self::$var
                            $( ( $( $crate::__snap_take!(r, $tfield) ),* ) )?
                            $( {
                                $( $sfield: $crate::__snap_take!(r, $sfield $( via $dec )?) ),*
                            } )?,
                    )*
                    _ => return Err(r.malformed($what)),
                })
            }
        }
    };
}

/// Decodes one field for [`snap_struct!`] / [`snap_enum!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_take {
    ($r:ident, $field:ident) => {
        $crate::snap::Snap::unsnap($r)?
    };
    ($r:ident, $field:ident via $dec:expr) => {
        ($dec)($r)?
    };
}

macro_rules! snap_prim {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Snap for $ty {
            fn snap(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.$take()
            }
        }
    };
}

snap_prim!(u8, put_u8, take_u8);
snap_prim!(u16, put_u16, take_u16);
snap_prim!(u32, put_u32, take_u32);
snap_prim!(u64, put_u64, take_u64);
snap_prim!(i32, put_i32, take_i32);
snap_prim!(f64, put_f64, take_f64);
snap_prim!(bool, put_bool, take_bool);
snap_prim!(usize, put_usize, take_usize);

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.take_str()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        if r.take_bool()? {
            Ok(Some(T::unsnap(r)?))
        } else {
            Ok(None)
        }
    }
}

/// A box is transparent on the wire: the same bytes as its contents.
impl<T: Snap> Snap for Box<T> {
    fn snap(&self, w: &mut SnapWriter) {
        T::snap(self, w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        T::unsnap(r).map(Box::new)
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = r.vec_for(n);
        for _ in 0..n {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::<T>::unsnap(r)?.into())
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::unsnap(r)?);
        }
        Ok(out.try_into().unwrap_or_else(|_| unreachable!()))
    }
}

impl Snap for SimTime {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.ns());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimTime::from_ns(r.take_u64()?))
    }
}

impl Snap for SimDuration {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.ns());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimDuration::from_ns(r.take_u64()?))
    }
}

snap_enum! {
    Wire {
        0 => L0,
        1 => L1,
        2 => Z,
        3 => X,
    } else "wire level tag out of range"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + fmt::Debug>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::unsnap(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(&back, v);
        bytes
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0xABu8);
        roundtrip(&0xAB_CDu16);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&-7i32);
        roundtrip(&1.5f64);
        roundtrip(&true);
        roundtrip(&String::from("scatternet"));
        roundtrip(&SimTime::from_us(625));
        roundtrip(&SimDuration::SLOT);
        roundtrip(&Wire::X);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Option::<u32>::None);
        roundtrip(&Some(9u32));
        roundtrip(&VecDeque::from(vec![5u8, 6]));
        roundtrip(&(1u8, 2u16, 3u32));
        roundtrip(&BTreeMap::from([(1u8, String::from("a"))]));
        roundtrip(&[1u32, 2, 3]);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut w = SnapWriter::new();
        vec![1u64; 4].snap(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            let err = Vec::<u64>::unsnap(&mut r);
            assert!(err.is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn huge_length_is_rejected_without_allocating() {
        let mut w = SnapWriter::new();
        w.put_usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Vec::<u8>::unsnap(&mut r),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn length_prefix_cannot_reserve_beyond_the_input() {
        // 1 Mi elements of 32 KiB each would ask for 32 GiB up front; the
        // prefix passes `take_len` (it fits the byte count) but the
        // reservation must be capped by what the bytes could hold.
        let mut w = SnapWriter::new();
        w.put_usize(1 << 20);
        let mut bytes = w.into_bytes();
        bytes.resize(bytes.len() + (1 << 20), 0);
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Vec::<[u64; 4096]>::unsnap(&mut r),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_bool_and_bad_tag_are_rejected() {
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(
            bool::unsnap(&mut r),
            Err(SnapshotError::Malformed { .. })
        ));
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(
            Wire::unsnap(&mut r),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let mut w = SnapWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        u8::unsnap(&mut r).unwrap();
        assert!(matches!(
            r.finish(),
            Err(SnapshotError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn errors_display() {
        let e = SnapshotError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
    }
}
