//! Length-prefixed binary codec for all at-rest data.
//!
//! Every kv-pair that crosses a persistence boundary — MRBGraph chunks,
//! state files, result stores, checkpoints — is encoded with this codec.
//! The format is deliberately boring:
//!
//! * integers: LEB128 varints (unsigned) / zigzag varints (signed),
//! * floats: IEEE-754 little-endian bit patterns,
//! * byte strings / `String` / `Vec<T>`: varint length prefix + elements,
//! * tuples / `Option`: concatenation with a one-byte tag for `Option`.
//!
//! Decoding consumes from a `&mut &[u8]` cursor so composite types nest
//! without copies, and a trailing-bytes check is available via
//! [`decode_exact`].

use crate::error::{Error, Result};

/// Types that can be serialized into / deserialized from the at-rest format.
///
/// Implementations must round-trip: `decode(encode(x)) == x`, and
/// [`Codec::encoded_len`] must equal `encode_to(x).len()` **exactly** —
/// shuffle byte metering relies on it to price records without
/// serializing them (see `DESIGN.md`, data plane). There is deliberately
/// no default: whoever writes `encode` is forced to write the matching
/// size computation next to it, so the two cannot drift silently. The
/// `i2mr-common` proptest suite cross-checks every impl.
///
/// `u8` is a varint like every unsigned integer, so `Vec<u8>` encodes one
/// varint per element: a loop per byte, and two bytes for every byte
/// ≥ 0x80. Bulk bytes (frames, checkpoint payloads) must not go through
/// `Vec<u8>`; write a [`write_varint`] length and copy the slice instead.
pub trait Codec: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Consume an encoding from the front of `input`.
    fn decode(input: &mut &[u8]) -> Result<Self>;
    /// Exact byte length `encode` would append, computed without
    /// allocating or serializing.
    fn encoded_len(&self) -> usize;
}

/// Encode `value` into a fresh buffer.
pub fn encode_to<T: Codec>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

std::thread_local! {
    /// Per-thread scratch buffer behind [`with_encoding`].
    static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` on the encoding of `value` without allocating: the bytes live
/// in a per-thread scratch buffer that keeps its capacity between calls.
/// A nested call (from inside `f`) falls back to a fresh buffer.
///
/// This is how per-record hashes (partitioning, map keys) see a key's
/// canonical bytes on the hot path.
pub fn with_encoding<T: Codec, R>(value: &T, f: impl FnOnce(&[u8]) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            buf.clear();
            value.encode(&mut buf);
            f(&buf)
        }
        Err(_) => f(&encode_to(value)),
    })
}

/// Decode a `T` from the front of `input`, advancing the cursor.
pub fn decode_from<T: Codec>(input: &mut &[u8]) -> Result<T> {
    T::decode(input)
}

/// Decode a `T` that must occupy the *entire* input.
pub fn decode_exact<T: Codec>(mut input: &[u8]) -> Result<T> {
    let v = T::decode(&mut input)?;
    if !input.is_empty() {
        return Err(Error::codec(format!(
            "{} trailing bytes after decode",
            input.len()
        )));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// varints
// ---------------------------------------------------------------------------

/// Byte length of the unsigned LEB128 encoding of `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    // ceil(significant_bits / 7), with 0 taking one byte.
    ((64 - (v | 1).leading_zeros()) as usize).div_ceil(7)
}

/// Append an unsigned LEB128 varint.
pub fn write_varint(mut v: u64, buf: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Consume an unsigned LEB128 varint.
pub fn read_varint(input: &mut &[u8]) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input
            .split_first()
            .ok_or_else(|| Error::codec("varint: unexpected end of input"))?;
        *input = rest;
        if shift >= 64 {
            return Err(Error::codec("varint: overflow"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_codec_unsigned {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                write_varint(*self as u64, buf);
            }
            fn decode(input: &mut &[u8]) -> Result<Self> {
                let v = read_varint(input)?;
                <$t>::try_from(v).map_err(|_| Error::codec(concat!("out of range for ", stringify!($t))))
            }
            fn encoded_len(&self) -> usize {
                varint_len(*self as u64)
            }
        }
    )*};
}
impl_codec_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_codec_signed {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                write_varint(zigzag_encode(*self as i64), buf);
            }
            fn decode(input: &mut &[u8]) -> Result<Self> {
                let v = zigzag_decode(read_varint(input)?);
                <$t>::try_from(v).map_err(|_| Error::codec(concat!("out of range for ", stringify!($t))))
            }
            fn encoded_len(&self) -> usize {
                varint_len(zigzag_encode(*self as i64))
            }
        }
    )*};
}
impl_codec_signed!(i8, i16, i32, i64, isize);

impl Codec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let (&b, rest) = input
            .split_first()
            .ok_or_else(|| Error::codec("bool: unexpected end of input"))?;
        *input = rest;
        match b {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::codec(format!("bool: invalid tag {other}"))),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Codec for f32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        if input.len() < 4 {
            return Err(Error::codec("f32: unexpected end of input"));
        }
        let (head, rest) = input.split_at(4);
        *input = rest;
        Ok(f32::from_le_bytes(head.try_into().unwrap()))
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Codec for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        if input.len() < 8 {
            return Err(Error::codec("f64: unexpected end of input"));
        }
        let (head, rest) = input.split_at(8);
        *input = rest;
        Ok(f64::from_le_bytes(head.try_into().unwrap()))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Codec for u128 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        if input.len() < 16 {
            return Err(Error::codec("u128: unexpected end of input"));
        }
        let (head, rest) = input.split_at(16);
        *input = rest;
        Ok(u128::from_le_bytes(head.try_into().unwrap()))
    }
    fn encoded_len(&self) -> usize {
        16
    }
}

impl Codec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(self.len() as u64, buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let len = read_varint(input)? as usize;
        if input.len() < len {
            return Err(Error::codec("string: unexpected end of input"));
        }
        let (head, rest) = input.split_at(len);
        *input = rest;
        String::from_utf8(head.to_vec()).map_err(|e| Error::codec(format!("string: {e}")))
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(self.len() as u64, buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let len = read_varint(input)? as usize;
        // Guard against hostile/corrupt length prefixes: cap the upfront
        // reservation, let the vec grow naturally past it.
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(T::decode(input)?);
        }
        Ok(v)
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(T::encoded_len).sum::<usize>()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        let tag = bool::decode(input)?;
        if tag {
            Ok(Some(T::decode(input)?))
        } else {
            Ok(None)
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::encoded_len)
    }
}

impl Codec for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self> {
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

macro_rules! impl_codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            fn decode(input: &mut &[u8]) -> Result<Self> {
                Ok(($($name::decode(input)?,)+))
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }
        }
    };
}
impl_codec_tuple!(A: 0);
impl_codec_tuple!(A: 0, B: 1);
impl_codec_tuple!(A: 0, B: 1, C: 2);
impl_codec_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let enc = encode_to(&v);
        let dec: T = decode_exact(&enc).expect("decode");
        assert_eq!(dec, v);
    }

    #[test]
    fn with_encoding_sees_the_canonical_bytes_even_when_nested() {
        let outer = ("long key".to_string(), 300u64);
        let inner = 7u32;
        let (a, b) = with_encoding(&outer, |o| {
            (o.to_vec(), with_encoding(&inner, |i| i.to_vec()))
        });
        assert_eq!(a, encode_to(&outer));
        assert_eq!(b, encode_to(&inner));
        // A shorter value after a longer one leaves no stale tail.
        assert_eq!(with_encoding(&inner, |i| i.to_vec()), encode_to(&inner));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let mut cur = buf.as_slice();
            assert_eq!(read_varint(&mut cur).unwrap(), v);
            assert!(cur.is_empty());
        }
    }

    #[test]
    fn varint_truncated_input_errors() {
        let mut buf = Vec::new();
        write_varint(u64::MAX, &mut buf);
        buf.pop();
        let mut cur = buf.as_slice();
        assert!(read_varint(&mut cur).is_err());
    }

    #[test]
    fn unsigned_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(65535u16);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
    }

    #[test]
    fn signed_roundtrips_including_negatives() {
        roundtrip(-1i8);
        roundtrip(i8::MIN);
        roundtrip(i16::MIN);
        roundtrip(-42i32);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
    }

    #[test]
    fn zigzag_small_negatives_are_small() {
        // -1 must encode in one byte; naive two's complement would take ten.
        let enc = encode_to(&(-1i64));
        assert_eq!(enc.len(), 1);
    }

    #[test]
    fn float_roundtrips_including_specials() {
        roundtrip(0.0f64);
        roundtrip(-0.0f64);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::INFINITY);
        roundtrip(f32::MIN_POSITIVE);
        let enc = encode_to(&f64::NAN);
        let dec: f64 = decode_exact(&enc).unwrap();
        assert!(dec.is_nan());
    }

    #[test]
    fn string_and_vec_roundtrips() {
        roundtrip(String::new());
        roundtrip("héllo wörld".to_string());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec!["a".to_string(), "".to_string()]);
    }

    #[test]
    fn nested_composites() {
        roundtrip((1u64, "x".to_string(), vec![(2u32, 3.5f64)]));
        roundtrip(Some(vec![Some(1u32), None]));
        roundtrip((((1u8, 2u8), 3u8), 4u8));
    }

    #[test]
    fn option_invalid_tag_errors() {
        let buf = vec![2u8];
        assert!(decode_exact::<Option<u32>>(&buf).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut enc = encode_to(&7u32);
        enc.push(0);
        assert!(decode_exact::<u32>(&enc).is_err());
    }

    #[test]
    fn out_of_range_narrowing_errors() {
        let enc = encode_to(&300u64);
        assert!(decode_exact::<u8>(&enc).is_err());
    }

    #[test]
    fn u128_roundtrip() {
        roundtrip(u128::MAX);
        roundtrip(0u128);
        roundtrip(1u128 << 77);
    }

    #[test]
    fn vec_hostile_length_prefix_fails_gracefully() {
        // Length claims u64::MAX elements but provides none: must error, not
        // OOM on the reserve.
        let mut buf = Vec::new();
        write_varint(u64::MAX, &mut buf);
        assert!(decode_exact::<Vec<u64>>(&buf).is_err());
    }
}
