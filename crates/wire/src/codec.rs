//! Low-level encode/decode primitives.
//!
//! The prototype's wire format is a hand-rolled, length-prefixed binary
//! encoding (the paper predates any serialization framework; its rekey
//! messages were packed structs over UDP). Control messages, cluster
//! envelopes and telemetry use big-endian integers, byte strings behind a
//! `u32` length and collections behind a `u32` count. The rekey packet,
//! where bytes are the paper's cost, writes every integer as a canonical
//! LEB128 varint ([`put_varint`] / [`get_varint`]) instead.

use crate::WireError;
use bytes::BufMut;

/// Maximum length accepted for any single byte-string field (1 MiB) —
/// bounds allocation when decoding hostile input.
pub const MAX_FIELD_LEN: usize = 1 << 20;

/// Maximum element count accepted for any collection field.
pub const MAX_COUNT: usize = 1 << 16;

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    debug_assert!(bytes.len() <= MAX_FIELD_LEN);
    out.put_u32(bytes.len() as u32);
    out.put_slice(bytes);
}

/// Split the next `len` bytes off the front of `buf`.
#[inline]
pub fn get_slice<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], WireError> {
    let (head, tail) = buf.split_at_checked(len).ok_or(WireError::Truncated)?;
    *buf = tail;
    Ok(head)
}

/// Read a length-prefixed byte string in place, bounded by
/// [`MAX_FIELD_LEN`].
pub fn get_field<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let len = get_u32(buf)? as usize;
    if len > MAX_FIELD_LEN {
        return Err(WireError::FieldTooLong { len, max: MAX_FIELD_LEN });
    }
    get_slice(buf, len)
}

/// Read a length-prefixed byte string.
pub fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    get_field(buf).map(<[u8]>::to_vec)
}

/// Read a length-prefixed UTF-8 string; invalid UTF-8 is a
/// [`WireError::BadTag`] for `context`, carrying the first bad byte.
pub fn get_str(buf: &mut &[u8], context: &'static str) -> Result<String, WireError> {
    let field = get_field(buf)?;
    match std::str::from_utf8(field) {
        Ok(s) => Ok(s.to_owned()),
        Err(e) => {
            let tag = field.get(e.valid_up_to()).copied().unwrap_or_default();
            Err(WireError::BadTag { context, tag })
        }
    }
}

/// Read a `u8`.
#[inline]
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    let (&v, tail) = buf.split_first().ok_or(WireError::Truncated)?;
    *buf = tail;
    Ok(v)
}

/// Read a big-endian `u32`.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    let (v, tail) = buf.split_first_chunk().ok_or(WireError::Truncated)?;
    *buf = tail;
    Ok(u32::from_be_bytes(*v))
}

/// Read a big-endian `u64`.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    let (v, tail) = buf.split_first_chunk().ok_or(WireError::Truncated)?;
    *buf = tail;
    Ok(u64::from_be_bytes(*v))
}

/// Read a collection count, bounded by [`MAX_COUNT`].
pub fn get_count(buf: &mut &[u8]) -> Result<usize, WireError> {
    bounded_count(get_u32(buf)?.into())
}

/// Longest LEB128 encoding of a `u64`: ⌈64 / 7⌉ bytes.
pub const MAX_VARINT_LEN: usize = 10;

/// Append `v` as an unsigned LEB128 varint: seven bits per byte, least
/// significant group first, the high bit set on every byte but the last.
/// Values below 128 take one byte; the encoding is always the shortest.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read an unsigned LEB128 varint. Exactly one encoding of each value is
/// accepted, so a decoded packet re-encodes to the bytes it came from:
/// a final byte of zero after the first (a padded, non-minimal encoding),
/// a continuation past [`MAX_VARINT_LEN`] bytes and a tenth byte carrying
/// bits above 2⁶⁴ are each a [`WireError::BadTag`] naming the refusal.
#[inline]
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, WireError> {
    // One and two bytes, the common cases, without the loop.
    match **buf {
        [b0, ref tail @ ..] if b0 < 0x80 => {
            *buf = tail;
            return Ok(b0.into());
        }
        [b0, b1, ref tail @ ..] if b1 < 0x80 && b1 != 0 => {
            *buf = tail;
            return Ok(u64::from(b0 & 0x7F) | u64::from(b1) << 7);
        }
        _ => {}
    }
    let mut v = 0u64;
    for (i, &byte) in buf.iter().enumerate().take(MAX_VARINT_LEN) {
        v |= u64::from(byte & 0x7F) << (7 * i);
        if byte < 0x80 {
            if i == MAX_VARINT_LEN - 1 && byte > 1 {
                return Err(WireError::BadTag { context: "varint overflows u64", tag: byte });
            }
            if byte == 0 && i > 0 {
                return Err(WireError::BadTag { context: "non-minimal varint", tag: byte });
            }
            *buf = buf.get(i + 1..).unwrap_or_default();
            return Ok(v);
        }
    }
    match buf.get(MAX_VARINT_LEN - 1) {
        Some(&tag) => Err(WireError::BadTag { context: "varint longer than 10 bytes", tag }),
        None => Err(WireError::Truncated),
    }
}

/// Split `n` varints off the front of `buf` without decoding them, each
/// held to [`get_varint`]'s rules, and return their bytes.
#[inline]
pub fn get_varints<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    let (mut left, mut len) = (n, 0usize);
    let mut end = 0;
    while left > 0 {
        let &byte = buf.get(end).ok_or(WireError::Truncated)?;
        end += 1;
        len += 1;
        if byte >= 0x80 {
            if len == MAX_VARINT_LEN {
                return Err(WireError::BadTag {
                    context: "varint longer than 10 bytes",
                    tag: byte,
                });
            }
            continue;
        }
        if len == MAX_VARINT_LEN && byte > 1 {
            return Err(WireError::BadTag { context: "varint overflows u64", tag: byte });
        }
        if byte == 0 && len > 1 {
            return Err(WireError::BadTag { context: "non-minimal varint", tag: byte });
        }
        left -= 1;
        len = 0;
    }
    get_slice(buf, end)
}

/// Read a varint that must fit a `u32` (the Merkle leaf index).
pub fn get_varint_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    let v = get_varint(buf)?;
    u32::try_from(v).map_err(|_| WireError::FieldTooLong {
        len: usize::try_from(v).unwrap_or(usize::MAX),
        max: u32::MAX as usize,
    })
}

/// Read a varint collection count, bounded by [`MAX_COUNT`].
#[inline]
pub fn get_varint_count(buf: &mut &[u8]) -> Result<usize, WireError> {
    bounded_count(get_varint(buf)?)
}

/// Append a byte string behind a varint length.
pub fn put_varint_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    debug_assert!(bytes.len() <= MAX_FIELD_LEN);
    put_varint(out, bytes.len() as u64);
    out.put_slice(bytes);
}

/// Read a byte string behind a varint length in place, bounded by
/// [`MAX_FIELD_LEN`].
#[inline]
pub fn get_varint_field<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let len = get_varint(buf)?;
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    if len > MAX_FIELD_LEN {
        return Err(WireError::FieldTooLong { len, max: MAX_FIELD_LEN });
    }
    get_slice(buf, len)
}

#[inline]
fn bounded_count(n: u64) -> Result<usize, WireError> {
    let n = usize::try_from(n).unwrap_or(usize::MAX);
    if n > MAX_COUNT {
        return Err(WireError::FieldTooLong { len: n, max: MAX_COUNT });
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"hello");
        put_bytes(&mut out, b"");
        let mut buf = out.as_slice();
        assert_eq!(get_bytes(&mut buf).unwrap(), b"hello");
        assert_eq!(get_bytes(&mut buf).unwrap(), b"");
        assert!(buf.is_empty());
    }

    #[test]
    fn truncated_inputs_error() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"hello");
        let mut buf = &out[..out.len() - 1];
        assert_eq!(get_bytes(&mut buf).unwrap_err(), WireError::Truncated);
        let mut buf: &[u8] = &[0, 0];
        assert_eq!(get_u32(&mut buf).unwrap_err(), WireError::Truncated);
        let mut buf: &[u8] = &[];
        assert_eq!(get_u8(&mut buf).unwrap_err(), WireError::Truncated);
        assert_eq!(get_u64(&mut buf).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn hostile_length_rejected() {
        // Claim a 2 GiB string.
        let mut buf: &[u8] = &[0x80, 0, 0, 0, 1, 2, 3];
        assert!(matches!(get_bytes(&mut buf), Err(WireError::FieldTooLong { .. })));
        let mut buf: &[u8] = &[0x00, 0x10, 0, 1];
        assert!(matches!(get_count(&mut buf), Err(WireError::FieldTooLong { .. })));
    }

    #[test]
    fn varints_roundtrip_at_every_length() {
        let mut values = vec![0, 1, 127, 128, 300, 16_383, 16_384, u64::MAX];
        values.extend((0..64).map(|b| 1u64 << b));
        values.extend((1..64).map(|b| (1u64 << b) - 1));
        for v in values {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let bits = 64 - v.leading_zeros() as usize;
            assert_eq!(out.len(), bits.div_ceil(7).max(1), "{v}");
            let mut buf = out.as_slice();
            assert_eq!(get_varint(&mut buf).unwrap(), v);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn non_minimal_varints_are_refused() {
        // 0 padded to two bytes, 1 padded to three.
        for bytes in [&[0x80, 0x00][..], &[0x81, 0x80, 0x00], &[0xFF, 0x00]] {
            let mut buf = bytes;
            assert_eq!(
                get_varint(&mut buf),
                Err(WireError::BadTag { context: "non-minimal varint", tag: 0 }),
                "{bytes:02x?}"
            );
        }
    }

    #[test]
    fn varints_longer_than_ten_bytes_are_refused() {
        let mut bytes = [0x80u8; 11];
        bytes[10] = 0x01;
        let mut buf = &bytes[..];
        assert_eq!(
            get_varint(&mut buf),
            Err(WireError::BadTag { context: "varint longer than 10 bytes", tag: 0x80 })
        );
    }

    #[test]
    fn varints_past_u64_are_refused() {
        // u64::MAX is nine 0xFF then 0x01; a tenth byte of 2 is 2^64.
        let mut max = [0xFFu8; 10];
        max[9] = 0x01;
        assert_eq!(get_varint(&mut &max[..]).unwrap(), u64::MAX);
        let mut over = max;
        over[9] = 0x02;
        assert_eq!(
            get_varint(&mut &over[..]),
            Err(WireError::BadTag { context: "varint overflows u64", tag: 2 })
        );
        // A u32 field refuses anything wider.
        let mut out = Vec::new();
        put_varint(&mut out, u64::from(u32::MAX) + 1);
        assert!(matches!(get_varint_u32(&mut &out[..]), Err(WireError::FieldTooLong { .. })));
    }

    /// Skipping varints refuses exactly what reading them refuses.
    #[test]
    fn skipping_varints_agrees_with_reading_them() {
        let cases: [&[u8]; 9] = [
            &[0x01, 0x81, 0x01, 0x7F],
            &[0x80, 0x00],
            &[0x05, 0xFF, 0x00],
            &[0xFF; 11],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00],
            &[0x80],
            &[],
            &[0x00, 0x00, 0x00],
        ];
        for bytes in cases {
            for n in 0..4 {
                let mut read = bytes;
                let decoded: Result<Vec<u64>, _> = (0..n).map(|_| get_varint(&mut read)).collect();
                let mut skipped = bytes;
                let skip = get_varints(&mut skipped, n);
                match decoded {
                    Ok(_) => {
                        assert_eq!(
                            skip,
                            Ok(&bytes[..bytes.len() - read.len()]),
                            "{bytes:02x?} {n}"
                        );
                        assert_eq!(skipped, read);
                    }
                    Err(e) => assert_eq!(skip, Err(e), "{bytes:02x?} {n}"),
                }
            }
        }
    }

    #[test]
    fn truncated_varints_error() {
        for bytes in [&[][..], &[0x80], &[0xFF, 0xFF]] {
            assert_eq!(get_varint(&mut &bytes[..]), Err(WireError::Truncated));
        }
    }

    #[test]
    fn varint_counts_and_lengths_are_bounded() {
        let mut out = Vec::new();
        put_varint(&mut out, MAX_COUNT as u64 + 1);
        assert_eq!(
            get_varint_count(&mut &out[..]),
            Err(WireError::FieldTooLong { len: MAX_COUNT + 1, max: MAX_COUNT })
        );
        let mut out = Vec::new();
        put_varint(&mut out, MAX_COUNT as u64);
        assert_eq!(get_varint_count(&mut &out[..]), Ok(MAX_COUNT));
        // A length past the field bound is refused before any byte is read.
        let mut out = Vec::new();
        put_varint(&mut out, MAX_FIELD_LEN as u64 + 1);
        assert_eq!(
            get_varint_field(&mut &out[..]),
            Err(WireError::FieldTooLong { len: MAX_FIELD_LEN + 1, max: MAX_FIELD_LEN })
        );
        let mut out = Vec::new();
        put_varint_bytes(&mut out, b"abc");
        assert_eq!(out, [3, b'a', b'b', b'c']);
        assert_eq!(get_varint_field(&mut &out[..]).unwrap(), b"abc");
    }

    #[test]
    fn scalars_roundtrip() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_u32(0xDEAD_BEEF);
        out.put_u64(0x0123_4567_89AB_CDEF);
        let mut buf = out.as_slice();
        assert_eq!(get_u8(&mut buf).unwrap(), 7);
        assert_eq!(get_u32(&mut buf).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u64(&mut buf).unwrap(), 0x0123_4567_89AB_CDEF);
    }
}
