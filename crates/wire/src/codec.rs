//! Low-level encode/decode primitives.
//!
//! The prototype's wire format is a hand-rolled, length-prefixed binary
//! encoding (the paper predates any serialization framework; its rekey
//! messages were packed structs over UDP). Integers are big-endian; byte
//! strings carry a `u32` length prefix; collections a `u32` count.

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
    let n = get_u32(buf)? as usize;
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
