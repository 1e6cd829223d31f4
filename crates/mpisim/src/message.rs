//! Message envelopes and fixed-width wire codecs.
//!
//! Point-to-point payloads are byte vectors, as in MPI: the application
//! serializes its request/response structs explicitly. The codec helpers
//! here are what an MPI code would express with derived datatypes —
//! little-endian fixed-width integers, no framing overhead.

/// A delivered point-to-point message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Application tag (compare MPI's `tag`).
    pub tag: u32,
    /// Owned payload bytes.
    pub payload: Vec<u8>,
}

/// Incremental little-endian writer for wire payloads.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Create a writer, pre-sizing the buffer.
    pub fn with_capacity(cap: usize) -> WireWriter {
        WireWriter { buf: Vec::with_capacity(cap) }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u128`.
    pub fn put_u128(&mut self, v: u128) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `i64`.
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a `u32`-length-prefixed vector of `u64` (a derived
    /// datatype for batched key requests).
    pub fn put_u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.put_u32(vs.len() as u32);
        self.buf.reserve(8 * vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Append a `u32`-length-prefixed vector of `u128`.
    pub fn put_u128s(&mut self, vs: &[u128]) -> &mut Self {
        self.put_u32(vs.len() as u32);
        self.buf.reserve(16 * vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Append a `u32`-length-prefixed vector of `i64` (batched counts).
    pub fn put_i64s(&mut self, vs: &[i64]) -> &mut Self {
        self.put_u32(vs.len() as u32);
        self.buf.reserve(8 * vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Finish and take the payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Incremental little-endian reader for wire payloads.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Read a `u128`.
    pub fn get_u128(&mut self) -> u128 {
        u128::from_le_bytes(self.take(16).try_into().unwrap())
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> i64 {
        i64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> &'a [u8] {
        let n = self.get_u64() as usize;
        self.take(n)
    }

    /// Read a `u32`-length-prefixed vector of `u64`.
    pub fn get_u64s(&mut self) -> Vec<u64> {
        let n = self.get_u32() as usize;
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Read a `u32`-length-prefixed vector of `u128`.
    pub fn get_u128s(&mut self) -> Vec<u128> {
        let n = self.get_u32() as usize;
        (0..n).map(|_| self.get_u128()).collect()
    }

    /// Read a `u32`-length-prefixed vector of `i64`.
    pub fn get_i64s(&mut self) -> Vec<i64> {
        let n = self.get_u32() as usize;
        (0..n).map(|_| self.get_i64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = WireWriter::with_capacity(64);
        w.put_u8(7).put_u32(0xDEAD_BEEF).put_u64(u64::MAX).put_u128(1u128 << 100);
        w.put_i64(-42).put_bytes(b"hello");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), u64::MAX);
        assert_eq!(r.get_u128(), 1u128 << 100);
        assert_eq!(r.get_i64(), -42);
        assert_eq!(r.get_bytes(), b"hello");
        assert_eq!(r.pos, buf.len(), "fully consumed");
    }

    #[test]
    #[should_panic]
    fn reader_panics_on_underflow() {
        let mut r = WireReader::new(&[1, 2]);
        let _ = r.get_u64();
    }

    #[test]
    fn empty_bytes_round_trip() {
        let mut w = WireWriter::default();
        w.put_bytes(b"");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_bytes(), b"");
    }

    #[test]
    fn vector_payloads_round_trip() {
        let ks = vec![0u64, 1, u64::MAX, 0x1234_5678_9ABC_DEF0];
        let ts = vec![u128::MAX, 0, 1u128 << 100];
        let cs = vec![-1i64, 0, i64::MAX, i64::MIN];
        let mut w = WireWriter::with_capacity(16);
        w.put_u64s(&ks).put_u128s(&ts).put_i64s(&cs).put_u64s(&[]);
        let buf = w.finish();
        assert_eq!(buf.len(), 4 + 8 * 4 + 4 + 16 * 3 + 4 + 8 * 4 + 4);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u64s(), ks);
        assert_eq!(r.get_u128s(), ts);
        assert_eq!(r.get_i64s(), cs);
        assert_eq!(r.get_u64s(), Vec::<u64>::new());
        assert_eq!(r.pos, buf.len(), "fully consumed");
    }
}
