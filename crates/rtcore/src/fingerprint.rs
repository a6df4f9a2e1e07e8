//! Content fingerprinting for scene data.
//!
//! A [`Fnv64`] hasher turns structured content (geometry, materials,
//! camera parameters) into a stable 64-bit fingerprint. Fingerprints are
//! the keys of the artifact cache in the `zatel` crate: two scenes with
//! identical content hash to the same value on every platform and every
//! run, so cached pipeline artifacts (heatmaps, quantizations) can be
//! reused across sweep points and across processes.
//!
//! The hash is FNV-1a over a canonical byte encoding: integers in
//! little-endian order, floats by their IEEE-754 bit patterns (so `-0.0`
//! and `0.0` hash differently, and NaN payloads are preserved — exactness
//! matters more than float semantics here), strings as UTF-8 bytes with a
//! length prefix to keep the encoding prefix-free.
//!
//! ```
//! use rtcore::fingerprint::Fnv64;
//!
//! let mut h = Fnv64::new();
//! h.write_str("PARK");
//! h.write_u32(512);
//! let a = h.finish();
//! assert_ne!(a, Fnv64::new().finish());
//! ```

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A 64-bit FNV-1a hasher with typed write helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Hashes raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Hashes a `u8`.
    pub fn write_u8(&mut self, v: u8) -> &mut Self {
        self.write_bytes(&[v])
    }

    /// Hashes a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Hashes a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Hashes an `f32` by IEEE-754 bit pattern.
    pub fn write_f32(&mut self, v: f32) -> &mut Self {
        self.write_u32(v.to_bits())
    }

    /// Hashes an `f64` by IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Hashes a string with a length prefix (prefix-free encoding).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// The fingerprint accumulated so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        let fnv64 = |bytes: &[u8]| Fnv64::new().write_bytes(bytes).finish();
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn typed_writes_are_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u32(1).write_u32(2);
        let mut b = Fnv64::new();
        b.write_u32(2).write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn string_encoding_is_prefix_free() {
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn float_bits_distinguish_signed_zero() {
        let mut a = Fnv64::new();
        a.write_f32(0.0);
        let mut b = Fnv64::new();
        b.write_f32(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
