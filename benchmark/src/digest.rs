//! FNV-1a 64 over the canonical text of inputs and outcomes, so two
//! commits can prove they ran identical inputs and two runs of one
//! commit identical outcomes.

use std::fmt;

#[derive(Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn new() -> Digest {
        Digest::default()
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `write!(digest, "{:?}", value)` hashes a value's text without
/// allocating it.
impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector_and_order_sensitivity() {
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
        let (mut x, mut y) = (Digest::new(), Digest::new());
        x.bytes(b"ab");
        y.bytes(b"ba");
        assert_ne!(x.hex(), y.hex());
    }
}
