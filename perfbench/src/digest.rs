//! A stable 64-bit FNV-1a digest over canonical result renderings.

/// Accumulates bytes into one digest; the same input always gives the same
/// digest, on any host and in any process.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Adds one rendering, followed by a separator so that `["ab", "c"]`
    /// and `["a", "bc"]` digest differently.
    pub fn update(&mut self, text: &str) -> &mut Self {
        for &byte in text.as_bytes().iter().chain(&[0xff]) {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_separates_parts() {
        assert_eq!(
            Digest::new().update("abc").hex(),
            Digest::new().update("abc").hex()
        );
        assert_ne!(
            Digest::new().update("ab").update("c").hex(),
            Digest::new().update("a").update("bc").hex()
        );
    }
}
