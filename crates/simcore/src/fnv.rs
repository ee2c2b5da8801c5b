//! FNV-1a, the order-sensitive 64-bit digest behind every trajectory
//! checksum and every byte-identity gate.

/// A 64-bit FNV-1a digest.
///
/// Two mixing modes share one state: [`Fnv::bytes`] folds input one
/// byte at a time (textbook FNV-1a), and [`Fnv::word`] folds a whole
/// `u64` in one xor-multiply step. They give different digests for the
/// same value, so a recorded checksum is tied to the mode it was built
/// with: trajectory checksums of shard records mix whole words, digests
/// over serialized lines and little-endian encodings mix bytes.
///
/// ```
/// use ampere_sim::Fnv;
///
/// let mut a = Fnv::new();
/// a.bytes(b"ab");
/// let mut b = Fnv::new();
/// b.bytes(b"ba");
/// assert_ne!(a.finish(), b.finish());
///
/// // A byte is a word below 256.
/// let mut w = Fnv::new();
/// w.word(u64::from(b'a'));
/// w.word(u64::from(b'b'));
/// assert_eq!(w.finish(), a.finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh digest at the FNV offset basis.
    pub const fn new() -> Self {
        Fnv(Self::OFFSET_BASIS)
    }

    /// Folds in one whole 64-bit word.
    pub fn word(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Folds in raw bytes, one at a time.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}
