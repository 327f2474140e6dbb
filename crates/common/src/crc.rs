//! CRC-32 (IEEE 802.3, the reflected polynomial `0xEDB88320`), the one
//! checksum of every frame the engine stores or sends: WAL records, column
//! pages, the heat sidecar and wire frames all carry `crc32(payload)`.
//!
//! The implementation is slicing-by-16: sixteen 256-entry tables, built at
//! compile time, let the loop consume sixteen input bytes per step with
//! sixteen independent lookups instead of one dependent lookup per byte.
//! The function computed is the same one, bit for bit — a stored checksum
//! does not know how it was computed — which the tests pin against the
//! one-byte-per-step reference and against frames written before the change.
//! A buffer-pool page fault verifies 1–8 KiB on every miss, so this loop is
//! most of what a fault costs (DESIGN.md § "What a fault costs").

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// The table entries the eight bytes of `word` select, for a word that sits
/// `TOP - 7 ..= TOP` bytes before the end of the 16-byte step.
#[inline(always)]
fn fold<const TOP: usize>(word: u64) -> u32 {
    let b = word.to_le_bytes();
    TABLES[TOP][b[0] as usize]
        ^ TABLES[TOP - 1][b[1] as usize]
        ^ TABLES[TOP - 2][b[2] as usize]
        ^ TABLES[TOP - 3][b[3] as usize]
        ^ TABLES[TOP - 4][b[4] as usize]
        ^ TABLES[TOP - 5][b[5] as usize]
        ^ TABLES[TOP - 6][b[6] as usize]
        ^ TABLES[TOP - 7][b[7] as usize]
}

/// CRC-32 checksum of `data` (IEEE polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut steps = data.chunks_exact(16);
    for step in &mut steps {
        let (lo, hi) = step.split_at(8);
        let lo = u64::from_le_bytes(lo.try_into().expect("8 of 16 bytes"));
        let hi = u64::from_le_bytes(hi.try_into().expect("8 of 16 bytes"));
        c = fold::<15>(lo ^ u64::from(c)) ^ fold::<7>(hi);
    }
    for &b in steps.remainder() {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checksum as it was computed before slicing: one table lookup per
    /// byte. Every stored frame was written with this function.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        // xorshift64: seeded, so a failure names a reproducible input.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..4100 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        // An 8-aligned base, so `align` is the slice's real start alignment.
        let base = bytes.as_ptr().align_offset(8);
        assert!(base < 8);
        for align in 0..8 {
            let from = (base + align) % 8;
            for len in 0..=4100 {
                let data = &bytes[from..from + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "length {len} at alignment {align}"
                );
            }
        }
    }

    /// A framed WAL commit record (`[len][crc][payload]`) written by
    /// `oltap_txn::Wal::append` at the commit before the checksum was sliced:
    /// txn 7 at ts 42 inserting `(1, "widget", 9.99)` into `orders` and
    /// deleting key `(42)` from `stock`.
    const GOLDEN_WAL_FRAME: [u8; 91] = [
        0x53, 0x00, 0x00, 0x00, 0x93, 0xc4, 0x8a, 0xb5, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x06,
        0x00, 0x00, 0x00, 0x6f, 0x72, 0x64, 0x65, 0x72, 0x73, 0x03, 0x00, 0x02, 0x01, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x06, 0x00, 0x00, 0x00, 0x77, 0x69, 0x64, 0x67, 0x65,
        0x74, 0x04, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0xfa, 0x23, 0x40, 0x02, 0x05, 0x00, 0x00, 0x00,
        0x73, 0x74, 0x6f, 0x63, 0x6b, 0x01, 0x00, 0x02, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00,
    ];

    /// A framed column page written by `oltap_storage::pagefile` at the same
    /// commit: 40 frame-of-reference integers `1000 + (7 i mod 37)` with row
    /// 3 NULL.
    const GOLDEN_PAGE_FRAME: [u8; 84] = [
        0x4c, 0x00, 0x00, 0x00, 0x6f, 0x26, 0x98, 0x1b, 0x00, 0x01, 0xe8, 0x03, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x06, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0xe1, 0x54, 0xdc, 0x58, 0x30, 0x93, 0x16, 0x0e, 0x4a,
        0x84, 0x7d, 0x01, 0xf2, 0x58, 0x1d, 0x69, 0x34, 0xd4, 0x26, 0x12, 0x8b, 0x94, 0x81, 0x42,
        0x02, 0x5d, 0x1e, 0x70, 0x38, 0x00, 0x00, 0x01, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0xf7, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00,
    ];

    #[test]
    fn frames_written_before_slicing_still_verify() {
        for (frame, crc) in [
            (&GOLDEN_WAL_FRAME[..], 0xB58A_C493u32),
            (&GOLDEN_PAGE_FRAME[..], 0x1B98_266F),
        ] {
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            let stored = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            let payload = &frame[8..];
            assert_eq!(payload.len(), len);
            assert_eq!(stored, crc);
            assert_eq!(crc32(payload), crc);
        }
    }
}
