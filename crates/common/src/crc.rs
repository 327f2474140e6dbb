//! CRC-32 (IEEE 802.3, the reflected polynomial `0xEDB88320`), the one
//! checksum of every frame the engine stores or sends: WAL records, column
//! pages, the heat sidecar and wire frames all carry `crc32(payload)`.
//!
//! One function, two bodies, and the CPU picks:
//!
//! * **Portable** — slicing-by-16: sixteen 256-entry tables, built at compile
//!   time, let the loop consume sixteen input bytes per step with sixteen
//!   independent lookups instead of one dependent lookup per byte
//!   (2.3–2.6 GB/s on the development host). It serves short inputs and every architecture other than
//!   x86-64, finishes the sub-16-byte remainder of the hardware path, and is
//!   the oracle the tests hold the hardware path to.
//! * **Hardware** — carry-less-multiply folding (`PCLMULQDQ`; Gopal et al.,
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ", the
//!   scheme zlib-ng and `crc32fast` use): four 128-bit lanes are folded 64
//!   bytes a step, then into one lane, which absorbs the 16-byte tail a lane
//!   at a time; Barrett reduction brings the 128 bits down to 32
//!   (≈ 25 GB/s on an 8 KiB page: one multiply a cycle, eight a step). Taken when `is_x86_feature_detected!("pclmulqdq")` and the
//!   input is at least `FOLD_WIDTH` bytes.
//!
//! The rule is not a tunable. 64 bytes is the algorithm's width — four lanes
//! have to be filled before there is anything to fold — not a measured
//! cross-over, so there is no option, environment variable or cargo feature
//! behind it. SSE4.2's `crc32` instruction is not an alternative: it computes
//! CRC-32C (the Castagnoli polynomial), a different function, i.e. a format
//! change for every page file, WAL and peer.
//!
//! The function computed is the same one, bit for bit — a stored checksum
//! does not know how it was computed — which the tests pin against the
//! one-byte-per-step reference, against the portable path at every length
//! and alignment, and against frames written before either speed-up. A
//! buffer-pool page fault verifies 1–8 KiB on every miss; with the hardware
//! path that costs less than the read it checks (DESIGN.md § "What a fault
//! costs").
//!
//! All of the crate's `unsafe` for this lives here: one block, the call into
//! the `#[target_feature]` kernel after the feature was detected.

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

/// The portable body: advances the raw register `c` (no inversion on
/// either side) over `data`, sixteen bytes a step and then a byte a step.
fn update_portable(mut c: u32, data: &[u8]) -> u32 {
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
    c
}

/// The least input the hardware body takes: its four 16-byte lanes, the
/// width of one fold step.
const FOLD_WIDTH: usize = 64;

/// Which body [`crc32`] runs for an input of `len` bytes on this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Pclmulqdq,
}

#[inline]
fn path_for(len: usize) -> Path {
    if len < FOLD_WIDTH {
        return Path::Portable;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        return Path::Pclmulqdq;
    }
    Path::Portable
}

/// CRC-32 checksum of `data` (IEEE polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let c = match path_for(data.len()) {
        Path::Portable => update_portable(!0, data),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `path_for` answers `Pclmulqdq` only after
        // `is_x86_feature_detected!("pclmulqdq")` said this CPU has the one
        // feature `clmul::update` is compiled for (its SSE2 lane moves are
        // x86-64 baseline) and only for `data.len() >= FOLD_WIDTH`, which
        // the kernel checks again. The kernel itself is safe code: every
        // lane is sixteen bytes of a slice cut by `split_first_chunk` or
        // `chunks_exact` and converted by value, so every load is in bounds
        // and carries no alignment requirement.
        Path::Pclmulqdq => unsafe { clmul::update(!0, data) },
    };
    !c
}

/// The hardware body. Polynomials are in the reflected bit order the CRC
/// uses: bit 0 of a lane is its highest power of `x`, and the bytes that
/// come first in the input hold the highest powers of the message.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{update_portable, FOLD_WIDTH, POLY};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^n mod P(x)`, reflected and moved up one bit: the form in which a
    /// 64 × 64 → 127-bit carry-less product of reflected operands lands on
    /// the right bit.
    const fn x_pow(n: u32) -> i64 {
        let mut c = 0x8000_0000u32; // x^0
        let mut i = 0;
        while i < n {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            i += 1;
        }
        (c as i64) << 1
    }

    /// Folding a lane forward over four lanes (512 bits): low half, high half.
    pub(super) const K1: i64 = x_pow(4 * 128 + 32);
    pub(super) const K2: i64 = x_pow(4 * 128 - 32);
    /// Folding a lane forward over one lane (128 bits).
    pub(super) const K3: i64 = x_pow(128 + 32);
    pub(super) const K4: i64 = x_pow(128 - 32);
    /// 96 → 64 bits.
    pub(super) const K5: i64 = x_pow(64);
    /// `P(x)` itself with its `x^32` term, 33 bits.
    pub(super) const P_X: i64 = ((POLY as i64) << 1) | 1;
    /// Barrett's `μ = ⌊x^64 / P(x)⌋`, 33 bits, by long division.
    pub(super) const MU: i64 = {
        let p = ((POLY.reverse_bits() as u64) | 1 << 32) as u128;
        let (mut rem, mut quo) = (1u128, 0u64);
        let mut i = 0;
        while i < 64 {
            rem <<= 1;
            quo <<= 1;
            if rem >> 32 != 0 {
                rem ^= p;
                quo |= 1;
            }
            i += 1;
        }
        (quo.reverse_bits() >> 31) as i64
    };

    /// Sixteen input bytes as a lane; no alignment is asked of them.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(bytes: &[u8]) -> __m128i {
        let v = u128::from_le_bytes(bytes.try_into().expect("a 16-byte lane"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// One fold step of input as its four lanes.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(step: &[u8; FOLD_WIDTH]) -> [__m128i; 4] {
        [
            lane(&step[..16]),
            lane(&step[16..32]),
            lane(&step[32..48]),
            lane(&step[48..]),
        ]
    }

    /// `acc · x^distance + next`, where `keys` holds `x^(distance ± 32)`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advances the raw register `c` over `data` (at least [`FOLD_WIDTH`]
    /// bytes); the sub-16-byte remainder goes through the portable body.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(c: u32, data: &[u8]) -> u32 {
        let (head, mut rest) = (data.split_first_chunk()).expect("at least FOLD_WIDTH bytes");
        let mut x = lanes(head);
        // The register is the state of the first four bytes.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        while let Some((step, after)) = rest.split_first_chunk() {
            let next = lanes(step);
            for i in 0..4 {
                x[i] = fold(x[i], next[i], k1k2);
            }
            rest = after;
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut tail = rest.chunks_exact(16);
        for step in &mut tail {
            x = fold(x, lane(step), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: 64 → 32 bits. T1 = (x mod x^32) · μ, T2 = (T1 mod x^32) · P.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let c = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32;

        update_portable(c, tail.remainder())
    }
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

    /// The portable body alone, whatever [`crc32`] dispatches to.
    fn crc32_portable(data: &[u8]) -> u32 {
        !update_portable(!0, data)
    }

    /// `len` xorshift64 bytes: seeded, so a failure names a reproducible
    /// input.
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    /// Calls `check(data, len, align)` for every length `0..=4100` at every
    /// start alignment `0..ALIGN` (the slice's real address modulo `ALIGN`).
    fn every_length_and_alignment<const ALIGN: usize>(check: impl Fn(&[u8], usize, usize)) {
        let bytes = noise(4100 + 2 * ALIGN);
        let base = bytes.as_ptr().align_offset(ALIGN);
        assert!(base < ALIGN);
        for align in 0..ALIGN {
            for len in 0..=4100 {
                check(&bytes[base + align..base + align + len], len, align);
            }
        }
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Long enough for the hardware path: the vector, ten times over
        // (zlib's `crc32` of the same 90 bytes).
        let ninety = b"123456789".repeat(10);
        assert_eq!(crc32(&ninety), crc32_bytewise(&ninety));
        assert_eq!(crc32_portable(&ninety), crc32_bytewise(&ninety));
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        every_length_and_alignment::<8>(|data, len, align| {
            assert_eq!(
                crc32_portable(data),
                crc32_bytewise(data),
                "length {len} at alignment {align}"
            );
        });
    }

    /// The hardware body against its oracle. On a CPU without `pclmulqdq`
    /// (and on every other architecture) both sides are the portable body
    /// and this holds trivially; `dispatch_takes_the_hardware_path` is what
    /// fails if an x86-64 run never got here.
    #[test]
    fn dispatched_equals_portable_at_every_length_and_alignment() {
        every_length_and_alignment::<16>(|data, len, align| {
            assert_eq!(
                crc32(data),
                crc32_portable(data),
                "length {len} at alignment {align} on the {:?} path",
                path_for(len)
            );
        });
    }

    #[test]
    fn dispatched_equals_portable_at_the_lane_boundaries_and_at_a_mebibyte() {
        let bytes = noise(1 << 20);
        for len in [63, 64, 65, 79, 80, 127, 128, 129, 8202, 1 << 20] {
            let data = &bytes[..len];
            assert_eq!(crc32(data), crc32_portable(data), "length {len}");
            assert_eq!(crc32(data), crc32_bytewise(data), "length {len}");
        }
    }

    /// One flipped bit anywhere in a page-sized payload changes the checksum
    /// (a CRC-32 detects every single-bit error): first byte, either side of
    /// the first lane and step boundaries, last full step, last byte.
    #[test]
    fn a_single_flipped_bit_in_a_page_is_caught() {
        let mut page = noise(8202);
        let sum = crc32(&page);
        for at in [0, 15, 16, 63, 64, 8191, 8192, 8201] {
            for bit in [0, 7] {
                page[at] ^= 1 << bit;
                assert_ne!(crc32(&page), sum, "bit {bit} of byte {at}");
                assert_eq!(crc32(&page), crc32_portable(&page), "byte {at}");
                page[at] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&page), sum);
    }

    /// Prints the body this host runs (`cargo test -p oltap-common crc --
    /// --nocapture`) and fails if a CPU that has the instruction was sent to
    /// the fallback. `/proc/cpuinfo` is a second opinion where it exists, so
    /// the test does not merely repeat `path_for`'s own question.
    #[test]
    fn dispatch_takes_the_hardware_path_where_the_cpu_has_it() {
        let (page, short) = (path_for(8202), path_for(FOLD_WIDTH - 1));
        println!("crc32: {page:?} path from {FOLD_WIDTH} B up, {short:?} path below");
        assert_eq!(short, Path::Portable);
        assert_eq!(path_for(FOLD_WIDTH), page);
        #[cfg(target_arch = "x86_64")]
        {
            let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
            let has = std::arch::is_x86_feature_detected!("pclmulqdq")
                || cpuinfo.split_whitespace().any(|flag| flag == "pclmulqdq");
            if has {
                assert_eq!(
                    page,
                    Path::Pclmulqdq,
                    "this x86-64 CPU has pclmulqdq, yet an 8 202-byte page took the {page:?} path"
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(page, Path::Portable);
    }

    /// The folding constants are derived at compile time from `POLY`; these
    /// are the values Intel's paper, zlib-ng and `crc32fast` publish.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_the_published_ones() {
        assert_eq!(clmul::K1, 0x1_5444_2bd4);
        assert_eq!(clmul::K2, 0x1_c6e4_1596);
        assert_eq!(clmul::K3, 0x1_7519_97d0);
        assert_eq!(clmul::K4, 0x0_ccaa_009e);
        assert_eq!(clmul::K5, 0x1_63cd_6124);
        assert_eq!(clmul::P_X, 0x1_db71_0641);
        assert_eq!(clmul::MU, 0x1_f701_1641);
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
