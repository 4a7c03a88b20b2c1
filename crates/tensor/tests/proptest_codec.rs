//! Property tests for the byte codec (`flux_tensor::codec`): what the
//! word-folded checksum is guaranteed to detect, and that the reader
//! round-trips whatever the writer wrote while every strict prefix of it
//! fails with the one typed `Truncated`.
//!
//! Every test name starts with `codec_` so `cargo test -p flux-tensor codec`
//! runs this file together with the module's unit tests.

use proptest::prelude::*;

use flux_tensor::codec::{checksum, Reader, Truncated, Writer};
use flux_tensor::{Matrix, SeededRng};

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SeededRng::new(seed);
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// One value of each kind the writer can append.
#[derive(Debug, Clone)]
enum Item {
    U8(u8),
    U32(u32),
    U64(u64),
    F32(u32),
    F64(u64),
    Bytes(Vec<u8>),
    F32Slice(Vec<u32>),
    Matrix(usize, usize, Vec<u32>),
}

/// A seeded sequence of items; floats are carried as bit patterns so NaN
/// payloads round-trip under `==` too.
fn random_items(seed: u64, count: usize) -> Vec<Item> {
    let mut rng = SeededRng::new(seed);
    let mut word = move || (rng.below(1 << 16) as u32) << 16 | rng.below(1 << 16) as u32;
    (0..count)
        .map(|_| match word() % 8 {
            0 => Item::U8(word() as u8),
            1 => Item::U32(word()),
            2 => Item::U64(u64::from(word()) << 32 | u64::from(word())),
            3 => Item::F32(word()),
            4 => Item::F64(u64::from(word()) << 32 | u64::from(word())),
            5 => Item::Bytes((0..word() % 20).map(|_| word() as u8).collect()),
            6 => Item::F32Slice((0..word() % 9).map(|_| word()).collect()),
            _ => {
                let (rows, cols) = ((word() % 4) as usize, (word() % 5) as usize);
                Item::Matrix(rows, cols, (0..rows * cols).map(|_| word()).collect())
            }
        })
        .collect()
}

fn floats(bits: &[u32]) -> Vec<f32> {
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn write(items: &[Item]) -> Vec<u8> {
    let mut w = Writer::new();
    for item in items {
        match item {
            Item::U8(v) => w.put_u8(*v),
            Item::U32(v) => w.put_u32(*v),
            Item::U64(v) => w.put_u64(*v),
            Item::F32(v) => w.put_f32(f32::from_bits(*v)),
            Item::F64(v) => w.put_f64(f64::from_bits(*v)),
            Item::Bytes(v) => w.put_byte_slice(v).expect("short field"),
            Item::F32Slice(v) => w.put_f32_slice(&floats(v)),
            Item::Matrix(rows, cols, v) => {
                w.put_matrix(&Matrix::from_vec(*rows, *cols, floats(v)).unwrap())
            }
        }
    }
    w.into_vec()
}

/// Reads `items` back in order; `Ok(true)` when every value matched.
fn read_matches(bytes: &[u8], items: &[Item]) -> Result<bool, Truncated> {
    let r = &mut Reader::new(bytes);
    let mut same = true;
    for item in items {
        same &= match item {
            Item::U8(v) => r.u8()? == *v,
            Item::U32(v) => r.u32()? == *v,
            Item::U64(v) => r.u64()? == *v,
            Item::F32(v) => r.f32()?.to_bits() == *v,
            Item::F64(v) => r.f64()?.to_bits() == *v,
            Item::Bytes(v) => r.byte_slice()? == v.as_slice(),
            Item::F32Slice(v) => bits(&r.f32_slice()?) == *v,
            Item::Matrix(rows, cols, v) => {
                let m = r.matrix()?;
                m.shape() == (*rows, *cols) && bits(m.as_slice()) == *v
            }
        };
    }
    Ok(same && r.remaining() == 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both steps of a fold are bijections, so a change that stays inside
    /// one aligned 8-byte word can never cancel out.
    #[test]
    fn codec_checksum_always_detects_a_change_confined_to_one_word(
        seed in 0u64..1_000_000,
        len in 1usize..200,
        at in 0usize..200,
        mask in 1u64..u64::MAX,
    ) {
        let data = random_bytes(seed, len);
        let word_start = (at % len) / 8 * 8;
        let mut damaged = data.clone();
        for (byte, m) in damaged[word_start..].iter_mut().zip(mask.to_le_bytes()) {
            *byte ^= m;
        }
        prop_assume!(damaged != data);
        prop_assert_ne!(checksum(&damaged), checksum(&data));
    }

    /// The length is sealed into the hash before any content, so cutting a
    /// buffer short or padding it with zeros is never the same buffer.
    #[test]
    fn codec_checksum_never_aliases_truncation_or_zero_extension(
        seed in 0u64..1_000_000,
        len in 0usize..120,
    ) {
        let mut data = random_bytes(seed, len);
        // End on zeros: the hard case, where only the length differs.
        let keep = len / 2;
        data[keep..].fill(0);
        let sealed = checksum(&data);
        for cut in 0..len {
            prop_assert_ne!(checksum(&data[..cut]), sealed, "cut to {}", cut);
        }
        let mut longer = data.clone();
        for extra in 1..=17 {
            longer.push(0);
            prop_assert_ne!(checksum(&longer), sealed, "{} zero bytes appended", extra);
        }
    }

    #[test]
    fn codec_round_trips_mixed_sequences_and_every_strict_prefix_is_truncated(
        seed in 0u64..1_000_000,
        count in 0usize..12,
    ) {
        let items = random_items(seed, count);
        let bytes = write(&items);
        prop_assert_eq!(read_matches(&bytes, &items), Ok(true));
        for cut in 0..bytes.len() {
            match read_matches(&bytes[..cut], &items) {
                Err(Truncated { wanted, left }) => prop_assert!(wanted > left && left <= cut),
                Ok(_) => prop_assert!(false, "a {cut}-byte prefix of {} bytes read through", bytes.len()),
            }
        }
    }
}
