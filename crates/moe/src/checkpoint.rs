//! Binary model checkpoints.
//!
//! The paper's `Flux.moe.load_model` API loads pretrained parameters into a
//! customized MoE. The reproduction has no external checkpoint format to
//! read, so this module defines a small self-describing binary format
//! (little-endian, length-prefixed) that round-trips a [`MoeModel`] —
//! including models with customized per-layer expert counts and non-identity
//! routing maps — to and from a byte buffer or file. It is written and
//! read through the workspace's one byte codec ([`flux_tensor::codec`]);
//! the encodings of an [`Expert`] and an [`ExpertKey`] are exported as
//! methods because the per-shard snapshot files and the staged aggregator
//! are built from the same units.

use std::fmt;
use std::fs;
use std::path::Path;

use flux_tensor::codec::{BadOption, Reader, Truncated, Writer};

use crate::attention::Attention;
use crate::config::MoeConfig;
use crate::expert::Expert;
use crate::gating::{Gate, RoutingMap};
use crate::layer::{MoeLayer, TransformerLayer};
use crate::model::MoeModel;
use crate::tracker::ExpertKey;

/// Magic bytes identifying a Flux checkpoint.
const MAGIC: &[u8; 8] = b"FLUXMOE1";
/// The least one layer occupies: five matrix headers, `top_k`, the expert
/// count and the routing-table length.
const MIN_LAYER_BYTES: usize = 5 * 8 + 3 * 4;

/// Errors produced while reading or writing checkpoints.
#[derive(Debug)]
pub enum CheckpointError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The buffer ended before the structure was complete, or a length
    /// prefix promised more than the buffer holds.
    Truncated(Truncated),
    /// A field holds a value the format does not define.
    Corrupt(String),
    /// Underlying filesystem error.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a Flux checkpoint (bad magic)"),
            CheckpointError::Truncated(e) => write!(f, "checkpoint truncated: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<Truncated> for CheckpointError {
    fn from(e: Truncated) -> Self {
        CheckpointError::Truncated(e)
    }
}

impl From<BadOption> for CheckpointError {
    fn from(e: BadOption) -> Self {
        match e {
            BadOption::Truncated(e) => CheckpointError::Truncated(e),
            unknown => CheckpointError::Corrupt(unknown.to_string()),
        }
    }
}

/// Serializes a model into a byte buffer.
pub fn to_bytes(model: &MoeModel) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(MAGIC);
    put_config(&mut w, &model.config);
    w.put_matrix(&model.embedding);
    w.put_matrix(&model.lm_head);
    w.put_opt_matrix(model.cls_head.as_ref());
    w.put_count(model.layers.len());
    for layer in &model.layers {
        w.put_matrix(&layer.attention.wq);
        w.put_matrix(&layer.attention.wk);
        w.put_matrix(&layer.attention.wv);
        w.put_matrix(&layer.attention.wo);
        w.put_matrix(&layer.moe.gate.weight);
        w.put_count(layer.moe.gate.top_k);
        w.put_count(layer.moe.experts.len());
        for expert in &layer.moe.experts {
            expert.write_to(&mut w);
        }
        put_counts(&mut w, layer.moe.routing_map.table());
    }
    w.into_vec()
}

/// Deserializes a model from a byte buffer.
///
/// # Errors
///
/// Returns a [`CheckpointError`] if the buffer is not a valid checkpoint.
/// No length field in it can make this allocate more than the buffer holds.
pub fn from_bytes(bytes: &[u8]) -> Result<MoeModel, CheckpointError> {
    let r = &mut Reader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let config = get_config(r)?;
    let embedding = r.matrix()?;
    let lm_head = r.matrix()?;
    let cls_head = r.opt_matrix()?;
    let num_layers = r.count(MIN_LAYER_BYTES)?;
    let mut layers = Vec::new();
    for _ in 0..num_layers {
        let wq = r.matrix()?;
        let wk = r.matrix()?;
        let wv = r.matrix()?;
        let wo = r.matrix()?;
        let gate_weight = r.matrix()?;
        let top_k = r.u32()? as usize;
        let num_experts = r.count(Expert::MIN_ENCODED_BYTES)?;
        let experts = (0..num_experts)
            .map(|_| Expert::read_from(r))
            .collect::<Result<Vec<_>, _>>()?;
        let table = get_counts(r)?;
        let routing_map = if table.is_empty() {
            RoutingMap::identity(num_experts)
        } else {
            RoutingMap::try_from_table(table).map_err(CheckpointError::Corrupt)?
        };
        // A routed token indexes the table by gate output and the expert
        // list by the table's entry.
        if routing_map.num_original() != gate_weight.cols()
            || routing_map.num_compact() != num_experts
        {
            return Err(CheckpointError::Corrupt(format!(
                "routing table maps {} gate outputs onto {} experts, the layer has {} and {num_experts}",
                routing_map.num_original(),
                routing_map.num_compact(),
                gate_weight.cols(),
            )));
        }
        layers.push(TransformerLayer {
            attention: Attention::from_parts(wq, wk, wv, wo),
            moe: MoeLayer {
                gate: Gate {
                    weight: gate_weight,
                    top_k,
                },
                experts,
                routing_map,
            },
        });
    }
    Ok(MoeModel {
        config,
        embedding,
        layers,
        lm_head,
        cls_head,
    })
}

/// Writes a model checkpoint to a file.
///
/// # Errors
///
/// Returns a [`CheckpointError::Io`] when the file cannot be written.
pub fn save(model: &MoeModel, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    fs::write(path, to_bytes(model))?;
    Ok(())
}

/// Reads a model checkpoint from a file.
///
/// # Errors
///
/// Returns a [`CheckpointError`] when the file cannot be read or parsed.
pub fn load(path: impl AsRef<Path>) -> Result<MoeModel, CheckpointError> {
    let data = fs::read(path)?;
    from_bytes(&data)
}

impl Expert {
    /// The least one encoded expert occupies (two matrix headers, two
    /// vector prefixes): what a decoder holds a count of experts against
    /// before allocating for them.
    pub const MIN_ENCODED_BYTES: usize = 24;

    /// Bytes [`Expert::write_to`] appends for this expert: fixed by its
    /// shapes, so an encoder can size its buffer before writing.
    pub fn encoded_len(&self) -> usize {
        Self::MIN_ENCODED_BYTES
            + 4 * (self.w1.as_slice().len()
                + self.b1.len()
                + self.w2.as_slice().len()
                + self.b2.len())
    }

    /// Appends this expert in the checkpoint encoding (two projections
    /// plus biases) — the unit the per-shard snapshot files and the staged
    /// aggregator are built from.
    pub fn write_to(&self, w: &mut Writer) {
        w.put_matrix(&self.w1);
        w.put_f32_slice(&self.b1);
        w.put_matrix(&self.w2);
        w.put_f32_slice(&self.b2);
    }

    /// Reads an expert written by [`Expert::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when the input ends early or a shape promises
    /// more values than it holds.
    pub fn read_from(r: &mut Reader<'_>) -> Result<Self, Truncated> {
        Ok(Expert {
            w1: r.matrix()?,
            b1: r.f32_slice()?,
            w2: r.matrix()?,
            b2: r.f32_slice()?,
        })
    }
}

impl ExpertKey {
    /// Appends this key as two `u32`s (layer, expert).
    pub fn write_to(self, w: &mut Writer) {
        w.put_count(self.layer);
        w.put_count(self.expert);
    }

    /// Reads a key written by [`ExpertKey::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than 8 bytes remain.
    pub fn read_from(r: &mut Reader<'_>) -> Result<Self, Truncated> {
        Ok(ExpertKey::new(r.u32()? as usize, r.u32()? as usize))
    }
}

/// Appends a count-prefixed list of counts (expert counts, routing table).
fn put_counts(w: &mut Writer, counts: &[usize]) {
    w.put_count(counts.len());
    for &c in counts {
        w.put_count(c);
    }
}

fn get_counts(r: &mut Reader<'_>) -> Result<Vec<usize>, Truncated> {
    (0..r.count(4)?).map(|_| Ok(r.u32()? as usize)).collect()
}

fn put_config(w: &mut Writer, cfg: &MoeConfig) {
    w.put_count(cfg.name.len());
    w.put_bytes(cfg.name.as_bytes());
    w.put_count(cfg.vocab_size);
    w.put_count(cfg.d_model);
    w.put_count(cfg.d_ff);
    w.put_count(cfg.num_layers);
    put_counts(w, &cfg.experts_per_layer);
    w.put_count(cfg.top_k);
    w.put_count(cfg.num_heads);
    match cfg.num_classes {
        Some(c) => {
            w.put_u8(1);
            w.put_count(c);
        }
        None => w.put_u8(0),
    }
    w.put_count(cfg.max_seq_len);
    w.put_f32(cfg.reference_size_gb);
}

fn get_config(r: &mut Reader<'_>) -> Result<MoeConfig, CheckpointError> {
    let name = String::from_utf8(r.byte_slice()?.to_vec())
        .map_err(|_| CheckpointError::Corrupt("model name is not UTF-8".into()))?;
    let vocab_size = r.u32()? as usize;
    let d_model = r.u32()? as usize;
    let d_ff = r.u32()? as usize;
    let num_layers = r.u32()? as usize;
    let experts_per_layer = get_counts(r)?;
    let top_k = r.u32()? as usize;
    let num_heads = r.u32()? as usize;
    let num_classes = if r.presence()? {
        Some(r.u32()? as usize)
    } else {
        None
    };
    let max_seq_len = r.u32()? as usize;
    let reference_size_gb = r.f32()?;
    Ok(MoeConfig {
        name,
        vocab_size,
        d_model,
        d_ff,
        num_layers,
        experts_per_layer,
        top_k,
        num_heads,
        num_classes,
        max_seq_len,
        reference_size_gb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_tensor::SeededRng;

    fn model(seed: u64) -> MoeModel {
        let mut rng = SeededRng::new(seed);
        MoeModel::new(MoeConfig::tiny(), &mut rng)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let m = model(1);
        let bytes = to_bytes(&m);
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.config, m.config);
        assert_eq!(restored.embedding, m.embedding);
        assert_eq!(restored.lm_head, m.lm_head);
        assert_eq!(restored.layers.len(), m.layers.len());
        for (a, b) in restored.layers.iter().zip(m.layers.iter()) {
            assert_eq!(a.moe.experts, b.moe.experts);
            assert_eq!(a.moe.gate, b.moe.gate);
            assert_eq!(a.attention, b.attention);
        }
    }

    #[test]
    fn round_trip_with_classification_head_and_custom_experts() {
        let mut rng = SeededRng::new(2);
        let mut m = MoeModel::new(MoeConfig::tiny().with_classes(4), &mut rng);
        // Merge experts 6 and 7 of layer 2 to exercise a non-identity map.
        let merged = Expert::weighted_merge(
            &[&m.layers[2].moe.experts[6], &m.layers[2].moe.experts[7]],
            &[1.0, 1.0],
        );
        let mut experts = m.layers[2].moe.experts[..6].to_vec();
        experts.push(merged);
        m.set_layer_experts(
            2,
            experts,
            RoutingMap::from_table(vec![0, 1, 2, 3, 4, 5, 6, 6]),
        );
        let restored = from_bytes(&to_bytes(&m)).unwrap();
        assert_eq!(restored.cls_head, m.cls_head);
        assert_eq!(restored.layers[2].moe.experts.len(), 7);
        assert_eq!(
            restored.layers[2].moe.routing_map.table(),
            m.layers[2].moe.routing_map.table()
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = from_bytes(b"NOTAMODELxxxxxxxxxxx").unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let m = model(3);
        let bytes = to_bytes(&m);
        let err = from_bytes(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated(_)));
    }

    /// Every length field a hostile file can inflate fails as a typed
    /// error before anything is allocated for it (the routing-table length
    /// used to abort the process with a 34 GB allocation request).
    #[test]
    fn inflated_length_fields_are_refused_without_allocating() {
        let bytes = to_bytes(&model(5));
        let mat = |rows: usize, cols: usize| 8 + 4 * rows * cols;
        // magic, name, four dimensions.
        let epl_len = 8 + (4 + 8) + 16;
        // … experts_per_layer, top_k, num_heads, class flag, max_seq_len,
        // reference size.
        let embedding = epl_len + (4 + 16) + 8 + 1 + 4 + 4;
        // … both heads, class flag, layer count, attention, gate, top_k,
        // expert count, the first expert's w1.
        let b1_len =
            embedding + 2 * mat(64, 16) + 1 + 4 + 4 * mat(16, 16) + mat(16, 8) + 8 + mat(16, 32);
        let table_len = bytes.len() - 4 * 8 - 4;
        for (what, offset, original, patch) in [
            ("epl_len", epl_len, 4u32, vec![u32::MAX]),
            ("rows × cols", embedding, 64, vec![u32::MAX, u32::MAX]),
            ("rows", embedding, 64, vec![0x4000_0000]),
            ("vector length", b1_len, 32, vec![u32::MAX]),
            ("table_len", table_len, 8, vec![u32::MAX]),
        ] {
            let mut hostile = bytes.clone();
            let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            assert_eq!(field(offset), original, "{what}: the offset is the field");
            for (i, word) in patch.iter().enumerate() {
                hostile[offset + 4 * i..offset + 4 * i + 4].copy_from_slice(&word.to_le_bytes());
            }
            match from_bytes(&hostile) {
                Err(CheckpointError::Truncated(e)) => {
                    assert!(e.wanted > e.left && e.left < bytes.len(), "{what}: {e}")
                }
                Err(other) => panic!("{what}: expected Truncated, got {other}"),
                Ok(_) => panic!("{what}: an inflated length must not decode"),
            }
        }
    }

    /// A file whose every length is honest can still hold values the format
    /// does not define. Each is a typed error: the routing table used to
    /// trip `RoutingMap::from_table`'s assertion — a panic in every restore,
    /// which decodes `frozen.bin` with this function — and a presence byte
    /// of `2..=255` used to read as "absent".
    #[test]
    fn undefined_values_are_refused_without_panicking() {
        let bytes = to_bytes(&model(5));
        let corrupt = |hostile: &[u8], what: &str, needle: &str| match from_bytes(hostile) {
            Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains(needle), "{what}: {msg}"),
            Err(other) => panic!("{what}: expected Corrupt, got {other}"),
            Ok(_) => panic!("{what}: must not decode"),
        };
        // The file ends in the last layer's table: a count and 8 entries.
        let table = bytes.len() - 4 * 8;
        let entry = |bytes: &[u8], i: usize| {
            u32::from_le_bytes(bytes[table + 4 * i..table + 4 * i + 4].try_into().unwrap())
        };
        assert_eq!((entry(&bytes, 0), entry(&bytes, 7)), (0, 7));
        for (what, value, needle) in [
            ("a sparse table", 9u32, "compact expert 7"),
            ("a table far above its length", u32::MAX, "compact expert 7"),
            ("a dense table over fewer experts", 0, "onto 7 experts"),
        ] {
            let mut hostile = bytes.clone();
            hostile[table + 4 * 7..].copy_from_slice(&value.to_le_bytes());
            corrupt(&hostile, what, needle);
        }
        let mut shorter = bytes[..bytes.len() - 4].to_vec();
        shorter[table - 4..table].copy_from_slice(&7u32.to_le_bytes());
        corrupt(
            &shorter,
            "a table shorter than the gate",
            "maps 7 gate outputs",
        );

        // magic, name, four dimensions, experts_per_layer, top_k, num_heads:
        // the class flag; two matrices after the config: the head flag.
        let class_flag = 8 + (4 + 8) + 16 + (4 + 16) + 8;
        let head_flag = class_flag + 1 + 4 + 4 + 2 * (8 + 4 * 64 * 16);
        for (what, flag) in [("class flag", class_flag), ("head flag", head_flag)] {
            assert_eq!(bytes[flag], 0, "{what}: the offset is the flag");
            for tag in [2u8, 0x5A, 255] {
                let mut hostile = bytes.clone();
                hostile[flag] = tag;
                corrupt(&hostile, what, &format!("unknown presence tag {tag}"));
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let m = model(4);
        let dir = std::env::temp_dir();
        let path = dir.join("flux_checkpoint_test.bin");
        save(&m, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(restored.embedding, m.embedding);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load("/nonexistent/flux/checkpoint.bin").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn error_display_strings() {
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        let cut = Truncated { wanted: 4, left: 1 };
        assert!(CheckpointError::from(cut).to_string().contains("truncated"));
        assert!(CheckpointError::Corrupt("x".into())
            .to_string()
            .contains("x"));
    }
}
