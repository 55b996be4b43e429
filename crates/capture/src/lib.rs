//! # iotls-capture
//!
//! Longitudinal passive capture for the IoTLS reproduction.
//!
//! Replays the paper's 27-month study window (January 2018 – March
//! 2020) against the simulated testbed: every device × month ×
//! destination combination is exercised with one real byte-level
//! handshake through the passive gateway tap, weighted by the
//! destination's monthly connection rate. The result is the ≈17M
//! connection dataset that drives Figures 1–3 and Table 8, with JSON
//! (de)serialization for the public-dataset deliverable.
//!
//! In memory the dataset has one form, the chunked, interned
//! [`ColumnarDataset`]; [`ObsRef::observation`] decodes one of its
//! rows back into an owned [`iotls_simnet::TlsObservation`].
//!
//! The dataset persists in one layout: a segmented store directory
//! ([`SegmentedWriter`] builds or extends it, [`SegmentedStore`]
//! reads it back frame by frame), whose segment files use the codec
//! in [`store`].

pub mod columnar;
pub mod dataset;
pub mod generate;
pub mod intern;
pub mod json;
pub mod serialize;
pub mod segstore;
pub mod store;
pub mod timeline;

pub use columnar::{
    flag, ChunkWriter, ColumnarDataset, ColumnarStats, Columns, DatasetBuilder, ObsChunk, ObsRef,
    RawRow, RevRow, RowView, CHUNK_ROWS,
};
pub use segstore::{SegmentedStore, SegmentedWriter};
pub use store::StoreError;
pub use dataset::{DatasetStats, RevocationFlow, RevocationKind};
pub use generate::{generate_columnar, CaptureCtx};
pub use intern::{DigestInterner, Interner, Symbol};
pub use timeline::{build_timeline, StudyEvent};
pub use serialize::{from_json, to_json_columnar};

use iotls_devices::Testbed;
use std::sync::OnceLock;

/// The canonical dataset seed used by every example, test, and
/// benchmark workload.
pub const DEFAULT_SEED: u64 = 0x10AD;

/// The process-wide shared dataset (default seed, global testbed),
/// generated once per process.
pub fn global_columnar() -> &'static ColumnarDataset {
    static DS: OnceLock<ColumnarDataset> = OnceLock::new();
    DS.get_or_init(|| generate_columnar(Testbed::global(), DEFAULT_SEED))
}
