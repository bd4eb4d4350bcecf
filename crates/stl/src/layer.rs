//! The translation-layer trait and the conventional (update-in-place)
//! baseline.

use smrseek_disk::PhysIo;
use smrseek_trace::{Pba, TraceRecord};

/// A block translation layer: maps logical trace operations to the physical
/// operations performed by the medium.
///
/// Implementations are stateful (extent maps, caches, write frontiers) and
/// deterministic: the same record sequence always yields the same physical
/// operation sequence.
pub trait TranslationLayer {
    /// Applies one logical operation and returns the physical operations it
    /// caused, in the order the medium performs them.
    fn apply(&mut self, rec: &TraceRecord) -> Vec<PhysIo>;

    /// A short human-readable name for reports ("NoLS", "LS", ...).
    fn name(&self) -> &str;
}

/// Conventional update-in-place translation: every logical operation maps
/// to one physical operation at the identity location (PBA = LBA).
///
/// This is the paper's *NoLS* baseline — the seek counts of a trace under
/// `NoLs` are the denominator of the seek amplification factor.
///
/// # Example
///
/// ```
/// use smrseek_stl::{NoLs, TranslationLayer};
/// use smrseek_trace::{Lba, Pba, TraceRecord};
///
/// let mut layer = NoLs::new();
/// let phys = layer.apply(&TraceRecord::read(0, Lba::new(42), 8));
/// assert_eq!(phys.len(), 1);
/// assert_eq!(phys[0].pba, Pba::new(42));
/// assert_eq!(phys[0].sectors, 8);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoLs {
    _priv: (),
}

impl NoLs {
    /// Creates the baseline layer.
    pub fn new() -> Self {
        NoLs::default()
    }

    /// Sink form of [`TranslationLayer::apply`]: emits the one identity
    /// operation without materializing a `Vec`.
    pub fn apply_into(&mut self, rec: &TraceRecord, sink: &mut dyn FnMut(PhysIo)) {
        sink(PhysIo::new(
            rec.op,
            Pba::new(rec.lba.sector()),
            u64::from(rec.sectors),
        ));
    }
}

impl TranslationLayer for NoLs {
    fn apply(&mut self, rec: &TraceRecord) -> Vec<PhysIo> {
        let mut out = Vec::with_capacity(1);
        self.apply_into(rec, &mut |io| out.push(io));
        out
    }

    fn name(&self) -> &str {
        "NoLS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_trace::{Lba, OpKind};

    #[test]
    fn identity_translation() {
        let mut layer = NoLs::new();
        let w = layer.apply(&TraceRecord::write(0, Lba::new(100), 16));
        assert_eq!(w, vec![PhysIo::write(Pba::new(100), 16)]);
        let r = layer.apply(&TraceRecord::read(1, Lba::new(100), 16));
        assert_eq!(r, vec![PhysIo::read(Pba::new(100), 16)]);
        assert_eq!(layer.name(), "NoLS");
    }

    #[test]
    fn preserves_op_kind() {
        let mut layer = NoLs::new();
        for op in [OpKind::Read, OpKind::Write] {
            let rec = TraceRecord::new(0, op, Lba::new(5), 1);
            assert_eq!(layer.apply(&rec)[0].op, op);
        }
    }

    #[test]
    fn usable_as_trait_object() {
        let mut layers: Vec<Box<dyn TranslationLayer>> = vec![Box::new(NoLs::new())];
        let phys = layers[0].apply(&TraceRecord::read(0, Lba::new(1), 1));
        assert_eq!(phys.len(), 1);
    }
}
