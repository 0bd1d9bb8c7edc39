//! Per-packet bookkeeping, interned in a slab keyed by [`PacketId`].

use crate::ids::PacketId;

/// Bookkeeping the fabric keeps for each in-flight packet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PacketMeta {
    /// Router-to-router link crossings taken so far.
    pub(crate) links_crossed: u32,
}

#[derive(Clone, Debug)]
struct Slot {
    gen: u32,
    live: bool,
    meta: PacketMeta,
}

/// Free-list slab of in-flight packet metadata, keyed by [`PacketId`].
///
/// The slot index is encoded in the low 32 bits of the id and the slot's
/// generation in the high 32, so the id itself is the key: lookup is an O(1)
/// decode plus a generation check (a stale id of a retired packet simply
/// misses), no hashing, and slots recycle as packets retire. Ids stay unique
/// for the lifetime of a fabric, and allocation order is driven by the
/// deterministic event order, so a given (configuration, seed) still yields
/// identical ids.
#[derive(Clone, Debug, Default)]
pub(crate) struct PacketSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// Interns metadata for a newly injected packet, returning its id.
    pub(crate) fn alloc(&mut self) -> PacketId {
        let meta = PacketMeta::default();
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.live = true;
                sl.meta = meta;
                s
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    live: true,
                    meta,
                });
                (self.slots.len() - 1) as u32
            }
        };
        PacketId(u64::from(slot) | (u64::from(self.slots[slot as usize].gen) << 32))
    }

    #[inline]
    fn decode(&self, id: PacketId) -> Option<usize> {
        let slot = (id.0 & 0xFFFF_FFFF) as usize;
        let gen = (id.0 >> 32) as u32;
        let s = self.slots.get(slot)?;
        (s.live && s.gen == gen).then_some(slot)
    }

    /// Mutable metadata for a live packet; `None` once the packet retired.
    pub(crate) fn get_mut(&mut self, id: PacketId) -> Option<&mut PacketMeta> {
        self.decode(id).map(|s| &mut self.slots[s].meta)
    }

    /// Retires a packet, returning its final metadata and recycling the
    /// slot. Stale or unknown ids return `None`.
    pub(crate) fn release(&mut self, id: PacketId) -> Option<PacketMeta> {
        let slot = self.decode(id)?;
        let s = &mut self.slots[slot];
        s.live = false;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot as u32);
        Some(s.meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_lookup_release_roundtrip() {
        let mut slab = PacketSlab::default();
        let a = slab.alloc();
        let b = slab.alloc();
        assert_ne!(a, b);
        slab.get_mut(a).unwrap().links_crossed = 3;
        assert_eq!(slab.get_mut(a).unwrap().links_crossed, 3);
        let meta = slab.release(a).unwrap();
        assert_eq!(meta.links_crossed, 3);
        // The released id is stale: lookups miss, double-release is a no-op.
        assert!(slab.get_mut(a).is_none());
        assert!(slab.release(a).is_none());
        assert!(slab.get_mut(b).is_some());
    }

    #[test]
    fn slots_recycle_with_fresh_generations() {
        let mut slab = PacketSlab::default();
        let a = slab.alloc();
        slab.get_mut(a).unwrap().links_crossed = 7;
        slab.release(a);
        let b = slab.alloc();
        // Same slot, different generation → different id, fresh metadata.
        assert_eq!(a.0 & 0xFFFF_FFFF, b.0 & 0xFFFF_FFFF);
        assert_ne!(a, b);
        assert!(slab.get_mut(a).is_none());
        assert_eq!(slab.get_mut(b).unwrap().links_crossed, 0);
    }

    #[test]
    fn ids_are_unique_across_heavy_churn() {
        let mut slab = PacketSlab::default();
        let mut seen = std::collections::HashSet::new();
        let mut live = Vec::new();
        for round in 0..1_000u64 {
            let id = slab.alloc();
            assert!(seen.insert(id), "id reused: {id:?}");
            live.push(id);
            if round % 3 == 0 {
                let id = live.remove(0);
                slab.release(id);
            }
        }
        assert!(live.iter().all(|&id| slab.get_mut(id).is_some()));
    }
}
