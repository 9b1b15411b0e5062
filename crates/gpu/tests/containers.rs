//! Differential tests for the fault-generation containers: the bitmap
//! page table, the μTLB slot set and the warp scoreboard each run against
//! the standard hashed or ordered collection they replaced. Every step must
//! give the same answer and serialize to the same `Value`, and decoding
//! hostile arrays must normalize (or reject) rather than mis-order or
//! over-allocate.

use std::collections::{BTreeMap, HashSet};

use proptest::collection::vec;
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use uvm_gpu::isa::WarpProgram;
use uvm_gpu::{AccessKind, GpuPageTable, Scoreboard, SlotSet, Utlb, UtlbInsert, Warp};
use uvm_sim::mem::PageNum;

fn kind(k: u8) -> AccessKind {
    match k {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        _ => AccessKind::Prefetch,
    }
}

/// A page near zero or near `u64::MAX`, so block lookups see both the
/// contiguous fast path and the sparse fallback.
fn page(key: u64, far: bool) -> PageNum {
    PageNum(if far { u64::MAX - key } else { key })
}

/// The `outstanding` field of a serialized μTLB.
fn outstanding_value(u: &Utlb) -> Value {
    match u.to_value() {
        Value::Object(fields) => {
            fields
                .into_iter()
                .find(|(k, _)| k == "outstanding")
                .expect("field")
                .1
        }
        other => panic!("μTLB serialized as {other:?}"),
    }
}

proptest! {
    #[test]
    fn page_table_matches_hash_set(ops in vec((0u8..3, 0u64..3000, any::<bool>()), 1..400)) {
        let mut table = GpuPageTable::new();
        let mut model: HashSet<PageNum> = HashSet::new();
        for (op, key, far) in ops {
            let p = page(key, far);
            match op {
                0 => prop_assert_eq!(table.insert(p), model.insert(p)),
                1 => prop_assert_eq!(table.remove(p), model.remove(&p)),
                _ => prop_assert_eq!(table.contains(p), model.contains(&p)),
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.to_value(), model.to_value());
        }
        let back = GpuPageTable::from_value(&model.to_value()).expect("decodes");
        prop_assert_eq!(back.to_value(), table.to_value());
        let blocks: HashSet<_> = model.iter().map(|p| p.va_block()).collect();
        prop_assert_eq!(back.num_blocks(), blocks.len());
    }

    #[test]
    fn utlb_matches_hash_set(ops in vec((0u8..4, 0u64..300), 1..400), limit in 1u32..80) {
        let mut utlb = Utlb::new(limit);
        let mut model: HashSet<PageNum> = HashSet::new();
        for (op, key) in ops {
            let p = PageNum(key);
            match op {
                0 | 1 => {
                    let want = if model.contains(&p) {
                        UtlbInsert::AlreadyOutstanding
                    } else if model.len() >= limit as usize {
                        UtlbInsert::Full
                    } else {
                        model.insert(p);
                        UtlbInsert::Inserted
                    };
                    prop_assert_eq!(utlb.try_insert(p), want);
                }
                2 => {
                    utlb.replay();
                    model.clear();
                }
                _ => {
                    prop_assert_eq!(utlb.reset(), model.len() as u64);
                    model.clear();
                }
            }
            prop_assert_eq!(utlb.is_outstanding(p), model.contains(&p));
            prop_assert_eq!(utlb.occupancy() as usize, model.len());
            prop_assert_eq!(outstanding_value(&utlb), model.to_value());
        }
    }

    #[test]
    fn slot_set_grows_past_its_capacity(keys in vec(any::<u64>(), 0..300), cap in 0usize..8) {
        let mut set = SlotSet::with_capacity(cap);
        let mut model: HashSet<PageNum> = HashSet::new();
        for k in keys {
            prop_assert_eq!(set.insert(PageNum(k)), model.insert(PageNum(k)));
            prop_assert!(set.contains(PageNum(k)));
            prop_assert_eq!(set.len(), model.len());
        }
        prop_assert_eq!(set.to_value(), model.to_value());
        let back = SlotSet::from_value(&set.to_value()).expect("decodes");
        prop_assert_eq!(back.to_value(), model.to_value());
        set.clear();
        prop_assert!(set.is_empty());
        prop_assert_eq!(set.to_value(), Value::Array(Vec::new()));
    }

    #[test]
    fn scoreboard_matches_btree_map(ops in vec((0u8..4, 0u64..64, 0u8..3), 1..300)) {
        let mut board = Scoreboard::default();
        let mut model: BTreeMap<PageNum, AccessKind> = BTreeMap::new();
        for (op, key, k) in ops {
            let p = PageNum(key);
            match op {
                0 | 1 => {
                    board.insert(p, kind(k));
                    model.insert(p, kind(k));
                }
                2 => prop_assert_eq!(board.get(p), model.get(&p).copied()),
                _ => {
                    board.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(board.len(), model.len());
            prop_assert_eq!(board.to_value(), model.to_value());
        }
        let got: Vec<_> = board.iter().collect();
        let want: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// A replay fulfils the resident accesses and queues the rest for
    /// re-issue in ascending page order (popped last-first).
    #[test]
    fn warp_replay_matches_btree_map(
        rounds in vec((vec((0u64..128, 0u8..2), 0..60), 1u64..5), 1..6),
    ) {
        let mut warp = Warp::new(0, 0, 0, WarpProgram::new());
        for (accesses, modulus) in rounds {
            let mut model: BTreeMap<PageNum, AccessKind> = BTreeMap::new();
            for (key, k) in accesses {
                warp.note_outstanding(PageNum(key), kind(k));
                model.insert(PageNum(key), kind(k));
            }
            let resident = |p: PageNum| p.0 % modulus == 0;
            let fulfilled = warp.apply_replay(resident);
            prop_assert_eq!(fulfilled, model.keys().filter(|&&p| resident(p)).count());
            prop_assert!(!warp.has_outstanding());
            let mut want: Vec<_> = model.into_iter().filter(|&(p, _)| !resident(p)).collect();
            want.reverse();
            let got: Vec<_> = std::iter::from_fn(|| warp.next_pending_access()).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Unsorted or repeated pages decode to what an ordered map makes of
    /// them: sorted, one entry per page, the last kind winning.
    #[test]
    fn hostile_scoreboard_decodes_like_btree_map(pairs in vec((0u64..32, 0u8..3), 0..40)) {
        let v = Value::Array(pairs.iter().map(|&(p, k)| (PageNum(p), kind(k)).to_value()).collect());
        let board = Scoreboard::from_value(&v).expect("decodes");
        let model = BTreeMap::<PageNum, AccessKind>::from_value(&v).expect("decodes");
        prop_assert_eq!(board.to_value(), model.to_value());
        let pages: Vec<PageNum> = board.iter().map(|(p, _)| p).collect();
        prop_assert!(pages.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn hostile_page_table_decode_allocates_per_named_block() {
    let v = vec![PageNum(u64::MAX)].to_value();
    let table = GpuPageTable::from_value(&v).expect("decodes");
    assert_eq!(table.num_blocks(), 1);
    assert!(table.contains(PageNum(u64::MAX)));
    assert_eq!(table.to_value(), v);

    let spread: Vec<PageNum> = (0..64).map(|i| PageNum(u64::MAX / 64 * i)).collect();
    let table = GpuPageTable::from_value(&spread.to_value()).expect("decodes");
    assert_eq!(table.num_blocks(), 64);
    assert_eq!(table.len(), 64);
}

#[test]
fn malformed_container_values_are_typed_errors() {
    let not_pairs = Value::Array(vec![Value::Array(vec![Value::NumU(1)])]);
    assert!(Scoreboard::from_value(&not_pairs).is_err());
    assert!(Scoreboard::from_value(&Value::NumU(3)).is_err());
    assert!(GpuPageTable::from_value(&Value::Str("x".into())).is_err());
    assert!(GpuPageTable::from_value(&Value::Array(vec![Value::NumI(-1)])).is_err());
    assert!(SlotSet::from_value(&Value::Object(Vec::new())).is_err());
}
